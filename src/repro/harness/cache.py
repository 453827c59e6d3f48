"""Content-addressed trace/plan cache for the experiment harness.

Every run primitive in this reproduction is a deterministic function of
its inputs: the simulator is virtual-time with seeded RNGs, so a
preparation run, a baseline run or a whole detection session is fully
determined by (workload identity, configuration, seed). That makes
memoization sound: a cache hit returns *bit-identical* results to
re-execution, which is the correctness anchor the equivalence tests
guard.

Entries are keyed by a SHA-256 digest over a canonical JSON encoding of
(kind, test id, config hash, seed, extras, persistence format version)
and stored as :mod:`repro.harness.store` records named
``<kind>-<digest>``. Any change to a config field -- delay lengths,
windows, design-point flags -- changes the config hash and therefore
invalidates the entry; bumping ``persistence.FORMAT_VERSION``
invalidates everything. The store format's checksum is verified on
every file read: a corrupt or truncated entry (torn write, bit rot,
chaos injection) is quarantined (``*.corrupt`` rename) and treated as
a miss, never a crash -- every cached unit is deterministic, so
recomputation is always sound. Puts fsync before publication while the
active supervisor's store is durable (``campaign run``); see
:func:`_durable`.

Cached kinds:

* ``baseline``  -- one uninstrumented run (:class:`SingleRun` fields);
* ``prep``      -- a preparation run: run stats, the analyzed
  :class:`~repro.core.analyzer.InjectionPlan`, and the trace censuses
  Table 2 / section 3.3 need (site counts, init-instance counts), so
  the trace is recorded once and the plan reused across tables;
* ``online_pair`` -- the two-run WaffleBasic/Tsvd unit shared by
  Tables 5/6 and the overlap census;
* ``detect``    -- one full detection attempt of one tool on one
  workload (matched? runs-to-expose, total time);
* ``perf``      -- one single-detection-run probe (Table 7's ablation
  slowdowns).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..obs import eventbus
from ..core.analyzer import InjectionPlan
from ..core.config import WaffleConfig
from ..core.persistence import FORMAT_VERSION
from . import faults, parallel
from .store import quarantine, read_record, record_path, write_record

#: Environment variable consulted for a default cache directory.
CACHE_DIR_ENV = "WAFFLE_CACHE_DIR"


def config_hash(config: WaffleConfig, include_seed: bool = False) -> str:
    """Stable digest of every config field (optionally minus the seed).

    The seed is usually part of the cache key explicitly (run seeds are
    varied independently of the config), so by default it is excluded
    here; pass ``include_seed=True`` when the config's own seed drives
    the computation (whole detection sessions).
    """
    payload = dataclasses.asdict(config)
    if not include_seed:
        payload.pop("seed", None)
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters, exposed for tests and the CLI."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries that failed integrity validation and were quarantined
    #: (renamed to ``*.corrupt``); each also counts as a miss.
    corrupt: int = 0

    def since(self, before: "CacheStats") -> "CacheStats":
        """What was counted after ``before``, an earlier copy of these stats."""
        return CacheStats(*(now - then for now, then in
                            zip(dataclasses.astuple(self), dataclasses.astuple(before))))

    def add(self, delta: "CacheStats") -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(delta, field.name))


#: Process-wide totals across every cache instance, so the CLI can print
#: one end-of-run summary line without threading cache objects through
#: each experiment. A forked worker sends each cell's delta home with
#: its result, and the coordinator adds it here (see
#: :func:`repro.harness.supervisor._worker`).
GLOBAL_STATS = CacheStats()


def _durable() -> bool:
    """Whether puts fsync: while the active supervisor's store is
    durable (``campaign run``'s is), so the cache next to that store
    survives a host crash as whole records. Forked workers run with the
    slot empty, so only the campaign process's own puts fsync."""
    store = getattr(parallel.current(), "store", None)
    return store is not None and store.fsync


class PlanCache:
    """File-backed memo table for deterministic harness work units.

    Every lookup reads its record file. Each cell opens its own cache
    (:func:`open_cache`), so an in-process memo in front of the files
    would never be consulted twice.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._bus = eventbus.bus()

    def _name(self, kind: str, key: Dict[str, Any]) -> str:
        blob = json.dumps({"kind": kind, "format": FORMAT_VERSION, **key}, sort_keys=True)
        return "%s-%s" % (kind, hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32])

    def _path(self, name: str) -> Path:
        return record_path(self.directory, name)

    def _emit(self, action: str) -> None:
        """One ``cache`` event (``hit``, ``miss``, ``write`` or
        ``corrupt``): the record ``obs report`` counts the cache from."""
        if self._bus is not None:
            self._bus.emit("cache", action=action)
            self._bus.maybe_flush()

    def _hit(self) -> None:
        self.stats.hits += 1
        GLOBAL_STATS.hits += 1
        self._emit("hit")

    def _miss(self) -> None:
        self.stats.misses += 1
        GLOBAL_STATS.misses += 1
        self._emit("miss")

    def get(self, kind: str, key: Dict[str, Any]) -> Optional[dict]:
        name = self._name(kind, key)
        path = self._path(name)
        if path.exists():
            try:
                payload = read_record(path, name).result
            except faults.CorruptRecordFault:
                quarantine(path)
                self.stats.corrupt += 1
                GLOBAL_STATS.corrupt += 1
                self._emit("corrupt")
                self._miss()
                return None
            self._hit()
            return payload
        self._miss()
        return None

    def put(self, kind: str, key: Dict[str, Any], payload: dict) -> None:
        name = self._name(kind, key)
        write_record(self._path(name), name, "ok", payload, fsync=_durable())
        self.stats.writes += 1
        GLOBAL_STATS.writes += 1
        self._emit("write")


def open_cache(cache_dir: Optional[os.PathLike]) -> Optional[PlanCache]:
    """A :class:`PlanCache` for ``cache_dir``, the ``WAFFLE_CACHE_DIR``
    environment default, or None when caching is disabled."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    if cache_dir is None:
        return None
    return PlanCache(cache_dir)


# ----------------------------------------------------------------------
# Typed views over the generic records
# ----------------------------------------------------------------------


@dataclasses.dataclass
class PrepResult:
    """Everything a preparation run yields, across all consuming tables.

    ``run`` carries the prep run's measurements (Table 5's R#1 column),
    ``plan`` the analyzed injection plan, and the remaining fields the
    trace censuses: unique static sites per instrumentation class and
    the TSV injection-site count (Table 2), plus init-site dynamic
    instance counts (section 3.3).
    """

    run: "SingleRunLike"
    plan: InjectionPlan
    mo_sites: int
    tsv_sites: int
    tsv_injection_sites: int
    init_instance_counts: List[int]
    event_count: int


# The harness's SingleRun is a plain dataclass of primitives; importing
# it here would be circular (runner imports this module), so the cache
# ships dicts and lets the runner reconstruct.
SingleRunLike = Any


def run_to_dict(run: Any) -> dict:
    return dataclasses.asdict(run)


def prep_to_record(prep: PrepResult) -> dict:
    return {
        "run": run_to_dict(prep.run),
        "plan": prep.plan.to_dict(),
        "mo_sites": prep.mo_sites,
        "tsv_sites": prep.tsv_sites,
        "tsv_injection_sites": prep.tsv_injection_sites,
        "init_instance_counts": list(prep.init_instance_counts),
        "event_count": prep.event_count,
    }


def prep_from_record(record: dict, run_factory) -> PrepResult:
    return PrepResult(
        run=run_factory(**record["run"]),
        plan=InjectionPlan.from_dict(record["plan"]),
        mo_sites=record["mo_sites"],
        tsv_sites=record["tsv_sites"],
        tsv_injection_sites=record["tsv_injection_sites"],
        init_instance_counts=list(record["init_instance_counts"]),
        event_count=record["event_count"],
    )
