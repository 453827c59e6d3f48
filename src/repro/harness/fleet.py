"""Filesystem-coordinated campaign fleet: lease-based work stealing.

The supervisor (:mod:`repro.harness.supervisor`) made one host's
campaign survive crashed, hung and poisoned cells; this module lifts
that fault boundary to a *fleet*: N independent worker processes --
spawnable on different hosts -- executing one campaign against a shared
directory, with no coordinator in the data path. Coordination is three
on-disk structures, all under the fleet directory:

* ``campaign.json`` -- the manifest: the inner CLI command every
  executor runs (the campaign is a deterministic function of that
  command, so every executor derives the *same* content-addressed cell
  list independently -- there is no work queue to ship, only leases to
  claim);
* ``leases/`` -- one lease file per in-flight cell. Acquisition is
  atomic and exclusive (hardlink-into-place), carries the owner, the
  attempt number and a heartbeat deadline; owners re-arm the deadline
  from a heartbeat thread. A worker killed mid-cell (SIGKILL, chaos
  ``worker_crash``) simply stops heartbeating: any other worker
  *steals* the expired lease -- rename-to-tombstone, so exactly one
  stealer wins -- and re-executes the cell at ``attempt + 1`` under the
  same :class:`~repro.harness.supervisor.RetryPolicy` semantics;
* ``store/`` -- the shared artifact store
  (:mod:`repro.harness.store`): finalized cells are published
  atomically and fetched read-through with checksum verification, so
  no cell executes twice on the happy path and a corrupt record is a
  quarantined miss, never a poisoned result.

Because every cell is a pure function of its key, the coordinator's
merged tables, canonical journal and event analytics are **byte
identical** to a serial run's -- including under chaos that kills
workers mid-lease. That identity is the acceptance test's anchor.

Lease ledger (reconciled exactly by ``scripts/check_obs.py``): every
lease creation is a ``lease_acquire`` or a ``lease_steal``; every
termination is a ``lease_release`` (owner finalized, or the
coordinator reclaimed a lease whose result was already published) or a
``lease_expire`` (tombstoned by a stealer). Creations and terminations
balance::

    lease_acquire + lease_steal == lease_release + lease_expire

All lease and worker lifecycle events are hard-flushed at emission, so
even a SIGKILL'd worker leaves a balanced ledger (modulo at most one
torn tail line, which the reconciliation already tolerates).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import eventbus
from . import faults
from .store import ArtifactStore
from .supervisor import RetryPolicy, cell_key

#: Fleet directory layout.
MANIFEST_NAME = "campaign.json"
LEASES_DIR = "leases"
EXPIRED_DIR = "expired"
STORE_DIR = "store"
WORKERS_DIR = "workers"
CACHE_DIR = "cache"
MERGED_JOURNAL_NAME = "journal-merged.jsonl"
#: Deliberately NOT matching ``events-*.jsonl``: the merged stream must
#: not be re-merged (double-counted) by ``campaign status <fleet-dir>``.
MERGED_EVENTS_NAME = "merged-events.jsonl"

#: Exit code of a worker that drained on request (SIGTERM / shutdown).
DRAIN_EXIT = 3


class FleetDrained(Exception):
    """Raised out of :meth:`FleetWorker.map_cells` when the worker was
    asked to shut down: leases are released, nothing is finalized."""


@dataclasses.dataclass
class FleetStats:
    """One executor's contribution to the campaign."""

    executed: int = 0
    fetched: int = 0
    stolen: int = 0
    retried: int = 0
    quarantined: int = 0
    failed: int = 0
    reclaimed: int = 0
    fault_counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Wall time inside cell functions vs inside coordination (leases,
    #: store traffic, journal appends). The bench's overhead gate is
    #: coordination_s / cell_s.
    cell_s: float = 0.0
    coordination_s: float = 0.0

    def count_fault(self, kind: str) -> None:
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    def summary_line(self) -> str:
        parts = ["%d executed" % self.executed, "%d fetched" % self.fetched]
        if self.stolen:
            parts.append("%d stolen" % self.stolen)
        if self.retried:
            parts.append("%d retried" % self.retried)
        if self.quarantined:
            parts.append("%d quarantined" % self.quarantined)
        if self.failed:
            parts.append("%d failed" % self.failed)
        return "fleet: %s (coordination %.3fs / cell %.3fs)" % (
            ", ".join(parts), self.coordination_s, self.cell_s,
        )


def _fleet_paths(fleet_dir: os.PathLike) -> Dict[str, Path]:
    root = Path(fleet_dir)
    return {
        "root": root,
        "manifest": root / MANIFEST_NAME,
        "leases": root / LEASES_DIR,
        "expired": root / EXPIRED_DIR,
        "store": root / STORE_DIR,
        "workers": root / WORKERS_DIR,
        "cache": root / CACHE_DIR,
    }


def _atomic_write_json(payload: dict, target: Path) -> None:
    tmp = target.with_name(target.name + ".tmp.%d" % os.getpid())
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, target)


class _Heartbeat(threading.Thread):
    """Re-arms one held lease's deadline until stopped.

    Beats every ``ttl / 3`` so two consecutive beats can be lost to
    scheduling jitter before the lease expires. Stops itself when the
    renewal discovers the lease is no longer ours (stolen: the owner
    was presumed dead) -- a zombie owner must not resurrect a lease a
    stealer legitimately took.
    """

    def __init__(self, worker: "FleetWorker", key: str):
        super().__init__(daemon=True, name="lease-heartbeat-%s" % key[:8])
        self.worker = worker
        self.key = key
        self.interval_s = worker.lease_ttl_s / 3.0
        # Not ``_stop``: that name is a method threading.Thread itself
        # calls from join().
        self._halt = threading.Event()
        self.beats = 0

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            if not self.worker._renew_lease(self.key):
                return
            self.beats += 1
            eventbus.emit("heartbeat", cell=self.key[:16],
                          worker=self.worker.worker_id, beat=self.beats)
            eventbus.flush()

    def stop(self) -> None:
        self._halt.set()


class FleetWorker:
    """One campaign executor (worker or coordinator).

    Activated process-globally (:func:`activate`);
    :func:`repro.harness.parallel.map_units` routes every experiment
    fan-out through :meth:`map_cells` while one is active. The
    coordinator is itself an executor -- it runs the same claim loop,
    plus the fanout bookkeeping and the end-of-campaign merge.
    """

    def __init__(
        self,
        fleet_dir: os.PathLike,
        worker_id: Optional[str] = None,
        role: str = "worker",
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.2,
        drain_timeout_s: float = 600.0,
        policy: Optional[RetryPolicy] = None,
    ):
        self.paths = _fleet_paths(fleet_dir)
        for name in (LEASES_DIR, EXPIRED_DIR, STORE_DIR, WORKERS_DIR):
            (self.paths["root"] / name).mkdir(parents=True, exist_ok=True)
        self.role = role
        self.worker_id = worker_id or "%s%d-%d" % (
            "c" if role == "coordinator" else "w",
            os.getpid(),
            int(time.time() * 1000) % 1_000_000_000,
        )
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.drain_timeout_s = drain_timeout_s
        self.policy = policy or RetryPolicy()
        self.store = ArtifactStore(self.paths["store"], fsync=True)
        self.stats = FleetStats()
        self.shutdown = threading.Event()
        self.started = time.time()
        #: keys this process currently leases -> authoritative attempt.
        self._held: Dict[str, int] = {}
        self._lease_lock = threading.Lock()
        self._steal_seq = 0
        self.journal_path = self.paths["root"] / ("journal-%s.jsonl" % self.worker_id)

    @property
    def is_coordinator(self) -> bool:
        return self.role == "coordinator"

    # -- Worker lifecycle ----------------------------------------------

    def register(self) -> None:
        """Announce this executor (registration file + lifecycle event).

        The registration file is what ``--min-workers`` and the bench
        wait on; the event is what ``campaign status`` renders.
        """
        _atomic_write_json(
            {"worker": self.worker_id, "role": self.role, "pid": os.getpid(),
             "state": "running", "started_unix": round(self.started, 3)},
            self.paths["workers"] / ("%s.json" % self.worker_id),
        )
        eventbus.emit("worker_begin", worker=self.worker_id, role=self.role,
                      pid=os.getpid())
        eventbus.flush()

    def finish(self) -> None:
        """Final stats file + ``worker_end``, hard-flushed."""
        stats = self.stats
        _atomic_write_json(
            {"worker": self.worker_id, "role": self.role, "pid": os.getpid(),
             "state": "done", "started_unix": round(self.started, 3),
             "wall_s": round(time.time() - self.started, 3),
             "executed": stats.executed, "fetched": stats.fetched,
             "stolen": stats.stolen, "retried": stats.retried,
             "quarantined": stats.quarantined, "failed": stats.failed,
             "cell_s": round(stats.cell_s, 4),
             "coordination_s": round(stats.coordination_s, 4)},
            self.paths["workers"] / ("%s.json" % self.worker_id),
        )
        eventbus.emit(
            "worker_end", worker=self.worker_id, role=self.role,
            executed=stats.executed, fetched=stats.fetched, stolen=stats.stolen,
            wall_s=round(time.time() - self.started, 3),
        )
        eventbus.flush()

    def request_shutdown(self) -> None:
        self.shutdown.set()

    # -- Lease protocol ------------------------------------------------

    def _lease_path(self, key: str) -> Path:
        return self.paths["leases"] / ("lease-%s.json" % key)

    def _read_lease(self, key: str) -> Optional[dict]:
        """The current lease record, None when absent. An existing but
        unreadable/unparsable lease (should be impossible -- leases are
        only ever linked or replaced whole) degrades to an expired
        anonymous lease so it can be stolen rather than wedging the
        fleet."""
        path = self._lease_path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return json.loads(text)
        except ValueError:
            return {"key": key, "worker": "?", "attempt": 0, "deadline_unix": 0.0}

    def _lease_payload(self, key: str, attempt: int) -> dict:
        return {
            "key": key,
            "worker": self.worker_id,
            "attempt": attempt,
            "deadline_unix": round(time.time() + self.lease_ttl_s, 3),
        }

    def _try_acquire(self, key: str, attempt: int,
                     stolen_from: Optional[dict] = None) -> bool:
        """Claim ``key`` exclusively: write the lease to a temp file and
        hardlink it into place, so the winning claim is both atomic
        (full content appears at once -- no torn lease) and exclusive
        (``link`` fails with EEXIST for every loser). Falls back to
        ``O_CREAT | O_EXCL`` on filesystems without hardlinks.
        """
        started = time.perf_counter()
        path = self._lease_path(key)
        try:
            if path.exists():
                return False
            body = json.dumps(self._lease_payload(key, attempt), sort_keys=True)
            tmp = path.with_name(path.name + ".claim-%s" % self.worker_id)
            tmp.write_text(body)
            try:
                try:
                    os.link(tmp, path)
                except FileExistsError:
                    return False
                except OSError:
                    try:
                        fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    except FileExistsError:
                        return False
                    with os.fdopen(fd, "w") as fp:
                        fp.write(body)
            finally:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            with self._lease_lock:
                self._held[key] = attempt
            if stolen_from is not None:
                self.stats.stolen += 1
                eventbus.emit("lease_steal", cell=key[:16], worker=self.worker_id,
                              attempt=attempt,
                              victim=str(stolen_from.get("worker", "?")))
            else:
                eventbus.emit("lease_acquire", cell=key[:16], worker=self.worker_id,
                              attempt=attempt)
            eventbus.flush()
            return True
        finally:
            self.stats.coordination_s += time.perf_counter() - started

    def _renew_lease(self, key: str, attempt: Optional[int] = None) -> bool:
        """Re-arm the deadline (and optionally bump the attempt) of a
        lease we own. Returns False -- and forgets the lease -- when it
        is no longer ours (stolen while this process was presumed
        dead): a zombie must not clobber the stealer's lease."""
        with self._lease_lock:
            if key not in self._held:
                return False
            if attempt is not None:
                self._held[key] = attempt
            current = self._read_lease(key)
            if current is None or current.get("worker") != self.worker_id:
                self._held.pop(key, None)
                return False
            path = self._lease_path(key)
            tmp = path.with_name(path.name + ".beat-%s" % self.worker_id)
            tmp.write_text(
                json.dumps(self._lease_payload(key, self._held[key]), sort_keys=True)
            )
            os.replace(tmp, path)
            return True

    def _release_lease(self, key: str) -> bool:
        """Terminate our lease (owner-verified unlink + event). The
        unlink is the serialization point: whoever unlinks (owner or
        the coordinator's reclaim sweep) emits the one release."""
        started = time.perf_counter()
        try:
            with self._lease_lock:
                self._held.pop(key, None)
                current = self._read_lease(key)
                if current is None or current.get("worker") != self.worker_id:
                    return False  # stolen from under us; the steal accounted for it
                try:
                    self._lease_path(key).unlink()
                except OSError:
                    return False
            eventbus.emit("lease_release", cell=key[:16], worker=self.worker_id)
            eventbus.flush()
            return True
        finally:
            self.stats.coordination_s += time.perf_counter() - started

    def _try_steal(self, key: str, lease: dict) -> Optional[int]:
        """Reclaim an expired lease. The rename-to-tombstone is the
        mutex: exactly one stealer's ``os.replace`` finds the source,
        so exactly one ``lease_expire`` terminates the victim's lease.
        Returns the new attempt number once our replacement lease is in
        place, or None when another executor won either race.

        The rename alone is not enough: between this stealer's read of
        the stale lease and its rename, another stealer may have
        tombstoned it AND installed a fresh lease of its own -- which
        the rename would then happily tombstone, stealing a *live*
        lease and double-executing the cell. So after the rename we
        verify the tombstoned bytes are the stale lease we observed;
        anything else is live and is atomically put back."""
        started = time.perf_counter()
        try:
            path = self._lease_path(key)
            self._steal_seq += 1
            tombstone = self.paths["expired"] / (
                "%s.%s.a%d.s%d" % (path.name, self.worker_id,
                                   int(lease.get("attempt", 0)), self._steal_seq)
            )
            try:
                os.replace(path, tombstone)
            except OSError:
                return None  # someone else stole or released it first
            try:
                tombstoned = json.loads(tombstone.read_text())
            except (OSError, ValueError):
                tombstoned = None  # unreadable lease: stealable by design
            if tombstoned is not None and tombstoned != lease:
                try:
                    os.replace(tombstone, path)
                except OSError:
                    pass
                return None
            eventbus.emit("lease_expire", cell=key[:16],
                          worker=str(lease.get("worker", "?")),
                          attempt=int(lease.get("attempt", 0)))
            eventbus.flush()
        finally:
            self.stats.coordination_s += time.perf_counter() - started
        attempt = int(lease.get("attempt", 0)) + 1
        if self._try_acquire(key, attempt, stolen_from=lease):
            return attempt
        return None  # a fresh acquirer slipped in; its acquire balances the ledger

    def sweep_stale_leases(self) -> int:
        """Coordinator end-of-campaign sweep: release leases whose cell
        already has a published result (the owner died in the window
        between publish and release). Keeps the lease ledger balanced
        -- every acquire gets its release -- without guessing about
        leases whose work is genuinely unfinished."""
        reclaimed = 0
        for path in sorted(self.paths["leases"].glob("lease-*.json")):
            key = path.name[len("lease-"):-len(".json")]
            lease = self._read_lease(key)
            if lease is None or not self.store.path(key).exists():
                continue
            try:
                path.unlink()
            except OSError:
                continue
            reclaimed += 1
            self.stats.reclaimed += 1
            eventbus.emit("lease_release", cell=key[:16],
                          worker=str(lease.get("worker", "?")), reclaimed=True)
        if reclaimed:
            eventbus.flush()
        return reclaimed

    # -- Cell execution ------------------------------------------------

    def _account_fault(self, exc: BaseException, key: str, attempt: int) -> dict:
        record = faults.describe(exc)
        self.stats.count_fault(record["kind"])
        session = obs.session()
        if session is not None:
            counter = session.c_faults.get(record["kind"])
            if counter is not None:
                counter.inc()
        eventbus.emit("fault", cell=key[:16], attempt=attempt,
                      kind=record["kind"], error=record.get("error", "?"))
        return record

    def _journal_append(self, key: str, status: str, attempts: int, sha256: str) -> None:
        started = time.perf_counter()
        entry = {"key": key, "status": status, "attempts": attempts,
                 "sha256": sha256, "worker": self.worker_id}
        with open(self.journal_path, "a") as fp:
            fp.write(json.dumps(entry, sort_keys=True) + "\n")
            fp.flush()
        self.stats.coordination_s += time.perf_counter() - started

    def _execute_cell(self, fn: Callable[..., Any], args: Tuple, key: str,
                      attempt: int) -> Any:
        """Run one leased cell to a verdict: retry loop, publication,
        journal, lease release. The chaos ``worker_crash`` site is the
        real thing in a worker (``os._exit``: the lease goes stale and
        another executor steals it) and a raised fault in the
        coordinator (which must survive to merge)."""
        from .parallel import _call_unit

        wall_started = time.perf_counter()
        heartbeat = _Heartbeat(self, key)
        heartbeat.start()
        fault_list: List[dict] = []
        status, result = "failed", None
        final_attempt = attempt
        try:
            while True:
                eventbus.emit("cell_begin", cell=key[:16], unit=fn.__name__,
                              attempt=attempt)
                eventbus.flush()
                try:
                    faults.cell_prelude(key, attempt, in_child=not self.is_coordinator)
                    cell_started = time.perf_counter()
                    result = _call_unit(fn, args)
                    self.stats.cell_s += time.perf_counter() - cell_started
                    status = "ok"
                    final_attempt = attempt
                    break
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - the boundary's job
                    fault_list.append(self._account_fault(exc, key, attempt))
                    kind, retryable = faults.classify(exc)
                    final_attempt = attempt
                    if not retryable:
                        status, result = "quarantined", None
                        break
                    if attempt >= self.policy.max_attempts:
                        status, result = "failed", None
                        break
                    backoff = self.policy.backoff_s(key, attempt)
                    eventbus.emit("cell_retry", cell=key[:16], attempt=attempt + 1,
                                  backoff_s=round(backoff, 4), kind=kind)
                    self.shutdown.wait(backoff)
                    if self.shutdown.is_set():
                        raise FleetDrained(
                            "worker %s draining during backoff of cell %s"
                            % (self.worker_id, key[:12])
                        )
                    attempt += 1
                    self._renew_lease(key, attempt=attempt)
        except FleetDrained:
            heartbeat.stop()
            self._release_lease(key)  # hand unfinished work back to the fleet
            raise
        finally:
            heartbeat.stop()
        record = self.store.publish(key, status, result,
                                    attempts=final_attempt, worker=self.worker_id)
        self._journal_append(key, status, final_attempt, record.sha256)
        session = obs.session()
        if status == "ok" and final_attempt > 1:
            self.stats.retried += 1
            if session is not None:
                session.c_cells_retried.inc()
        elif status == "quarantined":
            self.stats.quarantined += 1
            if session is not None:
                session.c_cells_quarantined.inc()
        elif status == "failed":
            self.stats.failed += 1
        eventbus.emit("cell_end", cell=key[:16], status=status,
                      attempt=final_attempt,
                      wall_s=round(time.perf_counter() - wall_started, 4))
        self._release_lease(key)
        eventbus.flush()
        self.stats.executed += 1
        return result if status == "ok" else None

    def _accept(self, record) -> Any:
        """Fold a fetched store record into this executor's results."""
        self.stats.fetched += 1
        return record.result if record.ok else None

    # -- The fan-out entry point (via parallel.map_units) --------------

    def map_cells(self, fn: Callable[..., Any], arg_tuples: Sequence[Tuple]) -> List[Any]:
        """Fleet equivalent of :func:`repro.harness.parallel.map_units`.

        Two passes. First, a staggered claim scan: fetch what the fleet
        already published, lease and execute what nobody owns (each
        worker starts the scan at a different offset so claims rarely
        collide). Second, a wait/steal loop over the remainder: poll
        the store for other workers' results, take over cells whose
        lease is gone, and steal cells whose lease expired. Results
        return in submission order; degraded cells yield None -- the
        supervisor's graceful-degradation convention.
        """
        units = [tuple(args) for args in arg_tuples]
        keys = [cell_key(fn, args) for args in units]
        bus = eventbus.bus()
        if self.is_coordinator and bus is not None:
            bus.emit("fanout", unit=fn.__name__, cells=len(units), jobs="fleet")
            bus.flush()
        results: Dict[int, Any] = {}
        order = list(range(len(units)))
        if order:
            offset = int(
                hashlib.sha256(self.worker_id.encode("utf-8")).hexdigest()[:8], 16
            ) % len(order)
            order = order[offset:] + order[:offset]
        waiting: List[int] = []
        for index in order:
            if self.shutdown.is_set():
                raise FleetDrained("worker %s draining" % self.worker_id)
            key = keys[index]
            record = self._fetch(key)
            if record is not None:
                results[index] = self._accept(record)
            elif self._try_acquire(key, attempt=1):
                results[index] = self._execute_cell(fn, units[index], key, attempt=1)
            else:
                waiting.append(index)
        deadline = time.monotonic() + self.drain_timeout_s
        while waiting:
            progressed = False
            still: List[int] = []
            for index in waiting:
                key = keys[index]
                record = self._fetch(key, quiet=True)
                if record is not None:
                    results[index] = self._accept(record)
                    progressed = True
                    continue
                lease = self._read_lease(key)
                if lease is None:
                    # Released without a result (a drained worker handed
                    # it back) or never claimed: take it ourselves.
                    if self._try_acquire(key, attempt=1):
                        results[index] = self._execute_cell(
                            fn, units[index], key, attempt=1
                        )
                        progressed = True
                        continue
                elif float(lease.get("deadline_unix", 0.0)) < time.time():
                    attempt = self._try_steal(key, lease)
                    if attempt is not None:
                        if attempt > self.policy.max_attempts:
                            # The fleet as a whole exhausted the budget:
                            # publish the failure verdict so every waiter
                            # sees it instead of stealing forever.
                            record = self.store.publish(
                                key, "failed", None, attempts=attempt - 1,
                                worker=self.worker_id,
                            )
                            self._journal_append(key, "failed", attempt - 1,
                                                 record.sha256)
                            self.stats.failed += 1
                            eventbus.emit("cell_end", cell=key[:16], status="failed",
                                          attempt=attempt - 1)
                            self._release_lease(key)
                            eventbus.flush()
                            results[index] = None
                        else:
                            results[index] = self._execute_cell(
                                fn, units[index], key, attempt=attempt
                            )
                        progressed = True
                        continue
                still.append(index)
            waiting = still
            if waiting and not progressed:
                if self.shutdown.is_set():
                    raise FleetDrained("worker %s draining" % self.worker_id)
                if time.monotonic() > deadline:
                    raise faults.TransientIOFault(
                        "fleet drain timeout: %d cell(s) still unresolved after %.0fs"
                        % (len(waiting), self.drain_timeout_s)
                    )
                self.shutdown.wait(self.poll_s)
        return [results[index] for index in range(len(units))]

    def _fetch(self, key: str, quiet: bool = False):
        """Store read-through. ``quiet`` probes (the wait loop polling
        for another worker's publication) skip the miss accounting so a
        slow cell does not read as a thousand misses."""
        started = time.perf_counter()
        try:
            if quiet and not self.store.path(key).exists():
                return None
            return self.store.fetch(key)
        finally:
            self.stats.coordination_s += time.perf_counter() - started


# ----------------------------------------------------------------------
# Process-global activation (consulted by parallel.map_units)
# ----------------------------------------------------------------------

_active: Optional[FleetWorker] = None


def current() -> Optional[FleetWorker]:
    """The active fleet executor, or None (the non-fleet fast path)."""
    return _active


def activate(worker: FleetWorker) -> FleetWorker:
    global _active
    _active = worker
    eventbus._wire_chaos()
    return _active


def deactivate() -> None:
    global _active
    _active = None


if hasattr(os, "register_at_fork"):
    # A forked child of a fleet executor (a --jobs pool, if one ever
    # runs inside a cell) must execute its work directly, not re-enter
    # the fleet claim loop it inherited.
    os.register_at_fork(after_in_child=deactivate)


# ----------------------------------------------------------------------
# Campaign entry points (CLI: campaign run | campaign worker)
# ----------------------------------------------------------------------


def _load_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    if not isinstance(manifest.get("argv"), list) or not manifest["argv"]:
        raise SystemExit("fleet manifest %s carries no inner command" % path)
    return manifest


def _write_manifest(path: Path, argv: Sequence[str], lease_ttl_s: float,
                    poll_s: float, retries: int, drain_timeout_s: float) -> dict:
    manifest = {
        "argv": list(argv),
        "lease_ttl_s": lease_ttl_s,
        "poll_s": poll_s,
        "retries": retries,
        "drain_timeout_s": drain_timeout_s,
        "created_unix": round(time.time(), 3),
    }
    if path.exists():
        existing = _load_manifest(path)
        if existing["argv"] != list(argv):
            raise SystemExit(
                "fleet dir %s already runs %r; refusing to mix campaigns"
                % (path.parent, " ".join(existing["argv"]))
            )
        return existing
    _atomic_write_json(manifest, path)
    return manifest


def _dispatch_inner(argv: Sequence[str], cache_dir: Path,
                    out_override: Optional[str] = None) -> int:
    """Parse and run the manifest's inner command in this process.

    The fleet owns parallelism and retries, so the inner command is
    forced serial (``--jobs 1``), pointed at the shared cache in
    durable mode, and never activates its own supervisor. Workers get
    their ``--out`` redirected to a worker-local file so only the
    coordinator writes the user's artifact.
    """
    from . import cli as cli_mod
    from .cache import CACHE_DIR_ENV, CACHE_SHARED_ENV

    parser = cli_mod.build_parser()
    args = parser.parse_args(list(argv))
    cli_mod.normalize_args(args)
    cli_mod.check_selection(args)
    if args.command == "campaign":
        raise SystemExit("fleet campaigns cannot nest ('campaign %s' inside run)"
                         % getattr(args, "action", "?"))
    args.jobs = 1
    if not args.cache_dir:
        args.cache_dir = str(cache_dir)
    if out_override is not None:
        args.out = out_override
    os.environ[CACHE_DIR_ENV] = str(args.cache_dir)
    os.environ[CACHE_SHARED_ENV] = "1"
    rc = args.func(args)
    return int(rc) if rc else 0


def _merge_outputs(fleet_dir: Path, store: ArtifactStore) -> Tuple[int, int]:
    """The coordinator's merge: one canonical journal from the store
    (sorted by key, deterministic fields only -- ``attempts`` is chaos-
    dependent and deliberately excluded, so a chaos-killed campaign's
    journal is byte-identical to a clean one's) and one merged event
    stream from every worker's ``events-*.jsonl``."""
    lines: List[str] = []
    for key in store.keys():
        record = store.fetch(key, count_stats=False)
        if record is None:
            continue
        lines.append(json.dumps(
            {"key": key, "sha256": record.sha256, "status": record.status},
            sort_keys=True, separators=(",", ":"),
        ))
    journal_path = fleet_dir / MERGED_JOURNAL_NAME
    tmp = journal_path.with_name(journal_path.name + ".tmp.%d" % os.getpid())
    tmp.write_text("".join(line + "\n" for line in lines))
    os.replace(tmp, journal_path)
    streams = eventbus.load_streams(fleet_dir)
    merged_count = eventbus.write_merged(streams, fleet_dir / MERGED_EVENTS_NAME)
    return len(lines), merged_count


def _spawn_worker(fleet_dir: Path, index: int, wait_s: float) -> subprocess.Popen:
    """Launch one worker subprocess against the fleet directory. The
    child inherits the environment plus a PYTHONPATH that can resolve
    this package (the parent may have been launched via an installed
    entry point rather than PYTHONPATH=src)."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    parts = [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    log = open(fleet_dir / ("worker-%d.log" % index), "w")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "worker",
         "--fleet-dir", str(fleet_dir), "--wait", str(max(wait_s, 10.0))],
        stdout=log, stderr=subprocess.STDOUT, env=env,
    )


def run_campaign(
    fleet_dir: os.PathLike,
    inner_argv: Sequence[str],
    workers: int = 0,
    lease_ttl_s: float = 30.0,
    poll_s: float = 0.2,
    retries: Optional[int] = None,
    min_workers: int = 0,
    min_workers_wait_s: float = 60.0,
    drain_timeout_s: float = 600.0,
    worker_id: Optional[str] = None,
) -> int:
    """Coordinate one fleet campaign end to end.

    Writes the manifest, optionally spawns ``workers`` local worker
    processes (remote workers join by running ``campaign worker``
    against the same directory), executes the campaign as one more
    executor, then reaps workers, reclaims stale leases, and merges
    journals + event streams into the canonical artifacts.
    """
    paths = _fleet_paths(fleet_dir)
    paths["root"].mkdir(parents=True, exist_ok=True)
    manifest = _write_manifest(
        paths["manifest"], inner_argv, lease_ttl_s, poll_s,
        retries if retries is not None else 3, drain_timeout_s,
    )
    previous_bus = eventbus.bus()
    eventbus.configure(paths["root"])
    executor = FleetWorker(
        paths["root"], worker_id=worker_id, role="coordinator",
        lease_ttl_s=float(manifest["lease_ttl_s"]),
        poll_s=float(manifest["poll_s"]),
        drain_timeout_s=float(manifest["drain_timeout_s"]),
        policy=RetryPolicy(max_attempts=int(manifest["retries"])),
    )
    procs: List[subprocess.Popen] = []
    rc = 1
    try:
        executor.register()
        eventbus.emit("campaign_begin", command="fleet:%s" % inner_argv[0],
                      seed=0, jobs=workers + 1)
        started = time.time()
        for index in range(workers):
            procs.append(_spawn_worker(paths["root"], index, min_workers_wait_s))
        if min_workers > 0:
            _wait_for_registrations(paths["workers"], executor.worker_id,
                                    min_workers, min_workers_wait_s)
        activate(executor)
        try:
            rc = _dispatch_inner(manifest["argv"], paths["cache"])
        finally:
            deactivate()
        for proc in procs:
            try:
                proc.wait(timeout=drain_timeout_s)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
        executor.sweep_stale_leases()
        eventbus.emit("campaign_end", ok=not rc,
                      wall_s=round(time.time() - started, 3))
        executor.finish()
        cells, events = _merge_outputs(paths["root"], executor.store)
        print(executor.stats.summary_line())
        print(
            "fleet merge: %d cell(s) -> %s, %d event(s) -> %s"
            % (cells, paths["root"] / MERGED_JOURNAL_NAME,
               events, paths["root"] / MERGED_EVENTS_NAME)
        )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            if proc.stdout is not None:
                proc.stdout.close()
        eventbus.flush()
        if previous_bus is not None and previous_bus.directory is not None:
            eventbus.configure(previous_bus.directory)
        elif previous_bus is not None:
            eventbus.configure(None)
        else:
            eventbus.disable()
    return rc


def _wait_for_registrations(workers_dir: Path, own_id: str, minimum: int,
                            wait_s: float) -> None:
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        others = [p for p in workers_dir.glob("*.json")
                  if p.stem != own_id]
        if len(others) >= minimum:
            return
        time.sleep(0.05)
    raise SystemExit(
        "fleet: %d worker(s) never registered within %.0fs" % (minimum, wait_s)
    )


def run_worker(
    fleet_dir: os.PathLike,
    wait_s: float = 60.0,
    worker_id: Optional[str] = None,
) -> int:
    """One fleet worker: wait for the manifest, then execute the same
    deterministic inner command the coordinator runs -- the claim loop
    in :meth:`FleetWorker.map_cells` is what divides the work. SIGTERM
    drains: leases are released at the next boundary and the worker
    exits with :data:`DRAIN_EXIT`."""
    paths = _fleet_paths(fleet_dir)
    paths["root"].mkdir(parents=True, exist_ok=True)
    eventbus.configure(paths["root"])
    deadline = time.monotonic() + wait_s
    while not paths["manifest"].exists():
        if time.monotonic() > deadline:
            raise SystemExit(
                "fleet worker: no %s under %s after %.0fs"
                % (MANIFEST_NAME, paths["root"], wait_s)
            )
        time.sleep(0.1)
    manifest = _load_manifest(paths["manifest"])
    worker = FleetWorker(
        paths["root"], worker_id=worker_id, role="worker",
        lease_ttl_s=float(manifest.get("lease_ttl_s", 30.0)),
        poll_s=float(manifest.get("poll_s", 0.2)),
        drain_timeout_s=float(manifest.get("drain_timeout_s", 600.0)),
        policy=RetryPolicy(max_attempts=int(manifest.get("retries", 3))),
    )
    if hasattr(signal, "SIGTERM") and threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda signum, frame: worker.request_shutdown())
    worker.register()
    drained = False
    rc = 0
    activate(worker)
    try:
        rc = _dispatch_inner(
            manifest["argv"], paths["cache"],
            out_override=str(paths["root"] / ("worker-%s.out" % worker.worker_id)),
        )
    except FleetDrained:
        drained = True
    finally:
        deactivate()
        worker.finish()
        eventbus.flush()
    return DRAIN_EXIT if drained else rc
