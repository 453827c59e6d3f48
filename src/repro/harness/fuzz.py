"""The ``fuzz`` experiment driver: oracle-verified generated campaigns.

One *fuzz cell* evaluates one generated workload (one seed) against the
planted-bug oracle (:mod:`repro.gen.oracle`) and returns a row of
deterministic fields only -- so the whole table, and hence its digest,
is a pure function of ``(seed range, config, budget, replay flag)``:
bit-identical across ``--jobs 1`` vs ``--jobs N`` (submission-order
merge in :func:`~repro.harness.parallel.map_units`), across cold and
warm caches (rows are content-addressed by generator seed + spec hash),
and across serial, fleet and resumed campaigns.

Cells flow through :func:`map_units`, so fuzz campaigns inherit the
supervisor (watchdogs, retries, ``--resume`` from its artifact store,
chaos), the fleet, and the campaign event bus (one ``fuzz_workload``
event per workload, folded into ``obs analytics``'s
detection-rate-vs-topology table) for free.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..core.config import DEFAULT_CONFIG, WaffleConfig
from ..gen.oracle import evaluate_spec
from ..gen.spec import WorkloadSpec, generate_spec, spec_hash
from ..obs import eventbus
from .cache import config_hash, open_cache
from .parallel import map_units

#: Bump when the fuzz row's fields change; part of the cache key so a
#: stale cached row can never satisfy a newer schema.
ROW_SCHEMA_VERSION = 1

#: Default per-session detection-run budget. Detectable gaps are sized
#: so Waffle exposes each planted bug in its first or second detection
#: run; the headroom covers interference-control skips in workloads
#: where several armed components race at once.
DEFAULT_BUDGET = 8

#: Failing seeds shrunk per fuzz invocation (shrinking re-runs the
#: oracle many times; the regression corpus only needs the minima).
MAX_SHRINKS = 5


def _workload_config(config: WaffleConfig, seed: int) -> WaffleConfig:
    """Each workload detects under its own derived seed, so a range
    sweep also sweeps the injection/jitter RNG space."""
    return config.with_seed(config.seed + seed)


def _fuzz_cell(
    seed: int,
    config: WaffleConfig,
    budget: int,
    check_replay: bool,
    cache_dir: Optional[str],
) -> dict:
    """One seed's oracle evaluation (module-level: picklable for pools)."""
    spec = generate_spec(seed)
    shash = spec_hash(spec)
    cfg = _workload_config(config, seed)
    cache = open_cache(cache_dir)
    key = None
    if cache is not None:
        key = {
            "seed": seed,
            "spec": shash,
            "config": config_hash(cfg, include_seed=True),
            "budget": budget,
            "replay": check_replay,
            "v": ROW_SCHEMA_VERSION,
        }
        record = cache.get("fuzz", key)
        if record is not None:
            _emit_fuzz(record["row"])
            return record["row"]
    result = evaluate_spec(spec, cfg, budget=budget, check_replay=check_replay)
    row = result.to_row()
    row["spec_hash"] = shash[:12]
    if cache is not None and key is not None:
        cache.put("fuzz", key, {"row": row})
    _emit_fuzz(row)
    return row


def _emit_fuzz(row: dict) -> None:
    """Campaign event for one evaluated workload (cache hit or fresh:
    the payload is deterministic either way, so the campaign view's
    whole-event dedup keeps exactly one per logical workload)."""
    bus = eventbus.bus()
    if bus is None:
        return
    bus.emit(
        "fuzz_workload",
        seed=row["seed"],
        spec=row.get("spec_hash", ""),
        topology=row["topology"],
        planted=row["planted"],
        detectable=row["detectable"],
        found=len(row["found"]),
        sessions=row["sessions"],
        runs=row["runs"],
        ok=row["ok"],
    )
    bus.maybe_flush()


def fuzz_range(
    start: int,
    stop: int,
    config: WaffleConfig = DEFAULT_CONFIG,
    budget: int = DEFAULT_BUDGET,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    check_replay: bool = True,
) -> List[dict]:
    """Evaluate seeds ``[start, stop)``; rows in seed order."""
    units = [(seed, config, budget, check_replay, cache_dir) for seed in range(start, stop)]
    return map_units(_fuzz_cell, units, jobs)


def fuzz_digest(rows: List[dict]) -> str:
    """The campaign's identity: sha256 over the canonical row JSON."""
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def topology_table(rows: List[dict]) -> List[dict]:
    """Detection-rate-vs-topology rollup (the BENCH_gen curve)."""
    buckets: Dict[str, dict] = {}
    for row in rows:
        bucket = buckets.setdefault(
            row["topology"],
            {"topology": row["topology"], "workloads": 0, "planted": 0,
             "detectable": 0, "found": 0, "runs": 0, "violations": 0},
        )
        bucket["workloads"] += 1
        bucket["planted"] += row["planted"]
        bucket["detectable"] += row["detectable"]
        bucket["found"] += len(row["found"])
        bucket["runs"] += row["runs"]
        bucket["violations"] += len(row["violations"])
    out = []
    for name in sorted(buckets):
        bucket = buckets[name]
        bucket["detection_rate"] = (
            round(bucket["found"] / bucket["detectable"], 4) if bucket["detectable"] else 1.0
        )
        out.append(bucket)
    return out


def render_fuzz(rows: List[dict], digest: str) -> str:
    """The human-readable fuzz report."""
    lines: List[str] = []
    failures = [r for r in rows if not r["ok"]]
    detectable = sum(r["detectable"] for r in rows)
    found = sum(len(r["found"]) for r in rows)
    lines.append(
        "fuzz: %d workload(s)   planted %d (detectable %d)   found %d   "
        "recall %s   violations %d"
        % (
            len(rows),
            sum(r["planted"] for r in rows),
            detectable,
            found,
            "%.1f%%" % (100.0 * found / detectable) if detectable else "n/a",
            sum(len(r["violations"]) for r in rows),
        )
    )
    lines.append("")
    lines.append("detection rate vs topology")
    lines.append(
        "  %-10s %9s %8s %11s %6s %6s %9s"
        % ("topology", "workloads", "planted", "detectable", "found", "runs", "rate")
    )
    for bucket in topology_table(rows):
        lines.append(
            "  %-10s %9d %8d %11d %6d %6d %8.1f%%"
            % (
                bucket["topology"],
                bucket["workloads"],
                bucket["planted"],
                bucket["detectable"],
                bucket["found"],
                bucket["runs"],
                100.0 * bucket["detection_rate"],
            )
        )
    if failures:
        lines.append("")
        lines.append("INVARIANT VIOLATIONS (%d workload(s))" % len(failures))
        for row in failures:
            lines.append("  seed %d (%s, spec %s):" % (row["seed"], row["topology"],
                                                       row.get("spec_hash", "?")))
            for violation in row["violations"]:
                lines.append("    %s" % violation)
    lines.append("")
    lines.append("fuzz digest: %s" % digest)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Failure shrinking
# ----------------------------------------------------------------------


def _violation_classes(violations: List[str]) -> frozenset:
    """'recall: ...' / 'soundness: ...' -> the class prefixes."""
    return frozenset(v.split(":", 1)[0] for v in violations)


def shrink_failures(
    rows: List[dict],
    config: WaffleConfig,
    budget: int,
    shrink_dir: str,
    max_shrinks: int = MAX_SHRINKS,
) -> List[str]:
    """Shrink up to ``max_shrinks`` failing rows to minimal regression
    fixtures under ``shrink_dir``; returns the written paths."""
    from ..gen.shrink import save_regression, shrink_spec

    written: List[str] = []
    for row in rows:
        if row["ok"] or len(written) >= max_shrinks:
            continue
        seed = row["seed"]
        classes = _violation_classes(row["violations"])
        cfg = _workload_config(config, seed)

        def still_fails(candidate: WorkloadSpec) -> bool:
            result = evaluate_spec(candidate, cfg, budget=budget)
            return bool(classes & _violation_classes(result.violations))

        minimal = shrink_spec(generate_spec(seed), still_fails)
        path = save_regression(
            minimal,
            shrink_dir,
            reason="; ".join(row["violations"]),
            invariant=",".join(sorted(classes)),
            source_seed=seed,
        )
        written.append(str(path))
    return written
