"""Guard the empty executor slot against overhead creep.

The campaign supervisor (``repro.harness.supervisor``) is opt-in: with
no resilience flag and no chaos spec, the executor slot is empty and
``parallel.map_units`` runs the supervisor's serial loop with no fault
boundary (``supervisor.Unsupervised``), which still pays for cell keys,
lifecycle-event calls and cell accounting. This benchmark bounds that
cost against the least a fan-out can do: a direct-call executor placed
in the slot, whose ``map(fn, units, jobs)`` is ``[fn(*a) for a in
units]``. Both sides run the same serial ``table4_detection`` subset as
``bench_harness.py`` in this process, in :data:`PAIRS` interleaved
pairs that alternate which side runs first. The figure is the median
per-pair time ratio (empty slot / direct calls), with its interquartile
range beside it; the budget is 3%.

Supervised serial and supervised ``--jobs 2`` (fault boundary on; the
latter over the reused worker pool) are timed too, but only reported,
not gated -- resilience is worth paying for when you ask for it.

Writes ``BENCH_resilience.json`` at the repo root, with the CPU count,
Python version and git revision of the measuring machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from repro.harness import experiments, faults, parallel, supervisor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Mirror bench_harness.py's serial_cold workload exactly.
BUGS = ["Bug-1", "Bug-10", "Bug-11"]
ATTEMPTS = 3
BUDGET = 20
PAIRS = 20
SUPERVISED_REPS = 5
MAX_OVERHEAD = 0.03


class DirectCalls:
    """The baseline executor: each cell called in order, nothing else."""

    def map(self, fn, arg_tuples, jobs=1):
        return [fn(*args) for args in arg_tuples]


def _timed(jobs: int = 1):
    start = time.perf_counter()
    rows = experiments.table4_detection(
        attempts=ATTEMPTS, budget=BUDGET, bugs=BUGS, base_seed=0, jobs=jobs, cache_dir=None
    )
    return time.perf_counter() - start, rows


def _direct():
    parallel.activate(DirectCalls())
    try:
        return _timed()
    finally:
        parallel.deactivate()


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    assert parallel.current() is None, "the executor slot must start empty"
    assert not faults.active(), "chaos must be off for a clean measurement"
    # Untimed warm-up (imports, code objects, allocator), and the
    # correctness check: both sides compute the same rows.
    _, direct_rows = _direct()
    _, empty_rows = _timed()
    assert repr(direct_rows) == repr(empty_rows), "the empty slot changed the rows"

    direct_s, empty_s, ratios = [], [], []
    for pair in range(PAIRS):
        timings = {}
        for side in (("direct", "empty") if pair % 2 == 0 else ("empty", "direct")):
            timings[side] = (_direct if side == "direct" else _timed)()[0]
        direct_s.append(timings["direct"])
        empty_s.append(timings["empty"])
        ratios.append(timings["empty"] / timings["direct"])

    # Fault boundary on, report-only: cell keys, watchdog, stats, and
    # under --jobs 2 the worker pool's fork and pipe traffic.
    supervised = {}
    for label, jobs in (("serial", 1), ("jobs2", 2)):
        with supervisor.supervised() as sup:
            supervised[label] = [_timed(jobs)[0] for _ in range(SUPERVISED_REPS)]
        assert sup.stats.quarantined == 0 and sup.stats.failed == 0

    q1, median_ratio, q3 = _quartiles(ratios)
    overhead = median_ratio - 1.0
    payload = {
        "benchmark": "empty executor slot vs direct calls "
        "(table4_detection subset, serial, in-process pairs)",
        "environment": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": _git_revision(),
        },
        "pairs": PAIRS,
        "direct_median_s": round(statistics.median(direct_s), 4),
        "empty_slot_median_s": round(statistics.median(empty_s), 4),
        "median_ratio": round(median_ratio, 4),
        "ratio_iqr": round(q3 - q1, 4),
        "empty_slot_overhead_pct": round(100.0 * overhead, 2),
        "max_overhead_pct": 100.0 * MAX_OVERHEAD,
        "within_budget": overhead <= MAX_OVERHEAD,
        "supervised_reps": SUPERVISED_REPS,
        "supervised_serial_median_s": round(statistics.median(supervised["serial"]), 4),
        "supervised_jobs2_median_s": round(statistics.median(supervised["jobs2"]), 4),
    }
    out = REPO_ROOT / "BENCH_resilience.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print("wrote %s" % out)
    if overhead > MAX_OVERHEAD:
        print(
            "FAIL: the empty executor slot is %.2f%% over direct calls (budget %.0f%%)"
            % (100.0 * overhead, 100.0 * MAX_OVERHEAD),
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
