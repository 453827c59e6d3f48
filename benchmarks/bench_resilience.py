"""Guard the supervisor-inactive hot path against overhead creep.

The campaign supervisor (``repro.harness.supervisor``) is opt-in: with
no resilience flag and no chaos spec, the executor slot is empty and
``parallel.map_units`` pays one ``_executor is not None`` check per
call and otherwise takes its original path untouched. This benchmark enforces that budget: it
times the same serial table4 subset as ``bench_harness.py`` with the
supervisor inactive (min over several repetitions, one untimed
warm-up) and fails if the result exceeds the ``serial_cold_s``
baseline recorded in ``BENCH_harness.json`` by more than 3%.

CI runs ``bench_harness.py`` immediately before this script, so the
baseline is always a fresh measurement from the same machine and
process generation; when the file is missing the baseline is measured
here instead. The supervised-*active* time is also recorded (it pays
for cell keying, watchdog arming, and stats accounting) but only
reported, not gated -- resilience is worth paying for when you ask
for it.

Writes ``BENCH_resilience.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.harness import experiments, faults, parallel, supervisor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Mirror bench_harness.py's serial_cold workload exactly.
BUGS = ["Bug-1", "Bug-10", "Bug-11"]
ATTEMPTS = 3
BUDGET = 20
REPS = 5
MAX_OVERHEAD = 0.03


def _cells():
    return experiments.table4_detection(
        attempts=ATTEMPTS, budget=BUDGET, bugs=BUGS, base_seed=0, jobs=1, cache_dir=None
    )


def _timed():
    start = time.perf_counter()
    rows = _cells()
    return time.perf_counter() - start, rows


def _min_of_reps(reps: int = REPS) -> float:
    return min(_timed()[0] for _ in range(reps))


def main() -> int:
    assert parallel.current() is None, "the executor slot must start empty"
    assert not faults.active(), "chaos must be off for a clean measurement"
    _cells()  # untimed warm-up (imports, code objects, allocator)

    bench_path = REPO_ROOT / "BENCH_harness.json"
    if bench_path.exists():
        baseline_s = json.loads(bench_path.read_text())["serial_cold_s"]
        baseline_source = "BENCH_harness.json"
    else:
        baseline_s = _min_of_reps()
        baseline_source = "measured here (BENCH_harness.json missing)"

    inactive_s = _min_of_reps()

    # Supervised-active cost, report-only: identical rows, plus fault
    # boundary, cell keys, watchdog, and stats.
    with supervisor.supervised() as sup:
        supervised_s = _min_of_reps(reps=2)
    assert sup.stats.quarantined == 0 and sup.stats.failed == 0

    overhead = inactive_s / baseline_s - 1.0
    payload = {
        "benchmark": "supervisor inactive-path overhead (table4_detection subset, serial)",
        "baseline_source": baseline_source,
        "baseline_serial_s": round(baseline_s, 4),
        "inactive_min_s": round(inactive_s, 4),
        "supervised_min_s": round(supervised_s, 4),
        "reps": REPS,
        "inactive_overhead_pct": round(100.0 * overhead, 2),
        "supervised_overhead_pct": round(100.0 * (supervised_s / baseline_s - 1.0), 2),
        "max_overhead_pct": 100.0 * MAX_OVERHEAD,
        "within_budget": overhead <= MAX_OVERHEAD,
    }
    out = REPO_ROOT / "BENCH_resilience.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print("wrote %s" % out)
    if overhead > MAX_OVERHEAD:
        print(
            "FAIL: supervisor-inactive path is %.2f%% over the baseline (budget %.0f%%)"
            % (100.0 * overhead, 100.0 * MAX_OVERHEAD),
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
