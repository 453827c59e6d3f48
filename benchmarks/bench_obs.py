"""Guard the telemetry hot paths against overhead creep.

Two budgets, one benchmark:

* **disabled**: with no session configured the instrumentation must
  cost one ``is not None`` branch per guarded site. Budget: 3% over
  the no-obs baseline, measured *in this process* like the enabled
  figure: :data:`DISABLED_PAIRS` interleaved pairs of a serial
  ``table4_detection`` subset, alternating which side runs first; the
  figure is the median per-pair wall-time ratio, with its
  interquartile range beside it. There is no guard-free build, so both
  sides run the same code with no session; the figure bounds what the
  guards can cost above the noise its IQR shows.
* **enabled**: ``--obs-dir`` (telemetry and the campaign event bus in
  one directory) must keep a whole campaign within 15% of the same
  campaign without it. Measured end to end, as campaigns are measured:
  :data:`PAIRS` interleaved pairs of fresh interpreters running
  ``fuzz --seed-range 0:50 --seed SEED --json``, with and without
  ``--obs-dir``, alternating which side runs first.
  The figure is the median per-pair wall-time ratio; its interquartile
  range is reported beside it. Interpreter start-up is in both sides.

Writes ``BENCH_obs.json`` at the repo root, with the CPU count, Python
version and git revision of the measuring machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from repro import obs
from repro.harness import experiments

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Mirror bench_harness.py's serial_cold workload exactly.
BUGS = ["Bug-1", "Bug-10", "Bug-11"]
ATTEMPTS = 3
BUDGET = 20
#: Disabled-path figure: interleaved in-process pairs.
DISABLED_PAIRS = 21
MAX_OVERHEAD = 0.03
MAX_ENABLED_OVERHEAD = 0.15

#: Enabled-path campaign: interleaved fresh-interpreter pairs.
PAIRS = 10
SEED = 3
FUZZ_ARGV = ["fuzz", "--seed-range", "0:50", "--seed", str(SEED), "--json"]


def _timed() -> float:
    start = time.perf_counter()
    experiments.table4_detection(
        attempts=ATTEMPTS, budget=BUDGET, bugs=BUGS, base_seed=0, jobs=1, cache_dir=None
    )
    return time.perf_counter() - start


def _campaign(workdir: pathlib.Path, with_obs: bool) -> float:
    """Wall seconds of one fresh-interpreter fuzz campaign."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WAFFLE_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    argv = [sys.executable, "-m", "repro"]
    if with_obs:
        argv += ["--obs-dir", str(workdir / "obs")]
    started = time.perf_counter()
    subprocess.run(argv + FUZZ_ARGV, cwd=workdir, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


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
    assert obs.session() is None, "telemetry must start disabled"
    assert not obs.flightrec.active(), "flight recorder must start disabled"
    _timed()  # untimed warm-up (imports, code objects, allocator)
    _timed()

    baseline, disabled, disabled_ratios = [], [], []
    for pair in range(DISABLED_PAIRS):
        first, second = _timed(), _timed()
        base, guarded = (first, second) if pair % 2 == 0 else (second, first)
        baseline.append(base)
        disabled.append(guarded)
        disabled_ratios.append(guarded / base)

    plain_s, obs_s, ratios = [], [], []
    with tempfile.TemporaryDirectory(prefix="waffle-bench-obs-") as scratch:
        for pair in range(PAIRS):
            timings = {}
            for with_obs in ((False, True) if pair % 2 == 0 else (True, False)):
                side = "obs" if with_obs else "plain"
                workdir = pathlib.Path(scratch) / ("pair%d-%s" % (pair, side))
                workdir.mkdir()
                timings[with_obs] = _campaign(workdir, with_obs)
            plain_s.append(timings[False])
            obs_s.append(timings[True])
            ratios.append(timings[True] / timings[False])
        # Record the bus traffic one enabled campaign writes, so the
        # snapshot documents what the 15% budget covers.
        events_files = sorted((pathlib.Path(scratch) / "pair0-obs" / "obs").glob("events-*.jsonl"))
        events_streams = len(events_files)
        events_recorded = sum(
            sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in events_files
        )

    dq1, disabled_ratio, dq3 = _quartiles(disabled_ratios)
    overhead = disabled_ratio - 1.0
    q1, median_ratio, q3 = _quartiles(ratios)
    enabled_overhead = median_ratio - 1.0
    payload = {
        "benchmark": "obs overhead: disabled = table4_detection subset in-process, "
        "enabled = fuzz campaign pairs with and without --obs-dir",
        "environment": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": _git_revision(),
        },
        "baseline_source": "disabled: interleaved order-alternating in-process pairs; "
        "enabled: interleaved order-alternating fresh-interpreter pairs",
        "disabled_pairs": DISABLED_PAIRS,
        "disabled_baseline_median_s": round(statistics.median(baseline), 4),
        "disabled_median_s": round(statistics.median(disabled), 4),
        "disabled_ratio_median": round(disabled_ratio, 4),
        "disabled_ratio_iqr": round(dq3 - dq1, 4),
        "disabled_overhead_pct": round(100.0 * overhead, 2),
        "enabled_campaign": " ".join(FUZZ_ARGV),
        "enabled_pairs": PAIRS,
        "enabled_plain_median_s": round(statistics.median(plain_s), 4),
        "enabled_obs_median_s": round(statistics.median(obs_s), 4),
        "enabled_ratio_median": round(median_ratio, 4),
        "enabled_ratio_iqr": round(q3 - q1, 4),
        "enabled_overhead_pct": round(100.0 * enabled_overhead, 2),
        "eventbus_streams": events_streams,
        "eventbus_events": events_recorded,
        "max_overhead_pct": 100.0 * MAX_OVERHEAD,
        "max_enabled_overhead_pct": 100.0 * MAX_ENABLED_OVERHEAD,
        "within_budget": overhead <= MAX_OVERHEAD and enabled_overhead <= MAX_ENABLED_OVERHEAD,
    }
    out = REPO_ROOT / "BENCH_obs.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print("wrote %s" % out)
    failed = False
    if overhead > MAX_OVERHEAD:
        print(
            "FAIL: telemetry-disabled path is %.2f%% over the baseline in the median "
            "pair (IQR %.4f; budget %.0f%%)"
            % (100.0 * overhead, dq3 - dq1, 100.0 * MAX_OVERHEAD),
            file=sys.stderr,
        )
        failed = True
    if enabled_overhead > MAX_ENABLED_OVERHEAD:
        print(
            "FAIL: --obs-dir campaigns are %.2f%% slower in the median pair "
            "(IQR %.4f; budget %.0f%%)"
            % (100.0 * enabled_overhead, q3 - q1, 100.0 * MAX_ENABLED_OVERHEAD),
            file=sys.stderr,
        )
        failed = True
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
