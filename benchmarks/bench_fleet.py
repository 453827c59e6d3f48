"""Guard the fleet's scaling and coordination budgets.

Runs the same deterministic fuzz campaign (40 cells) twice through
``python -m repro campaign run``: once serial (the coordinator is the
only executor) and once with two spawned workers. Three gates:

* **identity** -- the merged canonical journal must be byte-identical
  across both runs (each run uses its own working directory with
  identical *relative* arguments, so content-addressed cell keys
  agree);
* **speedup** -- the 2-worker wall clock must be at least
  ``MIN_SPEEDUP`` times better than serial. Gated on the host actually
  having >= 2 CPUs: on a single-core box the fleet cannot beat serial
  and the gate would only measure the scheduler, so it is reported but
  not enforced;
* **coordination overhead** -- across all executors, time spent on
  leases and store reads must stay within ``MAX_COORDINATION`` of time
  spent inside cells (read from the per-worker stats files).

Writes ``BENCH_fleet.json`` at the repo root; exits 2 on gate failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Budget 200 makes undetected seeds burn the whole run budget, so the
# campaign's compute (~7s serial) dominates worker interpreter startup
# -- the speedup gate measures the fleet, not process spawn.
INNER = ["fuzz", "--seed-range", "0:40", "--budget", "200", "--no-replay",
         "--out", "out.txt", "--cache-dir", "cache"]
WORKERS = 2
MIN_SPEEDUP = 1.8
MAX_COORDINATION = 0.10


def _run_campaign(cwd: pathlib.Path, workers: int) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.pop("WAFFLE_CHAOS", None)
    argv = [sys.executable, "-m", "repro", "campaign", "run",
            "--fleet-dir", "fleet", "--workers", str(workers)]
    if workers:
        argv += ["--min-workers", str(workers)]
    argv += ["--"] + INNER
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=str(cwd), env=env,
                          capture_output=True, text=True, timeout=1800)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(
            "campaign run (workers=%d) failed rc=%d\n%s\n%s"
            % (workers, proc.returncode, proc.stdout, proc.stderr)
        )
    return elapsed


def _worker_stats(fleet_dir: pathlib.Path) -> dict:
    cell_s = coordination_s = 0.0
    executed = []
    for path in sorted((fleet_dir / "workers").glob("*.json")):
        stats = json.loads(path.read_text())
        cell_s += float(stats.get("cell_s", 0.0))
        coordination_s += float(stats.get("coordination_s", 0.0))
        executed.append("%s=%d" % (stats.get("worker", path.stem),
                                   int(stats.get("executed", 0))))
    return {"cell_s": cell_s, "coordination_s": coordination_s,
            "executed": executed}


def main() -> int:
    cpus = os.cpu_count() or 1
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    try:
        serial_dir = scratch / "serial"
        fleet_dir = scratch / "fleet"
        serial_dir.mkdir()
        fleet_dir.mkdir()

        serial_s = _run_campaign(serial_dir, workers=0)
        fleet_s = _run_campaign(fleet_dir, workers=WORKERS)

        serial_journal = (serial_dir / "fleet" / "journal-merged.jsonl").read_bytes()
        fleet_journal = (fleet_dir / "fleet" / "journal-merged.jsonl").read_bytes()
        identical = serial_journal == fleet_journal
        cells = len(serial_journal.splitlines())

        stats = _worker_stats(fleet_dir / "fleet")
        coordination_ratio = (
            stats["coordination_s"] / stats["cell_s"] if stats["cell_s"] else 0.0
        )
        speedup = serial_s / fleet_s if fleet_s else 0.0
        speedup_gated = cpus >= 2

        failures = []
        if not identical:
            failures.append("merged journals differ between serial and fleet runs")
        if cells != 40:
            failures.append("expected 40 cells in the journal, found %d" % cells)
        if speedup_gated and speedup < MIN_SPEEDUP:
            failures.append(
                "speedup %.2fx below the %.1fx floor at %d workers"
                % (speedup, MIN_SPEEDUP, WORKERS)
            )
        if coordination_ratio > MAX_COORDINATION:
            failures.append(
                "coordination is %.1f%% of cell time (budget %.0f%%)"
                % (100.0 * coordination_ratio, 100.0 * MAX_COORDINATION)
            )

        payload = {
            "benchmark": "fleet scaling (fuzz 0:40, %d workers + coordinator)" % WORKERS,
            "cpus": cpus,
            "cells": cells,
            "serial_s": round(serial_s, 3),
            "fleet_s": round(fleet_s, 3),
            "speedup_x": round(speedup, 3),
            "min_speedup_x": MIN_SPEEDUP,
            "speedup_gated": speedup_gated,
            "journals_identical": identical,
            "cell_s_total": round(stats["cell_s"], 3),
            "coordination_s_total": round(stats["coordination_s"], 4),
            "coordination_pct_of_cell": round(100.0 * coordination_ratio, 2),
            "max_coordination_pct": 100.0 * MAX_COORDINATION,
            "executed_per_worker": stats["executed"],
            "within_budget": not failures,
        }
        out = REPO_ROOT / "BENCH_fleet.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(json.dumps(payload, indent=2, sort_keys=True))
        print("wrote %s" % out)
        if failures:
            for failure in failures:
                print("FAIL: %s" % failure, file=sys.stderr)
            return 2
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
