"""Generator benchmark: spec/build throughput + detection-rate curves.

The procedural workload generator (:mod:`repro.gen`) has to be cheap
enough that the fuzz verifier's cost is dominated by detection, not
generation, and its planted-bug oracles have to stay analytically
exact. This benchmark pins both:

* **generation throughput** -- specs/s (``generate_spec`` + hash) and
  built workloads/s (``build_workload`` on top), gated at
  ``MIN_WORKLOADS_PER_S``;
* **detection-rate-vs-topology curves** -- the oracle evaluated over
  ``ORACLE_SEEDS`` seeds, rolled up per concurrency topology; recall
  on detectable planted bugs is gated at 100% and soundness violations
  at zero. The full fuzz row digest is recorded alongside.

Writes ``BENCH_gen.json`` at the repo root, beside the other
``BENCH_*.json`` snapshots.

Usage::

    PYTHONPATH=src python benchmarks/bench_gen.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.core.config import DEFAULT_CONFIG
from repro.gen.builder import build_workload
from repro.gen.spec import generate_spec, spec_hash
from repro.harness.fuzz import fuzz_digest, fuzz_range, topology_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Floor on full workload construction (spec + hash + simulated app).
#: The acceptance bar is 50/s; real numbers are orders of magnitude
#: higher, so a breach means generation grew a real hot spot.
MIN_WORKLOADS_PER_S = 50.0

#: Seeds generated for the throughput measurement.
THROUGHPUT_SEEDS = 2_000

#: Seeds oracle-evaluated for the detection-rate curves (each seed is a
#: full multi-session detect campaign; keep CI-friendly).
ORACLE_SEEDS = 32


def bench_generation() -> dict:
    t0 = time.perf_counter()
    specs = [generate_spec(seed) for seed in range(THROUGHPUT_SEEDS)]
    hashes = [spec_hash(spec) for spec in specs]
    t1 = time.perf_counter()
    for spec in specs[:200]:
        build_workload(spec)
    t2 = time.perf_counter()
    spec_s = t1 - t0
    build_s = t2 - t1
    per_workload = spec_s / THROUGHPUT_SEEDS + build_s / 200
    return {
        "seeds": THROUGHPUT_SEEDS,
        "distinct_spec_hashes": len(set(hashes)),
        "spec_gen_s": round(spec_s, 4),
        "specs_per_s": round(THROUGHPUT_SEEDS / spec_s, 1),
        "build_s_per_200": round(build_s, 4),
        "workloads_per_s": round(1.0 / per_workload, 1),
    }


def bench_oracle() -> dict:
    t0 = time.perf_counter()
    rows = fuzz_range(0, ORACLE_SEEDS, config=DEFAULT_CONFIG, check_replay=False)
    wall = time.perf_counter() - t0
    detectable = sum(r["detectable"] for r in rows)
    found = sum(len(r["found"]) for r in rows)
    return {
        "seeds": ORACLE_SEEDS,
        "oracle_s": round(wall, 4),
        "planted": sum(r["planted"] for r in rows),
        "detectable": detectable,
        "found": found,
        "recall": round(found / detectable, 4) if detectable else 1.0,
        "violations": sum(len(r["violations"]) for r in rows),
        "topology_curve": topology_table(rows),
        "digest": fuzz_digest(rows),
    }


def main() -> int:
    generation = bench_generation()
    oracle = bench_oracle()

    failures = []
    if generation["workloads_per_s"] < MIN_WORKLOADS_PER_S:
        failures.append(
            "generation throughput %.1f workloads/s is below the %.0f/s floor"
            % (generation["workloads_per_s"], MIN_WORKLOADS_PER_S)
        )
    if generation["distinct_spec_hashes"] != generation["seeds"]:
        failures.append(
            "spec hashes collide: %d distinct over %d seeds"
            % (generation["distinct_spec_hashes"], generation["seeds"])
        )
    if oracle["recall"] < 1.0:
        failures.append(
            "recall %.2f%% on detectable planted bugs (must be 100%%)"
            % (100.0 * oracle["recall"])
        )
    if oracle["violations"]:
        failures.append("%d oracle invariant violation(s)" % oracle["violations"])

    payload = {
        "benchmark": "workload generator (throughput + oracle detection curves)",
        "generation": generation,
        "oracle": oracle,
        "min_workloads_per_s": MIN_WORKLOADS_PER_S,
        "ok": not failures,
    }
    out = REPO_ROOT / "BENCH_gen.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print("wrote %s" % out)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
