"""The counts ``obs report`` prints, pinned on small campaigns.

Each campaign writes a fresh obs directory through the CLI; the test
reads back the detection funnel, the candidate-pipeline, run-cache and
scheduler lines and the number of harness cells. ``runs recorded`` may
only reach ``simulated runs``: every simulated run writes one record.
"""

import os
import re

import pytest

from repro import obs
from repro.harness.cli import main
from repro.obs.report import load_obs_dir, render_report


@pytest.fixture(autouse=True)
def clean_obs_state():
    yield
    obs.disable()
    os.environ.pop(obs.OBS_DIR_ENV, None)


def report_counts(obs_dir):
    """``{section: line}`` for the pinned lines of one report."""
    lines = render_report(load_obs_dir(obs_dir)).splitlines()
    out = {}
    for index, line in enumerate(lines):
        if line.startswith("detection funnel: "):
            out["funnel"] = line
        elif line in ("candidate pipeline", "run cache", "scheduler"):
            out[line] = lines[index + 1].strip()
        elif line == "harness cells":
            out["cells"] = int(lines[index + 1].split()[0])
        elif line.startswith("processes: "):
            out["runs recorded"] = int(re.search(r"runs recorded: (\d+)", line).group(1))
    simulated = re.search(r"simulated runs (\d+)", out["scheduler"]).group(1)
    assert out.pop("runs recorded") <= int(simulated)
    return out


def test_detect_bug11(tmp_path, capsys):
    assert main(["detect", "--bug", "Bug-11", "--obs-dir", str(tmp_path / "obs")]) == 0
    obs.disable()
    capsys.readouterr()
    assert report_counts(tmp_path / "obs") == {
        "funnel": "detection funnel: near-miss pairs 1 → candidate pairs 1"
                  " → delays injected 1 → detected 0",
        "candidate pipeline": "near-misses observed 1 (1 new pairs)   candidates +1 / -0"
                              "   pruned: parent-child 1, hb-inference 0",
        "run cache": "not recorded",
        "scheduler": "simulated runs 3   context switches 11   virtual time 35.9 ms total",
    }


def test_fuzz_serial(tmp_path, capsys):
    assert main(["fuzz", "--seed-range", "0:6", "--jobs", "1",
                 "--obs-dir", str(tmp_path / "obs")]) == 0
    obs.disable()
    capsys.readouterr()
    assert report_counts(tmp_path / "obs") == {
        "funnel": "detection funnel: near-miss pairs 96 → candidate pairs 63"
                  " → delays injected 181 → detected 9",
        "candidate pipeline": "near-misses observed 96 (63 new pairs)   candidates +63 / -2"
                              "   pruned: parent-child 216, hb-inference 0",
        "run cache": "not recorded",
        "scheduler": "simulated runs 81   context switches 8144"
                     "   virtual time 7526.2 ms total",
        "cells": 6,
    }


def test_table2_cold_then_warm_cache(tmp_path, capsys):
    argv = ["table2", "--apps", "netmq", "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--obs-dir", str(tmp_path / "obs")]
    assert main(argv) == 0
    obs.disable()
    assert main(argv) == 0
    obs.disable()
    capsys.readouterr()
    # The warm run's plan-cache hits analyze nothing, so they add no
    # candidate pairs: the 86 are the cold run's new pairs.
    assert report_counts(tmp_path / "obs") == {
        "funnel": "detection funnel: near-miss pairs 499 → candidate pairs 86"
                  " → delays injected 0 → detected 0",
        "candidate pipeline": "near-misses observed 499 (86 new pairs)   candidates +86 / -0"
                              "   pruned: parent-child 59, hb-inference 0",
        "run cache": "hits 17   misses 17   writes 17   hit rate 50.0%",
        "scheduler": "simulated runs 17   context switches 767   virtual time 417.0 ms total",
        "cells": 34,
    }


def session_records(tmp_path, work):
    """Run ``work()`` under an obs session; its telemetry records."""
    obs.configure(tmp_path / "obs")
    try:
        work()
        obs.flush()
    finally:
        obs.disable()
    return [r for s in load_obs_dir(tmp_path / "obs").telemetry_streams for r in s.events]


def test_every_simulated_run_writes_one_record(tmp_path, capsys):
    """Dossier replays included: runs recorded equals simulated runs."""
    assert main(["detect", "--bug", "Bug-11", "--obs-dir", str(tmp_path / "obs")]) == 0
    obs.disable()
    capsys.readouterr()
    data = load_obs_dir(tmp_path / "obs")
    kinds = [run["kind"] for run in data.runs]
    assert kinds.count("replay") == 1 and kinds.count("prep") == 1
    assert len(data.runs) == data.counts["sched.runs"] == 3
    assert "runs recorded: 3" in render_report(data)
    # Replays decide nothing: the run ledger leaves them out.
    assert data.ledger["runs"] == 2


def test_run_records_count_their_own_run(tmp_path):
    """WaffleBasic carries one candidate set across its runs: each run
    record counts the pairs that run added and removed, and their sum
    is the set's lifetime total."""
    from repro.apps import bug_workload
    from repro.baselines.wafflebasic import WaffleBasic
    from repro.core.config import WaffleConfig

    outcomes = []
    records = session_records(tmp_path, lambda: outcomes.append(
        WaffleBasic(WaffleConfig()).detect(bug_workload("Bug-1"), max_detection_runs=6)))
    runs = [r for r in records if r["type"] == "run"]
    assert len(runs) > 1 and all(r["kind"] == "online" for r in runs)
    added = [r["candidates_added"] for r in runs]
    assert sum(added) == len(outcomes[0].coverage["pairs"]) > 0
    assert added[-1] < sum(added)  # not a running total
    assert not [r for r in records if r["type"] == "analysis"]


def test_each_analyzed_trace_writes_one_analysis_record(tmp_path):
    """A preparation analyzes its trace twice (the plan and the Table 2
    thread-safety census); a plan-cache hit analyzes nothing."""
    from repro.apps import get_app
    from repro.core.config import DEFAULT_CONFIG
    from repro.harness.cache import PlanCache
    from repro.harness.runner import prepare_test

    test = get_app("netmq").multithreaded_tests[0]

    def prepare():
        cache = PlanCache(tmp_path / "cache")
        return prepare_test(test, DEFAULT_CONFIG, cache=cache, test_id="netmq:t")

    cold = session_records(tmp_path / "cold", prepare)
    analyses = [r for r in cold if r["type"] == "analysis"]
    assert len(analyses) == 2
    assert sum(r["candidates_added"] for r in analyses) == sum(r["pairs_new"] for r in analyses)
    warm = session_records(tmp_path / "warm", prepare)
    assert not [r for r in warm if r["type"] in ("analysis", "run")]
