"""Trace analyzer: candidate set, delay lengths, interference, stats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.analyzer import InjectionPlan, analyze_trace
from repro.core.candidates import CandidateKind
from repro.core.config import WaffleConfig
from repro.core.trace import RecordingHook, Trace
from repro.sim.api import Simulation
from repro.sim.instrument import AccessEvent, AccessType, Location


def ev(site, access, oid=1, tid=1, ts=0.0, vc=None):
    return AccessEvent(
        location=Location(site),
        access_type=access,
        object_id=oid,
        thread_id=tid,
        timestamp=ts,
        vc_snapshot=vc,
    )


def trace_of(events):
    trace = Trace()
    for event in events:
        trace.append(event)
    return trace


class TestAnalyzeTrace:
    def test_builds_candidates_and_lengths(self, config):
        trace = trace_of(
            [
                ev("use", AccessType.USE, tid=1, ts=0.0),
                ev("dispose", AccessType.DISPOSE, tid=2, ts=30.0),
            ]
        )
        plan = analyze_trace(trace, config)
        assert len(plan.candidates) == 1
        assert plan.delay_lengths["use"] == pytest.approx(30.0)
        assert plan.delay_sites == {"use"}

    def test_delay_length_is_max_over_pairs_sharing_site(self, config):
        trace = trace_of(
            [
                ev("use", AccessType.USE, oid=1, tid=1, ts=0.0),
                ev("d1", AccessType.DISPOSE, oid=1, tid=2, ts=10.0),
                ev("use", AccessType.USE, oid=2, tid=1, ts=100.0),
                ev("d2", AccessType.DISPOSE, oid=2, tid=2, ts=160.0),
            ]
        )
        plan = analyze_trace(trace, config)
        assert plan.delay_lengths["use"] == pytest.approx(60.0)

    def test_parent_child_pruning_uses_vc(self, config):
        ordered_vc_init = {1: 1}
        ordered_vc_use = {1: 2, 2: 1}  # init happens-before use via fork
        trace = trace_of(
            [
                ev("init", AccessType.INIT, tid=1, ts=0.0, vc=ordered_vc_init),
                ev("use", AccessType.USE, tid=2, ts=5.0, vc=ordered_vc_use),
            ]
        )
        plan = analyze_trace(trace, config)
        assert len(plan.candidates) == 0
        assert plan.stats.pruned_parent_child == 1

    def test_concurrent_vc_not_pruned(self, config):
        trace = trace_of(
            [
                ev("init", AccessType.INIT, tid=1, ts=0.0, vc={1: 2}),
                ev("use", AccessType.USE, tid=2, ts=5.0, vc={1: 1, 2: 1}),
            ]
        )
        plan = analyze_trace(trace, config)
        assert len(plan.candidates) == 1

    def test_pruning_disabled_by_config(self, config):
        cfg = config.without("parent_child_analysis")
        trace = trace_of(
            [
                ev("init", AccessType.INIT, tid=1, ts=0.0, vc={1: 1}),
                ev("use", AccessType.USE, tid=2, ts=5.0, vc={1: 2, 2: 1}),
            ]
        )
        plan = analyze_trace(trace, cfg)
        assert len(plan.candidates) == 1

    def test_interference_disabled_by_config(self, config):
        cfg = config.without("interference_control")
        trace = trace_of(
            [
                ev("init", AccessType.INIT, tid=1, ts=0.5),
                ev("use", AccessType.USE, tid=2, ts=1.2),
                ev("use", AccessType.USE, tid=2, ts=6.2),
                ev("dispose", AccessType.DISPOSE, tid=1, ts=8.0),
            ]
        )
        assert analyze_trace(trace, cfg).interference == set()
        assert analyze_trace(trace, config).interference != set()

    def test_stats_censuses(self, config):
        trace = trace_of(
            [
                ev("init", AccessType.INIT, tid=1, ts=0.0),
                ev("use", AccessType.USE, tid=2, ts=5.0),
                ev("tsv", AccessType.UNSAFE_CALL, tid=1, ts=6.0),
            ]
        )
        stats = analyze_trace(trace, config).stats
        assert stats.memorder_sites == 2
        assert stats.tsv_sites == 1
        assert stats.memorder_ops == 2
        assert stats.candidate_pairs == 1
        assert stats.injection_sites == 1
        assert stats.init_instance_counts == [1]

    def test_median_init_instances(self):
        from repro.core.analyzer import AnalysisStats

        assert AnalysisStats(init_instance_counts=[1, 2, 3]).median_init_instances == 2
        assert AnalysisStats(init_instance_counts=[1, 2, 3, 5]).median_init_instances == 2.5
        assert AnalysisStats().median_init_instances == 0.0


class TestPlanRoundtrip:
    def test_to_from_dict(self, config):
        trace = trace_of(
            [
                ev("use", AccessType.USE, tid=1, ts=0.0),
                ev("dispose", AccessType.DISPOSE, tid=2, ts=30.0),
            ]
        )
        plan = analyze_trace(trace, config)
        restored = InjectionPlan.from_dict(plan.to_dict())
        assert restored.delay_lengths == plan.delay_lengths
        assert restored.interference == plan.interference
        assert restored.delay_sites == plan.delay_sites
        assert len(restored.candidates) == len(plan.candidates)

    def test_serialisation_independent_of_hash_seed(self):
        # The plan cache stores these records; the interference set is
        # a set of frozensets, whose iteration order follows
        # PYTHONHASHSEED. Apps with several interference pairs expose it.
        script = (
            "import json\n"
            "from repro.apps import get_app\n"
            "from repro.core.config import WaffleConfig\n"
            "from repro.harness.cache import prep_to_record\n"
            "from repro.harness.runner import prepare_test\n"
            "for name in ('mqttnet', 'npgsql', 'litedb', 'signalr'):\n"
            "    test = get_app(name).multithreaded_tests[0]\n"
            "    prep = prepare_test(test, WaffleConfig(seed=0), seed=0)\n"
            "    print(json.dumps(prep_to_record(prep), sort_keys=True))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, check=True, timeout=120,
            )
            outputs.append(proc.stdout)
        assert b'"interference": [[' in outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]


class TestEndToEndAnalysis:
    def test_recorded_simulation_produces_plan(self, config):
        hook = RecordingHook()
        sim = Simulation(seed=1, hook=hook)
        ref = sim.ref("r")

        def user(sim):
            yield from sim.sleep(2)
            yield from sim.use(ref, member="M", loc="e2e.use:1")

        def main(sim):
            yield from sim.assign(ref, sim.new("T"), loc="e2e.init:1")
            t = sim.fork(user(sim), name="user")
            yield from sim.sleep(5)
            yield from sim.dispose(ref, loc="e2e.dispose:1")
            yield from sim.join(t)

        sim.run(main(sim))
        plan = analyze_trace(hook.trace, config)
        # The (use, dispose) pair survives; the fork-ordered (init, use)
        # pair is pruned by the vector clocks.
        kinds = {p.kind for p in plan.candidates}
        assert kinds == {CandidateKind.USE_AFTER_FREE}
        assert plan.stats.pruned_parent_child >= 1
