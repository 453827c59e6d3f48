"""Experiment drivers: smoke tests on restricted subsets plus shape
assertions that mirror the paper's qualitative claims."""

import pytest

from repro.harness import experiments, tables
from repro.harness.supervisor import supervised
from repro.harness.runner import (
    analyze_test,
    run_baseline,
    run_online_detection,
    run_planned_detection,
    run_recording,
)
from repro.harness.runner import test_time_limit as compute_time_limit
from repro.apps import get_app
from repro.core.candidates import CandidateSet
from repro.core.config import DEFAULT_CONFIG
from repro.core.delay_policy import DecayState
from repro.obs import eventbus


class TestRunner:
    def test_baseline_run(self):
        test = get_app("sshnet").test("disconnect_during_keepalive")
        run = run_baseline(test, seed=1)
        assert run.virtual_time_ms > 0
        assert not run.crashed
        assert run.delays_injected == 0

    def test_recording_run_and_plan(self, config):
        test = get_app("sshnet").test("disconnect_during_keepalive")
        run, trace = run_recording(test, config, seed=1)
        assert len(trace) == run.op_count
        plan = analyze_test(test, config, seed=1)
        assert plan.delay_sites

    def test_planned_detection_crashes_bug_test(self, config):
        test = get_app("sshnet").test("disconnect_during_keepalive")
        plan = analyze_test(test, config, seed=1)
        run, hook = run_planned_detection(
            test, plan, config, DecayState(config.decay_lambda), seed=2, hook_seed=99
        )
        assert run.crashed
        assert run.delays_injected >= 1

    def test_online_detection_persists_state(self, config):
        test = get_app("sshnet").test("disconnect_during_keepalive")
        decay = DecayState(config.decay_lambda)
        candidates = CandidateSet()
        run1, _ = run_online_detection(test, config, decay, candidates, seed=1, hook_seed=11)
        assert len(candidates) > 0
        run2, _ = run_online_detection(test, config, decay, candidates, seed=2, hook_seed=12)
        assert run2.delays_injected >= 1

    def test_time_limit_floor_and_factor(self):
        assert compute_time_limit(1.0) == 3000.0
        assert compute_time_limit(1000.0) == 30_000.0


class TestTable2:
    def test_shape(self):
        rows = experiments.table2_sites(apps=["nsubstitute", "netmq"], seed=1)
        assert len(rows) == 2
        for row in rows:
            # MemOrder sites dominate TSV sites (the section 3.3 claim).
            assert row.mo_instr_sites > 3 * row.tsv_instr_sites
            assert row.mo_instr_sites > 0


class TestFigure2:
    def test_conditions(self):
        points = experiments.figure2_timing_conditions(delays_ms=(0, 9, 11, 30), seed=1)
        by_delay = {p.delay_ms: p for p in points}
        # No delay: nothing manifests.
        assert not by_delay[0].tsv_exposed and not by_delay[0].memorder_exposed
        # Bounded window: TSV only.
        assert by_delay[9].tsv_exposed and not by_delay[9].memorder_exposed
        # Past the full gap: MemOrder; overshoots the TSV window.
        assert by_delay[30].memorder_exposed and not by_delay[30].tsv_exposed

    def test_memorder_exposure_is_monotone_in_delay(self):
        """Once the delay exceeds the gap, longer only stays exposed --
        the fundamental asymmetry of Figure 2."""
        points = experiments.figure2_timing_conditions(
            delays_ms=tuple(range(0, 40, 2)), seed=1
        )
        seen_exposed = False
        for point in points:
            if seen_exposed:
                assert point.memorder_exposed
            seen_exposed = seen_exposed or point.memorder_exposed
        assert seen_exposed


class TestSection33:
    def test_overlap_rows(self):
        rows = experiments.overlap_ratios(apps=["nsubstitute"], seed=1)
        assert len(rows) == 1
        assert 0.0 <= rows[0].tsvd_overlap < 1.0
        assert 0.0 <= rows[0].wafflebasic_overlap < 1.0

    def test_dynamic_instances(self):
        rows, overall = experiments.dynamic_instances(apps=["nsubstitute", "sshnet"], seed=1)
        assert len(rows) == 2
        assert overall >= 1.0
        for row in rows:
            assert row.init_sites > 0


class TestTable4:
    def test_single_bug_row(self):
        rows = experiments.table4_detection(attempts=3, budget=8, bugs=["Bug-1"], base_seed=0)
        (row,) = rows
        assert row.bug.bug_id == "Bug-1"
        assert row.waffle_runs == 2
        assert row.basic_runs == 2
        assert row.waffle_slowdown is not None and row.waffle_slowdown > 1.0

    def test_missed_bug_row(self):
        rows = experiments.table4_detection(attempts=3, budget=8, bugs=["Bug-10"], base_seed=0)
        (row,) = rows
        assert row.basic_runs is None
        assert row.waffle_runs == 2


class TestTables567:
    def test_table5_shape(self):
        rows = experiments.table5_overhead(apps=["nsubstitute"], seed=1)
        (row,) = rows
        assert row.baseline_ms > 0
        # Waffle's detection run is cheaper than WaffleBasic's.
        assert row.waffle_run2_pct < row.basic_run2_pct

    def test_table6_shape(self):
        rows = experiments.table6_delays(apps=["nsubstitute"], seed=1)
        (row,) = rows
        # Variable-length delays: far less cumulative duration.
        assert row.waffle_duration_ms < row.basic_duration_ms

    def test_table7_runs(self):
        fanouts = []
        eventbus.configure(None).add_listener(
            lambda event: event["type"] == "fanout" and fanouts.append(event["unit"])
        )
        try:
            rows = experiments.table7_ablations(
                attempts=1, budget=4, base_seed=0, apps_for_perf=["nsubstitute"]
            )
        finally:
            eventbus.disable()
        # Waffle's reference bugs, every tool's perf probes, the ablations.
        assert fanouts == ["_table7_found_cell", "_table7_perf_cell", "_table7_found_cell"]
        assert len(rows) == 4
        points = {r.design_point for r in rows}
        assert points == {
            "parent_child_analysis",
            "preparation_run",
            "custom_delay_length",
            "interference_control",
        }

    def test_table7_degrades_only_the_row_that_lost_a_cell(self, monkeypatch):
        real = experiments._table7_found_cell

        def cell(design_point, *rest):
            if design_point == "preparation_run":
                raise AssertionError("injected deterministic failure")
            return real(design_point, *rest)

        monkeypatch.setattr(experiments, "_table7_found_cell", cell)
        with supervised() as sup:
            rows = experiments.table7_ablations(
                attempts=1, budget=4, base_seed=0, apps_for_perf=["nsubstitute"]
            )
        assert [r and r.design_point for r in rows] == [
            "parent_child_analysis", None, "custom_delay_length", "interference_control",
        ]
        assert sup.stats.quarantined > 0


class TestStressControl:
    def test_no_spontaneous_manifestations(self):
        rows = experiments.stress_control(runs=5, bugs=["Bug-1", "Bug-11"], base_seed=0)
        assert len(rows) == 2
        for row in rows:
            assert row.spontaneous_manifestations == 0
            assert row.runs == 5


class TestRenderers:
    def test_design_matrix_mentions_tools(self):
        text = tables.design_matrix()
        assert "Tsvd" in text and "Waffle" in text

    def test_render_each_table(self):
        t2 = experiments.table2_sites(apps=["nsubstitute"], seed=1)
        assert "NSubstitute" in tables.render_table2(t2)
        fig2 = experiments.figure2_timing_conditions(delays_ms=(0, 11), seed=1)
        assert "delay" in tables.render_figure2(fig2)
        t4 = experiments.table4_detection(attempts=1, budget=4, bugs=["Bug-1"])
        assert "Bug-1" in tables.render_table4(t4)
        t5 = experiments.table5_overhead(apps=["nsubstitute"], seed=1)
        assert "%" in tables.render_table5(t5)
        t6 = experiments.table6_delays(apps=["nsubstitute"], seed=1)
        assert "delays" in tables.render_table6(t6)
        stress = experiments.stress_control(runs=2, bugs=["Bug-1"])
        assert "Bug-1" in tables.render_stress(stress)
