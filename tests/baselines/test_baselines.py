"""WaffleBasic, Tsvd, stress runner, and ablation factories."""

import pytest

from repro.baselines import (
    ALL_ABLATIONS,
    DESIGN_POINTS,
    StressRunner,
    Tsvd,
    WaffleBasic,
    make_ablation,
)
from repro.core.config import WaffleConfig
from repro.core.detector import Waffle, Workload


def repeated_ubi_workload():
    """A multi-instance init/use race: WaffleBasic can expose it in one
    run; Waffle needs prep + detection."""

    def build(sim):
        requests = sim.channel("q")

        def consumer(sim):
            while True:
                ref = yield from requests.get()
                if ref is None:
                    return
                yield from sim.sleep(1.2)
                yield from sim.use(ref, member="Route", loc="bl.use:1")

        def main(sim):
            t = sim.fork(consumer(sim), name="consumer")
            for i in range(6):
                yield from sim.sleep(4.0)
                ref = sim.ref("r%d" % i)
                requests.put(ref)
                yield from sim.assign(ref, sim.new("T"), loc="bl.init:1")
            requests.close()
            yield from sim.join(t)

        return main(sim)

    return Workload("repeated_ubi", build)


def tsv_workload():
    """Two thread-unsafe calls whose windows never overlap naturally,
    sized so that Tsvd's fixed 100 ms delay falls inside the Figure 2
    exposure range (T3 - T2, T4 - T1): call A at [0, 4], call B at
    [95, 107] -> range (91, 107) contains 100."""

    def build(sim):
        table = sim.unsafe_dict()

        def caller(sim, key, start, duration):
            yield from sim.sleep(start)
            yield from sim.unsafe_call(
                table, "add", key, 1, loc="bl.call:%s" % key, duration=duration
            )

        def main(sim):
            a = sim.fork(caller(sim, "a", 0.0, 4.0), name="a")
            b = sim.fork(caller(sim, "b", 95.0, 12.0), name="b")
            yield from sim.join(a)
            yield from sim.join(b)

        return main(sim)

    return Workload("tsv", build)


class TestWaffleBasic:
    def test_exposes_repeated_race_in_first_run(self):
        outcome = WaffleBasic(WaffleConfig(seed=2)).detect(
            repeated_ubi_workload(), max_detection_runs=5
        )
        assert outcome.bug_found
        assert outcome.runs_to_expose == 1
        assert outcome.tool == "wafflebasic"

    def test_all_runs_are_detection_runs(self):
        outcome = WaffleBasic(WaffleConfig(seed=2)).detect(
            repeated_ubi_workload(), max_detection_runs=3
        )
        assert all(r.kind == "detect" for r in outcome.runs)

    def test_state_persists_across_runs(self):
        """A single-instance race is undetectable in run 1 (identified
        only after the fact) but exposed in run 2 via persisted S."""

        def build(sim):
            ref = sim.ref("h")
            started = sim.event("st")

            def handler(sim):
                started.set()
                yield from sim.sleep(3.0)
                yield from sim.use(ref, member="OnEvent", loc="bl2.use:1")

            def main(sim):
                t = sim.fork(handler(sim), name="handler")
                yield from started.wait()
                yield from sim.sleep(1.0)
                yield from sim.assign(ref, sim.new("T"), loc="bl2.init:1")
                yield from sim.join(t)

            return main(sim)

        outcome = WaffleBasic(WaffleConfig(seed=2)).detect(
            Workload("single_ubi", build), max_detection_runs=5
        )
        assert outcome.bug_found
        assert outcome.runs_to_expose == 2


class TestTsvd:
    def test_exposes_tsv_with_delays(self):
        outcome = Tsvd(WaffleConfig(seed=1)).detect(tsv_workload(), max_detection_runs=10)
        assert outcome.tsv_found
        assert outcome.violations

    def test_never_reports_memorder_workloads(self):
        outcome = Tsvd(WaffleConfig(seed=1)).detect(
            repeated_ubi_workload(), max_detection_runs=3
        )
        assert not outcome.tsv_found
        # Tsvd instruments only unsafe calls; it injects nothing here.
        assert all(r.delays_injected == 0 for r in outcome.runs)


class TestStressRunner:
    def test_rare_bug_never_manifests(self):
        runner = StressRunner(WaffleConfig(seed=1))
        outcome = runner.detect(repeated_ubi_workload(), max_detection_runs=25)
        assert runner.spontaneous_manifestations(outcome) == 0
        assert len(outcome.runs) == 25
        assert not outcome.bug_found


class TestAblations:
    def test_factories_cover_all_design_points(self):
        assert set(ALL_ABLATIONS) == set(DESIGN_POINTS)

    @pytest.mark.parametrize("point", DESIGN_POINTS)
    def test_each_ablation_disables_its_flag(self, point):
        driver = make_ablation(point, WaffleConfig(seed=1))
        assert isinstance(driver, Waffle)
        assert getattr(driver.config, point) is False
        assert "off" in driver.name

    def test_unknown_design_point_rejected(self):
        with pytest.raises(ValueError):
            make_ablation("bogus")

    def test_no_custom_delay_ablation_still_finds_short_gap_bug(self):
        driver = make_ablation("custom_delay_length", WaffleConfig(seed=1))
        outcome = driver.detect(repeated_ubi_workload(), max_detection_runs=5)
        assert outcome.bug_found
