"""Injection runtimes: the delay-or-not engine, planned and online hooks."""

import gc
import random
import weakref

import pytest

from repro.core.analyzer import InjectionPlan, AnalysisStats
from repro.core.candidates import CandidateKind, CandidatePair, CandidateSet, GapObservation
from repro.core.config import WaffleConfig
from repro.core.delay_policy import DecayState, FixedDelayPolicy
from repro.core.interference import InterferenceIndex
from repro.core.runtime import InjectionEngine, OnlineInjectionHook, PlannedInjectionHook
from repro.sim.api import Simulation
from repro.sim.instrument import AccessType, Location, PendingAccess


def make_pair(delay="l1", other="l2", kind=CandidateKind.USE_AFTER_FREE):
    return CandidatePair(kind=kind, delay_location=Location(delay), other_location=Location(other))


def pending(site="l1", access=AccessType.USE, tid=1, ts=0.0, oid=1):
    return PendingAccess(
        location=Location(site),
        access_type=access,
        object_id=oid,
        thread_id=tid,
        timestamp=ts,
    )


def make_engine(config=None, pairs=(), interference=None, decay=None):
    config = config or WaffleConfig()
    candidates = CandidateSet()
    for pair in pairs:
        candidates.add(pair)
    return InjectionEngine(
        config=config,
        candidates=candidates,
        decay=decay or DecayState(config.decay_lambda),
        delay_policy=FixedDelayPolicy(config.fixed_delay_ms),
        interference=interference,
        rng=random.Random(0),
    )


class TestInjectionEngine:
    def test_non_candidate_site_never_delayed(self):
        engine = make_engine(pairs=[make_pair(delay="l1")])
        assert engine.decide(pending(site="other")) == 0.0

    def test_candidate_site_delayed_at_full_probability(self):
        engine = make_engine(pairs=[make_pair(delay="l1")])
        assert engine.decide(pending(site="l1")) == 100.0
        assert engine.ledger.count == 1

    def test_injection_decays_probability(self):
        engine = make_engine(pairs=[make_pair(delay="l1")])
        engine.decide(pending(site="l1", ts=0.0))
        assert engine.decay.probability("l1") == pytest.approx(0.9)

    def test_retired_site_removes_pairs(self):
        config = WaffleConfig(decay_lambda=1.0)
        engine = make_engine(config=config, pairs=[make_pair(delay="l1")])
        # First injection decays 1.0 -> 0.0 and retires the site.
        assert engine.decide(pending(site="l1", ts=0.0)) == 100.0
        assert engine.candidates.pairs_for_delay_location(Location("l1")) == []
        assert engine.decide(pending(site="l1", ts=200.0)) == 0.0

    def test_interference_skip(self):
        index = InterferenceIndex([frozenset({"l1", "lx"})])
        engine = make_engine(
            pairs=[make_pair(delay="l1"), make_pair(delay="lx", other="ly")],
            interference=index,
        )
        # A delay goes active at lx...
        assert engine.decide(pending(site="lx", ts=0.0)) == 100.0
        # ... so a concurrent delay at l1 is skipped, without decaying.
        assert engine.decide(pending(site="l1", ts=50.0)) == 0.0
        assert engine.skipped_interference == 1
        assert engine.decay.probability("l1") == 1.0

    def test_interference_expired_no_skip(self):
        index = InterferenceIndex([frozenset({"l1", "lx"})])
        engine = make_engine(
            pairs=[make_pair(delay="l1"), make_pair(delay="lx", other="ly")],
            interference=index,
        )
        engine.decide(pending(site="lx", ts=0.0))
        assert engine.decide(pending(site="l1", ts=150.0)) == 100.0

    def test_self_interference(self):
        index = InterferenceIndex([frozenset({"l1"})])
        engine = make_engine(pairs=[make_pair(delay="l1")], interference=index)
        assert engine.decide(pending(site="l1", ts=0.0, tid=1)) == 100.0
        assert engine.decide(pending(site="l1", ts=10.0, tid=2)) == 0.0
        assert engine.skipped_interference == 1

    def test_interference_control_flag_off(self):
        config = WaffleConfig().without("interference_control")
        index = InterferenceIndex([frozenset({"l1"})])
        engine = make_engine(config=config, pairs=[make_pair(delay="l1")], interference=index)
        engine.decide(pending(site="l1", ts=0.0, tid=1))
        assert engine.decide(pending(site="l1", ts=10.0, tid=2)) == 100.0

    def test_probability_draw_can_skip(self):
        engine = make_engine(pairs=[make_pair(delay="l1")])
        engine.decay.register("l1")
        for _ in range(9):
            engine.decay.decay("l1")  # p = 0.1
        injected = sum(
            1 for i in range(100) if engine.decide(pending(site="l1", ts=1000.0 * i)) > 0
        )
        # With p around 0.1, roughly 10 of 100 injections fire.
        assert 0 < injected < 40


class TestPlannedInjectionHook:
    def _plan(self, config):
        candidates = CandidateSet()
        pair = make_pair(delay="p.use:1", other="p.dispose:2")
        candidates.add(
            pair,
            GapObservation(
                gap_ms=10.0,
                timestamp_first=0.0,
                timestamp_second=10.0,
                object_id=1,
                thread_first=1,
                thread_second=2,
            ),
        )
        return InjectionPlan(
            candidates=candidates,
            delay_lengths={"p.use:1": 10.0},
            interference=set(),
            stats=AnalysisStats(),
        )

    def test_variable_delay_length(self, config):
        hook = PlannedInjectionHook(self._plan(config), config, DecayState(config.decay_lambda))
        delay = hook.before_access(pending(site="p.use:1"))
        assert delay == pytest.approx(config.alpha * 10.0)

    def test_fixed_length_when_custom_disabled(self, config):
        cfg = config.without("custom_delay_length")
        hook = PlannedInjectionHook(self._plan(cfg), cfg, DecayState(cfg.decay_lambda))
        assert hook.before_access(pending(site="p.use:1")) == cfg.fixed_delay_ms

    def test_unsafe_calls_not_delayed(self, config):
        hook = PlannedInjectionHook(self._plan(config), config, DecayState(config.decay_lambda))
        assert hook.before_access(pending(site="p.use:1", access=AccessType.UNSAFE_CALL)) == 0.0

    def test_stats_accessors(self, config):
        hook = PlannedInjectionHook(self._plan(config), config, DecayState(config.decay_lambda))
        hook.before_access(pending(site="p.use:1"))
        assert hook.delays_injected == 1
        assert hook.total_delay_ms > 0
        assert len(hook.delay_intervals) == 1
        assert hook.overlap_ratio() == 0.0


class TestOnlineInjectionHook:
    def test_discovers_and_delays_in_same_run(self, config):
        """The WaffleBasic property: a repeated init/use race is both
        identified and delayed within a single run."""
        decay = DecayState(config.decay_lambda)
        hook = OnlineInjectionHook(config, decay, seed=1)
        sim = Simulation(seed=1, hook=hook)
        requests = sim.channel("q")

        def consumer(sim):
            while True:
                ref = yield from requests.get()
                if ref is None:
                    return
                yield from sim.sleep(1.0)
                yield from sim.use(ref, member="M", loc="on.use:1")

        def main(sim):
            t = sim.fork(consumer(sim), name="consumer")
            for i in range(6):
                yield from sim.sleep(4.0)
                ref = sim.ref("r%d" % i)
                requests.put(ref)
                yield from sim.assign(ref, sim.new("T"), loc="on.init:1")
            requests.close()
            yield from sim.join(t)

        result = sim.run(main(sim))
        # After iteration 1 identifies the pair, iteration 2's init is
        # delayed 100 ms, so the consumer's use hits a null reference.
        assert result.crashed
        assert hook.delays_injected >= 1

    def test_tsv_mode_only_delays_unsafe_calls(self, config):
        decay = DecayState(config.decay_lambda)
        hook = OnlineInjectionHook(config, decay, seed=1, tsv_mode=True)
        assert hook.before_access(pending(site="x", access=AccessType.USE)) == 0.0

    def test_hb_inference_removes_ordered_pair(self, config):
        """A delay at l1 whose paired l2 lands just after the delay ends
        (without executing during it) is inferred as ordered."""
        decay = DecayState(config.decay_lambda)
        candidates = CandidateSet()
        hook = OnlineInjectionHook(config, decay, candidates=candidates, seed=1, hb_inference=True)
        sim = Simulation(seed=1, hook=hook)
        ref = sim.ref("r")
        gate = sim.event("gate")

        def consumer(sim):
            yield from gate.wait()
            yield from sim.use(ref, member="M", loc="hb.use:2")

        def main(sim):
            yield from sim.assign(ref, sim.new("T"), loc="hb.seed:0")
            t = sim.fork(consumer(sim), name="consumer")
            # Round 1: near-miss (init@hb.init:1, use@hb.use:2).
            yield from sim.assign(ref, sim.new("T"), loc="hb.init:1")
            gate.set()
            yield from sim.join(t)
            # Round 2: the init is delayed; the gate means the use lands
            # right after the delay ends -> happens-before inferred.
            gate.clear()
            t2 = sim.fork(consumer(sim), name="consumer2")
            yield from sim.assign(ref, sim.new("T"), loc="hb.init:1")
            gate.set()
            yield from sim.join(t2)

        sim.run(main(sim))
        assert candidates.pruned_hb_inference >= 1

    def test_parent_child_mode_attaches_clocks(self, config):
        decay = DecayState(config.decay_lambda)
        hook = OnlineInjectionHook(config, decay, seed=1, parent_child=True, hb_inference=False)
        sim = Simulation(seed=1, hook=hook)
        ref = sim.ref("r")

        def child(sim):
            yield from sim.use(ref, member="M", loc="pc.use:1")

        def main(sim):
            yield from sim.assign(ref, sim.new("T"), loc="pc.init:1")
            t = sim.fork(child(sim), name="child")
            yield from sim.join(t)

        result = sim.run(main(sim))
        assert not result.crashed
        # The fork-ordered (init, use) pair was pruned online.
        assert len(hook.candidates) == 0
        assert hook.candidates.pruned_parent_child >= 1


def gated_rounds(sim, rounds=4):
    """Sibling producer/consumer rounds: the consumer's use waits for the
    producer's init, so a delayed init never crashes the run."""
    ref = sim.ref("r")

    def producer(sim, gate):
        yield from sim.assign(ref, sim.new("T"), loc="gc.init:1")
        gate.set()

    def consumer(sim, gate):
        yield from gate.wait()
        yield from sim.use(ref, member="M", loc="gc.use:2")

    def main(sim):
        for _ in range(rounds):
            gate = sim.event("gate")
            threads = [sim.fork(consumer(sim, gate)), sim.fork(producer(sim, gate))]
            yield from sim.join_all(threads)

    return main(sim)


class TestHookWiring:
    @pytest.mark.parametrize(
        "options",
        [
            # WaffleBasic.
            dict(hb_inference=True),
            # The no-preparation-run ablation: parent-child pruning,
            # learned delays and online interference discovery.
            dict(
                variable_delays=True,
                hb_inference=False,
                parent_child=True,
                online_interference=True,
            ),
        ],
        ids=["wafflebasic", "parent_child"],
    )
    def test_finished_run_is_freed_by_refcounting(self, config, options):
        """Nothing the hook owns refers back to it, so a finished run's
        hook, tracker and windowed events die without the collector."""
        gc.disable()
        try:
            hook = OnlineInjectionHook(config, DecayState(config.decay_lambda), seed=1, **options)
            sim = Simulation(seed=1, hook=hook)
            result = sim.run(gated_rounds(sim))
            assert not result.crashed
            assert hook._tracker.pairs_observed >= 1
            assert hook.delays_injected >= 1
            alive = weakref.ref(hook)
            del hook, sim, result
            assert alive() is None
        finally:
            gc.enable()

    def test_site_gate_skips_the_engine(self, config):
        candidates = CandidateSet()
        candidates.add(make_pair(delay="l1"))
        hook = OnlineInjectionHook(
            config, DecayState(config.decay_lambda), candidates=candidates, seed=1
        )
        decided = []
        hook._decide = lambda pending: decided.append(pending.location.site) or 0.0
        hook.before_access(pending(site="elsewhere"))
        hook.before_access(pending(site="l1"))
        assert decided == ["l1"]

    def test_schedule_capture_sees_every_memorder_access(self, config):
        hook = OnlineInjectionHook(
            config, DecayState(config.decay_lambda), seed=1, capture_schedule=True
        )
        hook.candidates.add(make_pair(delay="l1"))
        hook.before_access(pending(site="elsewhere"))
        hook.before_access(pending(site="l1"))
        hook.before_access(pending(site="l1"))
        assert hook.injection_schedule[0]["nth"] == 0
        assert hook._decide.__self__.occurrences == {"elsewhere": 1, "l1": 2}


def _planned_schedules(monkeypatch, workload, gate):
    """Each detection run's captured schedule for one Waffle session
    asked for dossiers, with the planned hook's site gate up or down."""
    from repro.core.detector import Waffle

    hooks = []
    simulate = Waffle._simulate

    def spy(self, workload, hook, seed):
        if isinstance(hook, PlannedInjectionHook):
            hooks.append(hook)
        return simulate(self, workload, hook, seed)

    with monkeypatch.context() as patch:
        patch.setattr(Waffle, "_simulate", spy)
        patch.setattr(PlannedInjectionHook, "_gate_while_capturing", gate)
        Waffle(WaffleConfig(seed=3)).detect(workload, max_detection_runs=8, dossiers=True)
    assert hooks and all((hook._delay_sites is not None) is gate for hook in hooks)
    return [hook.injection_schedule for hook in hooks]


class TestPlannedCaptureGate:
    """The planned hook keeps its site gate while capturing a schedule:
    its candidate set only shrinks within a run, so every site still
    delayable has had each MemOrder access counted."""

    @pytest.mark.parametrize(
        "name",
        ["Bug-1", "Bug-5", "Bug-11", "Bug-16"] + ["gen-%d" % seed for seed in range(10)],
    )
    def test_gated_capture_equals_ungated_capture(self, monkeypatch, name):
        if name.startswith("gen-"):
            from repro.gen.registry import gen_app

            workload = gen_app(int(name[4:])).tests[0]
        else:
            from repro.apps import bug_workload

            workload = bug_workload(name)
        gated = _planned_schedules(monkeypatch, workload, gate=True)
        ungated = _planned_schedules(monkeypatch, workload, gate=False)
        assert gated == ungated
        assert any(gated)
