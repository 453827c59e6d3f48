"""The contract the simulator's per-operation fast path keeps.

The scheduler and the instrumented operations take shortcuts (bare float
sleeps, hooks bound once per simulation, no event records for hooks that
ignore them, threads resumed in place); these tests pin the observable
behavior those shortcuts must preserve.
"""

import math

import pytest

from repro.pythreads.runtime import RealThreadsRuntime
from repro.sim import api as sim_api
from repro.sim.api import Simulation
from repro.sim.instrument import (
    AccessEvent,
    AccessType,
    CostModel,
    InstrumentationHook,
    NoopHook,
    clamp_delay,
    consumes_events,
)
from repro.sim.scheduler import BLOCK, YIELD, Sleep
from repro.sim.thread import ThreadState


class Recorder(InstrumentationHook):
    def __init__(self):
        self.events = []

    def after_access(self, event: AccessEvent) -> None:
        self.events.append(event)


class FixedDelay(Recorder):
    """Returns ``value`` from every ``before_access`` and records events."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def before_access(self, pending):
        return self.value


def _run_one(gen_fn, hook=None, **kwargs):
    sim = Simulation(seed=1, hook=hook, **kwargs)
    result = sim.run(gen_fn(sim))
    return sim, result


class TestCommandProtocol:
    @pytest.mark.parametrize("bad", ["x", None, object(), 3, True])
    def test_non_command_yield_fails_the_thread(self, bad):
        def main(sim):
            yield bad

        sim, result = _run_one(main)
        assert result.crashed
        error = result.first_failure()
        assert isinstance(error, TypeError)
        assert "non-command value" in str(error)
        assert sim.scheduler.threads[1].state is ThreadState.FAILED

    def test_public_commands(self):
        class LongSleep(Sleep):
            __slots__ = ()

        def main(sim):
            yield Sleep(2.0)
            yield LongSleep(3.0)
            yield YIELD
            yield 1.5  # the simulator's own allocation-free sleep
            return sim.now

        sim, result = _run_one(main)
        assert not result.crashed
        assert sim.scheduler.threads[1].result == pytest.approx(6.5)

    def test_block_waits_for_a_wake(self):
        def sleeper(sim):
            yield BLOCK
            return sim.now

        def main(sim):
            child = sim.fork(sleeper(sim), name="child")
            yield from sim.sleep(4.0)
            sim.scheduler.wake(child)
            value = yield from sim.join(child)
            return value

        sim, result = _run_one(main)
        assert sim.scheduler.threads[1].result == pytest.approx(4.0)

    @pytest.mark.parametrize("duration", [-1, -0.5, float("-inf"), float("nan")])
    def test_negative_or_nan_sleep_clamps_to_zero(self, duration):
        def main(sim):
            yield from sim.sleep(duration)
            yield from sim.compute(duration, jitter=False)
            return sim.now

        sim, result = _run_one(main)
        assert not result.crashed
        assert sim.scheduler.threads[1].result == 0.0
        assert result.virtual_time == 0.0

    def test_integer_sleep_keeps_float_time(self):
        def main(sim):
            yield from sim.sleep(3)
            return sim.now

        sim, _ = _run_one(main)
        value = sim.scheduler.threads[1].result
        assert value == 3.0 and type(value) is float

    def test_in_place_resumes_count_as_steps(self):
        def main(sim):
            for _ in range(100):
                yield from sim.sleep(1.0)

        sim = Simulation(seed=0)
        sim.scheduler.max_steps = 50
        result = sim.run(main(sim))
        assert result.timed_out

    def test_in_place_resumes_respect_the_time_limit(self):
        def main(sim):
            for _ in range(100):
                yield from sim.sleep(1.0)

        sim, result = _run_one(main, time_limit_ms=10.0)
        assert result.timed_out
        assert result.virtual_time == pytest.approx(11.0)

    def test_equal_wake_times_stay_fifo(self):
        order = []

        def ticker(sim, name):
            for i in range(3):
                yield from sim.sleep(1.0)
                order.append((name, i))

        def main(sim):
            a = sim.fork(ticker(sim, "a"), name="a")
            b = sim.fork(ticker(sim, "b"), name="b")
            yield from sim.join_all([a, b])

        _run_one(main)
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]


def _delayed_use(value):
    """Run one USE (and one INIT) under a hook returning ``value``."""
    hook = FixedDelay(value)
    sim = Simulation(seed=1, hook=hook)
    ref = sim.ref("r")

    def main(sim):
        yield from sim.assign(ref, sim.new("T"), loc="t.init:1")
        yield from sim.use(ref, member="M", loc="t.use:2")

    result = sim.run(main(sim))
    return result, hook.events


class TestHookResults:
    @pytest.mark.parametrize(
        "value, delay",
        [
            (3, 3.0),
            (2.5, 2.5),
            (True, 1.0),
            (False, 0.0),
            (0, 0.0),
            (-4.0, 0.0),
            (-0.0, 0.0),
            (float("nan"), 0.0),
        ],
    )
    def test_numeric_results(self, value, delay):
        result, events = _delayed_use(value)
        assert not result.crashed
        assert [e.injected_delay for e in events] == [delay, delay]
        for event in events:
            assert type(event.injected_delay) is float
            assert not math.copysign(1.0, event.injected_delay) < 0
        # Two operations, each paying the injected delay before it runs.
        assert result.virtual_time >= 2 * delay

    @pytest.mark.parametrize("value", ["soon", None, object(), [1.0]])
    def test_non_numbers_fail_the_operation(self, value):
        result, events = _delayed_use(value)
        assert result.crashed
        error = result.first_failure()
        assert isinstance(error, TypeError)
        assert "must return a number" in str(error)
        assert events == []

    def test_unsafe_call_validates_the_same_way(self):
        for value, delay in ((2, 2.0), (-1.0, 0.0), (float("nan"), 0.0)):
            hook = FixedDelay(value)
            sim = Simulation(seed=1, hook=hook)
            table = sim.unsafe_dict()

            def main(sim):
                yield from sim.unsafe_call(table, "add", "k", 1, loc="t.add:1")

            assert not sim.run(main(sim)).crashed
            assert [e.injected_delay for e in hook.events] == [delay]

    @pytest.mark.parametrize(
        "value, expected",
        [(3, 3.0), (True, 1.0), (-2, 0.0), (float("nan"), 0.0), (float("inf"), math.inf)],
    )
    def test_clamp_delay(self, value, expected):
        assert clamp_delay(value) == expected

    @pytest.mark.parametrize("value", ["soon", None, object()])
    def test_clamp_delay_rejects_non_numbers(self, value):
        with pytest.raises(TypeError, match="must return a number"):
            clamp_delay(value)


class TestBackendsAgree:
    """The real-threads backend validates hook results like the simulator."""

    @pytest.mark.parametrize("value", [1, True, -5.0, 0, float("nan")])
    def test_recorded_delay_matches_the_simulator(self, value):
        _, sim_events = _delayed_use(value)
        hook = FixedDelay(value)
        rt = RealThreadsRuntime(hook=hook)
        ref = rt.ref("r")
        ref.assign(rt.new("T"), loc="t.init:1")
        ref.use(member="M", loc="t.use:2")
        assert [e.injected_delay for e in hook.events] == [
            e.injected_delay for e in sim_events
        ]

    @pytest.mark.parametrize("value", ["soon", None, object()])
    def test_non_numbers_raise(self, value):
        rt = RealThreadsRuntime(hook=FixedDelay(value))
        ref = rt.ref("r")
        with pytest.raises(TypeError, match="must return a number"):
            ref.assign(rt.new("T"), loc="t.init:1")


class TestHookBinding:
    def test_consumes_events(self):
        assert not consumes_events(NoopHook())
        assert not consumes_events(InstrumentationHook())
        assert consumes_events(Recorder())
        hook = NoopHook()
        hook.after_access = lambda event: None
        assert consumes_events(hook)

    def _count_events(self, monkeypatch, hook):
        built = []
        real = sim_api.AccessEvent

        def counting(*args, **kwargs):
            event = real(*args, **kwargs)
            built.append(event)
            return event

        monkeypatch.setattr(sim_api, "AccessEvent", counting)
        sim = Simulation(seed=1, hook=hook)
        ref = sim.ref("r")
        table = sim.unsafe_dict()

        def main(sim):
            yield from sim.assign(ref, sim.new("T"), loc="t.init:1")
            yield from sim.use(ref, member="M", loc="t.use:2")
            yield from sim.unsafe_call(table, "add", "k", 1, loc="t.add:3")
            yield from sim.dispose(ref, loc="t.dispose:4")

        result = sim.run(main(sim))
        assert not result.crashed
        return result, built

    def test_hook_without_after_access_gets_no_events(self, monkeypatch):
        calls = []

        class BeforeOnly(InstrumentationHook):
            def before_access(self, pending):
                calls.append(pending.location.site)
                return 0.0

        result, built = self._count_events(monkeypatch, BeforeOnly())
        assert built == []
        # before_access still runs exactly once per operation.
        assert calls == ["t.init:1", "t.use:2", "t.add:3", "t.dispose:4"]
        assert result.op_count == 4

    def test_instance_level_after_access_gets_events(self, monkeypatch):
        hook = NoopHook()
        seen = []
        hook.after_access = seen.append
        _, built = self._count_events(monkeypatch, hook)
        assert seen == built
        assert [e.access_type for e in seen] == [
            AccessType.INIT, AccessType.USE, AccessType.UNSAFE_CALL, AccessType.DISPOSE,
        ]

    def test_overhead_is_charged_per_operation(self):
        class Costly(InstrumentationHook):
            per_op_overhead_ms = 5

        def main(sim):
            ref = sim.ref("r")
            yield from sim.assign(ref, sim.new("T"), loc="t.init:1")
            yield from sim.use(ref, loc="t.use:2")

        cost = CostModel(op_cost_ms=1, jitter_frac=0.0)
        _, result = _run_one(main, hook=Costly(), cost_model=cost)
        assert result.virtual_time == 12.0

    def test_locations_are_interned_per_simulation(self):
        hook = Recorder()
        sim = Simulation(seed=1, hook=hook)
        ref = sim.ref("r")

        def main(sim):
            yield from sim.assign(ref, sim.new("T"), loc="t.init:1")
            for _ in range(3):
                yield from sim.use(ref, loc="t.use:2")

        sim.run(main(sim))
        uses = [e.location for e in hook.events[1:]]
        assert uses[0] is uses[1] is uses[2]
        assert uses[0].site == "t.use:2"
        assert set(sim._locations) == {"t.init:1", "t.use:2"}


class TestOpCostDraw:
    """The stock cost model's inline draw equals ``sample_op_cost``."""

    @staticmethod
    def timestamps(cost_model):
        hook = Recorder()

        def main(sim):
            ref = sim.ref("r")
            yield from sim.assign(ref, sim.new("T"), loc="t.init:1")
            for _ in range(20):
                yield from sim.use(ref, loc="t.use:2")
            yield from sim.unsafe_call(sim.unsafe_dict(), "Add", 1, 2, loc="t.call:3")
            yield from sim.dispose(ref, loc="t.dispose:4")

        _, result = _run_one(main, hook=hook, cost_model=cost_model)
        return [e.timestamp for e in hook.events], result.virtual_time

    @pytest.mark.parametrize("jitter", [0.35, 0.1, 0.0])
    def test_bit_identical_to_the_method(self, jitter):
        class SameModel(CostModel):
            """Not the stock type, so operations call sample_op_cost."""

        stock = self.timestamps(CostModel(op_cost_ms=0.3, jitter_frac=jitter))
        called = self.timestamps(SameModel(op_cost_ms=0.3, jitter_frac=jitter))
        assert stock == called

    def test_custom_cost_models_are_called(self):
        class Flat(CostModel):
            def sample_op_cost(self, rng):
                return 2.0

        stamps, _ = self.timestamps(Flat())
        assert stamps[:3] == [2.0, 4.0, 6.0]


class TestPrecomputedAttributes:
    def test_is_memorder(self):
        assert [t.is_memorder for t in AccessType] == [True, True, True, False]

    def test_is_terminal(self):
        terminal = {s for s in ThreadState if s.is_terminal}
        assert terminal == {ThreadState.DONE, ThreadState.FAILED}
