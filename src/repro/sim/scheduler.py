"""Discrete-event cooperative scheduler.

The scheduler drives :class:`~repro.sim.thread.SimThread` generators.
Every time-consuming action in the simulated program -- computing,
sleeping, the execution cost of an instrumented operation, and the
delays injected by the tools under test -- is a sleep command, so the
simulation reduces to a priority queue ordered by virtual wake time.
Threads blocked on synchronization primitives leave the queue entirely
and are re-inserted by :meth:`Scheduler.wake`.

The command protocol: a thread yields a :class:`Sleep`, :data:`BLOCK`
or :data:`YIELD`. The simulator's own operations (:mod:`repro.sim.api`)
may also yield a bare non-negative ``float``, a sleep of that many
milliseconds without the :class:`Sleep` allocation. Any other yielded
value fails the thread with ``TypeError``.

Determinism: the queue breaks ties by insertion sequence (FIFO), and all
randomness (operation-cost jitter) flows from a single seeded RNG, so a
given (program, seed) pair always produces the same interleaving --
while different seeds, or injected delays, produce different ones. This
mirrors the probabilistic manifestation of MemOrder bugs that the paper
exploits.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from typing import Any, Dict, Generator, List, Optional, Tuple

from .. import obs
from .clock import VirtualClock
from .errors import DeadlockError, SimulationTimeout
from .instrument import CostModel, InstrumentationHook, NoopHook
from .thread import SimThread, ThreadState


class Command:
    """Base class for values yielded by simulated thread generators."""

    __slots__ = ()


class Sleep(Command):
    """Suspend the current thread for ``duration_ms`` of virtual time."""

    __slots__ = ("duration_ms",)

    def __init__(self, duration_ms: float):
        self.duration_ms = max(0.0, float(duration_ms))


class Block(Command):
    """Remove the current thread from the run queue until woken."""

    __slots__ = ()


class YieldNow(Command):
    """Reschedule the current thread at the current time (cooperative yield)."""

    __slots__ = ()


BLOCK = Block()
YIELD = YieldNow()


class RunResult:
    """Outcome of one simulated run.

    ``failures`` holds ``(thread, exception)`` pairs for every exception
    that escaped a thread -- in particular the ``NullReferenceError``
    that signals a manifested MemOrder bug. ``virtual_time`` is the
    end-to-end execution time in virtual milliseconds, the quantity from
    which all of the paper's overhead/slowdown numbers are computed.
    """

    def __init__(self) -> None:
        self.virtual_time: float = 0.0
        self.failures: List[Tuple[SimThread, BaseException]] = []
        self.timed_out: bool = False
        self.op_count: int = 0
        self.thread_count: int = 0
        #: Times the scheduler resumed a different thread than the one
        #: it last ran -- the virtual-time analogue of a context switch.
        self.context_switches: int = 0
        self.tsv_occurrences: List[Any] = []

    @property
    def crashed(self) -> bool:
        return bool(self.failures)

    def first_failure(self) -> Optional[BaseException]:
        return self.failures[0][1] if self.failures else None

    def __repr__(self) -> str:
        return "RunResult(t=%.2fms, failures=%d, ops=%d%s)" % (
            self.virtual_time,
            len(self.failures),
            self.op_count,
            ", TIMEOUT" if self.timed_out else "",
        )


class Scheduler:
    """Runs a tree of simulated threads to completion.

    Parameters
    ----------
    seed:
        Seeds the RNG used for operation-cost jitter; fully determines
        the run together with the program and hook behavior.
    hook:
        The attached :class:`InstrumentationHook` (a delay-injection
        tool, a trace recorder, or :class:`NoopHook` for baseline runs).
    cost_model:
        Virtual-time cost of simulated operations.
    time_limit_ms:
        Abort the run (marking it timed out) once the virtual clock
        passes this limit; models the test-case timeouts that
        WaffleBasic triggers on MQTT.Net in Table 5.
    stop_on_failure:
        When true (the default), the first exception escaping any thread
        stops the whole run -- matching the paper's setting where a
        NULL-reference exception crashes the test process and "halts the
        detection run prematurely" (section 6.3).
    name:
        The workload's name, which the run's telemetry record carries.

    Under an obs session each run ends by writing its ``run`` record
    (:func:`repro.obs.telemetry.collect_run_telemetry`), so every
    simulated run has exactly one.
    """

    def __init__(
        self,
        seed: int = 0,
        hook: Optional[InstrumentationHook] = None,
        cost_model: Optional[CostModel] = None,
        time_limit_ms: float = 600_000.0,
        stop_on_failure: bool = True,
        max_steps: int = 5_000_000,
        name: str = "",
    ):
        self.name = name
        self.seed = seed
        self.clock = VirtualClock()
        self.rng = random.Random(seed)
        self.hook = hook if hook is not None else NoopHook()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.time_limit_ms = time_limit_ms
        self.stop_on_failure = stop_on_failure
        self.max_steps = max_steps

        self._queue: List[Tuple[float, int, SimThread]] = []
        self._seq = itertools.count()
        self._tid_counter = itertools.count(1)
        self.threads: Dict[int, SimThread] = {}
        self.current: Optional[SimThread] = None
        self.result = RunResult()
        self._stopping = False
        self._last_run: Optional[SimThread] = None
        self._obs = obs.session()

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        parent: Optional[SimThread] = None,
    ) -> SimThread:
        """Create a thread around ``gen`` and make it runnable now."""
        tid = next(self._tid_counter)
        thread = SimThread(tid, name or ("thread-%d" % tid), gen, parent=parent)
        thread.spawn_time = self.clock.now
        thread.state = ThreadState.RUNNABLE
        self.threads[tid] = thread
        self.result.thread_count += 1
        self._push(thread, self.clock.now)
        self.hook.on_thread_start(thread)
        return thread

    def wake(self, thread: SimThread, at: Optional[float] = None) -> None:
        """Make a blocked thread runnable at time ``at`` (default: now).

        Only threads in the BLOCKED state are woken: waking a thread
        that is already queued (RUNNABLE/SLEEPING) would enqueue it
        twice and let it run "in two places at once".
        """
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.state = ThreadState.RUNNABLE
        self._push(thread, self.clock.now if at is None else float(at))

    def _push(self, thread: SimThread, wake_time: float) -> None:
        heapq.heappush(self._queue, (wake_time, next(self._seq), thread))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Drive all threads until completion, deadlock, crash or timeout.

        One loop pops the earliest thread, resumes it until its next
        yield and re-queues it according to the yielded command. When a
        sleeping thread would wake strictly before every queued thread,
        the pop would hand it straight back, so the loop resumes it in
        place and skips the heap round trip; steps, the time limit and
        the clock advance exactly as if it had been popped. This is the
        per-operation hot path: everything it touches is bound to a
        local, and queue entries hold float wake times only.
        """
        session = self._obs
        if session is not None:
            started = time.perf_counter()
            counters = obs.telemetry.run_counters(self.hook)
        self.hook.on_run_start(self)
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        seq = self._seq
        clock = self.clock
        result = self.result
        # One check per switch for every hook without ``on_switch``.
        on_switch = self.hook.on_switch
        time_limit_ms = self.time_limit_ms
        max_steps = self.max_steps
        last_run = self._last_run
        sleeping = ThreadState.SLEEPING
        blocked = ThreadState.BLOCKED
        done = ThreadState.DONE
        failed = ThreadState.FAILED
        steps = 0
        try:
            while queue and not self._stopping:
                steps += 1
                if steps > max_steps:
                    raise SimulationTimeout(
                        "exceeded %d scheduler steps" % max_steps, clock.now
                    )
                wake_time, _, thread = heappop(queue)
                state = thread.state
                if state is done or state is failed:
                    continue
                now = clock.now
                if wake_time > now:
                    clock.now = now = wake_time
                if now > time_limit_ms:
                    result.timed_out = True
                    break
                if thread is not last_run:
                    result.context_switches += 1
                    self._last_run = last_run = thread
                    if on_switch is not None:
                        on_switch(thread, now)
                self.current = thread
                send = thread.gen.send
                while True:
                    try:
                        command = send(None)
                    except StopIteration as stop:
                        self.current = None
                        self._finish(thread, result=stop.value)
                        break
                    except BaseException as exc:  # noqa: BLE001 - faithful crash capture
                        self.current = None
                        self._fail(thread, exc)
                        break
                    kind = type(command)
                    if kind is float:
                        wake_time = clock.now + command
                    elif kind is Sleep:
                        wake_time = clock.now + command.duration_ms
                    else:
                        self.current = None
                        if kind is Block:
                            thread.state = blocked
                        else:
                            self._dispatch_other(thread, command)
                        break
                    thread.state = sleeping
                    if self._stopping or (queue and wake_time >= queue[0][0]):
                        self.current = None
                        heappush(queue, (wake_time, next(seq), thread))
                        break
                    # Resume in place: the step the pop would have taken.
                    steps += 1
                    if steps > max_steps:
                        raise SimulationTimeout(
                            "exceeded %d scheduler steps" % max_steps, clock.now
                        )
                    if wake_time > clock.now:
                        clock.now = wake_time
                    if clock.now > time_limit_ms:
                        result.timed_out = True
                        break
                if result.timed_out:
                    break
            if not self._stopping and not result.timed_out:
                self._check_deadlock()
        except SimulationTimeout:
            result.timed_out = True
        finally:
            self.current = None
            result.virtual_time = clock.now
            self.hook.on_run_end(self)
            if session is not None:
                obs.collect_run_telemetry(
                    session, self, (time.perf_counter() - started) * 1000.0, counters
                )
            self._release()
        return result

    def _release(self) -> None:
        """Drop the references that close cycles through a finished run.

        A failure's traceback holds the workload's frames, which hold
        the simulation, whose scheduler holds the failure; joiner lists
        and the run queue link threads to each other. Dropping those
        lets reference counting free a run whose threads all ended when
        its last user lets go, so peak memory follows live data instead
        of the cyclic collector's timing. No thread's generator is
        touched: dropping a suspended one would finalize it and run the
        workload's ``finally`` blocks while the caller still reads the
        run. A run that ends with suspended threads (a crash under
        ``stop_on_failure``, a deadlock, a time limit) can therefore
        stay cyclic through their frames, and the collector frees it as
        before. ``threads`` and ``result.failures`` keep every thread's
        state and outcome (the exception, its location and thread) for
        reports.
        """
        self.current = self._last_run = None
        for thread in self.threads.values():
            thread.joiners.clear()
        for _, error in self.result.failures:
            error.__traceback__ = None
        self._queue.clear()

    def _dispatch_other(self, thread: SimThread, command: Any) -> None:
        """The commands :meth:`run` does not match by exact type."""
        if isinstance(command, Sleep):
            thread.state = ThreadState.SLEEPING
            self._push(thread, self.clock.now + command.duration_ms)
        elif isinstance(command, Block):
            thread.state = ThreadState.BLOCKED
        elif isinstance(command, YieldNow):
            thread.state = ThreadState.RUNNABLE
            self._push(thread, self.clock.now)
        else:
            self._fail(
                thread,
                TypeError("thread %r yielded a non-command value: %r" % (thread.name, command)),
            )

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.state = ThreadState.DONE
        thread.result = result
        thread.end_time = self.clock.now
        self._wake_joiners(thread)
        self.hook.on_thread_end(thread)

    def _fail(self, thread: SimThread, exc: BaseException) -> None:
        thread.state = ThreadState.FAILED
        thread.exception = exc
        thread.end_time = self.clock.now
        self.result.failures.append((thread, exc))
        self._wake_joiners(thread)
        self.hook.on_failure(thread, exc)
        self.hook.on_thread_end(thread)
        if self.stop_on_failure:
            self._stopping = True

    def _wake_joiners(self, thread: SimThread) -> None:
        for joiner in thread.joiners:
            self.wake(joiner)
        thread.joiners.clear()

    def _check_deadlock(self) -> None:
        blocked = [t for t in self.threads.values() if t.state is ThreadState.BLOCKED]
        if blocked:
            error = DeadlockError(
                "deadlock: %d thread(s) blocked with empty run queue: %s"
                % (len(blocked), ", ".join(t.name for t in blocked)),
                blocked_threads=blocked,
            )
            # A deadlock is a run failure attributed to the first blocked
            # thread; the harness surfaces it like any other crash.
            self.result.failures.append((blocked[0], error))
