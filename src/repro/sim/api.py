"""The public facade of the concurrency simulator.

A :class:`Simulation` bundles a scheduler, a clock, a seeded RNG, an
instrumentation hook and the factories for threads, synchronization
primitives and heap objects. Benchmark applications receive a
``Simulation`` and write their thread bodies as generator functions::

    def worker(sim, conn):
        yield from sim.sleep(5)
        session = yield from sim.use(conn.session, loc="app.Worker.run:3")
        yield from sim.write(conn.session, "bytes_sent", 42, loc="app.Worker.run:4")

Every ``use``/``read``/``write``/``call``/``assign``/``dispose``/
``unsafe_call`` is an instrumented operation: the attached hook sees it
before it runs and may inject a delay -- the entire control surface the
paper's tools need (Figure 1: identify locations, then delay at run
time).

The hook is bound once per :class:`Simulation`: its ``before_access``,
``after_access`` and ``per_op_overhead_ms`` are read at construction.
:class:`AccessEvent` records are built only when the hook overrides
``after_access`` (on its class or on the instance); otherwise the
operation skips both the allocation and the call.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional, Union

from .errors import NullReferenceError
from .instrument import (
    AccessEvent,
    AccessType,
    CostModel,
    InstrumentationHook,
    Location,
    PendingAccess,
    clamp_delay,
    consumes_events,
)
from .refs import HeapObject, Ref
from .scheduler import BLOCK, YIELD, RunResult, Scheduler
from .sync import Barrier, Channel, Condition, Event, Lock, RLock, Semaphore
from .thread import SimThread
from .unsafe_api import ActiveCallTable, UnsafeCollection, UnsafeDict, UnsafeList

LocationLike = Union[str, Location]

_USE = AccessType.USE
_UNSAFE_CALL = AccessType.UNSAFE_CALL


class Simulation:
    """One simulated execution of a multi-threaded program."""

    def __init__(
        self,
        seed: int = 0,
        hook: Optional[InstrumentationHook] = None,
        cost_model: Optional[CostModel] = None,
        time_limit_ms: float = 600_000.0,
        stop_on_failure: bool = True,
        name: str = "",
    ):
        self.name = name
        self.scheduler = Scheduler(
            seed=seed,
            hook=hook,
            cost_model=cost_model,
            time_limit_ms=time_limit_ms,
            stop_on_failure=stop_on_failure,
            name=name,
        )
        self._unsafe_calls = ActiveCallTable()
        #: Site label -> interned Location: one entry per static site
        #: the program's operations name.
        self._locations: Dict[LocationLike, Location] = {}
        # The hook is bound once per simulation (see the module docs).
        hook = self.scheduler.hook
        self._before_access = hook.before_access
        self._after_access = hook.after_access if consumes_events(hook) else None
        self._op_overhead_ms = float(hook.per_op_overhead_ms)
        cost_model = self.scheduler.cost_model
        self._sample_op_cost = cost_model.sample_op_cost
        self._rng = self.scheduler.rng
        # The stock jittered cost model is drawn inline: ``op_cost_ms *
        # (lo + span * random())`` is ``op_cost_ms * rng.uniform(lo, hi)``
        # to the bit, minus two calls. Other cost models keep the call.
        self._op_scale: Optional[float] = None
        if type(cost_model) is CostModel and cost_model.jitter_frac != 0:
            self._op_scale = cost_model.op_cost_ms
            self._op_lo = 1.0 - cost_model.jitter_frac
            self._op_span = (1.0 + cost_model.jitter_frac) - self._op_lo
            self._random = self._rng.random

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.scheduler.clock.now

    @property
    def hook(self) -> InstrumentationHook:
        return self.scheduler.hook

    @property
    def rng(self):
        return self.scheduler.rng

    @property
    def current_thread(self) -> SimThread:
        thread = self.scheduler.current
        if thread is None:
            raise RuntimeError("no simulated thread is currently running")
        return thread

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------

    def fork(self, gen: Generator[Any, Any, Any], name: str = "") -> SimThread:
        """Spawn a child of the current thread (or a root thread).

        Forking propagates the parent's inheritable TLS to the child --
        the mechanism Waffle's vector clocks piggyback on (section 4.1).
        """
        parent = self.scheduler.current
        return self.scheduler.spawn(gen, name=name, parent=parent)

    def join(self, thread: SimThread) -> Generator[Any, Any, Any]:
        """Wait until ``thread`` terminates; returns its result."""
        me = self.current_thread
        while thread.is_alive:
            thread.joiners.append(me)
            yield BLOCK
        return thread.result

    def join_all(self, threads: Iterable[SimThread]) -> Generator[Any, Any, None]:
        for thread in list(threads):
            yield from self.join(thread)

    def run(self, root: Generator[Any, Any, Any], name: str = "main") -> RunResult:
        """Spawn ``root`` and drive the simulation to completion."""
        self.scheduler.spawn(root, name=name, parent=None)
        result = self.scheduler.run()
        result.tsv_occurrences = list(self._unsafe_calls.occurrences)
        return result

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def sleep(self, duration_ms: float) -> Generator[Any, Any, None]:
        """Suspend the current thread for ``duration_ms`` virtual ms
        (negative durations sleep 0)."""
        duration_ms = float(duration_ms)
        yield duration_ms if duration_ms > 0.0 else 0.0

    def compute(self, duration_ms: float, jitter: bool = True) -> Generator[Any, Any, None]:
        """Model CPU work; jittered by the cost model's noise factor."""
        if jitter:
            frac = self.scheduler.cost_model.jitter_frac
            duration_ms *= self.scheduler.rng.uniform(1.0 - frac, 1.0 + frac)
        duration_ms = float(duration_ms)
        yield duration_ms if duration_ms > 0.0 else 0.0

    def pause(self) -> Generator[Any, Any, None]:
        """Cooperatively yield the processor without advancing time."""
        yield YIELD

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    def lock(self, name: str = "") -> Lock:
        return Lock(self.scheduler, name)

    def rlock(self, name: str = "") -> RLock:
        return RLock(self.scheduler, name)

    def barrier(self, parties: int, name: str = "") -> Barrier:
        return Barrier(self.scheduler, parties, name)

    def event(self, name: str = "") -> Event:
        return Event(self.scheduler, name)

    def semaphore(self, initial: int = 1, name: str = "") -> Semaphore:
        return Semaphore(self.scheduler, initial, name)

    def condition(self, lock: Lock, name: str = "") -> Condition:
        return Condition(self.scheduler, lock, name)

    def channel(self, name: str = "") -> Channel:
        return Channel(self.scheduler, name)

    def task_pool(self, workers: int = 2, name: str = "pool"):
        """A task-parallel execution pool with async-local storage (the
        .NET Task/AsyncLocal analogue noted in paper section 4.1). Must
        be created from within a running simulated thread."""
        from .tasks import TaskPool

        return TaskPool(self, workers=workers, name=name)

    def new(self, type_name: str, **fields: Any) -> HeapObject:
        """Allocate a heap object (allocation itself is not instrumented;
        the *assignment* of the object into a reference is, per section
        3.1's definition of initialization)."""
        return HeapObject(type_name, **fields)

    def ref(self, name: str, value: Optional[HeapObject] = None) -> Ref:
        return Ref(name, value)

    def unsafe_dict(self, type_name: str = "UnsafeDict") -> UnsafeDict:
        return UnsafeDict(type_name)

    def unsafe_list(self, type_name: str = "UnsafeList") -> UnsafeList:
        return UnsafeList(type_name)

    # ------------------------------------------------------------------
    # Thread-local storage
    # ------------------------------------------------------------------

    def tls_get(self, key: str, default: Any = None) -> Any:
        return self.current_thread.tls.get(key, default)

    def tls_set(self, key: str, value: Any) -> None:
        self.current_thread.tls.set(key, value)

    def itls_get(self, key: str, default: Any = None) -> Any:
        return self.current_thread.itls.get(key, default)

    def itls_set(self, key: str, value: Any) -> None:
        self.current_thread.itls.set(key, value)

    # ------------------------------------------------------------------
    # Instrumented operations on references (MemOrder surface)
    # ------------------------------------------------------------------

    def assign(
        self, ref: Ref, obj: Optional[HeapObject], loc: LocationLike
    ) -> Generator[Any, Any, Optional[HeapObject]]:
        """Store ``obj`` into ``ref``.

        null -> non-null is an **initialization**; non-null -> null is a
        **disposal** (section 3.1). non-null -> non-null re-assignment is
        treated as an initialization of the new object.
        """
        location = self._locations.get(loc) or self._intern(loc)
        old = ref.value
        if obj is None:
            if old is None:
                # null -> null: not a state change; still a USE-class
                # touch of the reference variable, but the paper's
                # categories only cover the three transitions, so we
                # record nothing and charge nothing.
                return None
            access = AccessType.DISPOSE
            object_id = old.oid
        else:
            access = AccessType.INIT
            object_id = obj.oid

        def action() -> Optional[HeapObject]:
            ref.value = obj
            return obj

        return (yield from self._instrumented(location, access, object_id, ref.name, "", action))

    def dispose(
        self, ref: Ref, loc: LocationLike, null_out: bool = False
    ) -> Generator[Any, Any, None]:
        """Explicitly dispose the object behind ``ref`` (``Dispose()``).

        With ``null_out`` the reference is also cleared, so later uses
        fail the null check; otherwise they fail the disposed check.
        Either way the failure surfaces as a null-reference-class error,
        matching the paper's oracle.
        """
        location = self._locations.get(loc) or self._intern(loc)
        target = ref.value
        if target is None:
            # Disposing through a null reference is itself a faulty use.
            return (
                yield from self.use(ref, member="Dispose", loc=location)
            )
        object_id = target.oid

        def action() -> None:
            target.disposed = True
            if null_out:
                ref.value = None

        return (
            yield from self._instrumented(
                location, AccessType.DISPOSE, object_id, ref.name, "Dispose", action
            )
        )

    def use(
        self,
        ref: Ref,
        member: str = "",
        loc: LocationLike = "",
        duration: float = 0.0,
    ) -> Generator[Any, Any, HeapObject]:
        """Access a member of the object behind ``ref``.

        The null/disposed check happens when the operation *executes*
        (after any injected delay), which is exactly how a delay exposes
        a MemOrder bug: push the use past the disposal, or the
        initialization past the use.

        USE is the bulk of all instrumented operations, so this is
        :meth:`_instrumented` written out for the dereference: the same
        steps in the same order, minus a closure and a generator frame.
        The event's object id is the one observed at *execution* time: a
        delayed USE may start while the reference is still null but
        execute after an initialization landed.
        """
        location = self._locations.get(loc) or self._intern(loc)
        value = ref.value
        object_id = value.oid if value is not None else -1
        sched = self.scheduler
        thread = sched.current
        if thread is None:
            raise RuntimeError("no simulated thread is currently running")
        injected = self._before_access(
            PendingAccess(location, _USE, object_id, thread.tid, sched.clock.now, ref.name, member)
        )
        if type(injected) is not float:
            injected = clamp_delay(injected)
        if injected > 0.0:
            yield injected
        else:
            injected = 0.0
        scale = self._op_scale
        if scale is None:
            cost = self._sample_op_cost(self._rng) + self._op_overhead_ms
        else:
            cost = scale * (self._op_lo + self._op_span * self._random()) + self._op_overhead_ms
        yield cost if cost > 0.0 else 0.0
        sched.result.op_count += 1
        after = self._after_access
        if after is None:
            obj = ref.value
            if obj is None or obj.disposed:
                ref.require(location=location, thread_name=thread.name)
        else:
            event = AccessEvent(
                location, _USE, object_id, thread.tid, sched.clock.now, ref.name, member,
                0.0, injected,
            )
            try:
                obj = ref.require(location=location, thread_name=thread.name)
            except NullReferenceError:
                event.object_id = -1
                after(event)
                raise
            if isinstance(obj, HeapObject):
                event.object_id = obj.oid
            after(event)
        if duration > 0:
            yield float(duration)
        return obj

    def call(
        self,
        ref: Ref,
        method: str,
        loc: LocationLike,
        duration: float = 0.0,
    ) -> Generator[Any, Any, HeapObject]:
        """Call a member method: sugar over :meth:`use` for readability."""
        return (yield from self.use(ref, member=method, loc=loc, duration=duration))

    def read(self, ref: Ref, field: str, loc: LocationLike) -> Generator[Any, Any, Any]:
        """Read a member field through ``ref`` (a USE)."""
        obj = yield from self.use(ref, member=field, loc=loc)
        return obj.fields.get(field)

    def write(
        self, ref: Ref, field: str, value: Any, loc: LocationLike
    ) -> Generator[Any, Any, None]:
        """Write a member field through ``ref`` (a USE)."""
        obj = yield from self.use(ref, member=field, loc=loc)
        obj.fields[field] = value

    def unsafe_call(
        self,
        collection: UnsafeCollection,
        api: str,
        *args: Any,
        loc: LocationLike,
        duration: float = 0.5,
    ) -> Generator[Any, Any, Any]:
        """Invoke a thread-unsafe API with a non-zero execution window.

        Overlapping windows on the same object from different threads
        are recorded as thread-safety violations (the Tsvd oracle).
        """
        location = self._locations.get(loc) or self._intern(loc)
        sched = self.scheduler
        thread = self.current_thread
        injected = clamp_delay(self._before_access(
            PendingAccess(
                location, _UNSAFE_CALL, collection.oid, thread.tid, sched.clock.now,
                collection.type_name, api,
            )
        ))
        if injected > 0.0:
            yield injected
        scale = self._op_scale
        if scale is None:
            cost = self._sample_op_cost(self._rng) + self._op_overhead_ms
        else:
            cost = scale * (self._op_lo + self._op_span * self._random()) + self._op_overhead_ms
        yield cost if cost > 0.0 else 0.0
        start = sched.clock.now
        self._unsafe_calls.begin(collection.oid, thread.tid, location, start, start + duration)
        after = self._after_access
        if after is not None:
            after(
                AccessEvent(
                    location, _UNSAFE_CALL, collection.oid, thread.tid, start,
                    collection.type_name, api, duration, injected,
                )
            )
        sched.result.op_count += 1
        if duration > 0:
            yield float(duration)
        self._unsafe_calls.end(collection.oid, thread.tid, location)
        return collection.apply(api, *args)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _intern(self, value: LocationLike) -> Location:
        """Intern the :class:`Location` of a site label missing from
        ``_locations`` (operations look it up there first)."""
        location = value if isinstance(value, Location) else Location(str(value))
        self._locations[value] = location
        return location

    def _instrumented(
        self,
        location: Location,
        access_type: AccessType,
        object_id: int,
        ref_name: str,
        member: str,
        action,
    ) -> Generator[Any, Any, Any]:
        """Common path of the INIT/DISPOSE operations.

        Order of events (matching the instrumented proxy functions of
        section 5): consult the hook -> optionally sleep the injected
        delay -> pay the operation's execution cost -> execute -> report
        the final event to the hook. :meth:`use` repeats these steps
        inline for USE.
        """
        sched = self.scheduler
        thread = sched.current
        if thread is None:
            raise RuntimeError("no simulated thread is currently running")
        injected = self._before_access(
            PendingAccess(
                location, access_type, object_id, thread.tid, sched.clock.now, ref_name, member
            )
        )
        if type(injected) is not float:
            injected = clamp_delay(injected)
        if injected > 0.0:
            yield injected
        else:
            injected = 0.0
        scale = self._op_scale
        if scale is None:
            cost = self._sample_op_cost(self._rng) + self._op_overhead_ms
        else:
            cost = scale * (self._op_lo + self._op_span * self._random()) + self._op_overhead_ms
        yield cost if cost > 0.0 else 0.0
        sched.result.op_count += 1
        after = self._after_access
        if after is None:
            return action()
        event = AccessEvent(
            location, access_type, object_id, thread.tid, sched.clock.now, ref_name, member,
            0.0, injected,
        )
        try:
            result = action()
        except NullReferenceError:
            # The faulting access is still reported to the hook: the
            # runtime needs it to attribute the manifestation to the
            # delays it injected (section 5's bug reports).
            event.object_id = -1
            after(event)
            raise
        after(event)
        return result
