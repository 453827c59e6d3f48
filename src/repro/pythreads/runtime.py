"""Real-threads instrumentation runtime.

The simulator (:mod:`repro.sim`) is the evaluation substrate, but
nothing in Waffle's core consumes simulator internals: the analyzers
eat :class:`~repro.sim.instrument.AccessEvent` streams and the
runtimes answer "delay this operation by d ms". This module provides
the same contract over **real Python threads and wall-clock time**, the
way the paper's section 5 describes porting Waffle to another runtime:
swap the instrumentation layer, keep the algorithms.

Caveats (and why the simulator remains the primary substrate): the GIL
serializes bytecode so true memory-ordering races are dampened, and
wall-clock timing is noisy -- gaps must be tens of milliseconds for the
near-miss/delay machinery to act reliably. The adapter demonstrates
end-to-end operation of the unchanged core on real threads; it is not
the measurement vehicle.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs
from ..core.vector_clock import ThreadVectorClock
from ..sim.errors import NullReferenceError, ObjectDisposedError
from ..sim.instrument import (
    AccessEvent,
    AccessType,
    InstrumentationHook,
    Location,
    NoopHook,
    PendingAccess,
    clamp_delay,
)


class TrackedObject:
    """A heap object whose identity the instrumentation reports."""

    _oid_counter = itertools.count(1)
    _oid_lock = threading.Lock()

    def __init__(self, type_name: str = "Object", **fields: Any):
        with TrackedObject._oid_lock:
            self.oid = next(TrackedObject._oid_counter)
        self.type_name = type_name
        self.fields: Dict[str, Any] = dict(fields)
        self.disposed = False

    def __repr__(self) -> str:
        return "<%s #%d%s>" % (self.type_name, self.oid, " (disposed)" if self.disposed else "")


class TrackedRef:
    """A nullable reference slot bound to a :class:`RealThreadsRuntime`.

    All operations go through the runtime so the attached hook sees
    them; dereferencing null (or a disposed object) raises the same
    :class:`NullReferenceError` oracle the simulator uses.
    """

    def __init__(self, runtime: "RealThreadsRuntime", name: str,
                 value: Optional[TrackedObject] = None):
        self._runtime = runtime
        self.name = name
        self.value = value

    def assign(self, obj: Optional[TrackedObject], loc: str) -> None:
        self._runtime._assign(self, obj, loc)

    def dispose(self, loc: str, null_out: bool = False) -> None:
        self._runtime._dispose(self, loc, null_out=null_out)

    def use(self, member: str = "", loc: str = "") -> TrackedObject:
        return self._runtime._use(self, member, loc)

    @property
    def is_null(self) -> bool:
        return self.value is None


class RealThreadsRuntime:
    """Wall-clock instrumentation for real ``threading`` code.

    One runtime drives one run. Threads must be created through
    :meth:`spawn` -- that is where the inheritable-TLS vector-clock
    propagation of section 4.1 happens (real Python threads have no
    inheritable TLS, so the spawn wrapper performs the copy the
    language feature would).
    """

    def __init__(self, hook: Optional[InstrumentationHook] = None):
        self.hook = hook if hook is not None else NoopHook()
        self._origin = time.monotonic()
        self._lock = threading.Lock()
        self._tid_counter = itertools.count(1)
        self._tids: Dict[int, int] = {}  # threading ident -> dense tid
        self._clocks: Dict[int, ThreadVectorClock] = {}  # dense tid -> fork clock
        self._threads: List[threading.Thread] = []
        #: Last instrumented site each thread touched (dense tid ->
        #: site string), so a hang report can say *where* a stuck
        #: thread was last seen, not just that it is stuck.
        self._sites: Dict[int, str] = {}
        #: Exceptions that escaped spawned threads: (thread name, exc).
        self.failures: List[Tuple[str, BaseException]] = []
        self.op_count = 0
        #: Flight-recorder parity with the simulator's scheduler: the
        #: same thread-lifecycle/fault event stream, wall-clock stamped.
        self._fr = obs.flightrec.recorder()
        main_tid = self._register_current_thread(parent_tid=None)
        if self._fr is not None:
            self._fr.record(
                "thread_start", self.now_ms(), tid=main_tid,
                name=threading.current_thread().name, parent=None,
            )

    # ------------------------------------------------------------------
    # Time and identity
    # ------------------------------------------------------------------

    def now_ms(self) -> float:
        return (time.monotonic() - self._origin) * 1000.0

    def _register_current_thread(self, parent_tid: Optional[int]) -> int:
        ident = threading.get_ident()
        with self._lock:
            if ident in self._tids:
                return self._tids[ident]
            tid = next(self._tid_counter)
            self._tids[ident] = tid
            if parent_tid is None:
                self._clocks[tid] = ThreadVectorClock(tid)
            return tid

    def _current_tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
        if tid is None:
            raise RuntimeError(
                "thread not registered with the runtime; create threads via spawn()"
            )
        return tid

    # ------------------------------------------------------------------
    # Thread management (the inheritable-TLS stand-in)
    # ------------------------------------------------------------------

    def spawn(self, target: Callable[[], Any], name: str = "") -> threading.Thread:
        """Start a real thread, propagating the parent's vector clock.

        The clock copy happens on the parent (pre-start), mirroring the
        "TLS region copied at the moment of thread creation" semantics.
        Exceptions escaping the target are captured in :attr:`failures`
        (a crashed worker must fail the run, like an unhandled exception
        tearing down a test process).
        """
        parent_tid = self._current_tid()
        with self._lock:
            parent_clock = self._clocks[parent_tid]

        class _Parcel:
            clock: Optional[ThreadVectorClock] = None
            tid: Optional[int] = None

        parcel = _Parcel()

        def runner():
            ident = threading.get_ident()
            with self._lock:
                self._tids[ident] = parcel.tid
                self._clocks[parcel.tid] = parcel.clock
            failed = False
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - crash capture
                failed = True
                with self._lock:
                    self.failures.append((thread.name, exc))
                    if self._fr is not None:
                        location = getattr(exc, "location", None)
                        self._fr.record(
                            "fault", self.now_ms(), tid=parcel.tid,
                            thread=thread.name, error=type(exc).__name__,
                            site=location.site if location is not None else None,
                        )
            finally:
                if self._fr is not None:
                    with self._lock:
                        self._fr.record(
                            "thread_end", self.now_ms(), tid=parcel.tid, failed=failed
                        )

        thread = threading.Thread(target=runner, name=name or None, daemon=True)
        with self._lock:
            child_tid = next(self._tid_counter)

        class _FakeThread:
            def __init__(self, tid):
                self.tid = tid

        parcel.tid = child_tid
        parcel.clock = parent_clock.inherit_to(
            _FakeThread(parent_tid), _FakeThread(child_tid)
        )
        self._threads.append(thread)
        if self._fr is not None:
            self._fr.record(
                "thread_start", self.now_ms(), tid=child_tid,
                name=thread.name, parent=parent_tid,
            )
        thread.start()
        return thread

    def join_all(self, timeout_s: float = 30.0) -> None:
        """Join every spawned thread, or raise a structured hang report.

        A thread still alive at the deadline is a wedged run, and
        silently falling through would poison every measurement taken
        afterwards. Instead the deadline raises
        :class:`~repro.harness.faults.HangError` naming each stuck
        thread and the instrumented site it was last seen at, records
        the hang in :attr:`failures` (so detection drivers can degrade
        the run rather than crash), and emits a flight-recorder
        ``hang`` mark for the dossier trail.
        """
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            remaining = deadline - time.monotonic()
            thread.join(max(0.0, remaining))
        stuck = [thread for thread in self._threads if thread.is_alive()]
        if not stuck:
            return
        from ..harness.faults import HangError

        with self._lock:
            details = []
            for thread in stuck:
                tid = self._tids.get(thread.ident)
                details.append(
                    {"name": thread.name, "tid": tid, "site": self._sites.get(tid)}
                )
            error = HangError(details, timeout_s)
            self.failures.append(("<join_all>", error))
            if self._fr is not None:
                self._fr.record(
                    "hang", self.now_ms(), timeout_s=timeout_s, threads=details
                )
        raise error

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    def ref(self, name: str, value: Optional[TrackedObject] = None) -> TrackedRef:
        return TrackedRef(self, name, value)

    def new(self, type_name: str = "Object", **fields: Any) -> TrackedObject:
        return TrackedObject(type_name, **fields)

    # ------------------------------------------------------------------
    # Instrumented operations
    # ------------------------------------------------------------------

    def _instrumented(
        self,
        location: Location,
        access_type: AccessType,
        object_id: int,
        ref_name: str,
        member: str,
        action: Callable[[], Any],
        oid_from_result: bool = False,
    ) -> Any:
        tid = self._current_tid()
        self._sites[tid] = location.site  # last-seen site for hang reports
        pending = PendingAccess(
            location, access_type, object_id, tid, self.now_ms(),
            ref_name=ref_name, member=member,
        )
        with self._lock:
            delay_ms = clamp_delay(self.hook.before_access(pending))
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)

        with self._lock:
            event = AccessEvent(
                location=location,
                access_type=access_type,
                object_id=object_id,
                thread_id=tid,
                timestamp=self.now_ms(),
                ref_name=ref_name,
                member=member,
                injected_delay=delay_ms,
            )
            self.op_count += 1
            clock = self._clocks.get(tid)
            if clock is not None:
                event.vc_snapshot = clock.snapshot()
            try:
                result = action()
            except NullReferenceError:
                event.object_id = -1
                self.hook.after_access(event)
                raise
            if oid_from_result and isinstance(result, TrackedObject):
                event.object_id = result.oid
            self.hook.after_access(event)
        return result

    def _assign(self, ref: TrackedRef, obj: Optional[TrackedObject], loc: str) -> None:
        location = Location(loc)
        old = ref.value
        if obj is None:
            if old is None:
                return
            access, object_id = AccessType.DISPOSE, old.oid
        else:
            access, object_id = AccessType.INIT, obj.oid

        def action():
            ref.value = obj

        self._instrumented(location, access, object_id, ref.name, "", action)

    def _dispose(self, ref: TrackedRef, loc: str, null_out: bool = False) -> None:
        location = Location(loc)
        target = ref.value
        if target is None:
            self._use(ref, "Dispose", loc)
            return

        def action():
            target.disposed = True
            if null_out:
                ref.value = None

        self._instrumented(
            location, AccessType.DISPOSE, target.oid, ref.name, "Dispose", action
        )

    def _use(self, ref: TrackedRef, member: str, loc: str) -> TrackedObject:
        location = Location(loc)
        object_id = ref.value.oid if ref.value is not None else -1
        thread_name = threading.current_thread().name

        def action():
            value = ref.value
            if value is None:
                raise NullReferenceError(
                    "null reference %r dereferenced at %s" % (ref.name, location),
                    location=location,
                    ref_name=ref.name,
                    thread_name=thread_name,
                )
            if value.disposed:
                raise ObjectDisposedError(
                    "disposed object %r used through %r at %s" % (value, ref.name, location),
                    location=location,
                    ref_name=ref.name,
                    thread_name=thread_name,
                )
            return value

        return self._instrumented(
            location, AccessType.USE, object_id, ref.name, member, action,
            oid_from_result=True,
        )
