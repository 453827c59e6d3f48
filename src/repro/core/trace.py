"""Execution traces and the preparation-run recording hook.

The :class:`RecordingHook` is what Waffle attaches during its
*preparation run* (Figure 3): it injects no delays, logs every
instrumented operation, and maintains the TLS vector clocks so that
each event carries the fork-ordering snapshot the analyzer needs for
parent-child pruning (section 4.1).
"""

from __future__ import annotations

from typing import IO, Dict, List, Optional, Set

from ..sim.instrument import AccessEvent, AccessType, InstrumentationHook, Location
from .events import dump_events, load_events
from .vector_clock import TLS_KEY, ThreadVectorClock


class Trace:
    """An ordered list of :class:`AccessEvent` plus thread metadata."""

    def __init__(self) -> None:
        self.events: List[AccessEvent] = []
        #: tid -> thread name (for reports and debugging).
        self.thread_names: Dict[int, str] = {}
        #: tid -> parent tid (the fork tree; None/absent for roots).
        self.parents: Dict[int, Optional[int]] = {}
        #: Virtual end-to-end duration of the recorded run.
        self.duration_ms: float = 0.0
        self._sorted: Optional[List[AccessEvent]] = None

    def __len__(self) -> int:
        return len(self.events)

    def append(self, event: AccessEvent) -> None:
        self.events.append(event)
        self._sorted = None

    def sorted_events(self) -> List[AccessEvent]:
        """Events in timestamp order (stable on event id for ties).

        The simulator appends events as virtual time advances, so the
        list is almost always already ordered: verify with one linear
        scan and only fall back to a real sort when it is not. The
        result is cached until the next :meth:`append`.
        """
        cached = self._sorted
        if cached is not None:
            return cached
        events = self.events
        is_sorted = True
        prev_ts = float("-inf")
        prev_id = -1
        for event in events:
            ts = event.timestamp
            if ts < prev_ts or (ts == prev_ts and event.event_id < prev_id):
                is_sorted = False
                break
            prev_ts = ts
            prev_id = event.event_id
        if is_sorted:
            ordered = list(events)
        else:
            ordered = sorted(events, key=lambda e: (e.timestamp, e.event_id))
        self._sorted = ordered
        return ordered

    def memorder_events(self) -> List[AccessEvent]:
        return [e for e in self.events if e.access_type.is_memorder]

    def unsafe_call_events(self) -> List[AccessEvent]:
        return [e for e in self.events if e.access_type is AccessType.UNSAFE_CALL]

    # -- Census helpers used by Table 2 and section 3.3 ----------------

    def static_sites(self, memorder: bool = True) -> Set[Location]:
        """Unique static instrumentation sites of one class."""
        return {
            e.location
            for e in self.events
            if e.access_type.is_memorder == memorder
        }

    def dynamic_instances(self, location: Location) -> int:
        return sum(1 for e in self.events if e.location == location)

    def init_instance_counts(self) -> List[int]:
        """Dynamic-instance counts of every initialization site --
        the paper's 'median number of dynamic instances for all object
        initialization operations is 2' census (section 3.3)."""
        counts: Dict[Location, int] = {}
        for event in self.events:
            if event.access_type is AccessType.INIT:
                counts[event.location] = counts.get(event.location, 0) + 1
        return sorted(counts.values())

    # -- Serialization ---------------------------------------------------

    def dump(self, fp: IO[str]) -> int:
        return dump_events(self.sorted_events(), fp)

    @classmethod
    def load(cls, fp: IO[str]) -> "Trace":
        trace = cls()
        for event in load_events(fp):
            trace.append(event)
        if trace.events:
            trace.duration_ms = max(e.end_timestamp for e in trace.events)
        for event in trace.events:
            trace.thread_names.setdefault(event.thread_id, "thread-%d" % event.thread_id)
        return trace


class RecordingHook(InstrumentationHook):
    """Delay-free tracing hook (Waffle's preparation run).

    ``track_vector_clocks`` controls whether the TLS clock machinery is
    installed; the no-parent-child ablation turns it off, which also
    removes its (small) share of the recording overhead.
    """

    run_kind = "prep"

    def __init__(
        self,
        record_overhead_ms: float = 0.02,
        track_vector_clocks: bool = True,
    ):
        self.trace = Trace()
        self.per_op_overhead_ms = record_overhead_ms
        self.track_vector_clocks = track_vector_clocks
        self._threads: Dict[int, object] = {}

    # -- Thread lifecycle -------------------------------------------------

    def on_thread_start(self, thread) -> None:
        self._threads[thread.tid] = thread
        self.trace.thread_names[thread.tid] = thread.name
        self.trace.parents[thread.tid] = thread.parent.tid if thread.parent else None
        if self.track_vector_clocks and TLS_KEY not in thread.itls:
            # Root threads get a fresh clock; children already received
            # theirs through inheritable-TLS propagation at fork.
            thread.itls.set(TLS_KEY, ThreadVectorClock(thread.tid))

    # -- Event recording --------------------------------------------------

    def after_access(self, event: AccessEvent) -> None:
        if self.track_vector_clocks:
            thread = self._threads.get(event.thread_id)
            if thread is not None:
                clock = thread.itls.get(TLS_KEY)
                if clock is not None:
                    event.vc_snapshot = clock.snapshot()
        self.trace.append(event)

    def on_run_end(self, sim) -> None:
        self.trace.duration_ms = sim.clock.now
