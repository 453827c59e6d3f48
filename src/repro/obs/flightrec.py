"""Bounded ring-buffer flight recorder for scheduler/injection events.

The telemetry session (:mod:`repro.obs.telemetry`) answers *how many*
decisions each run made; the flight recorder answers *which* decisions,
in order, with enough context to assemble a bug dossier after a crash:
the last N scheduler events (thread lifecycle, context switches),
injection decisions (inject/skip with the reason taxonomy), near-miss
pair observations and pruning verdicts (with the vector clocks that
justified them).

Activation model: a process-global recorder, off by default, with one
owner. A detection session asked for dossiers under an active obs
session (``--obs-dir``) installs a fresh ring for its own runs and
restores the previous recorder when it ends
(:meth:`repro.core.detector.ToolDriver.detect`), so a ring never holds
another session's events and none is live across a fork. Tests install
one directly to watch the instrumented layers. Instrumented
constructors bind :func:`recorder` once and branch on ``is not None``,
so a disabled process pays one pointer check per guarded site. Events
live in a ``deque(maxlen=capacity)``: memory is bounded no matter how
long the session runs, and eviction is counted (``dropped``) so a
dossier can say when provenance was lost.

The sim scheduler's events (thread lifecycle, switches, faults) do
not enter the ring itself. They go to the ring's :class:`RunLog`,
which holds the current run's only -- flat lists of times and thread
ids, cleared when the next run begins -- and still take their place in
the sequence, so every engine and analysis event keeps the ``seq`` it
would have had in a ring that stored them. A dossier, assembled right
after its crashing run, reads that run's timeline from the ring and
the log merged; no reader looks at an earlier run's scheduler events.
Events recorded with :meth:`FlightRecorder.record` (the real-threads
backend's lifecycle events among them) are stored in the ring.

Like the telemetry session, the recorder is purely observational: it
never feeds values back into a run, so runs are bit-identical with the
recorder installed or not. :func:`suspended` temporarily hides the
recorder -- the dossier builder uses it so its verification replays do
not pollute the ring that is being snapshotted.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

DEFAULT_CAPACITY = 4096

#: Event kinds recorded (``k`` field): scheduler lifecycle
#: (``run_start`` | ``thread_start`` | ``thread_end`` | ``switch`` |
#: ``fault``), injection decisions (``inject`` | ``skip``), candidate
#: pipeline (``near_miss`` | ``prune_parent_child`` | ``prune_hb`` |
#: ``pair_removed``), and resilience marks (``hang`` -- a real-threads
#: ``join_all`` deadline naming the stuck threads; ``cell_fault`` -- a
#: campaign supervisor record nothing writes any more, kept so dossiers
#: written before still validate).
EVENT_KINDS = (
    "run_start",
    "thread_start",
    "thread_end",
    "switch",
    "fault",
    "inject",
    "skip",
    "near_miss",
    "prune_parent_child",
    "prune_hb",
    "pair_removed",
    "hang",
    "cell_fault",
)


#: The sim scheduler's event kinds: a ring keeps them for the current
#: run only, in its :class:`RunLog`.
SCHEDULER_KINDS = ("thread_start", "thread_end", "switch", "fault")


class RunLog:
    """The current run's scheduler events.

    One entry per event in two flat lists -- ``t`` (virtual ms) and
    ``tid`` -- which the scheduler's loop appends to directly for each
    context switch, so a switch costs two list appends and no object
    the cyclic collector tracks. The other kinds (:meth:`add`, with the
    fields :meth:`FlightRecorder.record` takes) also note their kind and
    fields by entry index.
    """

    __slots__ = ("t", "tid", "fields")

    def __init__(self) -> None:
        self.t: List[float] = []
        self.tid: List[int] = []
        self.fields: Dict[int, Tuple[str, Dict[str, Any]]] = {}

    def add(self, k: str, t_ms: float, tid: int, **fields: Any) -> None:
        """Log one non-switch event: ``record(k, t_ms, tid=tid, **fields)``."""
        self.fields[len(self.t)] = (k, fields)
        self.t.append(t_ms)
        self.tid.append(tid)

    def clear(self) -> None:
        self.t.clear()
        self.tid.clear()
        self.fields.clear()

    def expand(self, first: int) -> Iterator[dict]:
        """Entries from index ``first`` on, as the dicts :meth:`record`
        would have built, without their ``seq``."""
        fields = self.fields
        for index in range(first, len(self.t)):
            event: Dict[str, Any] = {"k": "switch", "t": round(self.t[index], 4),
                                     "tid": self.tid[index]}
            noted = fields.get(index)
            if noted is not None:
                event["k"] = noted[0]
                event.update(noted[1])
            yield event


class FlightRecorder:
    """A bounded, append-only ring of timeline events.

    Events are plain dicts (``seq``, ``k``, ``t`` plus kind-specific
    fields) so a ring snapshot is directly JSON-serializable into a
    dossier. ``seq`` is a lifetime sequence number: run boundaries are
    marked by ``run_start`` events and remembered as sequence marks, so
    ``events_for_run`` works even after older events were evicted.

    The retained window is always the newest ``capacity`` sequence
    numbers. The sim scheduler's events of the current run live in
    :attr:`log` and those of earlier runs are gone, so the ring may
    hold events older than the window, which every inspection method
    leaves out.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        #: The sim scheduler's events of the current run.
        self.log = RunLog()
        self._ring: deque = deque(maxlen=capacity)
        #: Events numbered before the current run's logged ones.
        self._recorded: int = 0
        #: Sequence number of the most recent ``begin_run``.
        self.run_seq: int = 0
        self._run_marks: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded(self) -> int:
        """Lifetime number of events, logged ones included."""
        return self._recorded + len(self.log.t)

    @property
    def dropped(self) -> int:
        """Events that left the window of the newest ``capacity``."""
        return max(0, self.recorded - self.capacity)

    # -- Recording (hot path; callers guard with ``is not None``) ------

    def record(self, k: str, t_ms: float = 0.0, **fields: Any) -> dict:
        """Append one event; returns it (for tests/callers to enrich).

        The positional name is ``k`` (not ``kind``) so kind-specific
        payload fields may themselves be called ``kind`` -- e.g. the
        candidate kind on ``near_miss``/``pair_removed`` events.
        """
        event: Dict[str, Any] = {
            "seq": self._recorded + len(self.log.t), "k": k, "t": round(t_ms, 4),
        }
        if fields:
            event.update(fields)
        self._recorded += 1
        self._ring.append(event)
        return event

    def begin_run(self, kind: str = "", test: str = "", seed: int = 0) -> int:
        """Mark the start of a run; subsequent events belong to it. The
        previous run's logged events keep their numbers and are gone."""
        self._recorded += len(self.log.t)
        self.log.clear()
        self.run_seq += 1
        self._run_marks[self.run_seq] = self._recorded
        self.record("run_start", run=self.run_seq, run_kind=kind, test=test, seed=seed)
        return self.run_seq

    # -- Inspection ------------------------------------------------------

    def _window(self, start: int = 0, end: Optional[int] = None) -> List[dict]:
        """Retained events with seq in ``[start, end)``, oldest first:
        the ring's, with the current run's logged ones filling the
        sequence numbers the ring does not hold."""
        first = max(start, self.dropped)
        end = self.recorded if end is None else end
        stored = [e for e in self._ring if first <= e["seq"] < end]
        mark = self._run_marks.get(self.run_seq, 0)
        if not self.log.t or end <= mark:
            return stored
        # The current run's seqs from ``run_first`` on that the ring does
        # not hold are its logged events, in order: the newest that many.
        run_first = max(first, mark)
        held = [e for e in self._ring if e["seq"] >= run_first]
        logged = self.log.expand(len(self.log.t) - (self.recorded - run_first - len(held)))
        merged = [e for e in stored if e["seq"] < run_first]
        pending = iter(held)
        nxt = next(pending, None)
        for seq in range(run_first, end):
            if nxt is not None and nxt["seq"] == seq:
                merged.append(nxt)
                nxt = next(pending, None)
            else:
                merged.append({"seq": seq, **next(logged)})
        return merged

    def snapshot(self) -> List[dict]:
        """Copy of the retained timeline, oldest first."""
        return self._window()

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """Retained events of one kind (all of them for None), oldest
        first. A kind the scheduler does not record never touches the
        run log."""
        if kind is None or kind in SCHEDULER_KINDS:
            return [e for e in self._window() if kind is None or e["k"] == kind]
        dropped = self.dropped
        return [e for e in self._ring if e["k"] == kind and e["seq"] >= dropped]

    def events_for_run(self, run_seq: int) -> List[dict]:
        """Retained events of one run (between its mark and the next)."""
        start = self._run_marks.get(run_seq)
        if start is None:
            return []
        return self._window(start, self._run_marks.get(run_seq + 1, self.recorded))


_recorder: Optional[FlightRecorder] = None


def recorder() -> Optional[FlightRecorder]:
    """The installed recorder, or None when disabled.

    Hot-path contract (same as :func:`repro.obs.session`): bind once
    per constructed object, branch on ``is not None``.
    """
    return _recorder


def active() -> bool:
    return _recorder is not None


def install(capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Install a fresh process-global recorder and return it.

    Must run before the instrumented objects (schedulers, engines,
    trackers, hooks) are constructed -- they bind at construction time.
    """
    global _recorder
    _recorder = FlightRecorder(capacity)
    return _recorder


def uninstall() -> None:
    global _recorder
    _recorder = None


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily hide the recorder, and restore it on exit even when
    the body installed another: dossier verification replays, and a
    detection session's own ring."""
    global _recorder
    saved = _recorder
    _recorder = None
    try:
        yield
    finally:
        _recorder = saved
