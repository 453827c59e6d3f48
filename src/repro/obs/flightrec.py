"""Bounded ring-buffer flight recorder for injection and analysis events.

The telemetry session (:mod:`repro.obs.telemetry`) answers *how many*
decisions each run made; the flight recorder answers *which* decisions,
in order, with enough context to assemble a bug dossier after a crash:
injection decisions (inject/skip with the reason taxonomy), near-miss
pair observations and pruning verdicts (with the vector clocks that
justified them), and run marks.

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

The sim scheduler records nothing here. A dossier is verified by one
deterministic replay of its crashing run, which re-executes the same
interleaving; :class:`RunTimeline` takes the run's scheduler events
(thread lifecycle, switches, the fault) from that replay and merges
them with the run's ring events, each at the operation that recorded
it. Detection runs therefore pay for no scheduler event, and only the
crashing run of a kept dossier gets a timeline. Events recorded with
:meth:`FlightRecorder.record` (the real-threads backend's lifecycle
events among them) are stored in the ring.

Like the telemetry session, the recorder is purely observational: it
never feeds values back into a run, so runs are bit-identical with the
recorder installed or not. :func:`suspended` temporarily hides the
recorder -- the dossier builder uses it so its verification replay
does not record into the ring of the session it verifies.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

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

#: The sim scheduler's event kinds. No ring records them: a dossier's
#: replay of the crashing run supplies them (:class:`RunTimeline`).
SCHEDULER_KINDS = ("thread_start", "thread_end", "switch", "fault")

#: Engine kinds recorded when an operation is decided (its
#: ``before_access``), and candidate-pipeline kinds recorded after it
#: executed (its ``after_access``).
DECIDED_KINDS = ("inject", "skip")
OBSERVED_KINDS = ("near_miss", "prune_parent_child", "prune_hb")


class FlightRecorder:
    """A bounded, append-only ring of timeline events.

    Events are plain dicts (``seq``, ``k``, ``t`` plus kind-specific
    fields) so a ring snapshot is directly JSON-serializable into a
    dossier. ``seq`` is a lifetime sequence number: run boundaries are
    marked by ``run_start`` events and remembered as sequence marks, so
    ``events_for_run`` works even after older events were evicted. The
    retained window is always the newest ``capacity`` events.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        #: Lifetime number of events recorded.
        self.recorded: int = 0
        #: Sequence number of the most recent ``begin_run``.
        self.run_seq: int = 0
        self._run_marks: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring."""
        return max(0, self.recorded - self.capacity)

    # -- Recording (hot path; callers guard with ``is not None``) ------

    def record(self, k: str, t_ms: float = 0.0, **fields: Any) -> dict:
        """Append one event; returns it (for tests/callers to enrich).

        The positional name is ``k`` (not ``kind``) so kind-specific
        payload fields may themselves be called ``kind`` -- e.g. the
        candidate kind on ``near_miss``/``pair_removed`` events.
        """
        event: Dict[str, Any] = {"seq": self.recorded, "k": k, "t": round(t_ms, 4)}
        if fields:
            event.update(fields)
        self.recorded += 1
        self._ring.append(event)
        return event

    def begin_run(self, kind: str = "", test: str = "", seed: int = 0) -> int:
        """Mark the start of a run; subsequent events belong to it."""
        self.run_seq += 1
        self._run_marks[self.run_seq] = self.recorded
        self.record("run_start", run=self.run_seq, run_kind=kind, test=test, seed=seed)
        return self.run_seq

    # -- Inspection ------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """Copy of the retained timeline, oldest first."""
        return list(self._ring)

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """Retained events of one kind (all of them for None), oldest first."""
        return [e for e in self._ring if kind is None or e["k"] == kind]

    def events_for_run(self, run_seq: int) -> List[dict]:
        """Retained events of one run (between its mark and the next)."""
        start = self._run_marks.get(run_seq)
        if start is None:
            return []
        end = self._run_marks.get(run_seq + 1, self.recorded)
        return [e for e in self._ring if start <= e["seq"] < end]

    def timeline(self) -> "RunTimeline":
        """A :class:`RunTimeline` for the current run's retained events,
        numbered from its ``run_start``."""
        return RunTimeline(self.events_for_run(self.run_seq),
                           self._run_marks.get(self.run_seq, 0))


class RunTimeline:
    """One run's whole timeline, rebuilt by a deterministic replay of it.

    ``recorded`` is the run's ring events in ring order: its
    ``run_start``, then what the engine and the candidate pipeline
    recorded; ``first_seq`` is the ``run_start``'s sequence number. A
    replay of the run re-executes the same interleaving, so its hook
    callbacks -- :meth:`thread_start`, :meth:`thread_end`, :meth:`fault`
    and :meth:`switch` -- are the run's scheduler events
    (:data:`SCHEDULER_KINDS`), and its operations are the run's
    operations at the same virtual times.

    Merge rule: each recorded event takes the place of the operation
    that recorded it -- an ``inject``/``skip`` the replayed operation
    whose ``before_access`` has the event's site and virtual time (and
    thread, for ``inject``), a ``near_miss``/``prune_*`` verdict the one
    whose ``after_access`` has its ``other_site`` and virtual time. A
    ``pair_removed`` (stamped t=0) comes from the same hook call as the
    event recorded after it and goes with that event; any other kind (the
    ``run_start``) follows the event recorded before it. Ring order is
    kept throughout, so every event lands where the recorded run had it.
    A merge by virtual time alone cannot be exact: a thread switched in
    at time t can decide at t, after which another thread is switched in
    at the same t. A replay that did not reproduce the run, or left a
    recorded event unclaimed (none on the simulated corpus), took
    another interleaving: :meth:`finish` then keeps the recorded events
    alone and says so (:attr:`partial`).
    """

    __slots__ = ("events", "first_seq", "partial", "_recorded", "_tail", "_pending",
                 "wants_after")

    def __init__(self, recorded: List[dict], first_seq: int = 0) -> None:
        #: The merged timeline so far, without ``seq`` numbers.
        self.events: List[dict] = []
        self.first_seq = first_seq
        #: Whether :meth:`finish` left the replayed events out.
        self.partial = False
        # Pending groups: (anchor, events). An anchor is ("before", site,
        # t, tid-or-None), ("after", site, t) or None (follows at once).
        pending: deque = deque()
        held: List[dict] = []
        for event in recorded:
            event = {k: v for k, v in event.items() if k != "seq"}
            kind = event["k"]
            held.append(event)
            if kind == "pair_removed":
                continue
            if kind in DECIDED_KINDS:
                anchor: Optional[tuple] = ("before", event.get("site"), event["t"],
                                           event.get("tid") if kind == "inject" else None)
            elif kind in OBSERVED_KINDS:
                anchor = ("after", event.get("other_site"), event["t"])
            else:
                anchor = None
            pending.append((anchor, held))
            held = []
        # Events recorded after the last operation's (a trailing
        # ``pair_removed``) close the run.
        self._tail = held
        self._recorded = [event for _, group in pending for event in group] + held
        self._pending = pending
        #: Whether some event waits for an ``after_access``: a replay
        #: hook builds access events only then.
        self.wants_after = any(anchor and anchor[0] == "after" for anchor, _ in pending)
        self._release()

    def _release(self) -> None:
        """Emit the pending groups that follow at once."""
        pending = self._pending
        while pending and pending[0][0] is None:
            self.events.extend(pending.popleft()[1])

    def _claim(self, anchor: tuple, every: bool) -> None:
        """Emit the head group if ``anchor`` is its operation's -- and,
        with ``every``, the groups after it that the same operation
        recorded too (one ``after_access`` may record several)."""
        pending = self._pending
        while pending and pending[0][0] == anchor:
            self.events.extend(pending.popleft()[1])
            self._release()
            if not every:
                return

    # -- Replay callbacks -------------------------------------------------

    def before_access(self, access) -> None:
        head = self._pending[0][0] if self._pending else None
        if head is not None and head[0] == "before":
            self._claim(("before", access.location.site, round(access.timestamp, 4),
                         access.thread_id if head[3] is not None else None), False)

    def after_access(self, event) -> None:
        self._claim(("after", event.location.site, round(event.timestamp, 4)), True)

    def thread_start(self, thread) -> None:
        parent = thread.parent
        self.events.append({"k": "thread_start", "t": round(thread.spawn_time, 4),
                            "tid": thread.tid, "name": thread.name,
                            "parent": parent.tid if parent is not None else None})

    def thread_end(self, thread) -> None:
        self.events.append({"k": "thread_end", "t": round(thread.end_time, 4),
                            "tid": thread.tid, "failed": thread.exception is not None})

    def fault(self, thread, error: BaseException) -> None:
        location = getattr(error, "location", None)
        self.events.append({"k": "fault", "t": round(thread.end_time, 4), "tid": thread.tid,
                            "thread": thread.name, "error": type(error).__name__,
                            "site": location.site if location is not None else None})

    def switch(self, thread, now: float) -> None:
        self.events.append({"k": "switch", "t": round(now, 4), "tid": thread.tid})

    def finish(self, reproduced: bool) -> List[dict]:
        """The run's timeline, numbered from ``first_seq``: the merged one
        when the replay ``reproduced`` the run's report and claimed every
        recorded event, else the recorded events alone -- the replay's
        scheduler events would be another run's (:attr:`partial`)."""
        self.partial = not reproduced or bool(self._pending)
        events = self._recorded if self.partial else self.events + self._tail
        return [{"seq": self.first_seq + index, **event}
                for index, event in enumerate(events)]


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
