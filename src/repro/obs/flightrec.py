"""Bounded ring-buffer flight recorder for scheduler/injection events.

The telemetry session (:mod:`repro.obs.telemetry`) answers *how many*
decisions each run made; the flight recorder answers *which* decisions,
in order, with enough context to assemble a bug dossier after a crash:
the last N scheduler events (thread lifecycle, context switches),
injection decisions (inject/skip with the reason taxonomy), near-miss
pair observations and pruning verdicts (with the vector clocks that
justified them).

Activation model mirrors the telemetry session: a process-global
recorder, off by default. ``install(capacity)`` enables it;
instrumented constructors bind :func:`recorder` once and branch on
``is not None``, so a disabled process pays one pointer check per
guarded site -- the same budget ``benchmarks/bench_obs.py`` enforces
for the telemetry session. Events live in a ``deque(maxlen=capacity)``:
memory is bounded no matter how long the session runs, and eviction is
counted (``dropped``) so a dossier can say when provenance was lost.

Like the telemetry session, the recorder is purely observational: it
never feeds values back into a run, so runs are bit-identical with the
recorder installed or not. :func:`suspended` temporarily hides the
recorder -- the dossier builder uses it so its verification replays do
not pollute the ring that is being snapshotted.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Environment variable enabling the flight recorder (the propagation
#: channel to ``--jobs`` workers, like ``WAFFLE_OBS_DIR``). The value
#: is the ring capacity, so ``WAFFLE_FLIGHTREC=1`` keeps one event; a
#: non-integer or non-positive value means the default capacity.
FLIGHTREC_ENV = "WAFFLE_FLIGHTREC"

DEFAULT_CAPACITY = 4096

#: Event kinds recorded (``k`` field): scheduler lifecycle
#: (``run_start`` | ``thread_start`` | ``thread_end`` | ``switch`` |
#: ``fault``), injection decisions (``inject`` | ``skip``), candidate
#: pipeline (``near_miss`` | ``prune_parent_child`` | ``prune_hb`` |
#: ``pair_removed``), and resilience marks (``hang`` -- a real-threads
#: ``join_all`` deadline naming the stuck threads; ``cell_fault`` -- the
#: campaign supervisor's fault-boundary record for one cell attempt).
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


class FlightRecorder:
    """A bounded, append-only ring of timeline events.

    Events are plain dicts (``seq``, ``k``, ``t`` plus kind-specific
    fields) so a ring snapshot is directly JSON-serializable into a
    dossier. ``seq`` is a lifetime sequence number: run boundaries are
    marked by ``run_start`` events and remembered as sequence marks, so
    ``events_for_run`` works even after older events were evicted.

    Context switches, the most frequent kind, are stored compactly as
    ``(seq, t, tid)`` tuples by :meth:`record_switch`; every inspection
    method expands them into the dict :meth:`record` would have built.
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
        """Events evicted from the ring (recorded - retained)."""
        return self.recorded - len(self._ring)

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

    def record_switch(self, t_ms: float, tid: int) -> None:
        """Append a context switch: ``record("switch", t_ms, tid=tid)``
        without building the dict (the scheduler calls this per switch)."""
        self._ring.append((self.recorded, t_ms, tid))
        self.recorded += 1

    def begin_run(self, kind: str = "", test: str = "", seed: int = 0) -> int:
        """Mark the start of a run; subsequent events belong to it."""
        self.run_seq += 1
        self._run_marks[self.run_seq] = self.recorded
        self.record("run_start", run=self.run_seq, run_kind=kind, test=test, seed=seed)
        return self.run_seq

    # -- Inspection ------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """Copy of the retained timeline, oldest first."""
        return [_expand(e) if type(e) is tuple else e for e in self._ring]

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """Retained events of one kind (all of them for None), oldest
        first. Only the returned entries are expanded: a kind other than
        ``switch`` never touches the compact switch tuples."""
        if kind is None:
            return self.snapshot()
        if kind == "switch":
            return [
                _expand(e) if type(e) is tuple else e
                for e in self._ring
                if type(e) is tuple or e["k"] == "switch"
            ]
        return [e for e in self._ring if type(e) is not tuple and e["k"] == kind]

    def events_for_run(self, run_seq: int) -> List[dict]:
        """Retained events of one run (between its mark and the next).

        Ring seqs are contiguous (the oldest retained one is
        ``dropped``), so the run's slice is found by index and only it
        is expanded.
        """
        start = self._run_marks.get(run_seq)
        if start is None:
            return []
        end = self._run_marks.get(run_seq + 1, self.recorded)
        first = self.dropped
        window = islice(self._ring, max(0, start - first), max(0, end - first))
        return [_expand(e) if type(e) is tuple else e for e in window]


def _expand(entry: Tuple[int, float, int]) -> dict:
    """The dict form of a compact ``(seq, t, tid)`` switch entry."""
    seq, t_ms, tid = entry
    return {"seq": seq, "k": "switch", "t": round(t_ms, 4), "tid": tid}


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
    """Temporarily hide the recorder (dossier verification replays)."""
    global _recorder
    saved = _recorder
    _recorder = None
    try:
        yield
    finally:
        _recorder = saved


def _configure_from_env() -> None:
    value = os.environ.get(FLIGHTREC_ENV)
    if not value:
        return
    try:
        capacity = int(value)
    except ValueError:
        capacity = DEFAULT_CAPACITY
    install(capacity if capacity > 0 else DEFAULT_CAPACITY)


def _reset_after_fork() -> None:
    # A forked worker inherits the parent's ring; its contents are
    # the parent's story. Start the child with a fresh ring of the same
    # capacity so per-run marks and sequence numbers stay coherent.
    global _recorder
    if _recorder is not None:
        _recorder = FlightRecorder(_recorder.capacity)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
