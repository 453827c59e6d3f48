"""Near-miss tracking.

The near-miss heuristic (paper sections 2 and 3.1) is the sole
candidate-*generation* mechanism of the whole tool family: two
operations form a candidate iff they touch the same object from
different threads within a physical-time window delta.

Patterns:

* MemOrder mode -- ``(INIT at tau1, USE at tau2)`` with
  ``0 <= tau2 - tau1 <= delta`` yields a use-before-initialization
  candidate delaying the INIT; ``(USE at tau1, DISPOSE at tau2)`` yields
  a use-after-free candidate delaying the USE.
* TSV mode (Tsvd baseline) -- two ``UNSAFE_CALL`` operations within
  delta of each other; both call sites become delay locations.

The tracker is incremental so the same code serves the offline trace
analysis (Waffle's preparation phase) and the online identification of
WaffleBasic/Tsvd (fed from ``after_access``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .. import obs
from ..sim.instrument import AccessEvent, AccessType
from .candidates import CandidateKind, CandidatePair, CandidateSet, GapObservation
from .vector_clock import ordered

#: Optional filter deciding whether a would-be pair is already ordered
#: (and must be pruned). Receives (earlier_event, later_event); returns
#: True to prune. Waffle plugs its vector-clock comparison in here.
OrderFilter = Callable[[AccessEvent, AccessEvent], bool]

#: Callback fired when a pair is added; receives (pair, is_new).
PairSink = Callable[[CandidatePair, bool], None]


def fork_ordered(earlier: AccessEvent, later: AccessEvent) -> bool:
    """The parent-child :data:`OrderFilter`: prune when the two
    operations' clock snapshots are comparable (fork-ordered)."""
    return ordered(earlier.vc_snapshot, later.vc_snapshot)


_INIT = AccessType.INIT
_USE = AccessType.USE
_DISPOSE = AccessType.DISPOSE
_UBI = CandidateKind.USE_BEFORE_INIT
_UAF = CandidateKind.USE_AFTER_FREE


class NearMissTracker:
    """Incremental MemOrder near-miss matching over an event stream.

    Only an INIT or a USE can be the *earlier* side of a pair (INIT ->
    USE, USE -> DISPOSE), so each object keeps two windows: its recent
    INITs, scanned by an arriving USE, and its recent USEs, scanned by
    an arriving DISPOSE. DISPOSEs are never stored and an INIT scans
    nothing. The incoming access type fixes the candidate kind. On a
    timestamp-ordered stream this emits exactly the pairs, in exactly
    the order, of one mixed per-object window scanned in full.
    """

    def __init__(
        self,
        window_ms: float,
        candidates: Optional[CandidateSet] = None,
        order_filter: Optional[OrderFilter] = None,
        on_pair: Optional[PairSink] = None,
    ):
        if window_ms <= 0:
            raise ValueError("near-miss window must be positive")
        self.window_ms = window_ms
        self.candidates = candidates if candidates is not None else CandidateSet()
        self.order_filter = order_filter
        self.on_pair = on_pair
        #: Per-object windows, oldest first (object id -> deque): the
        #: recent USEs in ``_recent`` and the recent INITs in
        #: ``_recent_inits``.
        self._recent: Dict[int, Deque[AccessEvent]] = {}
        self._recent_inits: Dict[int, Deque[AccessEvent]] = {}
        #: Near-miss matches emitted over the tracker's lifetime (every
        #: (re)added pair vs. first-time-seen pairs only).
        self.pairs_observed: int = 0
        self.pairs_new: int = 0
        self._fr = obs.flightrec.recorder()

    #: Shared empty result so delay-free streams allocate nothing.
    _NO_PAIRS: List[CandidatePair] = []

    def observe(self, event: AccessEvent) -> List[CandidatePair]:
        """Feed one event (in timestamp order); returns pairs (re)added."""
        access_type = event.access_type
        if access_type is _USE:
            earlier_windows = self._recent_inits
            own_windows = self._recent
            kind = _UBI
        elif access_type is _DISPOSE:
            earlier_windows = self._recent
            own_windows = None
            kind = _UAF
        elif access_type is _INIT:
            earlier_windows = None
            own_windows = self._recent_inits
            kind = None
        else:
            return self._NO_PAIRS
        object_id = event.object_id
        if object_id < 0:
            # A faulting access through a null reference carries no
            # object identity; it cannot participate in near-miss
            # matching (the bug already manifested anyway).
            return self._NO_PAIRS
        horizon = event.timestamp - self.window_ms
        added = self._NO_PAIRS
        if earlier_windows is not None:
            window = earlier_windows.get(object_id)
            if window:
                while window and window[0].timestamp < horizon:
                    window.popleft()
                if window:
                    added = self._match(window, event, kind)
        if own_windows is not None:
            window = own_windows.get(object_id)
            if window is None:
                own_windows[object_id] = deque((event,))
            else:
                while window and window[0].timestamp < horizon:
                    window.popleft()
                window.append(event)
        return added

    def _match(
        self, window: Deque[AccessEvent], event: AccessEvent, kind: CandidateKind
    ) -> List[CandidatePair]:
        """Pair ``event`` with every other-thread entry of ``window``."""
        thread_id = event.thread_id
        timestamp = event.timestamp
        object_id = event.object_id
        order_filter = self.order_filter
        candidates = self.candidates
        on_pair = self.on_pair
        fr = self._fr
        added: List[CandidatePair] = []
        for earlier in window:
            if earlier.thread_id == thread_id:
                continue
            if order_filter is not None and order_filter(earlier, event):
                candidates.pruned_parent_child += 1
                if fr is not None:
                    # The verdict plus the vector clocks that justify it
                    # (fork-ordered: vc(earlier) <= vc(later)).
                    fr.record(
                        "prune_parent_child", timestamp,
                        delay_site=earlier.location.site,
                        other_site=event.location.site,
                        vc_earlier={str(k): v for k, v in (earlier.vc_snapshot or {}).items()},
                        vc_later={str(k): v for k, v in (event.vc_snapshot or {}).items()},
                    )
                continue
            pair = CandidatePair(
                kind=kind,
                delay_location=earlier.location,
                other_location=event.location,
            )
            observation = GapObservation(
                gap_ms=timestamp - earlier.timestamp,
                timestamp_first=earlier.timestamp,
                timestamp_second=timestamp,
                object_id=object_id,
                thread_first=earlier.thread_id,
                thread_second=thread_id,
            )
            is_new = candidates.add(pair, observation)
            self.pairs_observed += 1
            if is_new:
                self.pairs_new += 1
            if fr is not None:
                fr.record(
                    "near_miss", timestamp,
                    kind=kind.value,
                    delay_site=pair.delay_location.site,
                    other_site=pair.other_location.site,
                    gap_ms=round(observation.gap_ms, 4),
                    object_id=object_id,
                    new=is_new,
                )
            if on_pair is not None:
                on_pair(pair, is_new)
            added.append(pair)
        return added

    def observe_all(self, events) -> CandidateSet:
        """Feed a whole (sorted) event sequence; returns the candidate set."""
        observe = self.observe
        for event in events:
            observe(event)
        return self.candidates


class TsvNearMissTracker:
    """Near-miss matching for thread-safety violations (Tsvd, section 2).

    Both locations of a TSV pair become delay locations: reversing
    either side can make the two call windows overlap.
    """

    def __init__(
        self,
        window_ms: float,
        candidates: Optional[CandidateSet] = None,
        on_pair: Optional[PairSink] = None,
    ):
        if window_ms <= 0:
            raise ValueError("near-miss window must be positive")
        self.window_ms = window_ms
        self.candidates = candidates if candidates is not None else CandidateSet()
        self.on_pair = on_pair
        self._recent: Dict[int, Deque[AccessEvent]] = {}
        self.pairs_observed: int = 0
        self.pairs_new: int = 0
        self._fr = obs.flightrec.recorder()

    def observe(self, event: AccessEvent) -> List[CandidatePair]:
        if event.access_type is not AccessType.UNSAFE_CALL:
            return NearMissTracker._NO_PAIRS
        recent = self._recent
        window = recent.get(event.object_id)
        if window is None:
            window = recent[event.object_id] = deque()
        horizon = event.timestamp - self.window_ms
        while window and window[0].timestamp < horizon:
            window.popleft()

        added: List[CandidatePair] = []
        for earlier in window:
            if earlier.thread_id == event.thread_id:
                continue
            observation = GapObservation(
                gap_ms=event.timestamp - earlier.timestamp,
                timestamp_first=earlier.timestamp,
                timestamp_second=event.timestamp,
                object_id=event.object_id,
                thread_first=earlier.thread_id,
                thread_second=event.thread_id,
            )
            for delay_loc, other_loc in (
                (earlier.location, event.location),
                (event.location, earlier.location),
            ):
                pair = CandidatePair(
                    kind=CandidateKind.THREAD_SAFETY,
                    delay_location=delay_loc,
                    other_location=other_loc,
                )
                is_new = self.candidates.add(pair, observation)
                self.pairs_observed += 1
                if is_new:
                    self.pairs_new += 1
                if self._fr is not None:
                    self._fr.record(
                        "near_miss", event.timestamp,
                        kind=pair.kind.value,
                        delay_site=delay_loc.site,
                        other_site=other_loc.site,
                        gap_ms=round(observation.gap_ms, 4),
                        object_id=event.object_id,
                        new=is_new,
                    )
                if self.on_pair is not None:
                    self.on_pair(pair, is_new)
                added.append(pair)

        window.append(event)
        return added

    def observe_all(self, events) -> CandidateSet:
        observe = self.observe
        for event in events:
            observe(event)
        return self.candidates
