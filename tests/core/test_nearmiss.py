"""Near-miss tracking: the candidate-generation heuristic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateKind, CandidatePair, CandidateSet, GapObservation
from repro.core.nearmiss import NearMissTracker, TsvNearMissTracker, fork_ordered
from repro.sim.instrument import AccessEvent, AccessType, Location


def ev(site, access, oid=1, tid=1, ts=0.0):
    return AccessEvent(
        location=Location(site),
        access_type=access,
        object_id=oid,
        thread_id=tid,
        timestamp=ts,
    )


class TestMemOrderNearMiss:
    def test_init_use_within_window_makes_ubi_pair(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        added = tracker.observe(ev("use", AccessType.USE, tid=2, ts=50.0))
        assert len(added) == 1
        pair = added[0]
        assert pair.kind is CandidateKind.USE_BEFORE_INIT
        assert pair.delay_location.site == "init"
        assert pair.other_location.site == "use"

    def test_use_dispose_within_window_makes_uaf_pair(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("use", AccessType.USE, tid=1, ts=0.0))
        added = tracker.observe(ev("dispose", AccessType.DISPOSE, tid=2, ts=20.0))
        assert added[0].kind is CandidateKind.USE_AFTER_FREE
        assert added[0].delay_location.site == "use"

    def test_same_thread_never_pairs(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, tid=1, ts=10.0)) == []

    def test_different_objects_never_pair(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, oid=1, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, oid=2, tid=2, ts=10.0)) == []

    def test_outside_window_never_pairs(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, tid=2, ts=150.0)) == []

    def test_boundary_inclusive(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert len(tracker.observe(ev("use", AccessType.USE, tid=2, ts=100.0))) == 1

    def test_faulting_event_skipped(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, oid=-1, tid=2, ts=10.0)) == []

    def test_unsafe_calls_ignored(self):
        tracker = NearMissTracker(window_ms=100.0)
        assert tracker.observe(ev("c", AccessType.UNSAFE_CALL, tid=1, ts=0.0)) == []

    def test_gap_observation_recorded(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=10.0))
        (pair,) = tracker.observe(ev("use", AccessType.USE, tid=2, ts=35.0))
        assert tracker.candidates.max_gap(pair) == pytest.approx(25.0)

    def test_order_filter_prunes_and_counts(self):
        tracker = NearMissTracker(window_ms=100.0, order_filter=lambda a, b: True)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, tid=2, ts=10.0)) == []
        assert tracker.candidates.pruned_parent_child == 1

    def test_on_pair_callback_new_flag(self):
        calls = []
        tracker = NearMissTracker(window_ms=100.0, on_pair=lambda p, new: calls.append(new))
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        tracker.observe(ev("use", AccessType.USE, tid=2, ts=10.0))
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=20.0))
        tracker.observe(ev("use", AccessType.USE, tid=2, ts=30.0))
        # The final use pairs with BOTH init instances still inside the
        # window (same static pair, so is_new only the first time).
        assert calls == [True, False, False]

    def test_observe_all_sorted_stream(self):
        events = [
            ev("init", AccessType.INIT, tid=1, ts=0.0),
            ev("use", AccessType.USE, tid=2, ts=5.0),
            ev("dispose", AccessType.DISPOSE, tid=1, ts=9.0),
        ]
        candidates = NearMissTracker(window_ms=100.0).observe_all(events)
        kinds = {p.kind for p in candidates}
        assert kinds == {CandidateKind.USE_BEFORE_INIT, CandidateKind.USE_AFTER_FREE}

    def test_window_eviction(self):
        tracker = NearMissTracker(window_ms=10.0)
        for i in range(100):
            tracker.observe(ev("use%d" % i, AccessType.USE, tid=1, ts=float(i)))
        window = tracker._recent[1]
        assert len(window) <= 12

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            NearMissTracker(window_ms=0.0)

    @given(gap=st.floats(min_value=0.0, max_value=99.9))
    def test_any_in_window_gap_pairs(self, gap):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        added = tracker.observe(ev("use", AccessType.USE, tid=2, ts=gap))
        assert len(added) == 1
        assert tracker.candidates.max_gap(added[0]) == pytest.approx(gap)


def brute_force(events, window_ms, order_filter):
    """All-pairs reference: every earlier event of the same object, in
    stream order, is a potential partner of every later one."""
    candidates = CandidateSet()
    calls = []
    observed = new = 0
    for j, later in enumerate(events):
        if later.access_type is AccessType.UNSAFE_CALL or later.object_id < 0:
            continue
        for earlier in events[:j]:
            if earlier.object_id != later.object_id:
                continue
            if earlier.timestamp < later.timestamp - window_ms:
                continue
            if earlier.thread_id == later.thread_id:
                continue
            kind = CandidateKind.from_access_pair(earlier.access_type, later.access_type)
            if kind is None:
                continue
            if order_filter is not None and order_filter(earlier, later):
                candidates.pruned_parent_child += 1
                continue
            pair = CandidatePair(kind, earlier.location, later.location)
            is_new = candidates.add(
                pair,
                GapObservation(
                    gap_ms=later.timestamp - earlier.timestamp,
                    timestamp_first=earlier.timestamp,
                    timestamp_second=later.timestamp,
                    object_id=later.object_id,
                    thread_first=earlier.thread_id,
                    thread_second=later.thread_id,
                ),
            )
            observed += 1
            new += is_new
            calls.append((pair.key(), is_new))
    return candidates, observed, new, calls


_ACCESS_TYPES = list(AccessType)
_event_specs = st.lists(
    st.tuples(
        # Gap to the previous event: whole multiples of the windows
        # below, so equal timestamps and gaps of exactly one window
        # (the inclusive boundary) are common.
        st.sampled_from([0.0, 0.5, 0.5, 1.0]),
        st.sampled_from(_ACCESS_TYPES),
        st.integers(min_value=-1, max_value=2),  # object id
        st.integers(min_value=1, max_value=3),  # thread id
        st.integers(min_value=0, max_value=1),  # static site
        st.dictionaries(st.integers(1, 3), st.integers(0, 3), max_size=3),  # clock
    ),
    max_size=40,
)


class TestTypeIndexedWindows:
    """The INIT/USE windows match a brute-force all-pairs scan exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        specs=_event_specs,
        window_ms=st.sampled_from([0.5, 1.0, 2.0]),
        filtered=st.booleans(),
    )
    def test_matches_all_pairs_reference(self, specs, window_ms, filtered):
        events = []
        ts = 0.0
        for gap, access, oid, tid, site, clock in specs:
            ts += gap
            event = ev("%s.%d" % (access.value, site), access, oid=oid, tid=tid, ts=ts)
            event.vc_snapshot = clock
            events.append(event)
        order_filter = fork_ordered if filtered else None

        calls = []
        tracker = NearMissTracker(
            window_ms,
            order_filter=order_filter,
            on_pair=lambda pair, is_new: calls.append((pair.key(), is_new)),
        )
        returned = []
        for event in events:
            returned.extend(pair.key() for pair in tracker.observe(event))

        expected, observed, new, expected_calls = brute_force(events, window_ms, order_filter)
        # Pairs in insertion order, every gap observation, prune count.
        assert tracker.candidates.to_dict() == expected.to_dict()
        assert tracker.pairs_observed == observed
        assert tracker.pairs_new == new
        assert calls == expected_calls
        assert returned == [key for key, _ in expected_calls]

        offline = NearMissTracker(window_ms, order_filter=order_filter).observe_all(events)
        assert offline.to_dict() == expected.to_dict()

    def test_disposes_are_never_stored(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("d", AccessType.DISPOSE, tid=1, ts=0.0))
        tracker.observe(ev("i", AccessType.INIT, tid=1, ts=1.0))
        tracker.observe(ev("u", AccessType.USE, tid=1, ts=2.0))
        assert [e.location.site for e in tracker._recent_inits[1]] == ["i"]
        assert [e.location.site for e in tracker._recent[1]] == ["u"]


def tsv_brute_force(events, window_ms):
    """All-pairs TSV reference: every earlier UNSAFE_CALL on the same
    object, in stream order, pairs with every later one, and each match
    adds both directions."""
    candidates = CandidateSet()
    calls = []
    observed = new = 0
    unsafe = AccessType.UNSAFE_CALL
    for j, later in enumerate(events):
        if later.access_type is not unsafe:
            continue
        for earlier in events[:j]:
            if earlier.access_type is not unsafe or earlier.object_id != later.object_id:
                continue
            if earlier.timestamp < later.timestamp - window_ms:
                continue
            if earlier.thread_id == later.thread_id:
                continue
            observation = GapObservation(
                gap_ms=later.timestamp - earlier.timestamp,
                timestamp_first=earlier.timestamp,
                timestamp_second=later.timestamp,
                object_id=later.object_id,
                thread_first=earlier.thread_id,
                thread_second=later.thread_id,
            )
            for delay_loc, other_loc in (
                (earlier.location, later.location),
                (later.location, earlier.location),
            ):
                pair = CandidatePair(CandidateKind.THREAD_SAFETY, delay_loc, other_loc)
                is_new = candidates.add(pair, observation)
                observed += 1
                new += is_new
                calls.append((pair.key(), is_new))
    return candidates, observed, new, calls


class TestTsvReference:
    """The TSV tracker's per-object windows match an all-pairs scan."""

    @settings(max_examples=300, deadline=None)
    @given(specs=_event_specs, window_ms=st.sampled_from([0.5, 1.0, 2.0]))
    def test_matches_all_pairs_reference(self, specs, window_ms):
        events = []
        ts = 0.0
        for gap, access, oid, tid, site, _clock in specs:
            ts += gap
            events.append(ev("%s.%d" % (access.value, site), access, oid=oid, tid=tid, ts=ts))

        calls = []
        tracker = TsvNearMissTracker(
            window_ms, on_pair=lambda pair, is_new: calls.append((pair.key(), is_new))
        )
        returned = []
        for event in events:
            returned.extend(pair.key() for pair in tracker.observe(event))

        expected, observed, new, expected_calls = tsv_brute_force(events, window_ms)
        # Pairs in insertion order with every gap observation.
        assert tracker.candidates.to_dict() == expected.to_dict()
        assert tracker.pairs_observed == observed
        assert tracker.pairs_new == new
        assert calls == expected_calls
        assert returned == [key for key, _ in expected_calls]

        offline = TsvNearMissTracker(window_ms).observe_all(events)
        assert offline.to_dict() == expected.to_dict()


class TestTsvNearMiss:
    def test_pair_added_in_both_directions(self):
        tracker = TsvNearMissTracker(window_ms=100.0)
        tracker.observe(ev("a", AccessType.UNSAFE_CALL, tid=1, ts=0.0))
        added = tracker.observe(ev("b", AccessType.UNSAFE_CALL, tid=2, ts=10.0))
        delay_sites = {p.delay_location.site for p in added}
        assert delay_sites == {"a", "b"}
        assert all(p.kind is CandidateKind.THREAD_SAFETY for p in added)

    def test_memorder_events_ignored(self):
        tracker = TsvNearMissTracker(window_ms=100.0)
        assert tracker.observe(ev("a", AccessType.USE, tid=1, ts=0.0)) == []

    def test_same_thread_ignored(self):
        tracker = TsvNearMissTracker(window_ms=100.0)
        tracker.observe(ev("a", AccessType.UNSAFE_CALL, tid=1, ts=0.0))
        assert tracker.observe(ev("b", AccessType.UNSAFE_CALL, tid=1, ts=1.0)) == []

    def test_window_respected(self):
        tracker = TsvNearMissTracker(window_ms=10.0)
        tracker.observe(ev("a", AccessType.UNSAFE_CALL, tid=1, ts=0.0))
        assert tracker.observe(ev("b", AccessType.UNSAFE_CALL, tid=2, ts=50.0)) == []

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TsvNearMissTracker(window_ms=-5.0)
