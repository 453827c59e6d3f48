"""Flight recorder: bounded ring, run marks, activation model."""

import pytest

from repro.obs import flightrec


@pytest.fixture(autouse=True)
def clean_recorder():
    flightrec.uninstall()
    yield
    flightrec.uninstall()


class TestRing:
    def test_capacity_bounds_memory_and_counts_evictions(self):
        rec = flightrec.FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("switch", float(i), tid=i)
        assert len(rec) == 4
        assert rec.recorded == 10
        assert rec.dropped == 6
        assert [e["tid"] for e in rec.snapshot()] == [6, 7, 8, 9]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            flightrec.FlightRecorder(capacity=0)

    def test_payload_may_carry_a_kind_field(self):
        # record()'s positional is named ``k`` precisely so candidate
        # events can carry their own ``kind`` payload field.
        rec = flightrec.FlightRecorder()
        event = rec.record("near_miss", 1.0, kind="use_after_free")
        assert event["k"] == "near_miss"
        assert event["kind"] == "use_after_free"

    def test_events_filters_by_kind(self):
        rec = flightrec.FlightRecorder()
        rec.record("inject", 0.0, site="a")
        rec.record("skip", 1.0, site="b", reason="decay")
        rec.record("inject", 2.0, site="c")
        assert [e["site"] for e in rec.events("inject")] == ["a", "c"]
        assert len(rec.events()) == 3


class TestRunMarks:
    def test_events_partition_by_run(self):
        rec = flightrec.FlightRecorder()
        first = rec.begin_run(kind="prep", test="t", seed=0)
        rec.record("inject", 0.0, site="a")
        second = rec.begin_run(kind="detect", test="t", seed=1)
        rec.record("inject", 0.0, site="b")
        assert [e["k"] for e in rec.events_for_run(first)] == ["run_start", "inject"]
        sites = [e.get("site") for e in rec.events_for_run(second)]
        assert "b" in sites and "a" not in sites
        assert rec.events_for_run(99) == []

    def test_marks_survive_eviction(self):
        rec = flightrec.FlightRecorder(capacity=3)
        rec.begin_run(kind="prep", test="t", seed=0)
        rec.record("inject", 0.0, site="old")
        run2 = rec.begin_run(kind="detect", test="t", seed=1)
        rec.record("inject", 0.0, site="x")
        rec.record("inject", 1.0, site="y")
        # Run 1's events were evicted; run 2's slice is fully retained.
        assert [e["k"] for e in rec.events_for_run(run2)] == [
            "run_start",
            "inject",
            "inject",
        ]
        assert rec.dropped == 2


def reference_events(rec, kind=None):
    """The filter-the-snapshot reading of ``events(kind)``."""
    return [e for e in rec.snapshot() if kind is None or e["k"] == kind]


def reference_events_for_run(rec, run_seq):
    """The filter-the-snapshot reading of ``events_for_run(run_seq)``."""
    start = rec._run_marks.get(run_seq)
    if start is None:
        return []
    end = rec._run_marks.get(run_seq + 1, rec.recorded)
    return [e for e in rec.snapshot() if start <= e["seq"] < end]


class TestSlicedReads:
    """``events``/``events_for_run`` read only what they return; after
    eviction they still equal filtering the snapshot."""

    @staticmethod
    def feed(rec, rng, n=300):
        for _ in range(n):
            roll = rng.random()
            if roll < 0.05:
                rec.begin_run(kind="detect", test="t", seed=rng.randrange(9))
            elif roll < 0.65:
                rec.record("switch", rng.random() * 100.0, tid=rng.randrange(4))
            else:
                k = rng.choice(("inject", "skip", "near_miss", "prune_hb", "pair_removed"))
                rec.record(k, rng.random() * 100.0, site="s%d" % rng.randrange(5))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("capacity", [7, 64, 4096])
    def test_match_the_snapshot_reference(self, seed, capacity):
        import random

        rec = flightrec.FlightRecorder(capacity=capacity)
        self.feed(rec, random.Random(seed))
        if capacity < 300:
            assert rec.dropped > 0
        for kind in (None,) + flightrec.EVENT_KINDS:
            assert rec.events(kind) == reference_events(rec, kind), kind
        for run in range(0, rec.run_seq + 2):
            assert rec.events_for_run(run) == reference_events_for_run(rec, run), run


class _Thread:
    """The fields of a simulated thread a :class:`RunTimeline` reads."""

    def __init__(self, tid, name, parent=None, t=0.0):
        self.tid, self.name, self.parent = tid, name, parent
        self.spawn_time = t
        self.end_time = None
        self.exception = None


class _Access:
    """An operation as ``before_access``/``after_access`` see it."""

    def __init__(self, site, t, tid):
        from repro.sim.instrument import Location

        self.location = Location(site)
        self.timestamp = t
        self.thread_id = tid


class TestRunTimeline:
    """The replayed run's scheduler events, merged with the ring's:
    each ring event takes the place of the operation that recorded it."""

    @staticmethod
    def ring_run(*events):
        rec = flightrec.FlightRecorder()
        rec.begin_run(kind="detect", test="t", seed=1)
        for k, t, fields in events:
            rec.record(k, t, **fields)
        return rec

    def test_a_decision_lands_between_switches_at_the_same_time(self):
        # Thread 1 is switched in at t=2.0 and decides there; thread 2
        # is switched in at the same t. Time alone cannot order these.
        rec = self.ring_run(
            ("inject", 2.0, {"site": "a:1", "tid": 1, "len_ms": 1.0, "p": 1.0}),
        )
        timeline = rec.timeline()
        main, worker = _Thread(1, "main"), _Thread(2, "w", t=2.0)
        timeline.thread_start(main)
        timeline.switch(main, 2.0)
        timeline.before_access(_Access("a:0", 2.0, 1))  # not decided
        timeline.before_access(_Access("a:1", 2.0, 1))
        timeline.switch(worker, 2.0)
        timeline.before_access(_Access("a:1", 2.0, 2))
        events = timeline.finish(True)
        assert [(e["k"], e.get("tid")) for e in events] == [
            ("run_start", None), ("thread_start", 1), ("switch", 1), ("inject", 1),
            ("switch", 2),
        ]
        assert [e["seq"] for e in events] == list(range(5))
        assert "seq" not in timeline.events[0]

    def test_a_skip_claims_the_first_operation_at_its_site_and_time(self):
        rec = self.ring_run(
            ("skip", 1.0, {"site": "a:1", "reason": "decay", "p": 0.5}),
            ("skip", 1.0, {"site": "a:1", "reason": "decay", "p": 0.5}),
        )
        timeline = rec.timeline()
        timeline.before_access(_Access("a:1", 1.0, 1))
        timeline.switch(_Thread(2, "w"), 1.0)
        timeline.before_access(_Access("a:1", 1.0, 2))
        assert [e["k"] for e in timeline.finish(True)] == ["run_start", "skip", "switch", "skip"]

    def test_pair_removed_goes_with_the_event_recorded_after_it(self):
        rec = self.ring_run(
            ("pair_removed", 0.0, {"kind": "use_after_free", "delay_site": "a:1",
                                   "other_site": "b:2", "reason": ""}),
            ("inject", 3.0, {"site": "a:1", "tid": 2, "len_ms": 1.0, "p": 0.1}),
            ("pair_removed", 0.0, {"kind": "use_after_free", "delay_site": "c:1",
                                   "other_site": "d:2", "reason": ""}),
        )
        timeline = rec.timeline()
        timeline.switch(_Thread(2, "w"), 3.0)
        timeline.before_access(_Access("a:1", 3.0, 2))
        timeline.switch(_Thread(1, "main"), 4.0)
        # The trailing removal has no event after it: it closes the run.
        assert [e["k"] for e in timeline.finish(True)] == [
            "run_start", "switch", "pair_removed", "inject", "switch", "pair_removed",
        ]

    def test_verdicts_claim_their_operations_after_access(self):
        rec = self.ring_run(
            ("near_miss", 5.0, {"kind": "use_after_free", "delay_site": "a:1",
                                "other_site": "b:2", "gap_ms": 1.0, "object_id": 7,
                                "new": True}),
            ("prune_parent_child", 5.0, {"delay_site": "c:1", "other_site": "b:2"}),
        )
        timeline = rec.timeline()
        assert timeline.wants_after
        thread = _Thread(1, "main")
        timeline.switch(thread, 5.0)
        timeline.after_access(_Access("b:2", 5.0, 1))
        thread.end_time = 5.0
        thread.exception = RuntimeError("boom")
        timeline.fault(thread, thread.exception)
        timeline.thread_end(thread)
        assert [e["k"] for e in timeline.finish(True)] == [
            "run_start", "switch", "near_miss", "prune_parent_child", "fault", "thread_end",
        ]
        assert timeline.events[-1]["failed"] is True

    def test_an_unclaimed_event_leaves_the_ring_events_alone(self):
        rec = self.ring_run(("skip", 9.0, {"site": "z:9", "reason": "decay"}))
        timeline = rec.timeline()
        assert not timeline.wants_after
        timeline.switch(_Thread(1, "main"), 0.0)
        events = timeline.finish(True)
        assert [(e["seq"], e["k"]) for e in events] == [(0, "run_start"), (1, "skip")]
        assert timeline.partial

    def test_a_replay_that_did_not_reproduce_leaves_the_ring_events_alone(self):
        rec = self.ring_run(("skip", 1.0, {"site": "a:1", "reason": "decay"}))
        timeline = rec.timeline()
        timeline.switch(_Thread(1, "main"), 1.0)
        timeline.before_access(_Access("a:1", 1.0, 1))
        assert [e["k"] for e in timeline.finish(False)] == ["run_start", "skip"]
        assert timeline.partial
        assert [e["k"] for e in timeline.finish(True)] == ["run_start", "switch", "skip"]
        assert not timeline.partial

    def test_the_timeline_is_the_current_runs_numbered_from_its_mark(self):
        rec = flightrec.FlightRecorder(capacity=4)
        rec.begin_run(kind="detect", test="t", seed=0)
        rec.record("skip", 1.0, site="old:1", reason="decay")
        rec.begin_run(kind="detect", test="t", seed=1)
        rec.record("inject", 2.0, site="a:1", tid=1)
        assert rec.dropped == 0
        rec.record("skip", 3.0, site="a:1", reason="decay")
        assert rec.dropped == 1
        timeline = rec.timeline()
        assert timeline.first_seq == 2
        timeline.before_access(_Access("a:1", 2.0, 1))
        timeline.switch(_Thread(2, "w"), 3.0)
        timeline.before_access(_Access("a:1", 3.0, 2))
        events = timeline.finish(True)
        assert [(e["seq"], e["k"]) for e in events] == [
            (2, "run_start"), (3, "inject"), (4, "switch"), (5, "skip"),
        ]
        assert events[0]["seed"] == 1

    def test_scheduler_callbacks_carry_thread_and_fault_fields(self):
        from repro.sim.instrument import Location

        timeline = self.ring_run().timeline()
        main = _Thread(1, "main")
        worker = _Thread(2, "worker", parent=main, t=0.25)
        timeline.thread_start(main)
        timeline.thread_start(worker)
        worker.end_time = 7.123456
        worker.exception = KeyError("k")
        worker.exception.location = Location("a:1")
        timeline.fault(worker, worker.exception)
        timeline.thread_end(worker)
        main.end_time = 8.0
        timeline.thread_end(main)
        assert timeline.finish(True)[1:] == [
            {"seq": 1, "k": "thread_start", "t": 0.0, "tid": 1, "name": "main", "parent": None},
            {"seq": 2, "k": "thread_start", "t": 0.25, "tid": 2, "name": "worker", "parent": 1},
            {"seq": 3, "k": "fault", "t": 7.1235, "tid": 2, "thread": "worker",
             "error": "KeyError", "site": "a:1"},
            {"seq": 4, "k": "thread_end", "t": 7.1235, "tid": 2, "failed": True},
            {"seq": 5, "k": "thread_end", "t": 8.0, "tid": 1, "failed": False},
        ]

    def test_the_ring_keeps_no_scheduler_event(self):
        rec = self.ring_run(("inject", 1.0, {"site": "a:1", "tid": 1}))
        assert rec.recorded == 2
        assert [e["seq"] for e in rec.events_for_run(rec.run_seq)] == [0, 1]


class TestActivation:
    def test_install_uninstall(self):
        assert flightrec.recorder() is None
        assert not flightrec.active()
        rec = flightrec.install(capacity=16)
        assert flightrec.recorder() is rec
        assert flightrec.active()
        flightrec.uninstall()
        assert flightrec.recorder() is None

    def test_suspended_hides_recorder(self):
        rec = flightrec.install()
        with flightrec.suspended():
            assert flightrec.recorder() is None
        assert flightrec.recorder() is rec

    def test_suspended_restores_on_error(self):
        rec = flightrec.install()
        with pytest.raises(RuntimeError):
            with flightrec.suspended():
                raise RuntimeError("boom")
        assert flightrec.recorder() is rec


class TestPipelineIntegration:
    def test_detection_emits_lifecycle_and_decision_events(self):
        from repro.apps import bug_workload
        from repro.core.config import WaffleConfig
        from repro.core.detector import Waffle

        rec = flightrec.install()
        outcome = Waffle(WaffleConfig(seed=21)).detect(
            bug_workload("Bug-8"), max_detection_runs=8
        )
        assert outcome.bug_found
        kinds = {e["k"] for e in rec.snapshot()}
        # Run marks are the driver's, written only into a dossier
        # session's own ring; scheduler events come from a dossier's
        # verifying replay, so no ring holds them.
        assert {"inject", "near_miss"} <= kinds
        assert kinds <= set(flightrec.EVENT_KINDS) - set(flightrec.SCHEDULER_KINDS)

    def test_a_dossier_session_records_into_its_own_ring(self, tmp_path):
        from repro import obs
        from repro.apps import bug_workload
        from repro.core.config import WaffleConfig
        from repro.core.detector import Waffle

        caller = flightrec.install()
        obs.configure(tmp_path)
        try:
            outcome = Waffle(WaffleConfig()).detect(
                bug_workload("Bug-11"), max_detection_runs=5, dossiers=True
            )
        finally:
            obs.disable()
        assert flightrec.recorder() is caller
        assert caller.recorded == 0
        (dossier,) = outcome.dossiers
        assert dossier.flight_events[0]["k"] == "run_start"
        assert dossier.flight_events[0]["seq"] > 0  # the prep run came first
        assert dossier.flight_dropped == 0

    def test_no_ring_without_an_obs_session(self):
        from repro.apps import bug_workload
        from repro.core.config import WaffleConfig
        from repro.core.detector import Waffle

        outcome = Waffle(WaffleConfig()).detect(
            bug_workload("Bug-11"), max_detection_runs=5, dossiers=True
        )
        assert flightrec.recorder() is None
        (dossier,) = outcome.dossiers
        assert dossier.flight_events == [] and dossier.path is None

    def test_recorder_is_purely_observational(self):
        from repro.apps import bug_workload
        from repro.core.config import WaffleConfig
        from repro.core.detector import Waffle

        baseline = Waffle(WaffleConfig(seed=3)).detect(
            bug_workload("Bug-1"), max_detection_runs=4
        )
        flightrec.install()
        observed = Waffle(WaffleConfig(seed=3)).detect(
            bug_workload("Bug-1"), max_detection_runs=4
        )
        assert [r.virtual_time_ms for r in baseline.runs] == [
            r.virtual_time_ms for r in observed.runs
        ]
        assert [r.delays_injected for r in baseline.runs] == [
            r.delays_injected for r in observed.runs
        ]
        assert baseline.bug_found == observed.bug_found
