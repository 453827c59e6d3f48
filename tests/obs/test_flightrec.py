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
    eviction they still equal filtering the merged snapshot."""

    @staticmethod
    def feed(rec, rng, n=300):
        for _ in range(n):
            roll = rng.random()
            if roll < 0.05:
                rec.begin_run(kind="detect", test="t", seed=rng.randrange(9))
            elif roll < 0.6:
                rec.log.t.append(rng.random() * 100.0)
                rec.log.tid.append(rng.randrange(4))
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


class TestRunLog:
    """A ring keeps the scheduler's events of the current run only, in
    its log; every read of that run, and of the other kinds, equals a
    ring that was handed them all through ``record``."""

    @staticmethod
    def feed(stored, logged, rng, n=300):
        for _ in range(n):
            roll = rng.random()
            t, tid = rng.random() * 100.0, rng.randrange(4)
            if roll < 0.05:
                for rec in (stored, logged):
                    rec.begin_run(kind="detect", test="t", seed=tid)
            elif roll < 0.6:
                stored.record("switch", t, tid=tid)
                logged.log.t.append(t)
                logged.log.tid.append(tid)
            elif roll < 0.7:
                k, fields = rng.choice((("thread_start", {"name": "n", "parent": 1}),
                                        ("thread_end", {"failed": False}),
                                        ("fault", {"thread": "n", "error": "E", "site": "s"})))
                stored.record(k, t, tid=tid, **fields)
                logged.log.add(k, t, tid=tid, **fields)
            else:
                k = rng.choice(("inject", "skip", "near_miss", "prune_hb", "pair_removed"))
                for rec in (stored, logged):
                    rec.record(k, t, site="s%d" % tid)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("capacity", [7, 64, 4096])
    def test_matches_a_ring_that_stored_everything(self, seed, capacity):
        import random

        stored = flightrec.FlightRecorder(capacity=capacity)
        logged = flightrec.FlightRecorder(capacity=capacity)
        self.feed(stored, logged, random.Random(seed))
        assert (logged.recorded, logged.dropped) == (stored.recorded, stored.dropped)
        assert not any(e["k"] in flightrec.SCHEDULER_KINDS for e in logged._ring)
        current = logged.run_seq
        assert logged.events_for_run(current) == stored.events_for_run(current)
        for kind in set(flightrec.EVENT_KINDS) - set(flightrec.SCHEDULER_KINDS):
            assert logged.events(kind) == stored.events(kind), kind
        start = logged._run_marks.get(current, 0)
        assert logged.snapshot() == [
            e for e in stored.snapshot()
            if e["seq"] >= start or e["k"] not in flightrec.SCHEDULER_KINDS
        ]

    def test_a_new_run_drops_the_log(self):
        rec = flightrec.FlightRecorder()
        rec.begin_run()
        rec.log.t.append(1.0)
        rec.log.tid.append(1)
        rec.log.add("thread_end", 2.0, tid=1, failed=False)
        assert rec.recorded == 3 and len(rec) == 1
        assert [e["k"] for e in rec.events_for_run(1)] == ["run_start", "switch", "thread_end"]
        rec.begin_run()
        assert rec.log.t == [] and rec.recorded == 4
        assert [e["k"] for e in rec.events_for_run(1)] == ["run_start"]
        assert [e["seq"] for e in rec.events_for_run(2)] == [3]


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
        # session's own ring.
        assert {"thread_start", "inject", "near_miss"} <= kinds
        assert kinds <= set(flightrec.EVENT_KINDS)

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
