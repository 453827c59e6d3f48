"""Bug dossiers: provenance capture, deterministic replay, minimization.

The acceptance criterion for the dossier subsystem: every bug Waffle
finds on the apps suite emits a dossier whose embedded minimal schedule
replays to the same error type at the same fault location,
deterministically. The module-scoped fixture runs that campaign once
under an obs session, which keeps and so minimizes each dossier, and
the tests assert over it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.apps import all_bugs, bug_workload
from repro.core.config import WaffleConfig
from repro.core.detector import Waffle
from repro.obs import dossier as dossier_mod
from repro.obs import flightrec
from repro.sim.instrument import AccessType, Location, PendingAccess


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    """One Waffle detection per Table-4 bug, dossiers asked for, under an
    obs session so that each dossier is kept and minimized.

    A couple of fallback seeds absorb per-seed misses (the headline
    campaign requires 2-of-3 seeds, so one seed alone may miss a bug).
    """
    results = {}
    obs.configure(tmp_path_factory.mktemp("sessions"))
    try:
        for bug in all_bugs():
            test = bug_workload(bug.bug_id)
            for seed in (21, 22, 23):
                outcome = Waffle(WaffleConfig(seed=seed)).detect(
                    test, max_detection_runs=8, dossiers=True
                )
                if outcome.bug_found:
                    break
            results[bug.bug_id] = (test, outcome)
    finally:
        obs.disable()
    return results


def observed_detect(test, config, directory, runs=8):
    """A dossier session under a temporary obs session, which records
    its provenance into a flight ring of its own."""
    obs.configure(directory)
    try:
        return Waffle(config).detect(test, max_detection_runs=runs, dossiers=True)
    finally:
        obs.disable()


def _any_dossier(sessions):
    for _, (test, outcome) in sorted(sessions.items()):
        if outcome.dossiers:
            return test, outcome.dossiers[0]
    pytest.fail("no dossier produced by any session")


class TestAcceptance:
    def test_every_found_bug_emits_a_dossier(self, sessions):
        missing = [
            bug_id
            for bug_id, (_, outcome) in sessions.items()
            if outcome.bug_found and not outcome.dossiers
        ]
        assert not missing, missing
        assert any(outcome.bug_found for _, outcome in sessions.values())

    def test_minimal_schedules_replay_to_same_fault(self, sessions):
        for bug_id, (test, outcome) in sessions.items():
            for dossier in outcome.dossiers:
                replay, reproduced = dossier_mod.replay_dossier(dossier, test.build)
                assert reproduced, (bug_id, replay)

    def test_replay_is_deterministic(self, sessions):
        test, dossier = _any_dossier(sessions)
        first = dossier_mod.replay_schedule(test.build, dossier.schedule)
        second = dossier_mod.replay_schedule(test.build, dossier.schedule)
        assert first == second

    def test_schedules_are_verified_and_never_grow(self, sessions):
        for bug_id, (_, outcome) in sessions.items():
            for dossier in outcome.dossiers:
                assert dossier.verified, bug_id
                assert len(dossier.schedule["delays"]) <= len(
                    dossier.schedule_original
                ), bug_id

    def test_provenance_covers_matched_pairs(self, sessions):
        for bug_id, (_, outcome) in sessions.items():
            for dossier in outcome.dossiers:
                assert len(dossier.provenance) == len(
                    dossier.report.matched_pairs
                ), bug_id
                for entry in dossier.provenance:
                    assert entry["planned_delay_ms"] >= 0.0
                    assert 0.0 <= entry["decay_probability"] <= 1.0


class TestSerialization:
    def test_round_trip_via_persistence(self, sessions, tmp_path):
        _, dossier = _any_dossier(sessions)
        path = dossier_mod.write_dossier(dossier, tmp_path)
        loaded = dossier_mod.load_dossier(path)
        assert loaded.to_dict() == dossier.to_dict()
        assert loaded.fault_site == dossier.fault_site
        assert loaded.error_type == dossier.error_type

    def test_validates_against_schema(self, sessions):
        _, dossier = _any_dossier(sessions)
        assert dossier_mod.validate_dossier_dict(dossier.to_dict()) == []

    def test_validator_flags_missing_keys_and_bad_events(self, sessions):
        _, dossier = _any_dossier(sessions)
        payload = dossier.to_dict()
        payload.pop("schedule")
        payload["flight_events"] = [{"k": "not_a_kind", "seq": 0, "t": 0.0}]
        problems = dossier_mod.validate_dossier_dict(payload)
        assert any("schedule" in p for p in problems)
        assert any("not_a_kind" in p for p in problems)


class StoringLog:
    """A run log that hands every scheduler event to its ring's
    ``record`` instead of keeping it. The scheduler logs a switch as
    its time, then its thread id."""

    def __init__(self, ring):
        self.ring = ring
        self.t = []
        self.tid = self  # ``tid.append`` records the switch
        self.fields = {}

    def append(self, tid):
        self.ring.record("switch", self.t.pop(), tid=tid)

    def add(self, k, t_ms, tid, **fields):
        self.ring.record(k, t_ms, tid=tid, **fields)

    def clear(self):
        pass


class ReferenceRecorder(flightrec.FlightRecorder):
    """Stores every event, the scheduler's too, and reads by filtering
    the whole snapshot -- the behaviour the sliced
    ``events``/``events_for_run`` over the run log must equal."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.log = StoringLog(self)

    def events(self, kind=None):
        return [e for e in self.snapshot() if kind is None or e["k"] == kind]

    def events_for_run(self, run_seq):
        start = self._run_marks.get(run_seq)
        if start is None:
            return []
        end = self._run_marks.get(run_seq + 1, self.recorded)
        return [e for e in self.snapshot() if start <= e["seq"] < end]


class TestSlicedRecorderReads:
    # Bug-16 and Bug-17 record 1.4k and 344 events at seed 21; at these
    # capacities the ring evicts, down into the final run's own slice.
    # A ring stores no scheduler events: a dossier merges the crashing
    # run's from the run log, which must equal the timeline of a ring
    # that stored them.
    @pytest.mark.parametrize("bug_id,capacity", [
        ("Bug-16", 16), ("Bug-16", 256), ("Bug-17", 64),
    ])
    def test_dossier_after_eviction_matches_the_snapshot_reference(
        self, bug_id, capacity, monkeypatch, tmp_path
    ):
        payloads = []
        rings = (
            ("logged", lambda: flightrec.FlightRecorder(capacity)),
            ("reference", lambda: ReferenceRecorder(capacity)),
        )
        for name, make in rings:
            def install(capacity=None, make=make):
                flightrec._recorder = make()
                return flightrec._recorder

            monkeypatch.setattr(flightrec, "install", install)
            outcome = observed_detect(bug_workload(bug_id), WaffleConfig(seed=21), tmp_path / name)
            assert outcome.dossiers
            assert all(d.flight_dropped > 0 for d in outcome.dossiers)
            payloads.append(
                [json.dumps(d.to_dict(), sort_keys=True) for d in outcome.dossiers]
            )
        assert payloads[0] == payloads[1]


def _fuzz_dossiers(obs_dir, global_args=(), fuzz_args=(), env_extra=None):
    """Sorted dossier payloads of one ``--obs-dir ... fuzz`` subprocess."""
    repo = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    env.pop("WAFFLE_OBS_DIR", None)
    env.pop("WAFFLE_FLIGHTREC", None)
    env.update(env_extra or {})
    subprocess.run(
        [sys.executable, "-m", "repro", "--obs-dir", str(obs_dir), *global_args,
         "fuzz", *fuzz_args],
        env=env, capture_output=True, check=True,
    )
    return sorted(
        json.dumps(dossier_mod.load_dossier(path).to_dict(), sort_keys=True)
        for path in obs_dir.glob("dossier-*.json")
    )


class TestSessionScopedPrunes:
    """Each detection session records into a ring of its own, so a
    reused ``--jobs`` worker's earlier cells never show in a dossier,
    and which worker ran a cell does not either."""

    def test_dossiers_equal_across_job_counts(self, tmp_path):
        payloads = [
            _fuzz_dossiers(tmp_path / ("jobs%d" % jobs), ("--jobs", str(jobs)),
                           ("--seed-range", "0:12", "--seed", "2"))
            for jobs in (1, 2)
        ]
        assert len(payloads[0]) > 1
        assert any(json.loads(p)["prunes"] for p in payloads[0])
        assert payloads[0] == payloads[1]


#: The dossier fields only the flight recorder feeds.
RECORDER_FIELDS = ("prunes", "flight_events", "flight_dropped")

#: The dossier fields minimization sets.
MINIMIZATION_FIELDS = ("schedule", "minimized", "replays_used")


def _suspects(dossier, schedule):
    """The schedule's delays at the report's matched delay sites, as
    ``assemble_dossier`` passes them to ``minimize_schedule``."""
    sites = {pair.delay_location.site for pair in dossier.report.matched_pairs}
    return [d for d in schedule["delays"] if d["site"] in sites]


class TestRecorderProvenance:
    """The schedule, pair provenance, interference and the swimlane come
    from hook and engine state. Only a dossier an obs session keeps is
    minimized, and the recorder adds the fields in ``RECORDER_FIELDS``
    to every such dossier; an unkept one is verified by one replay."""

    @pytest.mark.parametrize(
        "name", ["Bug-1", "Bug-5", "Bug-11", "Bug-16", "gen-0", "gen-3", "gen-7"]
    )
    def test_unkept_dossier_differs_only_in_provenance_and_minimization(
        self, name, tmp_path
    ):
        if name.startswith("gen-"):
            from repro.gen.registry import gen_app

            test = gen_app(int(name[4:])).tests[0]
        else:
            test = bug_workload(name)
        config = WaffleConfig(seed=3)
        bare = Waffle(config).detect(test, max_detection_runs=8, dossiers=True)
        kept = observed_detect(test, config, tmp_path)
        assert bare.dossiers and len(bare.dossiers) == len(kept.dossiers)
        for unkept, full in zip(bare.dossiers, kept.dossiers):
            assert unkept.verified and unkept.replays_used == 1 and not unkept.minimized
            assert unkept.schedule["delays"] == [
                {"site": e["site"], "nth": e["nth"], "len_ms": e["len_ms"]}
                for e in full.schedule_original
            ]
            delays, replays, verified = dossier_mod.minimize_schedule(
                test.build, unkept.schedule, unkept.error_type, unkept.fault_site,
                suspects=_suspects(unkept, unkept.schedule),
            )
            assert verified and delays == full.schedule["delays"]
            assert replays == full.replays_used
            assert not unkept.decisions and full.decisions
            plain, full = unkept.to_dict(), full.to_dict()
            assert all(not plain[key] for key in RECORDER_FIELDS)
            assert full["flight_events"]
            plain_schedule, full_schedule = plain["schedule"], full["schedule"]
            plain_schedule.pop("delays")
            full_schedule.pop("delays")
            assert plain_schedule == full_schedule
            for key in RECORDER_FIELDS + MINIMIZATION_FIELDS:
                plain.pop(key)
                full.pop(key)
            assert plain == full

    def test_no_dossier_unless_asked_or_recording(self):
        outcome = Waffle(WaffleConfig(seed=3)).detect(
            bug_workload("Bug-11"), max_detection_runs=8
        )
        assert outcome.bug_found and outcome.dossiers == []

    def test_an_installed_ring_does_not_ask_for_dossiers(self, tmp_path):
        flightrec.install()
        obs.configure(tmp_path)
        try:
            outcome = Waffle(WaffleConfig(seed=3)).detect(
                bug_workload("Bug-11"), max_detection_runs=8
            )
        finally:
            obs.disable()
            flightrec.uninstall()
        assert outcome.bug_found and outcome.dossiers == []
        assert not list(tmp_path.glob("dossier-*.json"))

    def test_sessions_before_leave_no_trace(self, tmp_path):
        """A Bug-11 dossier after a Bug-1 session in the same process
        equals one from Bug-11 alone, ``seq`` numbers included."""
        config = WaffleConfig()
        alone = observed_detect(bug_workload("Bug-11"), config, tmp_path / "alone", 50)
        obs.configure(tmp_path / "after")
        try:
            first = Waffle(config).detect(
                bug_workload("Bug-1"), max_detection_runs=50, dossiers=True
            )
            after = Waffle(config).detect(
                bug_workload("Bug-11"), max_detection_runs=50, dossiers=True
            )
        finally:
            obs.disable()
        assert first.dossiers and first.dossiers[0].prunes
        assert [d.to_dict() for d in after.dossiers] == [d.to_dict() for d in alone.dossiers]
        assert alone.dossiers[0].flight_events

    def test_the_flightrec_variable_changes_no_dossier(self, tmp_path):
        """``WAFFLE_FLIGHTREC`` once installed a process-wide ring whose
        value was its capacity; it is inert now."""
        args = ("--seed-range", "0:10", "--seed", "7")
        plain = _fuzz_dossiers(tmp_path / "plain", fuzz_args=args)
        with_env = _fuzz_dossiers(
            tmp_path / "env", fuzz_args=args, env_extra={"WAFFLE_FLIGHTREC": "1"}
        )
        assert len(plain) > 1 and plain == with_env
        for payload in map(json.loads, plain):
            assert payload["flight_dropped"] == 0
            assert dossier_mod.BugDossier.from_dict(payload).decisions

    def test_fuzz_obs_dir_dossiers_carry_provenance(self, tmp_path):
        payloads = _fuzz_dossiers(tmp_path / "obs", fuzz_args=("--seed-range", "0:6"))
        assert payloads
        for path in (tmp_path / "obs").glob("dossier-*.json"):
            # The crashing run's decisions are its flight events, stored once.
            assert "decisions" not in json.loads(path.read_text())["record"]["dossier"]
        for payload in map(json.loads, payloads):
            assert dossier_mod.BugDossier.from_dict(payload).decisions, payload["workload"]
            assert payload["flight_events"], payload["workload"]
            faults = [e for e in payload["flight_events"] if e["k"] == "fault"]
            assert len(faults) == 1, payload["workload"]


class TestRendering:
    def test_text_digest_sections(self, sessions):
        _, dossier = _any_dossier(sessions)
        text = dossier_mod.render_dossier(dossier)
        assert "BUG DOSSIER" in text
        assert "candidate-pair provenance" in text
        assert "minimal reproducing schedule" in text
        assert "swimlane" in text

    def test_ascii_swimlane_marks_fault_and_delay(self, sessions):
        _, dossier = _any_dossier(sessions)
        lane = dossier_mod.render_swimlane(dossier)
        assert "X" in lane
        assert "virtual ms" in lane

    def test_html_swimlane_names_the_fault_site(self, sessions):
        _, dossier = _any_dossier(sessions)
        html = dossier_mod.render_swimlane_html(dossier)
        assert html.startswith("<!DOCTYPE html>")
        assert dossier.fault_site in html


class TestScheduleReplayHook:
    def _pending(self, site, access_type=AccessType.USE):
        return PendingAccess(Location(site), access_type, 1, 1, 0.0)

    def test_matches_only_the_recorded_occurrence(self):
        hook = dossier_mod.ScheduleReplayHook(
            [{"site": "a:1", "nth": 1, "len_ms": 5.0}]
        )
        assert hook.before_access(self._pending("a:1")) == 0.0  # occurrence 0
        assert hook.before_access(self._pending("a:1")) == 5.0  # occurrence 1
        assert hook.before_access(self._pending("a:1")) == 0.0
        assert hook.delays_injected == 1
        assert hook.total_delay_ms == 5.0

    def test_memorder_mode_ignores_unsafe_calls(self):
        hook = dossier_mod.ScheduleReplayHook(
            [{"site": "a:1", "nth": 0, "len_ms": 5.0}]
        )
        assert (
            hook.before_access(self._pending("a:1", AccessType.UNSAFE_CALL)) == 0.0
        )
        # The unsafe call did not consume occurrence 0.
        assert hook.before_access(self._pending("a:1")) == 5.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            dossier_mod.ScheduleReplayHook([], mode="wallclock")


class TestMinimization:
    def test_unreproducible_schedule_reported_unverified(self, sessions):
        test, dossier = _any_dossier(sessions)
        broken = dict(dossier.schedule)
        broken["delays"] = []  # delay-free run cannot manifest the bug
        delays, replays, verified = dossier_mod.minimize_schedule(
            test.build, broken, dossier.error_type, dossier.fault_site
        )
        assert not verified
        assert replays == 1
        assert delays == []

    @staticmethod
    def _full_schedule(dossier):
        schedule = dict(dossier.schedule)
        schedule["delays"] = [
            {"site": e["site"], "nth": e["nth"], "len_ms": e["len_ms"]}
            for e in dossier.schedule_original
        ]
        return schedule

    def test_reproducing_suspect_costs_three_replays(self, sessions):
        checked = 0
        for bug_id, (test, outcome) in sessions.items():
            for dossier in outcome.dossiers:
                schedule = self._full_schedule(dossier)
                suspects = _suspects(dossier, schedule)
                if len(schedule["delays"]) < 3 or len(suspects) != 1:
                    continue
                greedy, _, _ = dossier_mod.minimize_schedule(
                    test.build, schedule, dossier.error_type, dossier.fault_site,
                    max_replays=10**6,
                )
                delays, replays, verified = dossier_mod.minimize_schedule(
                    test.build, schedule, dossier.error_type, dossier.fault_site,
                    suspects=suspects,
                )
                assert (delays, replays, verified) == (greedy, 3, True), bug_id
                assert dossier.replays_used == 3, bug_id
                checked += 1
        assert checked, "no session dossier with 3+ delays and one suspect"

    def test_failed_suspects_fall_back_to_the_greedy_at_one_extra_replay(
        self, monkeypatch
    ):
        # The bug needs both a and c; the lone suspect a cannot carry it.
        def replay(build, schedule, delays=None, name="replay"):
            sites = {d["site"] for d in delays}
            crashed = {"a", "c"} <= sites
            return dossier_mod.ReplayOutcome(
                crashed=crashed,
                error_type="E" if crashed else None,
                fault_site="f" if crashed else None,
                fault_time_ms=0.0,
                virtual_time_ms=0.0,
                timed_out=False,
                delays_injected=len(delays),
            )

        monkeypatch.setattr(dossier_mod, "replay_schedule", replay)
        schedule = {
            "sim_seed": 0,
            "delays": [{"site": s, "nth": 0, "len_ms": 1.0} for s in "abcd"],
        }
        greedy = dossier_mod.minimize_schedule(None, schedule, "E", "f")
        guided = dossier_mod.minimize_schedule(
            None, schedule, "E", "f", suspects=schedule["delays"][:1]
        )
        assert [d["site"] for d in greedy[0]] == ["a", "c"]
        assert greedy[1:] == (5, True)
        assert guided == (greedy[0], greedy[1] + 1, True)

    def test_verified_results_are_one_minimal(self, sessions):
        for bug_id, (test, outcome) in sessions.items():
            for dossier in outcome.dossiers:
                assert dossier.verified, bug_id
                delays = dossier.schedule["delays"]
                for index in range(len(delays)):
                    trial = delays[:index] + delays[index + 1 :]
                    replay = dossier_mod.replay_schedule(
                        test.build, dossier.schedule, delays=trial
                    )
                    assert not replay.matches(dossier.error_type, dossier.fault_site), (
                        bug_id, index,
                    )

    def test_minimized_schedules_are_pinned(self, sessions):
        """The hash was computed with the plain greedy drop-one minimizer
        (no suspects trial) run without a replay budget. For every bug
        but Bug-17 that is the schedule the greedy's dossiers held under
        the default budget too; Bug-17's 33 captured delays exhausted
        that budget at 11 delays, where the suspects trial reaches the
        greedy's final single delay in 4 replays."""
        rows = [
            [bug_id, dossier.schedule["delays"]]
            for bug_id, (_, outcome) in sessions.items()
            for dossier in outcome.dossiers
        ]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert len(rows) == 18
        assert digest == "dcc2ad5fc15a28dd7cf51da0b6a3011b00f41dd6ae4b68e22658b84bdb4cde67"
