"""Coverage observatory: accounting that reconciles with the engine."""

import json

import pytest

from repro import obs
from repro.apps import bug_workload
from repro.baselines import WaffleBasic
from repro.core import persistence
from repro.core.config import WaffleConfig
from repro.core.detector import Waffle
from repro.obs import coverage as coverage_mod
from repro.obs.report import load_obs_dir


def observed_detect(driver, bug_id, runs, directory):
    """A detection session under a temporary obs session: only a session
    keeps a coverage record, so only then is one built."""
    obs.configure(directory)
    try:
        return driver.detect(bug_workload(bug_id), max_detection_runs=runs)
    finally:
        obs.disable()


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    return observed_detect(
        Waffle(WaffleConfig(seed=21)), "Bug-8", 8, tmp_path_factory.mktemp("obs")
    )


class TestSessionRecord:
    def test_detect_attaches_a_coverage_record(self, outcome):
        record = outcome.coverage
        assert record is not None
        assert record["type"] == coverage_mod.RECORD_TYPE
        assert record["tool"] == "waffle"
        assert record["bug_found"] == outcome.bug_found

    def test_reconciles_exactly_with_engine_counters(self, outcome):
        record = outcome.coverage
        assert coverage_mod.reconcile_coverage(record) == []
        # The record's totals are the same numbers the RunRecords carry.
        assert record["injected_total"] == sum(
            r.delays_injected for r in outcome.runs
        )
        for reason in ("decay", "interference", "budget"):
            assert record["skipped_%s" % reason] == sum(
                getattr(r, "skipped_%s" % reason) for r in outcome.runs
            )

    def test_statuses_partition_the_pair_universe(self, outcome):
        record = outcome.coverage
        assert record["pairs_total"] == (
            record["pairs_delayed"] + record["pairs_pruned"] + record["pairs_planned"]
        )
        assert record["pairs_delayed"] >= 1  # the bug-exposing pair was tested

    def test_online_tool_emits_the_same_record_shape(self, tmp_path):
        outcome = observed_detect(WaffleBasic(WaffleConfig(seed=21)), "Bug-1", 6, tmp_path)
        assert outcome.coverage is not None
        assert coverage_mod.reconcile_coverage(outcome.coverage) == []

    def test_the_session_writes_the_record_it_attaches(self, outcome, tmp_path):
        session = observed_detect(Waffle(WaffleConfig(seed=21)), "Bug-8", 8, tmp_path)
        assert load_obs_dir(tmp_path).coverage == [session.coverage] == [outcome.coverage]

    def test_no_record_without_an_obs_session(self):
        outcome = Waffle(WaffleConfig(seed=21)).detect(
            bug_workload("Bug-8"), max_detection_runs=8
        )
        assert outcome.bug_found and outcome.coverage is None


class TestReconcileFlagsInconsistencies:
    def test_detects_cooked_totals(self, outcome):
        record = json.loads(json.dumps(outcome.coverage))
        record["injected_total"] += 1
        problems = coverage_mod.reconcile_coverage(record)
        assert any("injected_total" in p for p in problems)

    def test_detects_status_disagreement(self, outcome):
        record = json.loads(json.dumps(outcome.coverage))
        delayed = next(e for e in record["pairs"] if e["status"] == "delayed")
        delayed["status"] = "planned"
        problems = coverage_mod.reconcile_coverage(record)
        assert any("disagrees" in p for p in problems)


class TestPersistence:
    def test_session_stream_round_trips(self, outcome, tmp_path):
        session = obs.configure(tmp_path)
        try:
            session.queue_coverage(outcome.coverage)
            session.flush()
        finally:
            obs.disable()
        assert not list(tmp_path.glob("coverage-*.json"))
        records = load_obs_dir(tmp_path).coverage
        assert records == [outcome.coverage]

    def test_legacy_file_loads_and_a_partial_one_is_skipped(self, outcome, tmp_path):
        """Directories written before coverage joined the telemetry
        stream hold one ``coverage-*.json`` file per session."""
        persistence.save_record(outcome.coverage, tmp_path / "coverage-999-0.json")
        (tmp_path / "coverage-999-1.json").write_text('{"version": 1, "rec')
        data = load_obs_dir(tmp_path)
        assert data.coverage == [outcome.coverage]
        assert [w.split(":")[0] for w in data.unreadable("coverage")] == ["coverage-999-1.json"]

    def test_load_missing_directory_is_empty(self, tmp_path):
        assert load_obs_dir(tmp_path / "nope").coverage == []


class TestMergeAndRender:
    def test_merge_prefers_delayed_status(self, outcome):
        # Session B saw the same pairs but never injected: the merged
        # view keeps 'delayed' (tested in *any* session = covered).
        other = json.loads(json.dumps(outcome.coverage))
        other["bug_found"] = False
        other["injected_total"] = 0
        other["site_injections"] = {}
        for entry in other["pairs"]:
            entry["status"] = "planned" if entry["status"] == "delayed" else entry["status"]
            entry["delayed_count"] = 0
        merged = coverage_mod.merge_coverage([outcome.coverage, other])
        assert merged["sessions"] == 2
        assert merged["pairs_delayed"] == outcome.coverage["pairs_delayed"]
        assert merged["injected_total"] == outcome.coverage["injected_total"]
        assert merged["bugs_found"] == (1 if outcome.bug_found else 0)

    def test_render_lists_every_pair(self, outcome):
        text = coverage_mod.render_coverage(
            outcome.coverage, per_session=[outcome.coverage]
        )
        assert "CANDIDATE-PAIR COVERAGE" in text
        for entry in outcome.coverage["pairs"]:
            assert entry["delay_site"] in text
        assert "per session:" in text
