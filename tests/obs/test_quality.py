"""Detection-quality joins: ground-truth sensitivity and attribution.

The acceptance gate lives here too: over seeds 0:200 the detector must
find *every* planted bug in the generator's detectable gap band and
*none* in the undetectable band, with the join reconciling exactly
against the oracle rows -- the paper's sensitivity claim as a test.
"""

import json

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.gen.builder import planted_oracle
from repro.gen.spec import DETECTABLE_GAP_MS, UNDETECTABLE_GAP_MS, generate_spec, spec_hash
from repro.harness import fuzz as fuzz_mod
from repro.obs import quality
from repro.obs.report import load_obs_dir


def reconcile_records(records, rows):
    """Exact reconciliation of join records against their source rows.

    For every row carrying a found-id list (fuzz-table rows do), the
    per-bug ``found`` flags must reproduce that list exactly, and the
    planted/detectable counts must match the row's own counts -- any
    divergence means the join, not the detector, is broken.
    """
    problems = []
    by_seed = {}
    for record in records:
        by_seed.setdefault(record["seed"], []).append(record)
    for row in rows:
        seed = int(row.get("seed", -1))
        joined = by_seed.get(seed)
        if joined is None:
            continue
        if len(joined) != int(row.get("planted", len(joined))):
            problems.append(
                "seed %d: %d joined bug(s) vs %s planted in the row"
                % (seed, len(joined), row.get("planted"))
            )
        detectable = sum(1 for r in joined if r["detectable"])
        if detectable != int(row.get("detectable", detectable)):
            problems.append(
                "seed %d: %d detectable joined vs %s in the row"
                % (seed, detectable, row.get("detectable"))
            )
        found = row.get("found")
        if isinstance(found, (list, tuple, set, frozenset)):
            joined_found = {r["bug_id"] for r in joined if r["found"]}
            if joined_found != set(str(b) for b in found):
                problems.append(
                    "seed %d: joined found set %s != row found set %s"
                    % (seed, sorted(joined_found), sorted(found))
                )
    return problems


def oracle_row(seed, ok=True, with_found_list=True, spec_prefix=None):
    """A fuzz-row-shaped dict whose ground truth really is seed's."""
    spec = generate_spec(seed)
    truth = planted_oracle(spec, 100.0)
    detectable = sorted(e["bug_id"] for e in truth if e["detectable"])
    row = {
        "seed": seed,
        "topology": spec.topology,
        "planted": len(truth),
        "detectable": len(detectable),
        "ok": ok,
        "spec": spec_hash(spec)[:12] if spec_prefix is None else spec_prefix,
    }
    if with_found_list:
        row["found"] = detectable if ok else detectable[:-1]
    else:
        row["found"] = len(detectable)  # event shape: count only
    return row


class TestWorkloadRecords:
    def test_joins_found_list_against_regenerated_oracle(self):
        records, problems = quality.workload_records([oracle_row(3)])
        assert not problems
        assert records
        for record in records:
            assert record["seed"] == 3
            assert record["found"] == record["detectable"]
            assert record["pair"] and record["fault_site"]

    def test_event_shape_reconstructs_found_set_from_ok(self):
        # fuzz_workload events carry found as a count; ok=True means the
        # oracle invariants held, i.e. found == detectable exactly.
        records, problems = quality.workload_records([oracle_row(5, with_found_list=False)])
        assert not problems
        assert all(r["found"] == r["detectable"] for r in records)

    def test_failing_event_row_without_ids_is_excluded_not_guessed(self):
        row = oracle_row(5, ok=False, with_found_list=False)
        records, problems = quality.workload_records([row])
        assert not records
        assert any("failing workload" in p for p in problems)

    def test_spec_hash_mismatch_excludes_the_row(self):
        records, problems = quality.workload_records(
            [oracle_row(2, spec_prefix="deadbeef0000")]
        )
        assert not records
        assert any("generator drift" in p for p in problems)

    def test_gap_and_detectability_come_from_ground_truth(self):
        records, _ = quality.workload_records([oracle_row(s) for s in range(6)])
        lo_d, hi_d = DETECTABLE_GAP_MS
        lo_u, hi_u = UNDETECTABLE_GAP_MS
        for record in records:
            if record["detectable"]:
                assert record["gap_ms"] <= hi_d
            else:
                assert lo_u <= record["gap_ms"] <= hi_u


class TestResolvableFuzzEvents:
    def test_matching_prefix_is_resolvable(self):
        resolvable, mismatched = quality.resolvable_fuzz_events([oracle_row(1)])
        assert (resolvable, mismatched) == (1, 0)

    def test_bogus_prefix_counts_mismatched(self):
        events = [oracle_row(1), oracle_row(2, spec_prefix="deadbeef0000")]
        assert quality.resolvable_fuzz_events(events) == (1, 1)

    def test_missing_prefix_is_trusted(self):
        assert quality.resolvable_fuzz_events([{"seed": 4}]) == (1, 0)


class TestSensitivityCurve:
    def test_bins_group_and_bands_roll_up(self):
        records, _ = quality.workload_records([oracle_row(s) for s in range(8)])
        curve = quality.sensitivity_curve(records)
        assert curve["records"] == len(records)
        assert curve["bands"]["detectable"]["rate"] == 1.0
        assert curve["bands"]["undetectable"]["rate"] == 0.0
        assert sum(b["planted"] for b in curve["bins"]) == len(records)
        for bins in curve["by_topology"].values():
            for row in bins:
                assert 0.0 <= row["rate"] <= 1.0
        assert set(curve["by_kind"]) == {r["kind"] for r in records}

    def test_reconcile_records_is_exact(self):
        rows = [oracle_row(s) for s in range(5)]
        records, _ = quality.workload_records(rows)
        assert reconcile_records(records, rows) == []
        # Flip one verdict: the reconciliation must notice.
        flipped = [dict(r) for r in records]
        victim = next(r for r in flipped if r["detectable"])
        victim["found"] = False
        assert reconcile_records(flipped, rows)


class TestRunLedger:
    def write_telemetry(self, path, runs):
        with open(path, "w") as fp:
            for run_seq, decisions in runs:
                for decision in decisions:
                    fp.write(json.dumps(dict(decision, type="inject", run=run_seq)) + "\n")
                fp.write(json.dumps({
                    "type": "run", "run_seq": run_seq, "kind": "detection",
                    "test": "t", "seed": 1, "wall_ms": 5.0, "injected": len(decisions),
                }) + "\n")

    DECISIONS = [
        {"action": "inject", "site": "a.X:1", "t_ms": 1.0, "len_ms": 4.0},
        {"action": "skip", "site": "b.Y:2", "t_ms": 2.0, "reason": "decay"},
    ]

    def test_identical_runs_across_files_dedupe(self, tmp_path):
        # A chaos-retried cell re-runs the same pure function in another
        # worker: same run record, same decisions, different file/seq.
        self.write_telemetry(tmp_path / "telemetry-1-a.jsonl", [(0, self.DECISIONS)])
        self.write_telemetry(tmp_path / "telemetry-2-b.jsonl", [(7, self.DECISIONS)])
        ledger = quality.load_run_ledger(load_obs_dir(tmp_path).telemetry_streams)
        assert ledger["runs"] == 1
        assert ledger["duplicates"] == 1
        assert ledger["decisions"] == 2

    def test_wall_ms_never_splits_identity(self, tmp_path):
        self.write_telemetry(tmp_path / "telemetry-1-a.jsonl", [(0, self.DECISIONS)])
        text = (tmp_path / "telemetry-1-a.jsonl").read_text()
        (tmp_path / "telemetry-2-b.jsonl").write_text(text.replace('5.0', '9.25'))
        assert quality.load_run_ledger(load_obs_dir(tmp_path).telemetry_streams)["runs"] == 1

    def test_different_decisions_are_distinct_runs(self, tmp_path):
        other = [dict(self.DECISIONS[0], len_ms=8.0)]
        self.write_telemetry(tmp_path / "telemetry-1-a.jsonl",
                             [(0, self.DECISIONS), (1, other)])
        assert quality.load_run_ledger(load_obs_dir(tmp_path).telemetry_streams)["runs"] == 2

    def test_torn_tail_recovered(self, tmp_path):
        self.write_telemetry(tmp_path / "telemetry-1-a.jsonl", [(0, self.DECISIONS)])
        with open(tmp_path / "telemetry-1-a.jsonl", "a") as fp:
            fp.write('{"type": "run", "run_se')
        ledger = quality.load_run_ledger(load_obs_dir(tmp_path).telemetry_streams)
        assert ledger["recovered_lines"] == 1
        assert ledger["runs"] == 1


class TestSiteAttribution:
    LEDGER = {
        "entries": [
            ({"run_seq": 0}, [
                {"action": "inject", "site": "a.X:1", "len_ms": 4.0},
                {"action": "inject", "site": "a.X:1", "len_ms": 2.0},
                {"action": "skip", "site": "b.Y:2", "reason": "decay"},
                {"action": "skip", "site": "c.Z:3", "reason": "budget"},
            ]),
        ]
    }

    def test_per_site_rollup(self):
        rows = quality.site_attribution(self.LEDGER)
        by_site = {r["site"]: r for r in rows}
        assert by_site["a.X:1"]["injected"] == 2
        assert by_site["a.X:1"]["delay_ms"] == 6.0
        assert by_site["b.Y:2"]["skips"]["decay"] == 1
        assert by_site["c.Z:3"]["skips"]["budget"] == 1
        assert rows[0]["site"] == "a.X:1"  # sorted by delay consumed

    def test_counterfactual_needs_skips_and_pair_membership(self):
        records = [{"pair": ["b.Y:2", "q.Q:9"]}]
        rows = quality.site_attribution(self.LEDGER, records=records)
        by_site = {r["site"]: r for r in rows}
        assert by_site["b.Y:2"]["counterfactual"]  # skipped + on a pair
        assert not by_site["a.X:1"]["counterfactual"]  # no skips
        assert not by_site["c.Z:3"]["counterfactual"]  # not on a pair

    def test_dossier_pair_sites_feed_the_flag(self):
        dossiers = [{"dossier": {
            "provenance": [{"delay_site": "c.Z:3", "other_site": "d.W:4"}],
            "report": {"fault_location": "d.W:4"},
        }}]
        rows = quality.site_attribution(self.LEDGER, dossiers=dossiers)
        assert {r["site"]: r["counterfactual"] for r in rows}["c.Z:3"]

    def test_skip_rollup_totals(self):
        rollup = quality.skip_rollup(quality.site_attribution(self.LEDGER))
        assert rollup["considered"] == 4
        assert rollup["injected"] == 2
        assert rollup["skipped"] == 2
        assert rollup["decay"] == 1 and rollup["budget"] == 1


class TestAcceptance:
    """Seeds 0:200: rate 1.0 in the detectable band, 0.0 in the
    undetectable band, reconciled exactly against the oracle rows."""

    @pytest.fixture(scope="class")
    def rows(self):
        return fuzz_mod.fuzz_range(
            0, 200, config=DEFAULT_CONFIG.with_seed(0), budget=8,
            jobs=2, check_replay=False,
        )

    def test_sensitivity_over_200_seeds(self, rows):
        assert all(row["ok"] for row in rows)
        records, problems = quality.workload_records(rows)
        assert not problems
        curve = quality.sensitivity_curve(records)
        assert curve["bands"]["detectable"]["planted"] > 0
        assert curve["bands"]["undetectable"]["planted"] > 0
        assert curve["bands"]["detectable"]["rate"] == 1.0
        assert curve["bands"]["undetectable"]["rate"] == 0.0
        # Exact reconciliation: the per-bug joins reproduce every row's
        # found set, planted count, and detectable count.
        assert reconcile_records(records, rows) == []

    def test_band_membership_in_every_bin(self, rows):
        records, _ = quality.workload_records(rows)
        curve = quality.sensitivity_curve(records)
        for row in curve["bins"]:
            if row["hi"] <= DETECTABLE_GAP_MS[1]:
                assert row["rate"] == 1.0
            if row["lo"] >= UNDETECTABLE_GAP_MS[0]:
                assert row["rate"] == 0.0
