"""Obs-directory aggregation: loading, reconciliation, rendering."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.obs import eventbus
from repro.obs.report import check, load_obs_dir, render_report, write_chrome_trace
from repro.obs.telemetry import FAULT_KINDS, SKIP_REASONS

REPO = Path(__file__).resolve().parents[2]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def meta(pid):
    return {"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION, "writer": "%d-1" % pid, "pid": pid}


def write_events(obs_dir, events):
    """One event stream holding ``events`` (seq and t filled in)."""
    write_jsonl(
        obs_dir / "events-7-7.jsonl",
        [{"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION}]
        + [dict({"seq": seq, "t": float(seq)}, **event) for seq, event in enumerate(events, 1)],
    )


def run_record(run_seq, virtual_ms, **fields):
    return dict({"type": "run", "run_seq": run_seq, "kind": "baseline", "test": "t",
                 "wall_ms": 1.0, "virtual_ms": virtual_ms, "context_switches": 2}, **fields)


@pytest.fixture
def obs_dir(tmp_path):
    """A hand-built two-process obs directory with consistent data: two
    runs per process, one of them a detection run with its decisions."""
    root = tmp_path / "obs"
    root.mkdir()
    for pid, considered in ((100, 3), (101, 0)):
        records = [meta(pid)]
        if considered:
            records += [
                {"type": "inject", "run": 1, "action": "inject", "site": "l1", "t_ms": 0.0},
                {"type": "inject", "run": 1, "action": "skip", "site": "l1", "t_ms": 1.0,
                 "reason": "decay"},
                {
                    "type": "inject",
                    "run": 1,
                    "action": "skip",
                    "site": "l1",
                    "t_ms": 2.0,
                    "reason": "interference",
                },
                run_record(1, 10.0, kind="detect", wall_ms=5.0, considered=3, injected=1,
                           skipped_decay=1, skipped_interference=1, skipped_budget=0,
                           candidates_final=2, crashed=True),
                run_record(2, 2.5),
            ]
        else:
            records += [run_record(1, 6.25), run_record(2, 6.25)]
        write_jsonl(root / ("telemetry-%d-1.jsonl" % pid), records)
    return root


def legacy_stream(path, pid, *snapshots, records=()):
    """A stream as written before counts were folded from records: run
    records and ``metrics`` snapshots of stored counters."""
    write_jsonl(path, [meta(pid)] + list(records)
                + [{"type": "metrics", "metrics": snapshot} for snapshot in snapshots])


class TestLoad:
    def test_merges_processes_and_buckets_records(self, obs_dir):
        data = load_obs_dir(obs_dir)
        assert data.processes == 2
        assert data.counts["sched.runs"] == 4
        assert data.counts["sched.context_switches"] == 8
        assert data.counts["sched.virtual_time_ms_total"] == 25.0
        assert data.counts["inject.considered"] == 3
        assert len(data.runs) == 4
        assert len(data.inject_events) == 3
        assert data.parse_errors == []

    def test_run_and_analysis_records_sum_into_the_pipeline_counts(self, obs_dir):
        with open(obs_dir / "telemetry-101-1.jsonl", "a") as fp:
            for record in (
                run_record(3, 1.0, pairs_observed=4, pairs_new=2, candidates_added=2,
                           candidates_removed=1, pruned_hb_inference=1),
                {"type": "analysis", "pairs_observed": 5, "pairs_new": 3,
                 "candidates_added": 3, "pruned_parent_child": 7},
            ):
                fp.write(json.dumps(record) + "\n")
        data = load_obs_dir(obs_dir)
        assert check(data) == []
        assert [data.counts[name] for name in (
            "nearmiss.pairs_observed", "nearmiss.pairs_new", "candidates.added",
            "candidates.removed", "candidates.pruned_parent_child",
            "candidates.pruned_hb_inference", "sched.runs")] == [9, 5, 5, 1, 7, 1, 5]
        text = render_report(data)
        assert ("near-misses observed 9 (5 new pairs)   candidates +5 / -1"
                "   pruned: parent-child 7, hb-inference 1") in text
        assert "detection funnel: near-miss pairs 9 → candidate pairs 5" in text
        assert "simulated runs 5   context switches 10   virtual time 26.0 ms total" in text

    def test_cache_and_cell_events_are_counted(self, obs_dir):
        write_events(obs_dir, [{"type": "cache", "action": action} for action in
                               ("hit", "miss", "miss", "corrupt", "write", "write")]
                     + [{"type": "cell_end", "cell": "c%d" % i, "status": "ok",
                         "attempt": 1, "wall_s": 0.002 * (i + 1)} for i in range(3)])
        text = render_report(load_obs_dir(obs_dir))
        assert "hits 1   misses 2   writes 2   hit rate 33.3%" in text
        assert "cache records quarantined 1" in text
        assert "3 cells   wall 12.0 ms total   mean 4.0 ms   min 2.0 / max 6.0 ms" in text

    def test_parse_errors_are_collected_not_fatal(self, obs_dir):
        (obs_dir / "telemetry-999-1.jsonl").write_text('{"type": "inject"\nnot json\n')
        data = load_obs_dir(obs_dir)
        assert len(data.parse_errors) == 2
        assert data.processes == 3

    def test_empty_directory(self, tmp_path):
        data = load_obs_dir(tmp_path)
        assert data.processes == 0
        assert data.runs == []


class TestOlderStreams:
    """A stream with ``metrics`` snapshots was written before counts
    were folded from records: its counts come from its last snapshot."""

    def test_last_snapshot_wins_and_its_runs_are_not_summed(self, tmp_path):
        first = {"counters": {"sched.runs": 2, "candidates.added": 9}, "gauges": {}}
        last = {"counters": {"sched.runs": 10, "candidates.added": 3, "cache.writes": 2,
                             "harness.cells": 4},
                "gauges": {"sched.virtual_time_ms_total": 12.5}, "histograms": {}}
        legacy_stream(tmp_path / "telemetry-1-1.jsonl", 1, first, last,
                      records=[run_record(1, 99.0, candidates_added=50)])
        data = load_obs_dir(tmp_path)
        assert data.processes == 1 and check(data) == []
        assert data.counts["sched.runs"] == 10
        assert data.counts["candidates.added"] == 3
        assert data.counts["cache.writes"] == 2
        assert data.counts["sched.virtual_time_ms_total"] == 12.5
        assert data.counts["telemetry.runs_recorded"] == 1
        assert "harness cells" not in render_report(data)

    def test_stale_stored_values_are_ignored(self, tmp_path):
        folded = (["inject.considered", "inject.injected", "telemetry.runs_recorded",
                   "cache.hits", "cache.misses", "cells.retried", "cells.quarantined",
                   "cells.resumed"]
                  + ["inject.skipped.%s" % reason for reason in SKIP_REASONS]
                  + ["faults.%s" % kind for kind in FAULT_KINDS])
        legacy_stream(tmp_path / "telemetry-1-1.jsonl", 1,
                      {"counters": dict.fromkeys(folded, 99), "gauges": {}},
                      records=[{"type": "inject", "run": 1, "action": "skip", "site": "l1",
                                "t_ms": 1.0, "reason": "decay"}])
        data = load_obs_dir(tmp_path)
        text = render_report(data)
        assert "considered 1   injected 0   skipped 1 (decay 1, interference 0, budget 0)" in text
        assert "hits 0   misses 0" in text
        assert "resilience" not in text
        assert 99 not in data.counts.values()

    def test_detect_v1_fixture_reads_its_snapshot(self):
        data = load_obs_dir(FIXTURES / "detect-v1")
        assert len(data.runs) == 2 and data.counts["sched.runs"] == 4
        assert "simulated runs 4   context switches 14   virtual time 46.8 ms total" in (
            render_report(data))


def _count_source_cases():
    """One case per row of OBSERVABILITY.md's "Where each count comes
    from": the telemetry records and events of one source, and every
    count they move."""
    churn = dict(pairs_observed=5, pairs_new=3, candidates_added=2, candidates_removed=1,
                 pruned_parent_child=4, pruned_hb_inference=6)
    yield "run", [run_record(1, 4.0, **churn)], [], {
        "sched.runs": 1, "telemetry.runs_recorded": 1, "sched.context_switches": 2,
        "sched.virtual_time_ms_total": 4.0, "nearmiss.pairs_observed": 5,
        "nearmiss.pairs_new": 3, "candidates.added": 2, "candidates.removed": 1,
        "candidates.pruned_parent_child": 4, "candidates.pruned_hb_inference": 6}
    yield "analysis", [{"type": "analysis", "pairs_observed": 5, "pairs_new": 3,
                        "candidates_added": 2, "pruned_parent_child": 4}], [], {
        "nearmiss.pairs_observed": 5, "nearmiss.pairs_new": 3, "candidates.added": 2,
        "candidates.pruned_parent_child": 4}
    yield "inject", [{"type": "inject", "run": 1, "action": "inject", "site": "l1"}], [], {
        "inject.considered": 1, "inject.injected": 1}
    for reason in SKIP_REASONS:
        yield "skip-" + reason, [{"type": "inject", "run": 1, "action": "skip", "site": "l1",
                                  "reason": reason}], [], {
            "inject.considered": 1, "inject.skipped." + reason: 1}
    for action in ("hit", "miss", "write", "corrupt"):
        name = {"hit": "hits", "miss": "misses", "write": "writes"}.get(action, action)
        yield "cache-" + action, [], [{"type": "cache", "action": action}], {
            "cache." + name: 1}
    yield "fault", [], [{"type": "fault", "kind": "hang"}], {"faults.hang": 1}
    yield "cell-retried", [], [{"type": "cell_end", "cell": "c", "status": "ok",
                                "attempt": 2}], {"cells.retried": 1}
    yield "cell-first-attempt", [], [{"type": "cell_end", "cell": "c", "status": "ok",
                                      "attempt": 1}], {}
    yield "cell-quarantined", [], [{"type": "cell_end", "cell": "c", "status": "quarantined",
                                    "attempt": 3}], {"cells.quarantined": 1}
    yield "cell-resumed", [], [{"type": "cell_resumed", "cell": "c"}], {"cells.resumed": 1}


COUNT_SOURCE_CASES = list(_count_source_cases())


class TestCountSources:
    """Each source folds into its own counts and moves no other."""

    @pytest.mark.parametrize("records,events,expected",
                             [case[1:] for case in COUNT_SOURCE_CASES],
                             ids=[case[0] for case in COUNT_SOURCE_CASES])
    def test_each_source_moves_only_its_counts(self, tmp_path, records, events, expected):
        write_jsonl(tmp_path / "telemetry-1-1.jsonl", [meta(1)] + records)
        if events:
            write_events(tmp_path, events)
        data = load_obs_dir(tmp_path)
        assert {name: value for name, value in data.counts.items() if value} == expected
        assert check(data) == []


class TestRecovery:
    """Killed-worker artifacts are warnings; committed data stays strict."""

    def test_truncated_final_line_is_a_warning_not_an_error(self, obs_dir):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            fp.write('{"type": "run", "trunc')  # no trailing newline
        data = load_obs_dir(obs_dir)
        assert data.parse_errors == []
        assert any("truncated final line" in w for w in data.warnings)
        assert len(data.runs) == 4  # the committed lines still load

    def test_interior_bad_line_stays_a_parse_error(self, obs_dir):
        (obs_dir / "telemetry-999-1.jsonl").write_text('not json\n' + json.dumps(meta(999)))
        data = load_obs_dir(obs_dir)
        assert len(data.parse_errors) == 1

    def test_bad_final_line_with_newline_stays_a_parse_error(self, obs_dir):
        # A complete (newline-terminated) bad line was committed by the
        # writer, not cut off by a kill: that is corruption, not noise.
        (obs_dir / "telemetry-999-1.jsonl").write_text("not json\n")
        data = load_obs_dir(obs_dir)
        assert len(data.parse_errors) == 1
        assert data.warnings == []

    def test_missing_directory_warns_instead_of_raising(self, tmp_path):
        data = load_obs_dir(tmp_path / "never-written")
        assert data.processes == 0
        assert any("does not exist" in w for w in data.warnings)
        assert "does not exist" in render_report(data)

    def test_unreadable_coverage_file_warns(self, obs_dir):
        (obs_dir / "coverage-9-9.json").write_text("{torn")
        data = load_obs_dir(obs_dir)
        assert data.coverage == []
        assert any("unreadable coverage" in w for w in data.warnings)


class TestEventStreamSurface:
    """Campaign event streams co-located with telemetry feed the digest."""

    def test_stream_warnings_surface_through_load(self, obs_dir):
        from repro.obs import eventbus

        (obs_dir / "events-7-7.jsonl").write_text(
            json.dumps({"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION + 9})
            + "\n"
            + json.dumps({"type": "cache", "seq": 1, "t": 1.0, "action": "hit"})
            + "\n"
        )
        (obs_dir / "events-8-8.jsonl").write_text("")
        data = load_obs_dir(obs_dir)
        assert len(data.event_streams) == 2
        assert any("schema version" in w for w in data.warnings)
        assert any("empty event stream" in w for w in data.warnings)

    def test_report_renders_a_campaign_events_section(self, obs_dir):
        from repro.obs import eventbus

        (obs_dir / "events-7-7.jsonl").write_text(
            json.dumps({"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION})
            + "\n"
            + json.dumps({"type": "cache", "seq": 1, "t": 1.0, "action": "hit"})
            + "\n"
        )
        text = render_report(load_obs_dir(obs_dir))
        assert "campaign events (1 stream(s))" in text
        assert "repro campaign status" in text


class TestCoverageAndDossierSections:
    @pytest.fixture
    def enriched_dir(self, obs_dir):
        from repro.core import persistence

        persistence.save_record(
            {
                "type": "coverage",
                "tool": "waffle",
                "test": "t",
                "bug_found": True,
                "runs": [],
                "pairs": [],
                "pairs_total": 0,
                "pairs_delayed": 0,
                "pairs_pruned": 0,
                "pairs_planned": 0,
                "pruned_reasons": {},
                "pruned_parent_child": 0,
                "site_injections": {},
                "injected_total": 0,
                "skipped_decay": 0,
                "skipped_interference": 0,
                "skipped_budget": 0,
                "decay": {"sites": 0, "retired": [], "probabilities": {}},
            },
            obs_dir / "coverage-1-0.json",
        )
        persistence.save_record(
            {
                "dossier": {
                    "report": {
                        "error_type": "NullReferenceError",
                        "fault_location": "a:1",
                    },
                    "verified": True,
                }
            },
            obs_dir / "dossier-1-0.json",
        )
        return obs_dir

    def test_records_are_loaded(self, enriched_dir):
        data = load_obs_dir(enriched_dir)
        assert len(data.coverage) == 1
        assert len(data.dossiers) == 1
        assert data.dossiers[0]["file"] == "dossier-1-0.json"

    def test_report_surfaces_both_sections(self, enriched_dir):
        text = render_report(load_obs_dir(enriched_dir))
        assert "coverage observatory (1 session(s))" in text
        assert "coverage reconciles with engine counters" in text
        assert "bug dossiers (1)" in text
        assert "NullReferenceError @ a:1" in text


class TestReconcile:
    def test_consistent_directory_has_no_problems(self, obs_dir):
        assert check(load_obs_dir(obs_dir)) == []

    def test_untagged_skip_is_flagged(self, obs_dir):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            fp.write(json.dumps({"type": "inject", "run": 2, "action": "skip", "site": "x"}) + "\n")
        problems = check(load_obs_dir(obs_dir))
        assert any("missing a valid reason" in p for p in problems)

    def test_run_summary_mismatch_is_flagged(self, obs_dir):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            fp.write(
                json.dumps(
                    {
                        "type": "inject",
                        "run": 1,
                        "action": "skip",
                        "site": "l1",
                        "t_ms": 3.0,
                        "reason": "decay",
                    }
                )
                + "\n"
            )
        problems = check(load_obs_dir(obs_dir))
        assert any("run 1" in p for p in problems)

    def test_run_seq_is_matched_within_its_own_process(self, obs_dir):
        """Two workers both number their first run 1: each summary is
        reconciled against its own process's decision events only."""
        path = obs_dir / "telemetry-100-1.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        write_jsonl(obs_dir / "telemetry-102-1.jsonl", [meta(102)] + records[1:])
        assert check(load_obs_dir(obs_dir)) == []


class TestRecoveredLineTolerance:
    """Truncated-tail losses are corrupt_record faults the reconciler
    accounts for exactly: counters may lead events by at most the
    recovered-line count."""

    def append_lines(self, obs_dir, records, truncated_tail=True):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            for record in records:
                fp.write(json.dumps(record) + "\n")
            if truncated_tail:
                fp.write('{"type": "inject", "run": 1, "act')  # torn append

    def test_recovered_lines_are_counted(self, obs_dir):
        self.append_lines(obs_dir, [])
        data = load_obs_dir(obs_dir)
        assert data.recovered_lines == 1
        assert data.parse_errors == []

    def test_deficit_within_recovered_lines_reconciles(self, obs_dir):
        # The lost tail line was a skip event: the run summary now
        # leads the events by one. With one recovered line that is
        # expected degradation, not an inconsistency.
        with open(obs_dir / "telemetry-100-1.jsonl") as fp:
            lines = fp.read().splitlines()
        rewritten = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "run" and record["run_seq"] == 1:
                record["considered"] += 1
                record["skipped_decay"] += 1
            rewritten.append(record)
        write_jsonl(obs_dir / "telemetry-100-1.jsonl", rewritten)
        self.append_lines(obs_dir, [])

        data = load_obs_dir(obs_dir)
        assert data.recovered_lines == 1
        assert check(data) == []

    def test_deficit_beyond_recovered_lines_still_flags(self, obs_dir):
        # Two events missing but only one recovered line: a real hole.
        path = obs_dir / "telemetry-100-1.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record["type"] == "run" and record["run_seq"] == 1:
                record["considered"] += 2
                record["skipped_decay"] += 2
        write_jsonl(path, records)
        self.append_lines(obs_dir, [])
        data = load_obs_dir(obs_dir)
        assert data.recovered_lines == 1
        problems = check(data)
        assert any("run 1 (t): events inject/skip 1/2 vs summary 1/4" in p for p in problems)

    def test_event_surplus_is_never_excused(self, obs_dir):
        # More events than counters can't be explained by lost lines.
        self.append_lines(
            obs_dir,
            [{"type": "inject", "run": 1, "action": "skip", "site": "l1",
              "t_ms": 3.0, "reason": "decay"}],
        )
        data = load_obs_dir(obs_dir)
        assert data.recovered_lines == 1
        problems = check(data)
        assert any("run 1" in p for p in problems)


class TestResilienceSection:
    def test_hidden_when_all_clean(self, obs_dir):
        assert "resilience" not in render_report(load_obs_dir(obs_dir))

    def test_fault_counters_render(self, obs_dir):
        write_events(
            obs_dir,
            [{"type": "cache", "action": "corrupt"}]
            + [{"type": "fault", "cell": "c1", "attempt": 1, "kind": "worker_crash"}] * 2
            + [{"type": "fault", "cell": "c2", "attempt": 1, "kind": "hang"}]
            + [{"type": "cell_end", "cell": "c%d" % i, "status": "ok", "attempt": 2}
               for i in range(3)]
            + [{"type": "cell_end", "cell": "c9", "status": "quarantined", "attempt": 3}]
            + [{"type": "cell_resumed", "cell": "r%d" % i} for i in range(4)],
        )
        text = render_report(load_obs_dir(obs_dir))
        assert "resilience" in text
        assert "worker_crash 2" in text
        assert "hang 1" in text
        assert "cells retried 3" in text
        assert "quarantined 1" in text
        assert "resumed 4" in text
        assert "cache records quarantined 1" in text

    def test_recovered_lines_alone_trigger_the_section(self, obs_dir):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            fp.write('{"type": "run", "trunc')
        text = render_report(load_obs_dir(obs_dir))
        assert "resilience" in text
        assert "truncated lines recovered 1" in text


class TestRender:
    def test_report_sections(self, obs_dir):
        write_events(obs_dir, [{"type": "cache", "action": "hit"}] * 8
                     + [{"type": "cache", "action": "miss"}] * 2)
        text = render_report(load_obs_dir(obs_dir))
        assert "injection decisions" in text
        assert "decay 1" in text
        assert "interference 1" in text
        assert "hit rate 80.0%" in text
        assert "reconciliation: decision events match" in text
        assert "C" in text  # crash flag on the run row

    def test_report_renders_problems(self, obs_dir):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            fp.write(json.dumps({"type": "inject", "run": 9, "action": "skip", "site": "x"}) + "\n")
        text = render_report(load_obs_dir(obs_dir))
        assert "RECONCILIATION" in text


    def test_ttfd_columns_line_up_with_long_tools_and_apps(self):
        text = render_report(load_obs_dir(FIXTURES / "all-v2"))
        lines = text.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("time to first detection"))
        header, rows = lines[start + 1], []
        for line in lines[start + 2:]:
            if line.startswith("  ttfd "):
                break
            rows.append(line)
        assert any(len(row.split()[1]) > 12 for row in rows)  # ablation:* tools
        columns = [header.index(" %s " % name) + 1 for name in ("tool", "app")]
        for row in rows:
            assert len(row) == len(header), row
            for column, value in zip(columns, row.split()[1:3]):
                assert row[column - 1] == " " and row[column:].startswith(value), row


#: Obs directories written by earlier versions.
FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestChromeExport:
    def test_writes_trace_file(self, obs_dir, tmp_path):
        out = tmp_path / "trace.json"
        count = write_chrome_trace(load_obs_dir(obs_dir), out)
        trace = json.loads(out.read_text())
        assert count == len(trace["traceEvents"])
        assert trace["displayTimeUnit"] == "ms"

    def test_delays_from_inject_records_and_lanes_from_dossiers(self, tmp_path):
        """A new directory: run records carry no span lists; delays come
        from the ``inject`` records, and the crashing run's thread lanes
        from its dossier's swimlane."""
        obs.configure(tmp_path / "obs")
        try:
            from repro.apps import bug_workload
            from repro.core.config import WaffleConfig
            from repro.core.detector import Waffle

            outcome = Waffle(WaffleConfig()).detect(
                bug_workload("Bug-11"), max_detection_runs=5, dossiers=True
            )
            obs.flush()
        finally:
            obs.disable()
        (dossier,) = outcome.dossiers
        data = load_obs_dir(tmp_path / "obs")
        assert not any("vt_threads" in run or "vt_delays" in run for run in data.runs)
        write_chrome_trace(data, tmp_path / "trace.json")
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        delays = [e for e in events if e.get("cat") == "delay"]
        injected = [e for e in data.inject_events if e["action"] == "inject"]
        assert len(delays) == len(injected) > 0
        assert sorted((e["tid"], e["ts"]) for e in delays) == sorted(
            (e["tid"], e["t_ms"] * 1000.0) for e in injected)
        lanes = [e for e in events if e.get("cat") == "thread"]
        assert sorted(e["name"] for e in lanes) == sorted(
            t["name"] for t in dossier.swimlane["threads"])

    def test_an_older_directory_renders_as_before(self, tmp_path):
        """Run records written before carry ``vt_threads``/``vt_delays``
        and their directory one ``coverage-*.json`` per session."""
        data = load_obs_dir(FIXTURES / "detect-v1")
        assert all("vt_threads" in run for run in data.runs)
        count = write_chrome_trace(data, tmp_path / "trace.json")
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        assert count == len(events) == 11
        assert [e["name"] for e in events if e.get("cat") == "delay"] == [
            "delay@netmq.NetMQRuntime.ChkDisposed:11"]
        assert len(data.coverage) == 1 and check(data) == []


class TestSessionRoundTrip:
    def test_live_session_files_load_and_reconcile(self, tmp_path):
        session = obs.configure(tmp_path / "live")
        try:
            for action in ("hit", "hit", "hit", "miss"):
                eventbus.emit("cache", action=action)
            session.flush()
            eventbus.flush()
        finally:
            obs.disable()
        data = load_obs_dir(tmp_path / "live")
        assert data.processes == 1
        assert data.counts["cache.hits"] == 3
        assert data.warnings == [] and data.parse_errors == []
        assert check(data) == []
        assert "hit rate 75.0%" in render_report(data)


class TestForkHandler:
    def test_reopens_the_session_and_the_bus(self, tmp_path):
        parent = obs.configure(tmp_path / "live")
        parent_bus = eventbus.bus()
        try:
            parent.decision(1, "l1", 0.0, reason="decay")  # the parent's to write
            obs._reset_after_fork()
            child, child_bus = obs.session(), eventbus.bus()
            assert child is not parent and child_bus is not parent_bus
            assert len(parent.stream.pending) == 1 and child.stream.pending == []
            assert child.directory == child_bus.directory == parent.directory
        finally:
            obs.disable()


class TestTornTailOrdering:
    """A torn final write loses at most its own batch: what remains
    still reconciles."""

    def write_two_batches(self, directory):
        session = obs.configure(directory)
        try:
            for t in range(3):
                session.decision(1, "l1", float(t), reason="decay")
            session.flush()
            first_write_ends = session.stream.path.stat().st_size
            for t in range(3, 6):
                session.decision(1, "l1", float(t), reason="decay")
            session.flush()
        finally:
            obs.disable()
        return session.stream.path, first_write_ends

    @pytest.mark.parametrize("cut", ["snapshot", "final_line"])
    def test_torn_last_write_still_reconciles(self, tmp_path, cut):
        path, first_write_ends = self.write_two_batches(tmp_path / "obs")
        text = path.read_text()
        if cut == "snapshot":
            # Cut inside the first record of the second write: the
            # rest of its batch is lost with it.
            torn = text[: first_write_ends + 20]
        else:
            torn = text[: len(text) - 5]
        path.write_text(torn)
        data = load_obs_dir(path.parent)
        assert data.recovered_lines == 1
        assert data.processes == 1
        assert data.counts["inject.skipped.decay"] == len(data.inject_events)
        assert check(data) == []


class TestFuzzSection:
    """The generated-workload digest inside `obs report`."""

    def write_fuzz_stream(self, obs_dir, spec_prefix=None, ok=True):
        from repro.gen.spec import generate_spec, spec_hash
        from repro.obs import eventbus

        seed = 3
        prefix = spec_hash(generate_spec(seed))[:12] if spec_prefix is None else spec_prefix
        spec = generate_spec(seed)
        (obs_dir / "events-9-9.jsonl").write_text(
            json.dumps({"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION})
            + "\n"
            + json.dumps({
                "type": "fuzz_workload", "seq": 1, "t": 1.0, "seed": seed,
                "spec": prefix, "topology": spec.topology, "planted": 2,
                "detectable": 1, "found": 1 if ok else 0, "sessions": 2,
                "runs": 9, "ok": ok,
            })
            + "\n"
        )

    def test_fuzz_section_renders_topology_rates(self, obs_dir):
        self.write_fuzz_stream(obs_dir)
        text = render_report(load_obs_dir(obs_dir))
        assert "generated workloads (fuzz)" in text
        assert "1 workload(s) oracle-verified" in text
        assert "sensitivity curves: repro obs dashboard" in text
        assert "WARNING" not in text

    def test_no_fuzz_events_means_no_section(self, obs_dir):
        assert "generated workloads (fuzz)" not in render_report(load_obs_dir(obs_dir))

    def test_unresolvable_oracles_warn_loudly(self, obs_dir):
        # A stale spec prefix: ground truth regenerated today is not what
        # the campaign ran against, so the section must say so.
        self.write_fuzz_stream(obs_dir, spec_prefix="deadbeef0000")
        text = render_report(load_obs_dir(obs_dir))
        assert "WARNING: 1 fuzz event(s) but no oracle rows are resolvable" in text


def read_records(directory, pattern):
    return [
        json.loads(line)
        for path in sorted(directory.glob(pattern))
        for line in path.read_text().splitlines()
    ]


@pytest.fixture(scope="module")
def live_dir(tmp_path_factory):
    """One obs directory over a chaos fuzz campaign, its resumed rerun
    and a rerun against the warm cache: decisions, runs, cache hits and
    misses, faults, retried and resumed cells."""
    root = tmp_path_factory.mktemp("live")
    env = {k: v for k, v in os.environ.items() if k not in ("WAFFLE_CHAOS", obs.OBS_DIR_ENV)}
    env.update(PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, "-m", "repro", "fuzz", "--seed-range", "0:4", "--budget", "4",
            "--no-replay", "--jobs", "2", "--cache-dir", "cache", "--obs-dir", "obs"]
    for extra, chaos in ((["--resume", "journal"], "seed=3,worker_crash=0.4"),
                         (["--resume", "journal"], None), ([], None)):
        run_env = dict(env, WAFFLE_CHAOS=chaos) if chaos else env
        subprocess.run(argv + extra, cwd=root, env=run_env, check=True, capture_output=True)
    return root / "obs"


class TestRecordCounters:
    """Every count is folded from a record; no stream stores one."""

    def test_live_streams_store_no_count_and_fold_each(self, live_dir):
        records = read_records(live_dir, "telemetry-*.jsonl")
        events = read_records(live_dir, "events-*.jsonl")
        assert not [r for r in records if r["type"] == "metrics"]

        decisions = [r for r in records if r["type"] == "inject"]
        runs = [r for r in records if r["type"] == "run"]
        cell_ends = [e for e in events if e["type"] == "cell_end"]
        cache = [e["action"] for e in events if e["type"] == "cache"]
        expected = {
            "inject.considered": len(decisions),
            "inject.injected": sum(r["action"] == "inject" for r in decisions),
            "telemetry.runs_recorded": len(runs),
            "sched.runs": len(runs),
            "sched.context_switches": sum(r["context_switches"] for r in runs),
            "cache.hits": cache.count("hit"),
            "cache.misses": cache.count("miss"),
            "cache.writes": cache.count("write"),
            "cells.retried": sum(e["status"] == "ok" and e["attempt"] > 1 for e in cell_ends),
            "cells.quarantined": sum(e["status"] == "quarantined" for e in cell_ends),
            "cells.resumed": sum(e["type"] == "cell_resumed" for e in events),
        }
        for reason in SKIP_REASONS:
            expected["inject.skipped.%s" % reason] = sum(
                r["action"] == "skip" and r["reason"] == reason for r in decisions)
        for kind in FAULT_KINDS:
            expected["faults.%s" % kind] = sum(
                e["type"] == "fault" and e["kind"] == kind for e in events)

        data = load_obs_dir(live_dir)
        assert {name: data.counts[name] for name in expected} == expected
        for name in ("inject.injected", "inject.skipped.decay", "telemetry.runs_recorded",
                     "cache.hits", "cache.misses", "cache.writes", "faults.worker_crash",
                     "cells.retried", "cells.resumed"):
            assert expected[name] > 0, name
        assert check(data) == []
