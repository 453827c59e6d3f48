"""Obs-directory aggregation: loading, reconciliation, rendering."""

import json

import pytest

from repro import obs
from repro.obs import eventbus
from repro.obs.report import (
    REQUIRED_COUNTERS,
    check,
    load_obs_dir,
    render_report,
    write_chrome_trace,
)


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def meta(pid):
    return {"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION, "writer": "%d-1" % pid, "pid": pid}


def update_counters(obs_dir, pid, **changes):
    """Rewrite the counters of one stream's (only) metrics record."""
    path = obs_dir / ("telemetry-%d-1.jsonl" % pid)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        if record["type"] == "metrics":
            counters = record["metrics"]["counters"]
            for name, value in changes.items():
                counters[name.replace("__", ".")] = value
    write_jsonl(path, records)


@pytest.fixture
def obs_dir(tmp_path):
    """A hand-built two-process obs directory with consistent data
    (every required counter registered, as live sessions do)."""
    root = tmp_path / "obs"
    root.mkdir()
    for pid, considered in ((100, 3), (101, 0)):
        snapshot = {
            "counters": {
                **dict.fromkeys(REQUIRED_COUNTERS, 0),
                "inject.considered": considered,
                "inject.injected": 1 if considered else 0,
                "inject.skipped.decay": 1 if considered else 0,
                "inject.skipped.interference": 1 if considered else 0,
                "inject.skipped.budget": 0,
                "cache.hits": 4,
                "cache.misses": 1,
                "cache.writes": 1,
            },
            "gauges": {"sched.virtual_time_ms_total": 12.5},
            "histograms": {},
        }
        records = [meta(pid), {"type": "metrics", "metrics": snapshot}]
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
                {
                    "type": "run",
                    "run_seq": 1,
                    "kind": "detect",
                    "test": "t",
                    "wall_ms": 5.0,
                    "virtual_ms": 10.0,
                    "considered": 3,
                    "injected": 1,
                    "skipped_decay": 1,
                    "skipped_interference": 1,
                    "skipped_budget": 0,
                    "candidates_final": 2,
                    "crashed": True,
                },
            ]
        write_jsonl(root / ("telemetry-%d-1.jsonl" % pid), records)
    return root


class TestLoad:
    def test_merges_processes_and_buckets_records(self, obs_dir):
        data = load_obs_dir(obs_dir)
        assert data.processes == 2
        assert data.metrics["counters"]["cache.hits"] == 8
        assert len(data.runs) == 1
        assert len(data.inject_events) == 3
        assert data.parse_errors == []

    def test_last_metrics_record_per_stream_wins(self, obs_dir):
        path = obs_dir / "telemetry-101-1.jsonl"
        later = {"counters": {"cache.hits": 10}, "gauges": {}, "histograms": {}}
        with open(path, "a") as fp:
            fp.write(json.dumps({"type": "metrics", "metrics": later}) + "\n")
        assert load_obs_dir(obs_dir).metrics["counters"]["cache.hits"] == 14

    def test_parse_errors_are_collected_not_fatal(self, obs_dir):
        (obs_dir / "telemetry-999-1.jsonl").write_text('{"type": "inject"\nnot json\n')
        data = load_obs_dir(obs_dir)
        assert len(data.parse_errors) == 2
        assert data.processes == 2  # a stream without a metrics record is not counted

    def test_empty_directory(self, tmp_path):
        data = load_obs_dir(tmp_path)
        assert data.processes == 0
        assert data.runs == []


class TestRecovery:
    """Killed-worker artifacts are warnings; committed data stays strict."""

    def test_truncated_final_line_is_a_warning_not_an_error(self, obs_dir):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            fp.write('{"type": "run", "trunc')  # no trailing newline
        data = load_obs_dir(obs_dir)
        assert data.parse_errors == []
        assert any("truncated final line" in w for w in data.warnings)
        assert len(data.runs) == 1  # the committed lines still load

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

    def test_missing_stream_warns_only_when_cells_ran(self, obs_dir):
        # The fixture has no harness.cells counter: silence is correct
        # (pre-event-bus artifacts must not suddenly warn).
        assert load_obs_dir(obs_dir).warnings == []
        update_counters(obs_dir, 100, harness__cells=3)
        data = load_obs_dir(obs_dir)
        assert any("no campaign event stream" in w for w in data.warnings)


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
        # The lost tail line was a skip event: counters and the run
        # summary now lead the events by one. With one recovered line
        # that is expected degradation, not an inconsistency.
        update_counters(obs_dir, 100, inject__considered=4, inject__skipped__decay=2)
        with open(obs_dir / "telemetry-100-1.jsonl") as fp:
            lines = fp.read().splitlines()
        rewritten = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "run":
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
        update_counters(obs_dir, 100, inject__considered=5, inject__skipped__decay=3)
        self.append_lines(obs_dir, [])
        data = load_obs_dir(obs_dir)
        assert data.recovered_lines == 1
        problems = check(data)
        assert any("skip events" in p for p in problems)

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
        update_counters(
            obs_dir,
            100,
            faults__worker_crash=2,
            faults__hang=1,
            cells__retried=3,
            cells__quarantined=1,
            cells__resumed=4,
            cache__corrupt=1,
        )
        text = render_report(load_obs_dir(obs_dir))
        assert "resilience" in text
        assert "worker_crash 2" in text
        assert "hang 1" in text
        assert "cells retried 3" in text
        assert "quarantined 1" in text
        assert "resumed 4" in text

    def test_recovered_lines_alone_trigger_the_section(self, obs_dir):
        with open(obs_dir / "telemetry-100-1.jsonl", "a") as fp:
            fp.write('{"type": "run", "trunc')
        text = render_report(load_obs_dir(obs_dir))
        assert "resilience" in text
        assert "truncated lines recovered 1" in text


class TestRender:
    def test_report_sections(self, obs_dir):
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


class TestChromeExport:
    def test_writes_trace_file(self, obs_dir, tmp_path):
        out = tmp_path / "trace.json"
        count = write_chrome_trace(load_obs_dir(obs_dir), out)
        trace = json.loads(out.read_text())
        assert count == len(trace["traceEvents"])
        assert trace["displayTimeUnit"] == "ms"


class TestSessionRoundTrip:
    def test_live_session_files_load_and_reconcile(self, tmp_path):
        session = obs.configure(tmp_path / "live")
        try:
            session.c_cache_hits.inc(3)
            session.c_cache_misses.inc()
            for action in ("hit", "hit", "hit", "miss"):  # the cache's paired events
                eventbus.emit("cache", action=action)
            session.flush()
            eventbus.flush()
        finally:
            obs.disable()
        data = load_obs_dir(tmp_path / "live")
        assert data.processes == 1
        assert data.metrics["counters"]["cache.hits"] == 3
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
            assert child.stream.pending == [] and child.c_considered.value == 0
            assert child.directory == child_bus.directory == parent.directory
        finally:
            obs.disable()


class TestTornTailOrdering:
    """A flush writes its metrics snapshot ahead of the records it counts,
    so a torn final write leaves counters ahead of events, never behind."""

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
            # Cut inside the metrics record leading the second write:
            # its whole batch is lost with it.
            torn = text[: first_write_ends + 20]
        else:
            torn = text[: len(text) - 5]
        path.write_text(torn)
        data = load_obs_dir(path.parent)
        assert data.recovered_lines == 1
        assert data.processes == 1
        skips = data.metrics["counters"]["inject.skipped.decay"]
        assert skips - len(data.inject_events) in (0, 1)
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
