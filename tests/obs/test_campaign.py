"""Campaign view fold, live progress, status/analytics rendering."""

import io
import json
import os
from types import SimpleNamespace

import pytest

from repro import obs
from repro.harness import faults
from repro.harness.cli import main
from repro.obs import campaign, eventbus


@pytest.fixture(autouse=True)
def clean_bus_state():
    yield
    obs.disable()
    os.environ.pop(obs.OBS_DIR_ENV, None)
    faults.disable()
    faults.on_chaos_fire = None


def _ev(etype, **fields):
    record = {"type": etype, "seq": fields.pop("seq", 0), "t": fields.pop("t", 0.0)}
    record.update(fields)
    return record


SAMPLE = [
    _ev("campaign_begin", t=1.0, command="table4", seed=0, jobs=2),
    _ev("fanout", t=1.0, unit="cell_fn", cells=3, jobs=2),
    _ev("cell_begin", t=1.0, cell="c1", unit="cell_fn", attempt=1),
    _ev("cell_begin", t=1.0, cell="c2", unit="cell_fn", attempt=1),
    _ev("cache", t=1.1, action="miss"),
    _ev("cache", t=1.2, action="hit"),
    _ev("chaos", t=1.3, site="worker_crash", key="c2", attempt=1),
    _ev("fault", t=1.3, cell="c2", attempt=1, kind="worker_crash", error="x"),
    _ev("cell_retry", t=1.4, cell="c2", attempt=2, backoff_s=0.01, kind="worker_crash"),
    _ev("cell_begin", t=1.5, cell="c2", unit="cell_fn", attempt=2),
    _ev("prep", t=1.6, test="app:t1", seed=0, limit=100, pairs=4, sites=2),
    _ev("detect_run", t=1.7, kind="online", test="app:t1", seed=1, hook_seed=1,
        injected=3, crashed=True, pairs_observed=2),
    _ev("detection", t=1.8, tool="waffle", bug="Bug-1", test="app:t1", attempt=1,
        matched=True, runs=2, time_ms=12.5, session_runs=2, delays=3, crashes=1, pairs=4),
    _ev("cell_end", t=2.0, cell="c1", status="ok", attempt=1, wall_s=1.0),
    _ev("cell_end", t=2.5, cell="c2", status="ok", attempt=2, wall_s=1.0),
    _ev("cell_resumed", t=2.6, cell="c3"),
    _ev("watchdog", t=2.7, cell="c9", deadline_s=5.0),
    _ev("checkpoint", t=2.8, cell="c1", status="ok", attempts=1),
    _ev("campaign_end", t=3.0, ok=True, wall_s=2.0),
]


class TestFold:
    def test_counts_every_dimension(self):
        view = campaign.fold_events(SAMPLE)
        assert view.cells_expected == 3
        assert view.cells_done == 3  # c1 ok, c2 ok, c3 resumed
        assert view.by_status("ok") == 2
        assert view.retries == 1
        assert view.resumed == 1
        assert view.watchdog_kills == 1
        assert view.chaos_fires == 1
        assert view.checkpoints == 1
        assert view.faults == {"worker_crash": 1}
        assert view.cache_hits == 1 and view.cache_misses == 1
        assert view.elapsed_s == 2.0
        assert len(view.campaigns) == 1 and len(view.finished) == 1

    def test_detection_funnel_from_deterministic_fields(self):
        view = campaign.fold_events(SAMPLE)
        assert view.pairs_candidates == 4 + 4  # prep + detection census
        assert view.delays_injected == 3 + 3  # detect_run + detection census
        assert view.pairs_observed == 2
        assert view.detect_crashes == 1 + 1
        assert len(view.detected) == 1

    def test_duplicate_work_products_collapse(self):
        # A retried/resumed cell re-emits identical deterministic events;
        # the fold must count them once.
        view = campaign.fold_events(SAMPLE + SAMPLE[10:13])
        assert len(view.preps) == 1
        assert len(view.detect_runs) == 1
        assert len(view.detections) == 1
        assert view.pairs_candidates == 8

    def test_distinct_work_products_do_not_collapse(self):
        other = _ev("detect_run", t=9.0, kind="online", test="app:t2", seed=2,
                    hook_seed=2, injected=1, crashed=False, pairs_observed=0)
        view = campaign.fold_events(SAMPLE + [other])
        assert len(view.detect_runs) == 2
        assert view.delays_injected == 3 + 3 + 1

    def test_resumed_cell_counts_once_and_keeps_first_status(self):
        first = [
            _ev("fanout", t=1.0, unit="u", cells=2, jobs=1),
            _ev("cell_begin", t=1.0, cell="c1", unit="u"),
            _ev("cell_end", t=1.5, cell="c1", status="quarantined", attempt=1),
            _ev("cell_begin", t=1.5, cell="c2", unit="u"),  # killed mid-cell
        ]
        again = [
            _ev("fanout", t=2.0, unit="u", cells=2, jobs=1),
            _ev("cell_resumed", t=2.0, cell="c1"),
            _ev("cell_resumed", t=2.0, cell="c2"),
        ]
        view = campaign.fold_events(first + again)
        assert (view.cells_done, view.cells_total) == (2, 2)
        assert view.by_status("quarantined") == 1
        assert view.by_status("resumed") == 1
        assert view.resumed == 2

    def test_unknown_event_type_is_a_warning(self):
        view = campaign.fold_events([_ev("mystery", t=1.0)])
        assert any("unknown event type" in w for w in view.warnings)

    def test_eta_from_completed_cell_throughput(self):
        events = [
            _ev("fanout", t=100.0, unit="u", cells=4, jobs=1),
            _ev("cell_begin", t=100.0, cell="c1", unit="u"),
            _ev("cell_end", t=110.0, cell="c1", status="ok", attempt=1, wall_s=10.0),
            _ev("cell_begin", t=110.0, cell="c2", unit="u"),
            _ev("cell_end", t=120.0, cell="c2", status="ok", attempt=1, wall_s=10.0),
        ]
        view = campaign.fold_events(events)
        assert view.eta_s() == pytest.approx(20.0)  # 2 left x 10s/cell

    def test_eta_is_none_before_any_completion(self):
        view = campaign.fold_events([_ev("fanout", t=100.0, unit="u", cells=4, jobs=1)])
        assert view.eta_s() is None


class TestRenderStatus:
    def test_sections_and_funnel(self):
        view = campaign.fold_events(SAMPLE)
        text = campaign.render_status(view, source="dir")
        assert "Campaign status — dir" in text
        assert "command: table4" in text
        assert "candidate pairs 8 → delays injected 6 → near-miss pairs 2 → detected 1" in text
        assert "chaos fires 1" in text
        assert "Bug-1" in text

    def test_in_flight_cells_listed_while_running(self):
        events = [
            _ev("fanout", t=0.0, unit="u", cells=2, jobs=1),
            _ev("cell_begin", t=0.0, cell="c1", unit="unit_fn"),
        ]
        text = campaign.render_status(campaign.fold_events(events))
        assert "in flight (1)" in text
        assert "unit_fn" in text


class TestProgressRenderer:
    def test_lifecycle_lines_reach_the_stream(self):
        out = io.StringIO()
        bus = eventbus.configure(None)
        assert campaign.attach_progress(out) is not None
        for event in SAMPLE:
            bus.emit(event["type"], **{k: v for k, v in event.items()
                                       if k not in ("type", "seq", "t")})
        text = out.getvalue()
        assert "fanout cell_fn: 3 cells" in text
        assert "retry c2" in text
        assert "chaos fired at worker_crash" in text
        assert "DETECTED waffle/Bug-1" in text
        assert "campaign finished" in text

    def test_high_frequency_events_stay_silent(self):
        out = io.StringIO()
        renderer = campaign.ProgressRenderer(out)
        renderer(_ev("cache", action="hit"))
        renderer(_ev("prep", test="t", pairs=1))
        assert out.getvalue() == ""
        assert renderer.view.cache_hits == 1  # still folded

    def test_attach_without_a_bus_returns_none(self):
        assert campaign.attach_progress(io.StringIO()) is None

    def test_renderer_write_failure_is_swallowed(self):
        class Broken:
            def write(self, _):
                raise OSError("gone")

            def flush(self):
                raise OSError("gone")

        renderer = campaign.ProgressRenderer(Broken())
        renderer(_ev("cell_end", cell="c1", status="ok", attempt=1, wall_s=0.1))


class TestAnalytics:
    def test_ttfd_accumulates_across_attempts(self):
        events = [
            _ev("detection", t=1.0, tool="waffle", bug="Bug-1", test="app:t",
                attempt=1, matched=False, runs=5, time_ms=10.0, session_runs=5),
            _ev("detection", t=2.0, tool="waffle", bug="Bug-1", test="app:t",
                attempt=2, matched=True, runs=2, time_ms=5.0, session_runs=2),
        ]
        analytics = campaign.detection_analytics(campaign.fold_events(events))
        (row,) = analytics["rows"]
        assert row["detected"] is True
        assert row["ttfd_ms"] == pytest.approx(15.0)
        assert row["expose_attempt"] == 2
        assert row["app"] == "app"
        assert analytics["ttfd_by_bug"]["Bug-1"]["n"] == 1

    def test_never_matched_target_reports_none(self):
        events = [
            _ev("detection", t=1.0, tool="waffle", bug="Bug-9", test="a:t",
                attempt=1, matched=False, runs=5, time_ms=10.0),
        ]
        analytics = campaign.detection_analytics(campaign.fold_events(events))
        assert analytics["detected"] == 0
        assert analytics["rows"][0]["ttfd_ms"] is None

    def test_skip_taxonomy_rolls_up_counters(self):
        data = SimpleNamespace(metrics={"counters": {
            "inject.considered": 10, "inject.injected": 6,
            "inject.skipped.decay": 2, "inject.skipped.interference": 1,
            "inject.skipped.budget": 1,
        }})
        rollup = campaign.skip_taxonomy(data)
        assert rollup["considered"] == 10
        assert rollup["decay"] == 2

    def test_render_analytics_degrades_without_optional_inputs(self):
        text = campaign.render_analytics(campaign.fold_events(SAMPLE))
        assert "no co-located telemetry" in text
        assert "no BENCH_*.json history supplied" in text


class TestPerfTracker:
    def _snapshot(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_drift_beyond_threshold_is_a_regression(self, tmp_path):
        older = self._snapshot(tmp_path, "BENCH_x.a.json",
                               {"benchmark": "x", "serial_s": 1.0})
        newer = self._snapshot(tmp_path, "BENCH_x.b.json",
                               {"benchmark": "x", "serial_s": 1.5})
        perf = campaign.perf_tracker([older, newer])
        (reg,) = perf["regressions"]
        assert reg["key"] == "serial_s"
        assert reg["delta_pct"] == pytest.approx(50.0)

    def test_drift_within_threshold_is_quiet(self, tmp_path):
        older = self._snapshot(tmp_path, "BENCH_x.a.json",
                               {"benchmark": "x", "serial_s": 1.0})
        newer = self._snapshot(tmp_path, "BENCH_x.b.json",
                               {"benchmark": "x", "serial_s": 1.1})
        assert campaign.perf_tracker([older, newer])["regressions"] == []

    def test_own_verdict_flags_are_budget_problems(self, tmp_path):
        bad = self._snapshot(tmp_path, "BENCH_y.json",
                             {"benchmark": "y", "within_budget": False,
                              "rows_identical": False})
        perf = campaign.perf_tracker([bad])
        assert len(perf["budget_problems"]) == 2

    def test_unreadable_snapshot_is_reported(self, tmp_path):
        broken = self._snapshot(tmp_path, "BENCH_z.json", {})
        broken.write_text("{torn")
        perf = campaign.perf_tracker([broken])
        assert any("unreadable" in p for p in perf["budget_problems"])


TABLE4 = ["table4", "--bugs", "Bug-1", "--attempts", "2", "--budget", "10"]


class TestCliIntegration:
    def test_progress_flag_renders_live_lines(self, capsys):
        assert main(["table2", "--apps", "netmq", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "progress:" in err
        assert "campaign finished" in err

    def test_events_dir_then_campaign_status(self, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        assert main(TABLE4 + ["--obs-dir", str(events_dir)]) == 0
        os.environ.pop(obs.OBS_DIR_ENV, None)
        obs.disable()
        capsys.readouterr()
        assert main(["campaign", "status", str(events_dir)]) == 0
        out = capsys.readouterr().out
        assert "Campaign status" in out
        assert "command: table4" in out
        assert "detection funnel" in out

    def test_campaign_merge_is_order_independent(self, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        # table2 across two apps fans enough cells out that the pool
        # engages and each worker opens its own stream.
        assert main(["table2", "--apps", "netmq", "mqttnet", "--jobs", "2",
                     "--obs-dir", str(events_dir)]) == 0
        os.environ.pop(obs.OBS_DIR_ENV, None)
        obs.disable()
        streams = sorted(str(p) for p in events_dir.glob("events-*.jsonl"))
        assert len(streams) >= 2  # coordinator + workers
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        assert main(["campaign", "merge"] + streams + ["--merged-out", str(out1)]) == 0
        assert main(["campaign", "merge"] + streams[::-1] + ["--merged-out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_resumed_campaign_status_counts_each_cell_once(self, tmp_path, capsys):
        """A campaign run twice against one store into one obs dir:
        the second run resumes every cell. Status reads 100% with each
        cell's first terminal status, not the two fanouts' sum."""
        store, obs_dir = tmp_path / "store", tmp_path / "obs"
        argv = ["fuzz", "--seed-range", "0:3", "--no-replay", "--budget", "4",
                "--resume", str(store), "--obs-dir", str(obs_dir)]
        for _ in range(2):
            assert main(argv) == 0
            os.environ.pop(obs.OBS_DIR_ENV, None)
            obs.disable()
        capsys.readouterr()
        assert main(["campaign", "status", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "3/3 cells (100%)" in out
        assert "ok 3   quarantined 0   failed 0   resumed 3" in out

    def test_status_on_missing_stream_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "nothing")]) == 1
        assert "no event streams" in capsys.readouterr().out

    def test_chaos_retried_campaign_analyzes_identically(self, tmp_path, capsys):
        """The acceptance identity: a chaos-disrupted campaign's analytics
        report equals the clean campaign's, byte for byte."""
        clean_dir, chaos_dir = tmp_path / "clean", tmp_path / "chaos"
        assert main(TABLE4 + ["--obs-dir", str(clean_dir)]) == 0
        os.environ.pop(obs.OBS_DIR_ENV, None)
        obs.disable()
        faults.configure("seed=7,worker_crash=1.0")
        try:
            assert main(TABLE4 + ["--obs-dir", str(chaos_dir), "--retries", "4"]) == 0
        finally:
            faults.disable()
        os.environ.pop(obs.OBS_DIR_ENV, None)
        obs.disable()
        clean_view, _ = campaign.load_view(clean_dir)
        chaos_view, _ = campaign.load_view(chaos_dir)
        assert chaos_view.retries > 0  # chaos actually disrupted it
        assert campaign.render_analytics(clean_view) == campaign.render_analytics(chaos_view)

    def test_obs_analytics_cli_renders(self, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        assert main(TABLE4 + ["--obs-dir", str(events_dir)]) == 0
        os.environ.pop(obs.OBS_DIR_ENV, None)
        obs.disable()
        capsys.readouterr()
        assert main(["obs", "analytics", str(events_dir)]) == 0
        out = capsys.readouterr().out
        assert "Campaign analytics" in out
        assert "time to first detection" in out
        assert "Bug-1" in out


class TestEtaText:
    def test_warming_up_while_cells_exist_but_none_completed(self):
        view = campaign.fold_events([
            _ev("fanout", t=100.0, unit="u", cells=4, jobs=1),
            _ev("cell_begin", t=100.0, cell="c1", unit="u"),
        ])
        assert campaign.eta_text(view) == "warming up"

    def test_numeric_eta_once_a_cell_completes(self):
        view = campaign.fold_events([
            _ev("fanout", t=100.0, unit="u", cells=4, jobs=1),
            _ev("cell_begin", t=100.0, cell="c1", unit="u"),
            _ev("cell_end", t=110.0, cell="c1", status="ok", attempt=1, wall_s=10.0),
        ])
        assert campaign.eta_text(view) != "warming up"

    def test_finished_campaign_shows_zero_not_warming_up(self):
        view = campaign.fold_events([
            _ev("campaign_begin", t=1.0, command="t", seed=0, jobs=1),
            _ev("fanout", t=1.0, unit="u", cells=1, jobs=1),
            _ev("campaign_end", t=2.0, ok=True, wall_s=1.0),
        ])
        assert view.finished
        assert campaign.eta_text(view) != "warming up"

    def test_render_status_says_warming_up(self):
        view = campaign.fold_events([
            _ev("campaign_begin", t=1.0, command="t", seed=0, jobs=1),
            _ev("fanout", t=1.0, unit="u", cells=4, jobs=1),
            _ev("cell_begin", t=1.0, cell="c1", unit="u"),
        ])
        text = campaign.render_status(view, source="dir")
        assert "warming up" in text
