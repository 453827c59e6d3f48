"""Campaign view fold, live progress, status rendering, and the event-derived
sections and detection funnel of ``obs report``."""

import io
import json
import os

import pytest

from repro import obs
from repro.harness import faults
from repro.harness.cli import main
from repro.obs import campaign, eventbus, report


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
    _ev("detection", t=1.8, tool="waffle", bug="Bug-1", test="app:t1", attempt=1,
        matched=True, runs=2, time_ms=12.5, session_runs=2),
    _ev("fuzz_workload", t=1.9, seed=4, spec="abc", topology="pool", planted=2,
        detectable=2, found=2, sessions=1, runs=3, ok=True),
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
        assert len(view.detected) == 1
        assert len(view.fuzz) == 1

    def test_duplicate_work_products_collapse(self):
        # A retried/resumed cell re-emits identical deterministic events;
        # the fold must count them once.
        view = campaign.fold_events(SAMPLE + SAMPLE[10:12])
        assert len(view.detections) == 1
        assert len(view.fuzz) == 1

    def test_distinct_work_products_do_not_collapse(self):
        other = dict(SAMPLE[11], t=9.0, seed=5)
        view = campaign.fold_events(SAMPLE + [other])
        assert len(view.fuzz) == 2

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
    def test_sections(self):
        view = campaign.fold_events(SAMPLE)
        text = campaign.render_status(view, source="dir")
        assert "Campaign status — dir" in text
        assert "command: table4" in text
        assert "chaos fires 1" in text
        # The funnel and the detections are obs report's to show.
        assert "funnel" not in text
        assert "Bug-1" not in text

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
        renderer(_ev("checkpoint", cell="c1", status="ok", attempts=1))
        assert out.getvalue() == ""
        assert renderer.view.cache_hits == 1  # still folded
        assert renderer.view.checkpoints == 1

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

    def test_report_event_sections(self):
        lines = report.event_sections(campaign.fold_events(SAMPLE))
        assert lines[0] == "time to first detection (virtual ms): 1 of 1 target(s) detected"
        assert any(line.split()[:2] == ["Bug-1", "waffle"] for line in lines)
        assert "generated workloads (fuzz)" in lines
        (pool,) = [line for line in lines if line.split()[:1] == ["pool"]]
        # topology, workloads, planted, detectable, found, runs, rate
        assert pool.split() == ["pool", "1", "2", "2", "2", "3", "100.0%"]


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
        assert "health" in out
        assert "detection funnel" not in out

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
        """The acceptance identity: a chaos-disrupted campaign's
        event-derived report sections (time to first detection,
        generated workloads) equal the clean campaign's, byte for byte."""
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
        assert report.event_sections(clean_view) == report.event_sections(chaos_view)

    def test_obs_report_renders_time_to_first_detection(self, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        assert main(TABLE4 + ["--obs-dir", str(events_dir)]) == 0
        os.environ.pop(obs.OBS_DIR_ENV, None)
        obs.disable()
        capsys.readouterr()
        assert main(["obs", "report", str(events_dir)]) == 0
        out = capsys.readouterr().out
        assert "time to first detection (virtual ms)" in out
        assert "Bug-1" in out


def _funnel_line(text):
    """The counts of the report's one ``detection funnel`` line."""
    (line,) = [line for line in text.splitlines() if line.startswith("detection funnel: ")]
    stages = line[len("detection funnel: "):].split(" → ")
    return {stage.rsplit(" ", 1)[0]: int(stage.rsplit(" ", 1)[1]) for stage in stages}


class TestDetectionFunnel:
    """One funnel, folded by :func:`report.funnel` from the telemetry
    counters and the outcome events, whichever driver wrote them."""

    def run(self, argv, capsys):
        assert main(argv) == 0
        os.environ.pop(obs.OBS_DIR_ENV, None)
        obs.disable()
        capsys.readouterr()

    def test_fuzz_funnel_counts_dossiers_and_injections(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        self.run(["fuzz", "--seed-range", "0:10", "--obs-dir", str(obs_dir)], capsys)
        assert main(["obs", "report", str(obs_dir)]) == 0
        stages = _funnel_line(capsys.readouterr().out)
        data = report.load_obs_dir(obs_dir)
        injected = sum(1 for r in data.inject_events if r.get("action") == "inject")
        assert stages["detected"] == len(data.dossiers) > 0
        assert stages["delays injected"] == injected > 0
        assert stages == dict(report.funnel(data))

    def test_table4_readers_agree_on_detected(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        self.run(["table4", "--bugs", "Bug-1", "Bug-11", "--attempts", "2", "--budget", "10",
                  "--obs-dir", str(obs_dir)], capsys)
        assert main(["obs", "report", str(obs_dir)]) == 0
        text = capsys.readouterr().out
        detected = _funnel_line(text)["detected"]
        (ttfd,) = [line for line in text.splitlines()
                   if line.startswith("time to first detection")]
        assert ttfd.endswith(": %d of 4 target(s) detected" % detected)
        assert main(["obs", "dashboard", str(obs_dir)]) == 0
        html = (obs_dir / "dashboard.html").read_text()
        assert ('<div class="tile"><div class="v">%d</div><div class="k">bugs detected</div>'
                % detected) in html
        assert '<tr><td class="l">detected</td><td>%d</td></tr>' % detected in html
        assert detected > 0


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
