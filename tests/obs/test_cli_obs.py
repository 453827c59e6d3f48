"""End-to-end telemetry through the CLI: --obs-dir and 'obs report'."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.harness.cache import GLOBAL_STATS
from repro.harness.cli import main
from repro.obs import eventbus
from repro.obs.telemetry import SKIP_REASONS, TELEMETRY_GLOB

REPO = Path(__file__).resolve().parents[2]

DETECT = ["detect", "--bug", "Bug-11", "--tool", "waffle", "--budget", "5"]


@pytest.fixture(autouse=True)
def clean_obs_state():
    """The CLI sets the module-global session and the env var; make sure
    neither leaks into the rest of the suite."""
    yield
    obs.disable()
    os.environ.pop(obs.OBS_DIR_ENV, None)


def check_obs(obs_dir):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_obs.py"), str(obs_dir)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def read_events(obs_dir):
    return [
        record
        for stream in eventbus.load_streams(obs_dir, TELEMETRY_GLOB)
        for record in stream.events
    ]


class TestObsDirOption:
    def test_detect_emits_tagged_decisions_that_reconcile(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert main(DETECT + ["--obs-dir", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "telemetry written to" in out

        records = read_events(obs_dir)
        runs = [r for r in records if r["type"] == "run"]
        injects = [r for r in records if r["type"] == "inject"]
        assert runs, "detection session recorded no runs"
        assert injects, "detection session recorded no decision events"
        # Every skipped injection carries a valid reason tag.
        skips = [r for r in injects if r["action"] == "skip"]
        assert all(r.get("reason") in SKIP_REASONS for r in skips)
        # Per-run totals reconcile with the engine's internal counts.
        for run in runs:
            events = [e for e in injects if e["run"] == run["run_seq"]]
            if not events:
                continue
            assert sum(1 for e in events if e["action"] == "inject") == run["injected"]
            assert sum(1 for e in events if e["action"] == "skip") == (
                run["skipped_decay"] + run["skipped_interference"] + run["skipped_budget"]
            )

    def test_one_switch_writes_both_streams_and_no_summary_files(self, tmp_path):
        obs_dir = tmp_path / "obs"
        assert main(["table2", "--apps", "netmq", "--jobs", "2",
                     "--obs-dir", str(obs_dir)]) == 0
        obs.disable()
        names = os.listdir(obs_dir)
        assert not [n for n in names if n.startswith("summary-")]
        telemetry = eventbus.load_streams(obs_dir, TELEMETRY_GLOB)
        events = eventbus.load_streams(obs_dir)
        # The CLI process and each worker write one of each.
        assert len(telemetry) == len(events) >= 2
        for stream in telemetry:
            assert stream.meta.version == eventbus.EVENT_SCHEMA_VERSION
            assert stream.warnings == [] and stream.parse_errors == []
            assert all(r["type"] != "metrics" for r in stream.events)
        check_obs(obs_dir)

    def test_one_stream_pair_per_worker(self, tmp_path):
        """A supervised ``--jobs 2`` campaign reuses its two workers, so
        it leaves the CLI's stream pair plus one per worker, not one per
        cell."""
        obs_dir = tmp_path / "obs"
        assert main(["--obs-dir", str(obs_dir), "table6", "--apps", "nsubstitute",
                     "--jobs", "2", "--retries", "1"]) == 0
        obs.disable()
        names = os.listdir(obs_dir)
        assert 1 <= len([n for n in names if n.startswith("events-")]) <= 3
        assert 1 <= len([n for n in names if n.startswith("telemetry-")]) <= 3
        check_obs(obs_dir)

    def test_events_dir_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table2", "--apps", "netmq", "--events-dir", str(tmp_path)])

    def test_dossier_dir_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(DETECT + ["--dossier-dir", str(tmp_path)])

    def test_detect_keeps_one_dossier_with_its_fault(self, tmp_path, capsys):
        from repro.obs import dossier as dossier_mod

        obs_dir = tmp_path / "obs"
        assert main(DETECT + ["--obs-dir", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        (path,) = obs_dir.glob("dossier-*.json")
        assert "dossier written: %s (replay with: waffle-repro replay %s)" % (path, path) in out
        events = dossier_mod.load_dossier(path).flight_events
        assert [e["k"] for e in events].count("fault") == 1
        assert any(r["type"] == "coverage" for r in read_events(obs_dir))
        assert not list(obs_dir.glob("coverage-*.json"))

    def test_table_campaigns_keep_no_dossiers(self, tmp_path):
        obs_dir = tmp_path / "obs"
        assert main(["table4", "--bugs", "Bug-1", "Bug-11", "--attempts", "1",
                     "--budget", "10", "--obs-dir", str(obs_dir)]) == 0
        obs.disable()
        runs = [r for r in read_events(obs_dir) if r["type"] == "run"]
        assert any(r["crashed"] for r in runs)  # bugs were exposed
        assert any(r["type"] == "coverage" for r in read_events(obs_dir))
        assert not list(obs_dir.glob("dossier-*.json"))

    def test_obs_report_renders_and_reconciles(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(DETECT + ["--obs-dir", str(obs_dir)])
        obs.disable()  # the report must read files, not live state
        capsys.readouterr()
        assert main(["obs", "report", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry digest" in out
        assert "injection decisions" in out
        assert "reconciliation: decision events match" in out

    def test_obs_chrome_export(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(DETECT + ["--obs-dir", str(obs_dir)])
        obs.disable()
        capsys.readouterr()
        assert main(["obs", "chrome", str(obs_dir)]) == 0
        trace = json.loads((obs_dir / "trace.json").read_text())
        assert trace["traceEvents"], "expected virtual-time trace events"

    def test_determinism_unchanged_by_telemetry(self, tmp_path, capsys):
        """Telemetry is observational: the same detection run with and
        without --obs-dir prints identical run measurements."""
        noise = ("telemetry written", "dossier written", "cache:")
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith(noise)
        ]
        main(DETECT)
        plain = capsys.readouterr().out
        main(DETECT + ["--obs-dir", str(tmp_path / "obs")])
        with_obs = capsys.readouterr().out
        assert strip(plain) == strip(with_obs)


class TestCacheSummaryLine:
    @pytest.fixture(autouse=True)
    def reset_global_stats(self):
        # GLOBAL_STATS accumulates per process; isolate this test.
        def zero():
            GLOBAL_STATS.hits = GLOBAL_STATS.misses = GLOBAL_STATS.writes = 0

        zero()
        yield
        zero()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_summary_line_reports_hits_and_misses(self, tmp_path, capsys, jobs):
        """Under ``--jobs 2`` the cells' lookups happen in workers, and
        the line still counts every one of them."""
        cache_dir = str(tmp_path / "cache")
        args = ["table2", "--apps", "netmq", "--cache-dir", cache_dir, "--jobs", jobs]
        main(args)
        cold = capsys.readouterr().out
        cold_line = next(l for l in cold.splitlines() if l.startswith("cache:"))
        assert "misses" in cold_line and "writes" in cold_line
        assert cold_line == "cache: 0 hits / 17 misses (0.0% hit rate), 17 writes"

        # The summary is per-invocation: the warm run's line must not
        # carry the cold run's misses forward.
        main(args)
        warm = capsys.readouterr().out
        warm_line = next(l for l in warm.splitlines() if l.startswith("cache:"))
        assert "100.0% hit rate" in warm_line
        assert warm_line == "cache: 17 hits / 0 misses (100.0% hit rate), 0 writes"

    def test_no_line_when_cache_unused(self, capsys):
        main(DETECT)
        out = capsys.readouterr().out
        assert not any(l.startswith("cache:") for l in out.splitlines())
