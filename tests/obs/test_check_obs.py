"""The obs-directory contract: one negative fixture per law, one parse
per file per reader, and tolerant readers.

Every law is exercised through ``scripts/check_obs.py`` (exit 1 plus
the law's message) on a copy of a real ``fuzz --obs-dir`` directory
with one defect planted. The parse-count tests wrap the two file
parsers (:func:`repro.obs.eventbus.read_stream` and
:func:`repro.core.persistence.load_record`) and assert that each
``obs`` command reads every file it renders exactly once and no file
it does not render.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.core import persistence
from repro.harness.cli import main
from repro.obs import eventbus

REPO = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONHASHSEED": "0"}


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "check_obs_script", REPO / "scripts" / "check_obs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_obs = _load_script()


def fuzz_obs_dir(target, *extra):
    subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", "--obs-dir", str(target)] + list(extra),
        env=ENV, check=True, capture_output=True, text=True,
    )
    return target


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """One process's telemetry, events, coverage records and dossiers."""
    return fuzz_obs_dir(tmp_path_factory.mktemp("base") / "obs", "--seed-range", "0:2",
                        "--jobs", "1")


@pytest.fixture(autouse=True)
def clean_obs_state():
    yield
    obs.disable()
    os.environ.pop(obs.OBS_DIR_ENV, None)


@pytest.fixture
def obs_dir(base_dir, tmp_path):
    return Path(shutil.copytree(base_dir, tmp_path / "obs"))


def only(directory, pattern):
    paths = sorted(directory.glob(pattern))
    assert paths, pattern
    return paths[0]


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_lines(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def legacy_coverage_file(obs_dir):
    """Move one coverage record out of the telemetry stream into a
    ``coverage-*.json`` file, as directories written before coverage
    joined the stream hold them; returns the file."""
    stream = only(obs_dir, "telemetry-*.jsonl")
    records = read_lines(stream)
    record = next(r for r in records if r["type"] == "coverage")
    records.remove(record)
    write_lines(stream, records)
    path = obs_dir / "coverage-100-0.json"
    persistence.save_record(record, path)
    return path


def append_event(path, **event):
    records = read_lines(path)
    seq = max(r.get("seq", 0) for r in records) + 1
    write_lines(path, records + [dict({"seq": seq, "t": 1e12}, **event)])


def run_check(capsys, *argv):
    code = check_obs.main(["check_obs.py"] + [str(a) for a in argv])
    return code, capsys.readouterr().out


def assert_fails_with(capsys, message, *argv):
    code, out = run_check(capsys, *argv)
    assert code == 1, out
    assert message in out, out


class TestBaseDirectory:
    def test_unmodified_directory_passes(self, obs_dir, capsys):
        code, out = run_check(capsys, obs_dir)
        assert code == 0, out
        assert out.startswith("obs check OK: 1 process(es)")

    def test_events_only_passes(self, obs_dir, capsys):
        code, out = run_check(capsys, "--events-only", obs_dir)
        assert code == 0, out
        events = sum(len(read_lines(p)) - 1 for p in obs_dir.glob("events-*.jsonl"))
        assert out == "obs check OK (events only): %d event(s) in 1 stream(s)\n" % events

    def test_an_older_stream_with_a_partial_snapshot_passes(self, obs_dir, capsys):
        # A live stream stores no count; an older stream's `metrics`
        # snapshot is still a known record, whatever counters it names.
        path = only(obs_dir, "telemetry-*.jsonl")
        records = read_lines(path)
        assert not [r for r in records if r["type"] == "metrics"]
        write_lines(path, records + [{"type": "metrics", "metrics": {
            "counters": {"candidates.added": 1}, "gauges": {}, "histograms": {}}}])
        code, out = run_check(capsys, obs_dir)
        assert code == 0, out


class TestLaws:
    """Each law's parent message, on a directory with one defect."""

    def test_missing_telemetry(self, obs_dir, capsys):
        only(obs_dir, "telemetry-*.jsonl").unlink()
        assert_fails_with(capsys, "no telemetry-*.jsonl files in %s" % obs_dir, obs_dir)

    def test_unknown_record_type(self, obs_dir, capsys):
        path = only(obs_dir, "telemetry-*.jsonl")
        write_lines(path, read_lines(path) + [{"type": "bogus"}])
        assert_fails_with(capsys, "%s: unknown type 'bogus'" % path.name, obs_dir)

    def test_untagged_skip(self, obs_dir, capsys):
        path = only(obs_dir, "telemetry-*.jsonl")
        skip = {"type": "inject", "run": 999, "action": "skip", "site": "x", "t_ms": 0.0}
        write_lines(path, read_lines(path) + [skip])
        assert_fails_with(capsys, "%s: skip event without a valid reason" % path.name, obs_dir)
        assert_fails_with(capsys, "1 skip events missing a valid reason tag", obs_dir)

    def test_unreadable_dossier(self, obs_dir, capsys):
        path = only(obs_dir, "dossier-*.json")
        path.write_text(path.read_text()[:40])
        assert_fails_with(capsys, "%s: unreadable dossier (" % path.name, obs_dir)

    def test_invalid_dossier(self, obs_dir, capsys):
        path = only(obs_dir, "dossier-*.json")
        record = persistence.load_record(path)
        del record["dossier"]["schedule"]
        persistence.save_record(record, path)
        assert_fails_with(capsys, "%s: missing key 'schedule'" % path.name, obs_dir)

    def test_unreadable_coverage(self, obs_dir, capsys):
        path = legacy_coverage_file(obs_dir)
        path.write_text(path.read_text()[:40])
        assert_fails_with(capsys, "%s: unreadable coverage record (" % path.name, obs_dir)

    def test_unreconciled_coverage(self, obs_dir, capsys):
        path = only(obs_dir, "telemetry-*.jsonl")
        records = read_lines(path)
        record = next(r for r in records if r["type"] == "coverage")
        record["pairs_total"] += 1
        write_lines(path, records)
        assert_fails_with(
            capsys,
            "%s: pairs_total=%d but %d pairs listed"
            % (path.name, record["pairs_total"], record["pairs_total"] - 1),
            obs_dir,
        )

    def test_unreconciled_legacy_coverage_file(self, obs_dir, capsys):
        path = legacy_coverage_file(obs_dir)
        record = persistence.load_record(path)
        record["pairs_total"] += 1
        persistence.save_record(record, path)
        assert_fails_with(
            capsys,
            "%s: pairs_total=%d but %d pairs listed"
            % (path.name, record["pairs_total"], record["pairs_total"] - 1),
            obs_dir,
        )

    def test_committed_parse_error(self, obs_dir, capsys):
        path = only(obs_dir, "telemetry-*.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + ["not json\n"] + lines[2:]))
        assert_fails_with(
            capsys, "%s:3: Expecting value: line 1 column 1 (char 0)" % path.name, obs_dir
        )

    def test_run_inject_skip_vs_summary(self, obs_dir, capsys):
        path = only(obs_dir, "telemetry-*.jsonl")
        records = read_lines(path)
        decided = {r["run"] for r in records if r["type"] == "inject"}
        run = next(r for r in records if r["type"] == "run" and r["run_seq"] in decided)
        run["injected"] += 5
        write_lines(path, records)
        assert_fails_with(capsys, "run %d (%s): events inject/skip" % (run["run_seq"], run["test"]),
                          obs_dir)

    def test_unknown_event_type(self, obs_dir, capsys):
        path = only(obs_dir, "events-*.jsonl")
        append_event(path, type="bogus_event")
        seq = read_lines(path)[-1]["seq"]
        assert_fails_with(
            capsys, "%s: unknown event type 'bogus_event' (seq %d)" % (path.name, seq), obs_dir
        )

    def test_unsupported_event_version(self, obs_dir, capsys):
        path = only(obs_dir, "events-*.jsonl")
        records = read_lines(path)
        records[0]["v"] = 99
        write_lines(path, records)
        assert_fails_with(
            capsys,
            "%s: event schema version 99 not in supported %s"
            % (path.name, list(eventbus.SUPPORTED_EVENT_VERSIONS)),
            obs_dir,
        )

    @pytest.mark.parametrize("events_only", [False, True])
    def test_a_lone_lease_event_is_noted_not_failed(self, obs_dir, capsys, events_only):
        # The lease ledger is no longer a law: an unbalanced acquire is a
        # retired type the check names, not a failure.
        append_event(only(obs_dir, "events-*.jsonl"), type="lease_acquire", cell="c", worker="w")
        argv = ["--events-only", obs_dir] if events_only else [obs_dir]
        code, out = run_check(capsys, *argv)
        assert code == 0, out
        assert out.startswith("note: ignored 1 event(s) of retired types: lease_acquire 1\n")
        assert "obs check OK" in out

    def test_events_only_without_streams(self, tmp_path, capsys):
        assert_fails_with(capsys, "no events-*.jsonl streams in %s" % tmp_path,
                          "--events-only", tmp_path)


class TestOneParsePerFile:
    """Each reader parses every file it renders once, and no other."""

    KINDS = ("telemetry", "events", "coverage", "dossier")

    @pytest.fixture
    def reads(self, monkeypatch):
        counts = Counter()
        read_stream, load_record = eventbus.read_stream, persistence.load_record

        def counting_read_stream(path):
            counts[Path(path).name] += 1
            return read_stream(path)

        def counting_load_record(path):
            counts[Path(path).name] += 1
            return load_record(path)

        monkeypatch.setattr(eventbus, "read_stream", counting_read_stream)
        monkeypatch.setattr(persistence, "load_record", counting_load_record)
        return counts

    def expect(self, obs_dir, counts, kinds):
        expected = {
            path.name: 1
            for kind in kinds
            for path in obs_dir.glob(kind + "-*.json*")
        }
        assert dict(counts) == expected

    def test_check_obs(self, obs_dir, reads, capsys):
        assert run_check(capsys, obs_dir)[0] == 0
        self.expect(obs_dir, reads, self.KINDS)

    @pytest.mark.parametrize(
        "action, kinds",
        [
            ("report", KINDS),
            ("dashboard", ("telemetry", "events", "dossier")),
            ("chrome", ("telemetry", "dossier")),
            ("coverage", ("telemetry", "coverage")),
            ("dossier", ("dossier",)),
        ],
    )
    def test_obs_command(self, obs_dir, reads, capsys, action, kinds):
        assert main(["obs", action, str(obs_dir)]) == 0
        self.expect(obs_dir, reads, kinds)


class TestLegacyExports:
    """Directories written before the OpenMetrics export and the quality
    time series were retired still check and render; the stale files
    are ignored."""

    PROM = (
        "# TYPE waffle_cache_hits counter\n"
        "# HELP waffle_cache_hits telemetry counter cache.hits\n"
        "waffle_cache_hits_total 99\n"
        "# EOF\n"
    )
    SERIES = (
        '{"type": "meta", "v": 1, "writer": "repro.obs.timeseries"}\n'
        '{"bands": {"detectable": {"found": 99, "planted": 99, "rate": 1.0}}, '
        '"label": "fuzz", "t": 1792288918.147, "type": "quality", "v": 1}\n'
    )

    def run(self, argv, directory, capsys):
        """Exit code and stdout of one command, plus every file in
        ``directory`` afterwards (the artifacts it wrote included)."""
        argv = [str(directory) if a == "DIR" else a for a in argv]
        if argv[0] == "check_obs":
            code = check_obs.main(["check_obs.py"] + argv[1:])
        else:
            code = main(argv)
        out = capsys.readouterr().out.replace(str(directory), "DIR")
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        return code, out, files

    @pytest.mark.parametrize(
        "argv",
        [
            ["check_obs", "DIR"],
            ["check_obs", "--events-only", "DIR"],
            ["obs", "report", "DIR"],
            ["obs", "coverage", "DIR"],
            ["obs", "dossier", "DIR"],
            ["obs", "chrome", "DIR"],
            ["obs", "dashboard", "DIR"],
            ["campaign", "status", "DIR"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a != "DIR"),
    )
    def test_stale_files_are_ignored(self, obs_dir, tmp_path, capsys, argv):
        legacy = Path(shutil.copytree(obs_dir, tmp_path / "legacy"))
        (legacy / "metrics.prom").write_text(self.PROM)
        (legacy / "timeseries.jsonl").write_text(self.SERIES)
        code, out, files = self.run(argv, obs_dir, capsys)
        assert code == 0, out
        assert self.run(argv, legacy, capsys) == (code, out, dict(
            files,
            **{"metrics.prom": self.PROM.encode(), "timeseries.jsonl": self.SERIES.encode()}
        ))
        if "dashboard.html" in files:
            assert b"Quality trend" not in files["dashboard.html"]

    @pytest.mark.parametrize("action", ["metrics", "trend", "analytics"])
    def test_removed_actions_are_invalid_choices(self, obs_dir, capsys, action):
        with pytest.raises(SystemExit) as raised:
            main(["obs", action, str(obs_dir)])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith("waffle-repro obs: error: argument action: invalid choice:")
        assert repr(action) in errors[0]


    @pytest.mark.parametrize(
        "option",
        [["--deterministic"], ["--metrics-out", "x.prom"], ["--bench", "."]],
        ids=["deterministic", "metrics-out", "bench"],
    )
    def test_removed_options_are_unrecognized(self, obs_dir, capsys, option):
        with pytest.raises(SystemExit) as raised:
            main(["obs", "dashboard", str(obs_dir)] + option)
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "error: unrecognized arguments: %s" % " ".join(option) in captured.err
        assert not (obs_dir / "dashboard.html").exists()


class TestRetiredFleetDirectory:
    """A fleet directory written by the retired lease-based fleet (two
    executors' real streams) reads exactly as the same directory without
    its worker and lease events; ``check_obs.py`` names them."""

    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "fleet-v2"
    RETIRED = {"worker_begin", "worker_end", "heartbeat", "lease_acquire",
               "lease_release", "lease_expire", "lease_steal"}

    def copies(self, tmp_path):
        old = Path(shutil.copytree(self.FIXTURE, tmp_path / "old" / "fleet"))
        new = tmp_path / "new" / "fleet"
        new.mkdir(parents=True)
        dropped = 0
        for path in old.glob("events-*.jsonl"):
            lines = path.read_text().splitlines(True)
            kept = [line for line in lines if json.loads(line)["type"] not in self.RETIRED]
            dropped += len(lines) - len(kept)
            (new / path.name).write_text("".join(kept))
        assert dropped == 10
        return old, new

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["campaign", "status"], "command: fleet:fuzz"),
            (["obs", "report"], "3 workload(s) oracle-verified"),
        ],
        ids=["campaign-status", "obs-report"],
    )
    def test_reads_as_without_the_retired_events(self, tmp_path, capsys, argv, content):
        outs = []
        for directory in self.copies(tmp_path):
            assert main(argv + [str(directory)]) == 0
            outs.append(capsys.readouterr().out.replace(str(directory), "DIR"))
        assert outs[0] == outs[1]
        assert content in outs[0]

    def test_check_obs_names_the_retired_types(self, tmp_path):
        old, _ = self.copies(tmp_path)
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_obs.py"), "--events-only", str(old)],
            env=ENV, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == (
            "note: ignored 10 event(s) of retired types: lease_acquire 3, "
            "lease_release 3, worker_begin 2, worker_end 2\n"
            "obs check OK (events only): 21 event(s) in 2 stream(s)\n"
        )


class TestRetiredWorkProductEvents:
    """Event streams written while the table harness still emitted
    ``prep`` and ``detect_run`` events (the non-empty streams of
    ``all --apps nsubstitute --bugs Bug-1 --attempts 1 --budget 4
    --obs-dir``) read exactly as the same streams without them."""

    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "all-v2"
    RETIRED = {"prep": 40, "detect_run": 100}

    def copies(self, tmp_path):
        old = Path(shutil.copytree(self.FIXTURE, tmp_path / "old" / "obs"))
        new = tmp_path / "new" / "obs"
        new.mkdir(parents=True)
        dropped = Counter()
        for path in old.glob("events-*.jsonl"):
            kept = []
            for line in path.read_text().splitlines(True):
                kind = json.loads(line)["type"]
                if kind in self.RETIRED:
                    dropped[kind] += 1
                else:
                    kept.append(line)
            (new / path.name).write_text("".join(kept))
        assert dropped == self.RETIRED
        return old, new

    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (["campaign", "status"], None),
            (["obs", "report"], None),
            (["obs", "dashboard"], "dashboard.html"),
        ],
        ids=["campaign-status", "obs-report", "obs-dashboard"],
    )
    def test_reads_as_without_the_retired_events(self, tmp_path, capsys, argv, artifact):
        outs = []
        for directory in self.copies(tmp_path):
            assert main(argv + [str(directory)]) == 0
            out = capsys.readouterr().out.replace(str(directory), "DIR")
            outs.append((out, (directory / artifact).read_bytes() if artifact else None))
        assert outs[0] == outs[1]
        if argv[-1] == "report":
            # Event streams only: the telemetry stages are not recorded.
            assert "detection funnel: near-miss pairs not recorded → candidate pairs " \
                   "not recorded → delays injected not recorded → detected 6" in outs[0][0]

    def test_check_obs_names_the_retired_types(self, tmp_path):
        outs = []
        for directory in self.copies(tmp_path):
            proc = subprocess.run(
                [sys.executable, str(REPO / "scripts" / "check_obs.py"), "--events-only",
                 str(directory)],
                env=ENV, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert proc.stderr == ""
            outs.append(proc.stdout)
        verdict = "obs check OK (events only): 181 event(s) in 13 stream(s)\n"
        assert outs[1] == verdict
        assert outs[0] == "note: ignored 140 event(s) of retired types: " \
                          "detect_run 100, prep 40\n" + verdict


class TestDashboardCheck:
    """``check_obs.py`` on a co-located ``dashboard.html``: it must be
    self-contained and carry its key sections."""

    @pytest.fixture
    def html(self, obs_dir, capsys):
        assert main(["obs", "dashboard", str(obs_dir)]) == 0
        capsys.readouterr()
        return obs_dir / "dashboard.html"

    def test_rendered_dashboard_passes(self, html, capsys):
        code, out = run_check(capsys, html.parent)
        assert code == 0, out

    @pytest.mark.parametrize(
        "marker", ['<link rel="stylesheet"', "<script src=", "http://", "https://"]
    )
    def test_external_reference(self, html, capsys, marker):
        html.write_text(html.read_text().replace("</body>", marker + "\n</body>"))
        assert_fails_with(
            capsys, "dashboard.html: external reference %r breaks" % marker, html.parent
        )

    @pytest.mark.parametrize(
        "heading", ["Detection funnel", "Sensitivity curves", "Delay-budget attribution"]
    )
    def test_missing_section(self, html, capsys, heading):
        html.write_text(html.read_text().replace(heading, "Untitled"))
        assert_fails_with(capsys, "dashboard.html: missing section %r" % heading, html.parent)


class TestOverheadBudget:
    def test_a_benchmark_snapshot_is_not_an_argument(self, obs_dir, tmp_path, capsys):
        """Budgets are enforced by the benchmark that measures them; the
        check reads recorded data only."""
        path = tmp_path / "BENCH_obs.json"
        path.write_text(json.dumps({"within_budget": False}))
        assert run_check(capsys, obs_dir, path)[0] == 2


class TestTruncatedFile:
    """A torn file is a warning naming it; the readable rest renders."""

    @pytest.mark.parametrize("action, pattern", [
        ("dossier", "dossier-*.json"), ("coverage", "coverage-*.json"),
    ])
    def test_warns_and_renders_the_rest(self, obs_dir, capsys, action, pattern):
        if action == "coverage":
            legacy_coverage_file(obs_dir)
        torn = only(obs_dir, pattern)
        torn.write_text(torn.read_text()[:40])
        assert main(["obs", action, str(obs_dir)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "%s: unreadable" % torn.name in captured.err
        if action == "dossier":
            rendered = captured.out.count("BUG DOSSIER")
            assert rendered == len(list(obs_dir.glob(pattern))) - 1
        else:
            assert "per session:" in captured.out


@pytest.fixture(scope="module")
def jobs_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("jobs")
    return [
        fuzz_obs_dir(root / ("jobs%d" % jobs), "--seed-range", "0:6", "--jobs", str(jobs))
        for jobs in (1, 2)
    ]


def obs_stdout(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs"] + [str(a) for a in argv],
        env=ENV, check=True, capture_output=True, text=True,
    )
    return proc.stdout


class TestJobsInvariance:
    def test_scheduler_line_sums_per_process_virtual_time(self, jobs_pair):
        lines = []
        for directory in jobs_pair:
            report = obs_stdout("report", directory).splitlines()
            lines.append(report[report.index("scheduler") + 1])
        assert lines[0] == lines[1]
        assert "virtual time 0.0 ms" not in lines[0]

    def test_coverage_order_is_independent_of_worker_pids(self, jobs_pair):
        outputs = [
            obs_stdout("coverage", directory).replace(str(directory), "DIR")
            for directory in jobs_pair
        ]
        assert "per session:" in outputs[0]
        assert outputs[0] == outputs[1]
