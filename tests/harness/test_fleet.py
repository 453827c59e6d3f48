"""``campaign run``: a supervised campaign over a fleet directory's
store, then a merge -- and the serial / ``--workers 2`` / chaos
byte-identity matrix."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import cli, faults, parallel
from repro.harness.cli import main
from repro.harness.store import ArtifactStore
from repro.obs import campaign as campaign_mod
from repro.obs import eventbus, report

REPO = Path(__file__).resolve().parents[2]

INNER = ["fuzz", "--seed-range", "0:6", "--budget", "4", "--no-replay",
         "--out", "out.txt", "--cache-dir", "cache"]


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    faults.disable()
    parallel.deactivate()
    yield
    faults.disable()
    parallel.deactivate()
    eventbus.disable()


def _run(argv, cwd, chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.pop("WAFFLE_CHAOS", None)
    if chaos:
        env["WAFFLE_CHAOS"] = chaos
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, "%r rc=%d\n%s\n%s" % (
        argv, proc.returncode, proc.stdout, proc.stderr)
    return proc


def _campaign(inner=INNER, *flags):
    return main(["campaign", "run", "--fleet-dir", "fleet"] + list(flags) + ["--"] + inner)


class TestIdentityMatrix:
    """The same campaign serial, on two workers, and with every worker
    chaos-killed on a cell's first attempt: byte-identical user output
    and merged journal. Each run gets its own working directory with
    identical *relative* arguments, so content-addressed cell keys
    (which hash the argument strings) agree."""

    RUNS = {
        "serial": (["--workers", "0"], None),
        "two": (["--workers", "2"], None),
        "chaos": (["--workers", "2"], "seed=1,worker_crash=1.0"),
    }

    def test_serial_workers_and_chaos_runs_are_byte_identical(self, tmp_path):
        stdout = {}
        for name, (flags, chaos) in self.RUNS.items():
            (tmp_path / name).mkdir()
            stdout[name] = _run(["campaign", "run", "--fleet-dir", "fleet"] + flags
                                + ["--"] + INNER, tmp_path / name, chaos).stdout
        outs = {(tmp_path / n / "out.txt").read_bytes() for n in self.RUNS}
        journals = {(tmp_path / n / "fleet" / cli.MERGED_JOURNAL_NAME).read_bytes()
                    for n in self.RUNS}
        assert len(outs) == len(journals) == 1
        assert len(journals.pop().splitlines()) == 6
        # The chaos run really crashed a worker on every cell.
        assert "supervisor: 6 cells ok, 6 retried" in stdout["chaos"]
        assert "(faults: worker_crash=6)" in stdout["chaos"]
        # The event-derived report sections of the merged events (time
        # to first detection, generated workloads) agree too (raw
        # timelines legitimately differ).
        texts = set()
        for name in self.RUNS:
            view, _ = campaign_mod.load_view(tmp_path / name / "fleet")
            assert not view.warnings, view.warnings
            texts.add("\n".join(report.event_sections(view)))
        assert len(texts) == 1
        for name in self.RUNS:
            proc = subprocess.run(
                [sys.executable, str(REPO / "scripts" / "check_obs.py"), "--events-only",
                 str(tmp_path / name / "fleet")],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCampaignRun:
    def test_journal_holds_one_line_per_cell(self, tmp_path, capsys):
        assert _campaign() == 0
        out = capsys.readouterr().out
        assert "fleet merge: 6 cell(s) -> fleet/journal-merged.jsonl" in out
        lines = [json.loads(line) for line in
                 (tmp_path / "fleet" / cli.MERGED_JOURNAL_NAME).read_text().splitlines()]
        store = ArtifactStore(tmp_path / "fleet" / "store")
        assert [line["key"] for line in lines] == list(store.keys())
        assert {line["status"] for line in lines} == {"ok"}
        assert json.loads((tmp_path / "fleet" / cli.MANIFEST_NAME).read_text()) == {
            "argv": INNER}

    def test_a_rerun_resumes_from_the_store(self, tmp_path, capsys):
        assert _campaign() == 0
        first = capsys.readouterr().out
        journal = (tmp_path / "fleet" / cli.MERGED_JOURNAL_NAME).read_bytes()
        assert _campaign() == 0
        second = capsys.readouterr().out
        assert "supervisor: 6 cells ok, 0 retried, 0 quarantined\n" in first
        assert "6 resumed from store" in second
        assert (tmp_path / "fleet" / cli.MERGED_JOURNAL_NAME).read_bytes() == journal
        text = (tmp_path / "out.txt").read_text()
        half = len(text) // 2
        assert text[:half] == text[half:]  # the same table, appended twice

    def test_torn_records_quarantine_and_recompute(self, tmp_path, capsys):
        """A record torn by a host crash -- emptied, or cut mid-body --
        fails its check on the re-run: it is quarantined and its cell
        recomputes, and the output equals the first run's."""
        inner = INNER[:-2]  # no --cache-dir: the store is all there is
        fleet = tmp_path / "fleet"
        assert _campaign(inner) == 0
        out, journal = (tmp_path / "out.txt").read_bytes(), \
            (fleet / cli.MERGED_JOURNAL_NAME).read_bytes()
        (tmp_path / "out.txt").unlink()
        records = sorted((fleet / "store").glob("cell-*.res"))
        assert len(records) == 6
        emptied, halved = records[1], records[4]
        emptied.write_bytes(b"")
        halved.write_bytes(halved.read_bytes()[:halved.stat().st_size // 2])
        first_streams = set(eventbus.stream_paths(fleet))
        capsys.readouterr()
        assert _campaign(inner) == 0
        assert "6 cells ok, 0 retried, 0 quarantined, 4 resumed from store" in (
            capsys.readouterr().out)
        assert (tmp_path / "out.txt").read_bytes() == out
        assert (fleet / cli.MERGED_JOURNAL_NAME).read_bytes() == journal
        assert sorted(p.name for p in (fleet / "store").glob("*.corrupt")) == [
            emptied.name + ".corrupt", halved.name + ".corrupt"]
        events = [event for path in eventbus.stream_paths(fleet)
                  if path not in first_streams
                  for event in eventbus.read_stream(path).events]
        corrupt = [e["cell"] for e in events if e["type"] == "store"
                   and e["action"] == "corrupt"]
        assert sorted(corrupt) == [emptied.name[:32], halved.name[:32]]
        torn = {emptied.name[5:21], halved.name[5:21]}
        assert {e["cell"] for e in events if e["type"] == "cell_end"} == torn
        resumed = [e["cell"] for e in events if e["type"] == "cell_resumed"]
        assert len(resumed) == 4 and not torn & set(resumed)

    @pytest.mark.parametrize("inner, reason", [
        (["fuzz", "--seed-range", "0:2", "--no-replay"], "refusing to mix campaigns"),
        (["campaign", "status", "fleet"], "fleet campaigns cannot nest"),
    ])
    def test_mixed_and_nested_campaigns_are_refused(self, tmp_path, capsys, inner, reason):
        assert _campaign() == 0
        before = sorted(p.name for p in (tmp_path / "fleet").iterdir())
        capsys.readouterr()
        with pytest.raises(SystemExit) as raised:
            _campaign(inner)
        assert raised.value.code == 2
        assert reason in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "fleet").iterdir()) == before

    def test_crash_dossiers_land_next_to_the_store(self, tmp_path, capsys):
        faults.configure("seed=1,worker_crash=1.0")
        assert _campaign(["fuzz", "--seed-range", "0:2", "--budget", "4", "--no-replay"]) == 0
        assert "(faults: worker_crash=2)" in capsys.readouterr().out
        store = tmp_path / "fleet" / "store"
        dossiers = sorted(store.glob("crash-*.json"))
        assert len(dossiers) == 2
        payload = json.loads(dossiers[0].read_text())["record"]
        assert payload["fault"]["kind"] == "worker_crash"
        assert len(list(ArtifactStore(store).keys())) == 2


class TestCampaignRunArgs:
    """``campaign run --fleet-dir D --workers N -- CMD`` parses as
    ``CMD --jobs N+1 --resume D/store``."""

    @staticmethod
    def parse(argv):
        parser = cli.build_parser()
        args = cli._campaign_run_args(parser, parser.parse_args(argv))
        cli.normalize_args(args)
        return args

    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_workers_become_jobs(self, workers):
        args = self.parse(["campaign", "run", "--fleet-dir", "fleet",
                           "--workers", str(workers), "--"] + INNER[:6])
        assert args.command == "fuzz"
        assert args.jobs == workers + 1
        assert args.resume == os.path.join("fleet", "store")
        assert args.cache_dir is None
        assert args.fleet_dir == Path("fleet")

    def test_an_explicit_cache_dir_is_kept(self):
        assert self.parse(["campaign", "run", "--fleet-dir", "fleet", "--"]
                          + INNER).cache_dir == "cache"

    @pytest.mark.parametrize("inner_seed, expected", [([], 3), (["--seed", "5"], 5)],
                             ids=["outer-only", "inner-wins"])
    def test_options_before_the_separator_apply_unless_the_command_sets_them(
            self, inner_seed, expected):
        args = self.parse(["campaign", "run", "--fleet-dir", "fleet", "--seed", "3", "--"]
                          + INNER[:6] + inner_seed)
        assert args.seed == expected


class TestSupervisedPath:
    """``campaign run`` is the supervised path of its inner command over
    a store, plus a merge."""

    FUZZ = ["fuzz", "--seed-range", "0:6", "--budget", "4", "--no-replay", "--json"]

    @pytest.mark.parametrize("cache", [["--cache-dir", "cache"], []],
                             ids=["cache-dir", "no-cache"])
    def test_output_and_store_equal_jobs_plus_resume(self, tmp_path, capsys, monkeypatch,
                                                     cache):
        (tmp_path / "run").mkdir()
        (tmp_path / "plain").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        assert main(["campaign", "run", "--fleet-dir", "fleet", "--workers", "1", "--"]
                    + self.FUZZ + cache) == 0
        run_out = capsys.readouterr().out
        monkeypatch.chdir(tmp_path / "plain")
        assert main(self.FUZZ + cache + ["--jobs", "2", "--resume", "fleet/store"]) == 0
        plain_out = capsys.readouterr().out
        assert ("\ncache: " in plain_out) == bool(cache)
        assert not (tmp_path / "run" / "fleet" / "cache").exists()
        merge_line = run_out.splitlines()[-1]
        assert merge_line.startswith("fleet merge: 6 cell(s)")
        assert run_out == plain_out + merge_line + "\n"
        stores = [ArtifactStore(tmp_path / d / "fleet" / "store") for d in ("run", "plain")]
        keys = list(stores[0].keys())
        assert len(keys) == 6 and keys == list(stores[1].keys())
        for key in keys:
            records = [store.fetch(key) for store in stores]
            assert records[0].status == records[1].status == "ok"
            assert records[0].result == records[1].result

    def test_campaign_status_reads_the_finished_directory(self, capsys):
        assert _campaign() == 0
        capsys.readouterr()
        assert main(["campaign", "status", "fleet"]) == 0
        out = capsys.readouterr().out
        # The merged stream is not read again beside the streams it merges.
        assert "6/6 cells (100%)   finished" in out
        assert "ok 6   quarantined 0   failed 0" in out

    def test_merged_events_hold_every_stream_event(self, tmp_path, capsys):
        assert _campaign(INNER[:6], "--workers", "2") == 0
        out = capsys.readouterr().out
        streams = eventbus.load_streams(tmp_path / "fleet")
        assert len(streams) > 1  # the campaign process and its workers
        total = sum(len(stream.events) for stream in streams)
        assert "%d event(s) -> fleet/merged-events.jsonl" % total in out
        merged = (tmp_path / "fleet" / cli.MERGED_EVENTS_NAME).read_text().splitlines()
        assert len(merged) == total + 1  # one header line
