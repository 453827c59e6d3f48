"""CLI behavior (fast subcommands only)."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.harness import experiments
from repro.harness.cli import ARTIFACTS, SELECTION_OPTIONS, build_parser, main
from repro.obs import eventbus

#: The subcommands that are not paper artifacts.
TOOL_COMMANDS = {"apps", "bugs", "trace", "detect", "fuzz", "replay", "obs", "campaign"}


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        expected = {
            "table1", "table2", "figure2", "overlap", "dynamic",
            "table4", "table5", "table6", "table7", "stress", "all", "detect",
        }
        assert expected <= set(sub.choices)

    def test_the_registry_is_the_parser_s_artifact_set(self):
        sub = next(a for a in build_parser()._actions if hasattr(a, "choices") and a.choices)
        names = [entry.name for entry in ARTIFACTS]
        assert len(set(names)) == len(names)
        assert set(sub.choices) - TOOL_COMMANDS == set(names) | {"all"}
        assert [entry.name for entry in ARTIFACTS if entry.in_all] == [
            "table1", "table2", "figure2", "figure5", "overlap", "dynamic",
            "table4", "table5", "table6", "table7", "stress",
        ]
        assert sub.choices["all"].get_default("artifacts") == tuple(
            entry for entry in ARTIFACTS if entry.in_all
        )

    @pytest.mark.parametrize("name", [entry.name for entry in ARTIFACTS] + ["all"])
    def test_an_artifact_accepts_only_the_options_its_driver_reads(self, name, capsys):
        parser = build_parser()
        entries = [e for e in ARTIFACTS if e.name == name] or [
            e for e in ARTIFACTS if e.in_all
        ]
        reads = {option for entry in entries for option in entry.options}
        if name in ("table1", "figure2", "figure5"):
            assert reads == set()
        if name == "all":
            assert reads == set(SELECTION_OPTIONS)
        for option in SELECTION_OPTIONS:
            argv = [name, "--" + option, "1"]
            if option in reads:
                parser.parse_args(argv)
                continue
            with pytest.raises(SystemExit) as raised:
                parser.parse_args(argv)
            assert raised.value.code == 2
            assert "unrecognized arguments: --%s" % option in capsys.readouterr().err

    def test_attempts_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["table4"]).attempts == 15
        assert parser.parse_args(["table7"]).attempts == 5
        assert parser.parse_args(["all"]).attempts == 5

    def test_detect_requires_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["detect"])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Waffle" in out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "MemOrder exposed" in out

    def test_detect_bug(self, capsys):
        assert main(["detect", "--bug", "Bug-1", "--budget", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "BUG EXPOSED" in out
        assert "prep" in out

    def test_detect_app_test_stress(self, capsys):
        assert (
            main(
                [
                    "detect",
                    "--tool",
                    "stress",
                    "--app",
                    "sshnet",
                    "--test",
                    "packet_counter_lock",
                    "--budget",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no bug exposed" in out

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        main(["--out", str(out_file), "table1"])
        capsys.readouterr()
        assert "Table 1" in out_file.read_text()

    def test_table4_restricted(self, capsys):
        assert (
            main(["table4", "--bugs", "Bug-1", "--attempts", "1", "--budget", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "Bug-1" in out


class TestTraceCommand:
    def test_trace_bug(self, capsys):
        assert main(["trace", "--bug", "Bug-11"]) == 0
        out = capsys.readouterr().out
        assert "candidate pairs" in out
        assert "ChkDisposed" in out

    def test_trace_saves_artifacts(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        plan_file = tmp_path / "plan.json"
        assert (
            main(
                [
                    "trace",
                    "--bug",
                    "Bug-1",
                    "--save-trace",
                    str(trace_file),
                    "--save-plan",
                    str(plan_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert trace_file.exists() and trace_file.stat().st_size > 0
        assert plan_file.exists()
        # The saved plan round-trips through the persistence layer.
        from repro.core.persistence import load_plan

        plan = load_plan(plan_file)
        assert plan.delay_sites

    def test_trace_requires_target(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["trace"])


class TestListingAndJson:
    def test_apps_listing(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "netmq" in out and "Bug-11" in out

    def test_apps_verbose_lists_tests(self, capsys):
        assert main(["apps", "-v"]) == 0
        out = capsys.readouterr().out
        assert "runtime_abrupt_termination" in out

    def test_bugs_listing(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        assert out.count("Bug-") == 18
        assert "use_after_free" in out

    def test_json_output_parses(self, capsys):
        import json

        assert main(["table2", "--apps", "nsubstitute", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert "table2" in payload
        (row,) = payload["table2"]
        assert row["app"] == "NSubstitute"
        assert row["mo_instr_sites"] > row["tsv_instr_sites"]

    def test_json_dynamic_and_table1_are_data(self, capsys):
        import json

        from repro.harness import tables

        assert main(["dynamic", "--apps", "nsubstitute", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["dynamic"]
        (row,) = payload["rows"]
        assert row["app"] == "NSubstitute"
        assert row["init_sites"] > 0
        assert payload["overall"] == row["median_init_instances"]
        assert main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["table1"]
        assert payload["header"] == tables.TABLE1_HEADER
        assert payload["rows"] == tables.TABLE1_ROWS
        assert payload["header"][-1] == "Waffle"

    def test_a_closed_stdout_pipe_exits_quietly(self):
        """``waffle-repro apps -v | head -1``: no BrokenPipeError traceback.
        The pipe holds one page, less than the listing, so the CLI is
        still writing when its reader goes away."""
        import fcntl
        import os
        import subprocess
        import sys
        from pathlib import Path

        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs a resizable pipe (Linux)")
        read_fd, write_fd = os.pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen([sys.executable, "-m", "repro", "apps", "-v"], stdout=write_fd,
                                stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        os.close(write_fd)
        line = b""
        while not line.endswith(b"\n"):
            line += os.read(read_fd, 1)
        os.close(read_fd)
        _, err = proc.communicate(timeout=60)
        assert line.startswith(b"appinsights")
        assert err == b""
        assert proc.returncode == 1

    def test_json_table4_serializes_bug_metadata(self, capsys):
        import json

        assert main(["table4", "--bugs", "Bug-1", "--attempts", "1", "--budget", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["table4"]
        assert row["bug"]["bug_id"] == "Bug-1"
        assert row["waffle_runs"] == 2


class TestJsonConversion:
    def test_to_jsonable_handles_rich_values(self):
        import dataclasses

        from repro.harness.cli import _to_jsonable
        from repro.sim.instrument import Location

        @dataclasses.dataclass
        class Row:
            name: str
            values: list

        payload = _to_jsonable(
            {
                "row": Row("x", [1, 2.5, None, True]),
                "loc": Location("a.b:1"),
                "pairs": {frozenset({"a", "b"})},
                "tuple": (1, "two"),
            }
        )
        assert payload["row"] == {"name": "x", "values": [1, 2.5, None, True]}
        assert payload["loc"] == "a.b:1"
        assert payload["pairs"] == [["a", "b"]]
        assert payload["tuple"] == [1, "two"]

    def test_to_jsonable_falls_back_to_str(self):
        from repro.harness.cli import _to_jsonable

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert _to_jsonable(Opaque()) == "<opaque>"

    def test_to_jsonable_nested_location_in_dataclass(self):
        import dataclasses

        from repro.harness.cli import _to_jsonable
        from repro.sim.instrument import Location

        @dataclasses.dataclass
        class Holder:
            where: Location

        assert _to_jsonable(Holder(Location("x.y:3"))) == {"where": "x.y:3"}


class TestSupervisedCampaigns:
    """The resilience flags route experiments through the supervisor
    without changing a single table row."""

    @pytest.fixture(autouse=True)
    def clean_supervision(self):
        from repro.harness import faults, parallel

        faults.disable()
        parallel.deactivate()
        yield
        faults.disable()
        parallel.deactivate()

    @staticmethod
    def table_lines(out):
        return [l for l in out.splitlines() if not l.startswith("supervisor:")]

    def test_retries_flag_prints_degradation_summary(self, capsys):
        assert main(["table2", "--apps", "nsubstitute", "--retries", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "supervisor:" in out and "cells ok" in out

    def test_supervised_output_matches_unsupervised(self, capsys):
        main(["table2", "--apps", "nsubstitute", "--seed", "1"])
        plain = capsys.readouterr().out
        main(["table2", "--apps", "nsubstitute", "--seed", "1", "--retries", "2"])
        supervised_out = capsys.readouterr().out
        assert self.table_lines(supervised_out) == plain.splitlines()

    def test_chaos_env_activates_the_supervisor(self, capsys):
        from repro.harness import faults

        main(["table2", "--apps", "nsubstitute", "--seed", "1"])
        plain = capsys.readouterr().out

        faults.configure("seed=3,worker_crash=0.5")
        assert main(["table2", "--apps", "nsubstitute", "--seed", "1"]) == 0
        chaotic = capsys.readouterr().out
        assert "supervisor:" in chaotic  # chaos implies the fault boundary
        assert self.table_lines(chaotic) == plain.splitlines()

    def test_resume_skips_finished_cells(self, tmp_path, capsys):
        resume = tmp_path / "resume"
        assert main(["table2", "--apps", "nsubstitute", "--resume", str(resume)]) == 0
        first = capsys.readouterr().out
        assert list(resume.glob("cell-*.res"))  # an artifact store
        assert main(["table2", "--apps", "nsubstitute", "--resume", str(resume)]) == 0
        second = capsys.readouterr().out
        assert "resumed from store" in second
        assert self.table_lines(first) == self.table_lines(second)


class TestReducedAll:
    """``all`` on one app and one bug prints the same bytes serially and
    with forked workers. Every artifact but Table 7 prints what it
    printed before the artifacts moved into one registry; Table 7 is
    computed on the selected app and bug, as the others are."""

    ARGV = ["all", "--apps", "nsubstitute", "--bugs", "Bug-1", "--attempts", "1",
            "--budget", "4"]
    DIGESTS = {
        "text": "2146ac6d4eb2e4cb8c990579efed422d45e7f06bca7b2f87379d8c795864b841",
        "json": "2e0b00587ae636bb59d68499eac14f3d8d9065b6e96eed581d4e6e4ab35214f8",
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_digest(self, form, jobs, capsys):
        argv = self.ARGV + ["--jobs", jobs] + (["--json"] if form == "json" else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[form]

    def test_table7_runs_on_the_selection(self, capsys):
        """Waffle on Bug-1, five tools' perf probes on nsubstitute and
        four ablations on Bug-1: 10 cells, not a full-scale 145."""
        cells = {}

        def count(event):
            if event["type"] == "fanout":
                cells[event["unit"]] = cells.get(event["unit"], 0) + event["cells"]

        eventbus.configure(None).add_listener(count)
        try:
            assert main(self.ARGV) == 0
        finally:
            eventbus.disable()
        capsys.readouterr()
        assert cells["_table7_found_cell"] == 1 + 4
        assert cells["_table7_perf_cell"] == 5
        assert sum(cells.values()) == 80


class TestDefaultJobs:
    """Without ``--jobs`` a campaign fans out over the CPUs this process
    may run on, and prints what ``--jobs 1`` prints."""

    @pytest.mark.parametrize("argv", [
        ["table4", "--bugs", "Bug-1", "Bug-11", "--attempts", "2", "--budget", "4", "--json"],
        ["fuzz", "--seed-range", "0:10"],
    ], ids=["table4", "fuzz"])
    def test_fans_out_over_usable_cpus(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fanouts = []
        eventbus.configure(None).add_listener(
            lambda event: event["type"] == "fanout" and fanouts.append(event["jobs"])
        )
        try:
            assert main(argv) == 0
        finally:
            eventbus.disable()
        default = capsys.readouterr().out
        assert fanouts and set(fanouts) == {2}
        assert main(argv + ["--jobs", "1"]) == 0
        assert capsys.readouterr().out == default


class TestDegradation:
    """A quarantined cell drops its row, not the table."""

    @pytest.fixture(autouse=True)
    def clean_supervision(self):
        from repro.harness import faults, parallel

        faults.disable()
        parallel.deactivate()
        yield
        faults.disable()
        parallel.deactivate()

    @staticmethod
    def failing(monkeypatch, name, first_arg):
        """Make one cell of ``experiments.<name>`` fail deterministically."""
        real = getattr(experiments, name)

        def cell(*args):
            if args[0] == first_arg:
                raise AssertionError("injected deterministic failure")
            return real(*args)

        monkeypatch.setattr(experiments, name, cell)

    @staticmethod
    def quarantine_lines(out):
        return [line for line in out.splitlines() if line.startswith("quarantined: ")]

    def test_table4_keeps_the_other_rows(self, monkeypatch, capsys):
        self.failing(monkeypatch, "_table4_cell", "Bug-1")
        argv = ["table4", "--bugs", "Bug-1", "Bug-11", "--attempts", "1", "--budget", "4",
                "--retries", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines() if line.startswith("Bug-")]
        assert rows == ["Bug-11"]
        assert len(self.quarantine_lines(out)) == 1
        assert "1 quarantined" in out.splitlines()[-1]

        assert main(argv + ["--json"]) == 0
        payload = capsys.readouterr().out
        table = json.loads(payload[:payload.index("\nsupervisor: ")])["table4"]
        assert table[0] is None and table[1]["bug"]["bug_id"] == "Bug-11"

    def test_table2_keeps_the_other_apps(self, monkeypatch, capsys):
        self.failing(monkeypatch, "_table2_cell", "nsubstitute")
        argv = ["table2", "--apps", "nsubstitute", "netmq", "--retries", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "NetMQ" in out and "NSubstitute" not in out
        (line,) = self.quarantine_lines(out)
        tests = len(experiments.get_app("nsubstitute").multithreaded_tests)
        assert len(line.split(", ")) == tests
        assert "%d quarantined" % tests in out.splitlines()[-1]

        assert main(argv + ["--json"]) == 0
        payload = capsys.readouterr().out
        table = json.loads(payload[:payload.index("\nsupervisor: ")])["table2"]
        assert table[0] is None and table[1]["app"] == "NetMQ"


    def test_dynamic_loses_its_overall_median(self, monkeypatch, capsys):
        self.failing(monkeypatch, "_dynamic_cell", "nsubstitute")
        argv = ["dynamic", "--apps", "nsubstitute", "netmq", "--retries", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(overall median: -)" in out
        assert "NetMQ" in out and "NSubstitute" not in out
        assert len(self.quarantine_lines(out)) == 1


class TestUsageErrors:
    """Bad targets and counts exit 2 with one ``waffle-repro: error:`` line."""

    @staticmethod
    def fails_with(argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def one_line(self, argv, capsys):
        err = self.fails_with(argv, capsys)
        assert err.startswith("waffle-repro: error: ")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("command", ["detect", "trace"])
    def test_unknown_bug_lists_the_known_bugs(self, command, capsys):
        err = self.one_line([command, "--bug", "Bug-99"], capsys)
        assert "unknown bug 'Bug-99'" in err
        assert "Bug-1," in err and "Bug-18" in err

    @pytest.mark.parametrize("command", ["detect", "trace"])
    def test_unknown_app_lists_the_known_apps(self, command, capsys):
        err = self.one_line([command, "--app", "nosuchapp", "--test", "t"], capsys)
        assert "unknown app 'nosuchapp'" in err
        assert "netmq" in err and "sshnet" in err

    def test_unknown_test_lists_the_app_tests(self, capsys):
        err = self.one_line(["detect", "--app", "netmq", "--test", "nosuchtest"], capsys)
        assert "unknown test 'nosuchtest' in app 'netmq'" in err
        assert "runtime_abrupt_termination" in err

    @pytest.mark.parametrize("command", ["table2", "table5", "all"])
    def test_unknown_apps_key_lists_the_known_apps(self, command, capsys):
        err = self.one_line([command, "--apps", "nsubstitute", "nosuchapp"], capsys)
        assert "unknown app 'nosuchapp'" in err
        assert "netmq" in err and "sshnet" in err

    @pytest.mark.parametrize("command", ["table4", "related", "stress"])
    def test_unknown_bugs_id_lists_the_known_bugs(self, command, capsys):
        err = self.one_line([command, "--bugs", "Bug-99", "Bug-100"], capsys)
        assert "unknown bug 'Bug-99', 'Bug-100'" in err
        assert "Bug-1," in err and "Bug-18" in err

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("5", "expects START:STOP, got '5'"),
            ("a:b", "expects START:STOP, got 'a:b'"),
            ("9:3", "empty range '9:3'"),
            ("3:3", "empty range '3:3'"),
        ],
    )
    def test_malformed_seed_range(self, value, reason, capsys):
        err = self.one_line(["fuzz", "--seed-range", value], capsys)
        assert "--seed-range" in err and reason in err

    def test_replay_of_a_missing_dossier(self, tmp_path, capsys):
        missing = tmp_path / "dossier-missing.json"
        err = self.one_line(["replay", str(missing)], capsys)
        assert "cannot read dossier" in err and str(missing) in err

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("not json at all", "Expecting value"),
            ('{"version": 1, "record": {}}', "missing field 'dossier'"),
            ('{"version": 999, "record": {}}', "unsupported persistence format"),
            ("[1, 2]", "cannot read dossier"),
        ],
    )
    def test_replay_of_an_unreadable_dossier(self, tmp_path, capsys, content, reason):
        path = tmp_path / "dossier-bad.json"
        path.write_text(content)
        err = self.one_line(["replay", str(path)], capsys)
        assert reason in err

    @pytest.mark.parametrize(
        "action",
        ["report", "chrome", "coverage", "dossier", "analytics", "dashboard"],
    )
    def test_obs_on_a_missing_path(self, action, tmp_path, capsys):
        missing = tmp_path / "never-written"
        err = self.one_line(["obs", action, str(missing)], capsys)
        assert "obs path %s does not exist" % missing in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["table4", "--attempts", "0"],
            ["table4", "--attempts", "-1"],
            ["table4", "--budget", "0"],
            ["stress", "--budget", "-3"],
            ["fuzz", "--budget", "0"],
            ["detect", "--bug", "Bug-1", "--budget", "0"],
        ],
    )
    def test_counts_below_one_are_rejected(self, argv, capsys):
        err = self.fails_with(argv, capsys)
        assert "must be at least 1" in err

    @pytest.mark.parametrize(
        "case, reason",
        [
            ("corrupt-manifest", "is not valid JSON"),
            ("manifest-without-argv", "carries no inner command"),
            ("second-command", "refusing to mix campaigns"),
            ("nested-command", "fleet campaigns cannot nest"),
            ("run-without-inner", "requires an inner command"),
            ("merge-without-out", "requires --merged-out"),
        ],
    )
    def test_fleet_and_campaign_input_errors(self, tmp_path, capsys, case, reason):
        from repro.harness.cli import MANIFEST_NAME

        fleet_dir = tmp_path / "fleet"
        fleet_dir.mkdir()
        manifest = fleet_dir / MANIFEST_NAME
        inner = ["--", "fuzz", "--seed-range", "0:2", "--no-replay"]
        argv = ["campaign", "run", "--fleet-dir", str(fleet_dir)] + inner
        if case == "corrupt-manifest":
            manifest.write_text('{"argv": ["fuzz", ')
        elif case == "manifest-without-argv":
            manifest.write_text('{"lease_ttl_s": 1.0}')
        elif case == "second-command":
            manifest.write_text('{"argv": ["fuzz", "--seed-range", "0:4"]}')
        elif case == "nested-command":
            argv = ["campaign", "run", "--fleet-dir", str(fleet_dir), "--",
                    "campaign", "status", str(fleet_dir)]
        elif case == "run-without-inner":
            argv = ["campaign", "run", "--fleet-dir", str(fleet_dir)]
        else:
            argv = ["campaign", "merge", str(fleet_dir)]
        err = self.one_line(argv, capsys)
        assert reason in err
        assert "Traceback" not in err
        assert not list(fleet_dir.glob("events-*.jsonl"))

    def test_campaign_worker_is_gone(self, tmp_path, capsys):
        err = self.fails_with(["campaign", "worker", "--fleet-dir", str(tmp_path)], capsys)
        assert "invalid choice: 'worker'" in err

    @pytest.mark.parametrize("flag", ["--lease-ttl", "--poll", "--min-workers",
                                      "--drain-timeout"])
    def test_retired_lease_flags_are_refused(self, tmp_path, capsys, flag):
        fleet_dir = tmp_path / "fleet"
        err = self.fails_with(["campaign", "run", "--fleet-dir", str(fleet_dir), flag, "1",
                               "--", "fuzz", "--seed-range", "0:2", "--no-replay"], capsys)
        assert "unrecognized arguments: %s" % flag in err
        assert not fleet_dir.exists()

    def test_resume_onto_an_existing_file(self, tmp_path, capsys):
        path = tmp_path / "not-a-directory"
        path.write_text("")
        err = self.one_line(["table2", "--apps", "nsubstitute", "--resume", str(path)],
                            capsys)
        assert "--resume %s" % path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--retries", "0", "table1"], "must be at least 1, got 0"),
            (["table2", "--cell-timeout", "-1"], "must be a positive number of seconds"),
            (["table2", "--cell-timeout", "0"], "must be a positive number of seconds"),
            (["table2", "--cell-timeout", "nan"], "must be a positive number of seconds"),
            (["table2", "--cell-timeout", "soon"], "invalid float value: 'soon'"),
        ],
    )
    def test_bad_resilience_options(self, argv, reason, capsys):
        # argparse's own format: usage, then "waffle-repro[ CMD]: error: ...".
        err = self.fails_with(argv, capsys)
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert len(errors) == 1 and errors[0].startswith("waffle-repro")
        assert reason in errors[0]
        assert "Traceback" not in err

    def test_malformed_chaos_spec(self):
        env = dict(os.environ, WAFFLE_CHAOS="worker_crash",
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-m", "repro", "table1"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("waffle-repro: error: WAFFLE_CHAOS='worker_crash': ")
        assert proc.stderr.count("\n") == 1

    def test_non_integer_count_is_rejected(self, capsys):
        err = self.fails_with(["table4", "--attempts", "many"], capsys)
        assert "invalid int value: 'many'" in err

    def test_positive_int_type(self):
        import argparse

        from repro.harness.cli import positive_int

        assert positive_int("1") == 1
        assert positive_int("15") == 15
        for bad in ("0", "-2", "1.5", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                positive_int(bad)
