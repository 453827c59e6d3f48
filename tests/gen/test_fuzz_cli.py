"""The fuzz driver and CLI subcommand: identity, caching, events, exit codes."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.core.config import WaffleConfig
from repro.harness import fuzz
from repro.harness.cache import PlanCache
from repro.harness.cli import main
from repro.harness.store import RESULT_SUFFIX
from repro.obs.campaign import fuzz_analytics, load_view

CONFIG = WaffleConfig(seed=0)


@pytest.fixture(autouse=True)
def _quiet_bus():
    """CLI invocations configure the process-global session and bus;
    always reset."""
    yield
    obs.disable()
    os.environ.pop(obs.OBS_DIR_ENV, None)


class TestFuzzRange:
    def test_rows_in_seed_order_with_expected_fields(self):
        rows = fuzz.fuzz_range(0, 4, config=CONFIG, check_replay=False)
        assert [r["seed"] for r in rows] == [0, 1, 2, 3]
        for row in rows:
            assert row["ok"] and not row["violations"]
            assert row["spec_hash"]

    def test_digest_identical_serial_vs_parallel(self):
        serial = fuzz.fuzz_range(0, 6, config=CONFIG, jobs=1, check_replay=False)
        parallel = fuzz.fuzz_range(0, 6, config=CONFIG, jobs=2, check_replay=False)
        assert fuzz.fuzz_digest(serial) == fuzz.fuzz_digest(parallel)

    def test_digest_identical_cold_vs_warm_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = fuzz.fuzz_range(0, 4, config=CONFIG, cache_dir=cache_dir, check_replay=False)
        warm = fuzz.fuzz_range(0, 4, config=CONFIG, cache_dir=cache_dir, check_replay=False)
        assert fuzz.fuzz_digest(cold) == fuzz.fuzz_digest(warm)
        cache = PlanCache(cache_dir)
        assert cache.stats.hits == 0  # fresh handle: counts only its own traffic
        assert len(list((tmp_path / "cache").rglob("*" + RESULT_SUFFIX))) >= 4

    def test_budget_is_part_of_the_cache_key(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        fuzz.fuzz_range(0, 2, config=CONFIG, budget=8, cache_dir=cache_dir, check_replay=False)
        before = len(list((tmp_path / "cache").rglob("*" + RESULT_SUFFIX)))
        fuzz.fuzz_range(0, 2, config=CONFIG, budget=9, cache_dir=cache_dir, check_replay=False)
        after = len(list((tmp_path / "cache").rglob("*" + RESULT_SUFFIX)))
        assert after > before

    def test_topology_table_rates(self):
        rows = fuzz.fuzz_range(0, 8, config=CONFIG, check_replay=False)
        table = fuzz.topology_table(rows)
        assert sum(b["workloads"] for b in table) == 8
        for bucket in table:
            assert bucket["detection_rate"] == 1.0


class TestViolationPlumbing:
    def _failing_row(self):
        return {
            "seed": 99, "topology": "pool", "planted": 1, "detectable": 1,
            "found": [], "sessions": 1, "runs": 8, "virtual_ms": 1.0,
            "violations": ["recall: detectable bug B1 not found"],
            "replays": {}, "ok": False, "spec_hash": "deadbeef",
        }

    def test_render_lists_violations(self):
        rows = [self._failing_row()]
        text = fuzz.render_fuzz(rows, fuzz.fuzz_digest(rows))
        assert "INVARIANT VIOLATIONS" in text
        assert "recall: detectable bug B1" in text

    def test_violation_classes(self):
        assert fuzz._violation_classes(
            ["recall: x", "soundness: y", "recall: z"]
        ) == frozenset({"recall", "soundness"})


class TestCli:
    def test_exit_zero_and_digest_printed(self, capsys):
        rc = main(["fuzz", "--seed-range", "0:3", "--no-replay"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fuzz digest:" in out
        assert "recall 100.0%" in out

    def test_json_output(self, capsys):
        rc = main(["fuzz", "--seed-range", "0:2", "--no-replay", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["fuzz"]["rows"]) == 2
        assert payload["fuzz"]["digest"]

    def test_bad_seed_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--seed-range", "5"])
        with pytest.raises(SystemExit):
            main(["fuzz", "--seed-range", "3:3"])

    def test_events_stream_feeds_analytics(self, tmp_path, capsys):
        events_dir = str(tmp_path / "events")
        rc = main(["fuzz", "--seed-range", "0:4", "--no-replay",
                   "--obs-dir", events_dir])
        assert rc == 0
        capsys.readouterr()
        view, streams = load_view(events_dir)
        assert streams
        generated = fuzz_analytics(view)
        assert generated["workloads"] == 4
        assert generated["failed"] == 0

    def test_rerun_dedups_in_analytics(self, tmp_path, capsys):
        events_dir = str(tmp_path / "events")
        for _ in range(2):
            assert main(["fuzz", "--seed-range", "0:3", "--no-replay",
                         "--obs-dir", events_dir]) == 0
            obs.disable()
        capsys.readouterr()
        view, _ = load_view(events_dir)
        assert fuzz_analytics(view)["workloads"] == 3


class TestReplayCount:
    """Plain ``fuzz`` verifies each dossier with one replay; under
    ``--obs-dir``, which keeps every dossier, each is also minimized."""

    ARGS = ["fuzz", "--seed-range", "0:50", "--seed", "7"]

    @staticmethod
    def _count_replays(monkeypatch, argv):
        from repro.obs import dossier as dossier_mod

        calls = []
        replay = dossier_mod.replay_schedule
        monkeypatch.setattr(
            dossier_mod, "replay_schedule",
            lambda *args, **kwargs: calls.append(1) or replay(*args, **kwargs),
        )
        assert main(argv) == 0
        return len(calls)

    def test_plain_fuzz_replays_each_dossier_once(self, monkeypatch, capsys):
        assert self._count_replays(monkeypatch, self.ARGS) == 55
        assert "fuzz digest:" in capsys.readouterr().out

    def test_kept_dossiers_are_still_minimized(self, monkeypatch, tmp_path, capsys):
        argv = ["--obs-dir", str(tmp_path / "obs")] + self.ARGS
        assert self._count_replays(monkeypatch, argv) == 148
        capsys.readouterr()
        assert len(list((tmp_path / "obs").glob("dossier-*.json"))) == 55
