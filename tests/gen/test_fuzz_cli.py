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
    """Every dossier is verified by one replay of its full schedule, with
    ``--obs-dir`` (which keeps them) or without; ``repro replay
    --minimize`` derives a minimal schedule on demand. The spy counts
    calls in this process, so the cells run here."""

    ARGS = ["fuzz", "--seed-range", "0:50", "--seed", "7", "--jobs", "1"]

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

    def test_kept_dossiers_are_verified_by_one_replay(self, monkeypatch, tmp_path, capsys):
        """The digests were computed over the dossiers this campaign kept
        when each was minimized eagerly: their flight events (``seq``
        left out) as the crashing run's ring and scheduler log recorded
        them, and their minimal schedules (``len_ms`` to 6 decimals) with
        the replays each took."""
        import hashlib

        from repro.obs import dossier as dossier_mod

        argv = ["--obs-dir", str(tmp_path / "obs")] + self.ARGS
        assert self._count_replays(monkeypatch, argv) == 55
        capsys.readouterr()
        paths = list((tmp_path / "obs").glob("dossier-*.json"))
        assert len(paths) == 55
        kept = sorted(
            ((dossier_mod.load_dossier(path), path) for path in paths),
            key=lambda item: (item[0].workload, item[0].report.run_index),
        )
        assert all(d.verified and d.replays_used == 1 and not d.minimized
                   and not d.flight_partial for d, _ in kept)

        def digest(rows):
            return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

        timelines = [
            [d.workload, [{k: v for k, v in e.items() if k != "seq"} for e in d.flight_events]]
            for d, _ in kept
        ]
        assert digest(timelines) == (
            "51c9e7cdac93fc6ac727b55e8b9a4f6aa59948aa197f1ba875c2d6780e984098"
        )
        rows, shrunk = [], []
        for built, path in kept:
            delays, replays, verified = dossier_mod.minimize_dossier(built, _resolve(built))
            assert verified
            if len(delays) < len(built.schedule["delays"]):
                shrunk.append((path, built, delays, replays))
            rows.append([built.workload, [[d["site"], d["nth"], round(d["len_ms"], 6)]
                                          for d in delays], replays])
        assert len(shrunk) == 38
        assert digest(rows) == (
            "a1e1e186e9557434cd2e8bd2fb82ac3f554d85b94e158a3f6e558b531d9f5929"
        )
        path, built, delays, replays = shrunk[0]
        assert main(["replay", "--minimize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
        assert "minimal schedule: %d of %d delay(s), verified by %d replay(s)" % (
            len(delays), len(built.schedule["delays"]), replays) in out
        for entry in delays:
            assert "occurrence #%d of %s -> sleep %.2fms" % (
                entry["nth"], entry["site"], entry["len_ms"]) in out


def _resolve(dossier):
    from repro.gen import registry

    return registry.resolve_test(dossier.workload).build
