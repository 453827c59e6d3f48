"""The content-addressed run cache: hits skip simulation, keys invalidate.

The determinism of the virtual-time simulator makes memoization sound;
these tests pin the contract: a warm hit returns *equal* results without
re-running anything (asserted via the runner's process-local run
counters), and any config change flips the key.
"""

import json
import pickle

import pytest

from repro import obs
from repro.core.config import DEFAULT_CONFIG
from repro.harness import cache as cache_mod
from repro.harness import faults, runner, store
from repro.harness.cache import PlanCache, config_hash, open_cache
from repro.harness.runner import baseline_run, online_pair, prepare_test
from repro.apps import get_app
from repro.obs.report import load_obs_dir, render_report


@pytest.fixture(autouse=True)
def chaos_off():
    faults.disable()
    yield
    faults.disable()


@pytest.fixture
def test_case():
    return get_app("nsubstitute").multithreaded_tests[0]


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "cache")


class TestConfigHash:
    def test_stable(self):
        assert config_hash(DEFAULT_CONFIG) == config_hash(DEFAULT_CONFIG)

    def test_seed_excluded_by_default(self):
        assert config_hash(DEFAULT_CONFIG.with_seed(1)) == config_hash(
            DEFAULT_CONFIG.with_seed(2)
        )

    def test_seed_included_on_request(self):
        assert config_hash(
            DEFAULT_CONFIG.with_seed(1), include_seed=True
        ) != config_hash(DEFAULT_CONFIG.with_seed(2), include_seed=True)

    def test_any_field_changes_hash(self):
        import dataclasses

        changed = dataclasses.replace(
            DEFAULT_CONFIG, near_miss_window_ms=DEFAULT_CONFIG.near_miss_window_ms + 1.0
        )
        assert config_hash(changed) != config_hash(DEFAULT_CONFIG)


def record_file(cache, kind, key):
    return cache._path(cache._name(kind, key))


class TestPlanCache:
    def test_miss_then_hit(self, cache):
        key = {"test": "a:b", "seed": 0}
        assert cache.get("baseline", key) is None
        cache.put("baseline", key, {"x": 1})
        assert cache.get("baseline", key) == {"x": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_survives_reopen(self, tmp_path):
        a = PlanCache(tmp_path)
        a.put("prep", {"k": 1}, {"v": [1, 2, 3]})
        b = PlanCache(tmp_path)
        assert b.get("prep", {"k": 1}) == {"v": [1, 2, 3]}

    def test_kind_partitions_keyspace(self, cache):
        cache.put("baseline", {"k": 1}, {"v": "base"})
        assert cache.get("prep", {"k": 1}) is None

    def test_entries_are_store_records(self, cache):
        key = {"k": 1}
        cache.put("prep", key, {"v": [1, 2]})
        name = cache._name("prep", key)
        assert name.startswith("prep-")
        record = store.read_record(record_file(cache, "prep", key), name)
        assert (record.status, record.result) == ("ok", {"v": [1, 2]})

    def test_torn_file_is_a_miss(self, cache):
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = record_file(cache, "prep", key)
        path.write_text("{not json")
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1

    def test_unreadable_record_is_a_quarantined_miss(self, cache):
        # An OSError on read (here: the record path is a directory, as a
        # stand-in for shared-filesystem permission/stat hiccups) must
        # degrade to a miss, never crash the campaign.
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = record_file(cache, "prep", key)
        path.unlink()
        path.mkdir()
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1

    def test_format_version_bump_invalidates(self, cache, monkeypatch):
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = record_file(cache, "prep", key)
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["v"] = store.STORE_FORMAT_VERSION + 1
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1
        # A persistence format bump renames every entry: old ones miss.
        name = cache._name("prep", key)
        monkeypatch.setattr(cache_mod, "FORMAT_VERSION", cache_mod.FORMAT_VERSION + 1)
        assert cache._name("prep", key) != name

    def test_corrupted_record_is_quarantined(self, cache):
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = record_file(cache, "prep", key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # single flipped bit-rot byte
        path.write_bytes(bytes(blob))

        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None  # a miss, never a crash
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        # Quarantined entries are never re-read: the recomputed record
        # replaces them cleanly.
        fresh.put("prep", key, {"v": 1})
        assert PlanCache(cache.directory).get("prep", key) == {"v": 1}

    def test_truncated_record_is_quarantined(self, cache):
        key = {"k": 2}
        cache.put("prep", key, {"v": [1, 2, 3]})
        path = record_file(cache, "prep", key)
        path.write_bytes(path.read_bytes()[:-16])  # torn write
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_checksum_mismatch_under_a_valid_header_is_quarantined(self, cache):
        # Header and body both parse fine but the body was silently
        # altered: only the checksum catches this class.
        key = {"k": 3}
        cache.put("prep", key, {"v": 1})
        path = record_file(cache, "prep", key)
        head, _, _ = path.read_bytes().partition(b"\n")
        path.write_bytes(head + b"\n" + pickle.dumps({"v": 2}))
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1

    def test_chaos_cache_corrupt_site(self, cache, tmp_path):
        """Under an obs session the report counts the cache from its
        ``cache`` events: quarantined records and writes equal the
        caches' own stats."""
        obs.configure(tmp_path / "obs")
        try:
            cache = PlanCache(cache.directory)
            key = {"k": 4}
            cache.put("prep", key, {"v": "payload"})
            faults.configure("seed=9,cache_corrupt=1.0")
            fresh = PlanCache(cache.directory)  # cold: forces the file read
            assert fresh.get("prep", key) is None  # chaos corrupted the read
            assert fresh.stats.corrupt == 1
            # Chaos fires once per file; the recomputed record then sticks.
            fresh.put("prep", key, {"v": "payload"})
            assert fresh.get("prep", key) == {"v": "payload"}
            obs.flush()
        finally:
            obs.disable()
        text = render_report(load_obs_dir(tmp_path / "obs"))
        writes = cache.stats.writes + fresh.stats.writes
        assert "hits 1   misses 1   writes %d" % writes in text
        assert "cache records quarantined %d " % fresh.stats.corrupt in text

    def test_every_get_verifies_the_file(self, cache):
        # There is no in-process memo: a get after a put reads the
        # record again, so post-put corruption is caught at once.
        key = {"k": 5}
        cache.put("prep", key, {"v": 1})
        path = record_file(cache, "prep", key)
        path.write_bytes(b"garbage")
        assert cache.get("prep", key) is None
        assert cache.stats.corrupt == 1

    def test_open_cache_none_and_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("WAFFLE_CACHE_DIR", raising=False)
        assert open_cache(None) is None
        monkeypatch.setenv("WAFFLE_CACHE_DIR", str(tmp_path / "envcache"))
        via_env = open_cache(None)
        assert via_env is not None
        assert via_env.directory == tmp_path / "envcache"


class TestPrepareTestCaching:
    def test_hit_returns_equal_plan_without_rerunning(self, test_case, cache):
        cold = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        recordings = runner.RECORDING_RUNS
        warm = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        assert runner.RECORDING_RUNS == recordings  # no new simulation
        assert warm.plan.to_dict() == cold.plan.to_dict()
        assert warm.run == cold.run
        assert warm.mo_sites == cold.mo_sites
        assert warm.tsv_sites == cold.tsv_sites
        assert warm.tsv_injection_sites == cold.tsv_injection_sites
        assert warm.init_instance_counts == cold.init_instance_counts
        assert warm.event_count == cold.event_count

    def test_disk_roundtrip_is_exact(self, test_case, tmp_path):
        first = PlanCache(tmp_path)
        cold = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=first, test_id="n:t")
        reopened = PlanCache(tmp_path)  # a fresh instance, as each cell opens one
        warm = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=reopened, test_id="n:t")
        assert warm.plan.to_dict() == cold.plan.to_dict()
        assert reopened.stats.hits == 1

    def test_config_change_invalidates(self, test_case, cache):
        import dataclasses

        prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        recordings = runner.RECORDING_RUNS
        changed = dataclasses.replace(
            DEFAULT_CONFIG, near_miss_window_ms=DEFAULT_CONFIG.near_miss_window_ms * 2
        )
        prepare_test(test_case, changed, seed=3, cache=cache, test_id="n:t")
        assert runner.RECORDING_RUNS == recordings + 1  # re-simulated

    def test_seed_change_invalidates(self, test_case, cache):
        prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        recordings = runner.RECORDING_RUNS
        prepare_test(test_case, DEFAULT_CONFIG, seed=4, cache=cache, test_id="n:t")
        assert runner.RECORDING_RUNS == recordings + 1

    def test_matches_uncached_result(self, test_case, cache):
        # Object ids come from a process-lifetime counter, so two fresh
        # runs differ in that provenance field (it is never consumed by
        # injection decisions); compare the plans modulo object_id.
        def norm(value):
            if isinstance(value, dict):
                return {
                    k: norm(v) for k, v in value.items() if k != "object_id"
                }
            if isinstance(value, list):
                return [norm(v) for v in value]
            return value

        cached = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        plain = prepare_test(test_case, DEFAULT_CONFIG, seed=3)
        assert norm(cached.plan.to_dict()) == norm(plain.plan.to_dict())
        assert cached.run == plain.run


class TestBaselineAndOnlinePairCaching:
    def test_baseline_hit_skips_run(self, test_case, cache):
        cold = baseline_run(test_case, seed=5, cache=cache, test_id="n:t")
        count = runner.BASELINE_RUNS
        warm = baseline_run(test_case, seed=5, cache=cache, test_id="n:t")
        assert runner.BASELINE_RUNS == count
        assert warm == cold

    def test_online_pair_hit_is_equal(self, test_case, cache):
        cold = online_pair(test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t")
        warm = online_pair(test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t")
        assert warm == cold
        plain = online_pair(test_case, DEFAULT_CONFIG, seed=5)
        assert warm == plain

    def test_tsv_mode_partitions_key(self, test_case, cache):
        basic = online_pair(test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t")
        tsv = online_pair(
            test_case, DEFAULT_CONFIG, seed=5, tsv_mode=True, cache=cache, test_id="n:t"
        )
        # Both cached under distinct keys; re-reads return the right one.
        assert online_pair(
            test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t"
        ) == basic
        assert online_pair(
            test_case, DEFAULT_CONFIG, seed=5, tsv_mode=True, cache=cache, test_id="n:t"
        ) == tsv
