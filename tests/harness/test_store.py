"""Shared artifact store: atomic publication, checksum-verified fetch."""

from __future__ import annotations

import json

import pytest

from repro.harness import faults
from repro.harness.store import ArtifactStore, RESULT_PREFIX, RESULT_SUFFIX


@pytest.fixture(autouse=True)
def chaos_off():
    faults.disable()
    yield
    faults.disable()


KEY = "a" * 32
OTHER = "b" * 32


class TestPublishFetch:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        published = store.publish(KEY, "ok", {"rows": [1, 2, 3]}, attempts=2, worker="w1")
        fetched = store.fetch(KEY)
        assert fetched is not None
        assert fetched.ok
        assert fetched.result == {"rows": [1, 2, 3]}
        assert fetched.attempts == 2
        assert fetched.worker == "w1"
        assert fetched.sha256 == published.sha256
        assert store.stats.publishes == 1
        assert store.stats.hits == 1

    def test_missing_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.fetch(KEY) is None
        assert store.stats.misses == 1
        assert store.fetch(KEY, count_stats=False) is None
        assert store.stats.misses == 1

    def test_degraded_tombstones_carry_no_result(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "quarantined", None, attempts=1)
        store.publish(OTHER, "failed", None, attempts=3)
        assert store.fetch(KEY).status == "quarantined"
        record = store.fetch(OTHER)
        assert record.status == "failed"
        assert not record.ok
        assert record.result is None

    def test_first_writer_wins(self, tmp_path):
        first = ArtifactStore(tmp_path)
        second = ArtifactStore(tmp_path)
        first.publish(KEY, "ok", "original", worker="w1")
        kept = second.publish(KEY, "ok", "racing duplicate", worker="w2")
        # The existing bytes stand; the racer gets them back.
        assert kept.result == "original"
        assert kept.worker == "w1"
        assert second.stats.races == 1
        assert second.fetch(KEY).result == "original"

    def test_ok_result_supersedes_a_degraded_tombstone(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "failed", None, attempts=3)
        replaced = store.publish(KEY, "ok", "recovered", attempts=1)
        assert replaced.result == "recovered"
        assert store.fetch(KEY).status == "ok"
        assert store.stats.races == 0
        # ... but nothing supersedes an ok record.
        kept = store.publish(KEY, "failed", None, attempts=2)
        assert kept.ok and kept.result == "recovered"
        assert store.stats.races == 1

    def test_a_later_tombstone_keeps_the_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "failed", None, attempts=3, worker="w1")
        kept = store.publish(KEY, "quarantined", None, attempts=1, worker="w2")
        assert (kept.status, kept.worker) == ("failed", "w1")

    def test_keys_sorted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(OTHER, "ok", 2)
        store.publish(KEY, "ok", 1)
        assert list(store.keys()) == [KEY, OTHER]


class TestIntegrity:
    def _target(self, tmp_path):
        return tmp_path / (RESULT_PREFIX + KEY + RESULT_SUFFIX)

    def test_flipped_payload_byte_quarantines_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "ok", {"value": 42})
        target = self._target(tmp_path)
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert store.fetch(KEY) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        assert not target.exists()
        assert target.with_name(target.name + ".corrupt").exists()

    def test_torn_header_quarantines_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._target(tmp_path).write_bytes(b'{"v": 1, "key":')
        assert store.fetch(KEY) is None
        assert store.stats.corrupt == 1

    @pytest.mark.parametrize("tear", [
        lambda blob: b"",
        lambda blob: blob[:len(blob) // 2],
        lambda blob: blob[:blob.index(b"\n") + 1],
        lambda blob: bytes(len(blob)),
    ], ids=["emptied", "cut-mid-body", "header-only", "zero-filled"])
    def test_what_a_host_crash_leaves_reads_as_a_miss(self, tmp_path, tear):
        """Records are renamed into place without a flush to stable
        storage, so after a power loss a named record may hold any of
        these; each must quarantine as a miss and republish whole."""
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "ok", {"rows": list(range(100))})
        target = self._target(tmp_path)
        target.write_bytes(tear(target.read_bytes()))
        assert store.fetch(KEY) is None
        assert (store.stats.corrupt, store.stats.misses) == (1, 1)
        assert target.with_name(target.name + ".corrupt").exists()
        store.publish(KEY, "ok", {"rows": list(range(100))})
        assert store.fetch(KEY).result == {"rows": list(range(100))}

    def test_wrong_key_in_header_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(OTHER, "ok", 7)
        source = tmp_path / (RESULT_PREFIX + OTHER + RESULT_SUFFIX)
        # A record renamed onto the wrong key (misplaced rsync, copy
        # typo) must not masquerade as that key's result.
        source.rename(self._target(tmp_path))
        assert store.fetch(KEY) is None
        assert store.stats.corrupt == 1

    def test_unknown_format_version_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "ok", 7)
        target = self._target(tmp_path)
        head, _, payload = target.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["v"] = 99
        target.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert store.fetch(KEY) is None
        assert store.stats.corrupt == 1

    def test_chaos_corruption_site_fires(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "ok", list(range(50)))
        faults.configure("seed=1,cache_corrupt=1.0")
        assert store.fetch(KEY) is None
        assert store.stats.corrupt == 1

    def test_publish_repairs_over_a_corrupt_record(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(KEY, "ok", "good")
        target = self._target(tmp_path)
        target.write_bytes(b"garbage with no header newline at all")
        repaired = store.publish(KEY, "ok", "good")
        assert repaired.result == "good"
        assert store.fetch(KEY).result == "good"
