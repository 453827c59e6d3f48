"""Campaign event bus: writer durability, torn-tail recovery, merging."""

import json
import os

import pytest

from repro.harness import faults
from repro.obs import eventbus


@pytest.fixture(autouse=True)
def clean_bus_state():
    """The bus is a module global; never leak it."""
    yield
    eventbus.disable()
    faults.on_chaos_fire = None


class TestWriter:
    def test_stream_opens_with_versioned_meta_line(self, tmp_path):
        bus = eventbus.configure(tmp_path)
        bus.emit("cell_begin", cell="abc", unit="u")
        bus.flush()
        lines = [json.loads(l) for l in bus.path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["v"] == eventbus.EVENT_SCHEMA_VERSION
        assert lines[0]["pid"] == os.getpid()
        assert lines[1]["type"] == "cell_begin"
        assert lines[1]["cell"] == "abc"

    def test_sequence_numbers_are_monotonic(self, tmp_path):
        bus = eventbus.configure(tmp_path)
        records = [bus.emit("cache", action="hit") for _ in range(5)]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]

    def test_batched_flush_commits_at_threshold(self, tmp_path):
        bus = eventbus.configure(tmp_path)
        for _ in range(bus.FLUSH_EVERY - 1):
            bus.emit("cache", action="hit")
            bus.maybe_flush()
        assert not bus.path.exists()  # still buffered
        bus.emit("cache", action="hit")
        bus.maybe_flush()
        assert bus.path.exists()
        # The meta line opens the file on its first write.
        assert len(bus.path.read_text().splitlines()) == bus.FLUSH_EVERY + 1

    def test_in_memory_bus_writes_no_files(self, tmp_path):
        bus = eventbus.configure(None)
        seen = []
        bus.add_listener(seen.append)
        bus.emit("fanout", unit="u", cells=3, jobs=1)
        bus.flush()
        assert bus.path is None
        assert [e["type"] for e in seen] == ["fanout"]

    def test_listener_exceptions_never_reach_the_emitter(self, tmp_path):
        bus = eventbus.configure(None)
        bus.add_listener(lambda event: (_ for _ in ()).throw(RuntimeError("boom")))
        bus.emit("cache", action="hit")  # must not raise

    def test_module_emit_is_a_noop_when_disabled(self):
        assert eventbus.bus() is None
        eventbus.emit("cache", action="hit")  # must not raise

    def test_fork_reset_gives_the_child_a_fresh_stream(self, tmp_path):
        parent = eventbus.configure(tmp_path)
        parent.emit("cache", action="hit")  # buffered, the parent's to write
        eventbus._reset_after_fork()
        child = eventbus.bus()
        assert child is not parent
        assert child.directory == tmp_path
        assert child.pending == []
        child.flush()
        (meta,) = [json.loads(l) for l in child.path.read_text().splitlines()]
        assert meta["type"] == "meta" and meta["writer"] == child.writer

    def test_fork_reset_drops_an_in_memory_bus(self):
        eventbus.configure(None)
        eventbus._reset_after_fork()
        assert eventbus.bus() is None


class TestChaosWiring:
    def test_configure_wires_the_chaos_observer(self, tmp_path):
        eventbus.configure(tmp_path)
        assert faults.on_chaos_fire is eventbus._on_chaos_fire

    def test_chaos_fire_lands_in_the_stream(self, tmp_path):
        bus = eventbus.configure(tmp_path)
        faults.configure("seed=1,worker_crash=1.0")
        try:
            assert faults.should_fire("worker_crash", "cell-key", 1)
        finally:
            faults.disable()
        bus.flush()
        events = [json.loads(l) for l in bus.path.read_text().splitlines()]
        chaos = [e for e in events if e["type"] == "chaos"]
        assert len(chaos) == 1
        assert chaos[0]["site"] == "worker_crash"
        assert chaos[0]["key"] == "cell-key"


class TestTornTailRecovery:
    def _stream(self, tmp_path, events, tail=None, name="events-1-1.jsonl"):
        path = tmp_path / name
        meta = {"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION, "writer": "1-1"}
        body = "".join(json.dumps(r) + "\n" for r in [meta] + events)
        if tail is not None:
            body += tail  # no trailing newline: a killed writer's artifact
        path.write_text(body)
        return path

    def test_unterminated_tail_is_recovered_not_fatal(self, tmp_path):
        path = self._stream(
            tmp_path,
            [{"type": "cache", "seq": 1, "t": 1.0, "action": "hit"}],
            tail='{"type": "cell_end", "trunc',
        )
        stream = eventbus.read_stream(path)
        assert stream.recovered == 1
        assert stream.parse_errors == []
        assert any("truncated final line" in w for w in stream.warnings)
        assert len(stream.events) == 1  # committed lines still load

    def test_interior_bad_line_stays_a_parse_error(self, tmp_path):
        path = tmp_path / "events-2-2.jsonl"
        path.write_text('not json\n{"type": "cache", "seq": 1}\n')
        stream = eventbus.read_stream(path)
        assert len(stream.parse_errors) == 1
        assert stream.recovered == 0

    def test_committed_bad_final_line_stays_a_parse_error(self, tmp_path):
        # Newline-terminated garbage was committed by the writer, not
        # cut off by a kill: corruption, not noise.
        path = tmp_path / "events-3-3.jsonl"
        path.write_text("not json\n")
        stream = eventbus.read_stream(path)
        assert len(stream.parse_errors) == 1
        assert stream.recovered == 0

    def test_empty_stream_warns(self, tmp_path):
        path = tmp_path / "events-4-4.jsonl"
        path.write_text("")
        stream = eventbus.read_stream(path)
        assert any("empty event stream" in w for w in stream.warnings)

    def test_missing_meta_line_warns(self, tmp_path):
        path = tmp_path / "events-5-5.jsonl"
        path.write_text('{"type": "cache", "seq": 1, "action": "hit"}\n')
        stream = eventbus.read_stream(path)
        assert any("no meta line" in w for w in stream.warnings)

    def test_schema_version_mismatch_warns(self, tmp_path):
        path = tmp_path / "events-6-6.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION + 1})
            + "\n"
            + json.dumps({"type": "cache", "seq": 1, "action": "hit"})
            + "\n"
        )
        stream = eventbus.read_stream(path)
        assert any("schema version" in w for w in stream.warnings)


def _worker_stream(tmp_path, writer, stamps):
    """A hand-built stream: one cell_end per (t, cell) pair."""
    path = tmp_path / ("events-%s.jsonl" % writer)
    records = [{"type": "meta", "v": eventbus.EVENT_SCHEMA_VERSION, "writer": writer}]
    for seq, (t, cell) in enumerate(stamps, start=1):
        records.append(
            {"type": "cell_end", "seq": seq, "t": t, "cell": cell, "status": "ok"}
        )
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestMerge:
    def test_merge_interleaves_by_time_writer_seq(self, tmp_path):
        a = _worker_stream(tmp_path, "a", [(1.0, "a1"), (3.0, "a2")])
        b = _worker_stream(tmp_path, "b", [(2.0, "b1"), (4.0, "b2")])
        merged = eventbus.merge_events(
            [eventbus.read_stream(a), eventbus.read_stream(b)]
        )
        assert [e["cell"] for e in merged] == ["a1", "b1", "a2", "b2"]

    def test_backward_clock_is_clamped_within_a_writer(self, tmp_path):
        a = _worker_stream(tmp_path, "a", [(5.0, "a1"), (2.0, "a2")])
        merged = eventbus.merge_events([eventbus.read_stream(a)])
        # seq is ground truth within a writer: a2 stays after a1.
        assert [e["cell"] for e in merged] == ["a1", "a2"]
        assert merged[1]["t"] == 5.0

    def test_merged_file_is_byte_identical_either_input_order(self, tmp_path):
        a = eventbus.read_stream(
            _worker_stream(tmp_path, "a", [(1.0, "a1"), (2.5, "a2"), (2.5, "a3")])
        )
        b = eventbus.read_stream(
            _worker_stream(tmp_path, "b", [(2.5, "b1"), (3.0, "b2")])
        )
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        count1 = eventbus.write_merged([a, b], out1)
        count2 = eventbus.write_merged([b, a], out2)
        assert count1 == count2 == 5
        assert out1.read_bytes() == out2.read_bytes()

    def test_merged_file_reads_back_as_a_stream(self, tmp_path):
        a = eventbus.read_stream(_worker_stream(tmp_path, "a", [(1.0, "a1")]))
        out = tmp_path / "merged.jsonl"
        eventbus.write_merged([a], out)
        stream = eventbus.read_stream(out)
        assert stream.meta.writer == "merged"
        assert stream.meta.version == eventbus.EVENT_SCHEMA_VERSION
        assert len(stream.events) == 1

    def test_stream_paths_accepts_file_or_directory(self, tmp_path):
        path = _worker_stream(tmp_path, "a", [(1.0, "a1")])
        assert eventbus.stream_paths(tmp_path) == [path]
        assert eventbus.stream_paths(path) == [path]
        assert eventbus.stream_paths(tmp_path / "missing.jsonl") == []


class TestV1Compatibility:
    """Schema v2 added vocabulary without touching any v1 field, so the
    checked-in v1 fixture must read, fold and merge exactly as it did
    when written."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "events-v1.jsonl")

    def test_fixture_reads_without_warnings(self):
        stream = eventbus.read_stream(self.FIXTURE)
        assert stream.meta.version == 1
        assert 1 in eventbus.SUPPORTED_EVENT_VERSIONS
        assert stream.warnings == []
        assert stream.parse_errors == []
        assert stream.recovered == 0
        assert len(stream.events) == 13
        assert all(e["type"] in eventbus.EVENT_TYPES for e in stream.events)

    def test_fixture_folds_into_a_campaign_view(self):
        from repro.obs import campaign as campaign_mod

        view, streams = campaign_mod.load_view(self.FIXTURE)
        assert len(streams) == 1
        assert view.warnings == []
        assert view.cells_expected == 3
        assert view.by_status("ok") == 2
        assert view.by_status("quarantined") == 1
        assert view.retries == 1
        assert view.faults == {"transient_io": 1}
        assert view.finished and view.finished[0]["ok"] is True

    def test_fixture_merges_with_a_v2_stream(self, tmp_path):
        bus = eventbus.configure(tmp_path)
        bus.emit("store", action="publish", cell="0a1b2c3d4e5f6071", status="ok")
        bus.emit("store", action="hit", cell="0a1b2c3d4e5f6071", status="ok")
        bus.flush()
        eventbus.disable()
        old = eventbus.read_stream(self.FIXTURE)
        new = eventbus.read_stream(bus.path)
        out = tmp_path / "merged.jsonl"
        count = eventbus.write_merged([old, new], out)
        assert count == 15
        merged = eventbus.read_stream(out)
        assert merged.warnings == []
        types = [e["type"] for e in merged.events]
        assert "campaign_begin" in types and "store" in types


class TestThreadSafety:
    def test_concurrent_emits_get_unique_seqs_and_all_land(self, tmp_path):
        import threading

        bus = eventbus.configure(tmp_path)
        per_thread, threads = 200, 8

        def hammer(worker):
            for beat in range(per_thread):
                bus.emit("chaos", site="w%d" % worker, key="c", attempt=beat)
                if beat % 50 == 0:
                    bus.flush()

        pool = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        bus.flush()
        stream = eventbus.read_stream(bus.path)
        beats = [e for e in stream.events if e["type"] == "chaos"]
        assert len(beats) == per_thread * threads
        seqs = [e["seq"] for e in beats]
        assert len(set(seqs)) == len(seqs)  # no duplicated sequence numbers
        assert stream.parse_errors == []  # no interleaved torn lines
