"""Campaign event bus: a durable, schema-versioned JSONL event stream.

Per-run telemetry (:mod:`repro.obs.telemetry`) and forensic dossiers
(:mod:`repro.obs.dossier`) explain what a single run did *after* it
finished; this module is the campaign-level plane above them: an
append-only stream of campaign/cell/attempt lifecycle, cache, fault,
chaos, watchdog, detection and checkpoint events, written as it
happens. It is what ``campaign status`` renders live, what
``campaign merge`` combines across workers, and what ``obs report``
folds into its time-to-first-detection and generated-workload
sections.

The :class:`Stream` writer and :func:`read_stream` reader here are
also the telemetry session's (``telemetry-<pid>-<token>.jsonl``), so
both files share one durability model:

* **fork-safe** -- one file per writing process; a forked worker drops
  the parent's buffered records (they are the parent's to write) and
  opens its own stream, so streams never interleave within a file;
* **batched with hard points** -- records buffer up to
  :attr:`Stream.FLUSH_EVERY`; forked workers hard-flush per cell (they
  can die without atexit) and the CLI flushes at end-of-command;
* **torn-tail tolerant** -- a process killed mid-append commits at most
  one partial final line; readers recover (skip and count) an
  unterminated, undecodable tail instead of raising, and the
  reconciliation gates tolerate exactly that many missing events.

Every stream begins with a ``meta`` line carrying the schema version
(:data:`EVENT_SCHEMA_VERSION`) and the writer identity; readers surface
a version mismatch as a warning rather than guessing at field
semantics.

The bus is **off by default**: :func:`bus` returns None and every
guarded emission site pays one ``is None`` check
(``benchmarks/bench_obs.py`` keeps that budget honest). It activates
with telemetry (``--obs-dir`` / ``WAFFLE_OBS_DIR``, in the same
directory), on ``campaign run``'s fleet directory, or in-memory only
(no directory) for ``--progress`` rendering without an artifact.

Events are strictly observational: nothing reads them back into the
simulation, so campaigns stay bit-identical with the bus on or off.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Bump when an event's field semantics change; readers warn on
#: mismatch instead of misinterpreting old streams. Version 2 added
#: ``store`` and the lease-based fleet's vocabulary, since retired
#: (:data:`RETIRED_EVENT_TYPES`); every v1 event kept its exact shape,
#: so v1 streams stay readable (see :data:`SUPPORTED_EVENT_VERSIONS`).
EVENT_SCHEMA_VERSION = 2

#: Schema versions readers accept without warning. v1 is a strict
#: subset of v2 (no field changed meaning), so old streams fold, merge
#: and render exactly as they did when written.
SUPPORTED_EVENT_VERSIONS = (1, 2)

#: Stream file naming convention (distinct from ``telemetry-*.jsonl``).
STREAM_GLOB = "events-*.jsonl"

#: The event vocabulary. ``meta`` opens every stream; everything else
#: is campaign traffic. Renderers ignore unknown types (forward
#: compatibility); the CI gate flags them (schema discipline).
EVENT_TYPES = (
    "meta",
    "campaign_begin",    # one CLI campaign command started
    "campaign_end",      # ... and finished (ok, wall_s)
    "fanout",            # an experiment fanned N cells out (unit, cells, jobs)
    "cell_begin",        # one cell started executing (cell, unit)
    "cell_end",          # ... finalized (status ok|quarantined|failed, attempt, wall_s)
    "cell_retry",        # a retryable fault scheduled another attempt
    "cell_resumed",      # satisfied from the campaign journal without running
    "watchdog",          # a cell blew its wall-clock deadline and was killed
    "fault",             # one classified fault (kind, error, cell, attempt)
    "chaos",             # a chaos site fired (site, key)
    "checkpoint",        # the campaign journal finalized a cell
    "cache",             # run-cache lookup (action hit|miss, kind)
    "detection",         # one detection attempt concluded (bug, tool, matched, runs)
    "fuzz_workload",     # one generated workload oracle-verified (seed, topology, ok)
    # -- v2 --
    "store",             # artifact store traffic (action publish|hit|corrupt)
)

#: Event types no writer emits any more: the v2 worker and lease
#: vocabulary of the retired lease-based fleet, and the per-run
#: ``prep`` and ``detect_run`` work-product copies (the detection
#: funnel reads the telemetry counters instead). :func:`read_stream`
#: drops these from streams written before they were retired (counting
#: them in :attr:`EventStream.retired`), so such a directory reads as
#: if they had never been written.
RETIRED_EVENT_TYPES = (
    "worker_begin", "worker_end", "heartbeat",
    "lease_acquire", "lease_release", "lease_expire", "lease_steal",
    "prep", "detect_run",
)


#: One compact encoder for every stream line (``json.dumps`` with a
#: ``separators`` argument would build a new encoder per record).
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass
class StreamMeta:
    """The identity line opening one event stream."""

    writer: str = "?"
    version: Optional[int] = None
    pid: int = 0
    started_unix: float = 0.0


@dataclass
class EventStream:
    """One parsed stream file (``events-*.jsonl`` or ``telemetry-*.jsonl``)."""

    path: str
    meta: StreamMeta
    events: List[dict] = field(default_factory=list)
    #: Torn tail lines recovered (skipped); the reconciliation tolerance.
    recovered: int = 0
    #: Dropped events of :data:`RETIRED_EVENT_TYPES`, by type.
    retired: Dict[str, int] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    parse_errors: List[str] = field(default_factory=list)


class Stream:
    """One process's append-only ``<prefix>-<pid>-<token>.jsonl``
    stream under ``directory``.

    The only JSONL writer in :mod:`repro.obs`: the campaign event bus
    (``events-<pid>-<token>.jsonl``) and the telemetry session
    (``telemetry-<pid>-<token>.jsonl``) both write through it, and
    :func:`read_stream` is the one reader. Records buffer in
    :attr:`pending` and land as whole lines, one buffer per write, so a
    killed writer can tear at most the final line. The first write
    opens the file with a ``meta`` line carrying the stream format
    version and the writer identity. Without a directory the stream is
    in-memory only: flushing drops the buffer.
    """

    #: Buffered records before :meth:`maybe_flush` actually writes.
    #: Event traffic is orders of magnitude sparser than telemetry's
    #: per-decision records, so a smaller threshold keeps the live
    #: ``campaign status`` view fresher at negligible cost.
    FLUSH_EVERY = 256

    def __init__(self, prefix: str, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None else None
        self.started_unix = time.time()
        self.writer = "%d-%d" % (os.getpid(), int(self.started_unix * 1000) % 1_000_000_000)
        self.path: Optional[Path] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.path = self.directory / ("%s-%s.jsonl" % (prefix, self.writer))
        # Any thread may emit; a lock keeps seq assignment and the
        # buffer-swap in flush() coherent. Uncontended acquisition is
        # ~100ns -- noise against the per-record JSON encode.
        self._lock = threading.Lock()
        self.pending: List[dict] = []
        self._meta: Optional[dict] = {
            "type": "meta",
            "v": EVENT_SCHEMA_VERSION,
            "writer": self.writer,
            "pid": os.getpid(),
            "started_unix": round(self.started_unix, 3),
        }

    def maybe_flush(self) -> None:
        if len(self.pending) >= self.FLUSH_EVERY:
            self.flush()

    def flush(self, *lead: dict) -> None:
        """Append ``lead`` and then the buffered records as whole JSONL
        lines, in one write (after the ``meta`` line on the first)."""
        with self._lock:
            records = self.pending
            self.pending = []
            if self.path is None:
                return
            head = list(lead)
            if self._meta is not None:
                head.insert(0, self._meta)
                self._meta = None
        if not head and not records:
            return
        encode = _LINE_ENCODER.encode
        with open(self.path, "a") as fp:
            fp.write("".join(encode(r) + "\n" for r in head + records))


class EventBus(Stream):
    """Process-local campaign event writer.

    With a directory, events land in ``events-<pid>-<token>.jsonl``;
    without one the bus is in-memory only (listeners still fire, which
    is all ``--progress`` needs). Listeners are called synchronously
    with each record -- they must never raise into the emitting path.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        super().__init__("events", directory)
        self._seq = 0
        self._listeners: List[Callable[[dict], None]] = []

    def emit(self, etype: str, **fields: Any) -> dict:
        """Append one event (timestamped, sequence-numbered) and notify
        listeners. Returns the record (tests inspect it)."""
        with self._lock:
            self._seq += 1
            record: Dict[str, Any] = {"type": etype, "seq": self._seq, "t": round(time.time(), 6)}
            record.update(fields)
            self.pending.append(record)
        for listener in self._listeners:
            try:
                listener(record)
            except Exception:
                pass  # a renderer bug must never take down the campaign
        return record

    def add_listener(self, listener: Callable[[dict], None]) -> None:
        self._listeners.append(listener)


# ----------------------------------------------------------------------
# Process-global activation (the same model as obs.session)
# ----------------------------------------------------------------------

_bus: Optional[EventBus] = None


def bus() -> Optional[EventBus]:
    """The active event bus, or None (the zero-cost disabled path)."""
    return _bus


def active() -> bool:
    return _bus is not None


def emit(etype: str, **fields: Any) -> None:
    """Module-level convenience: emit when a bus is active, else no-op."""
    if _bus is not None:
        _bus.emit(etype, **fields)


def configure(directory: Optional[os.PathLike] = None) -> EventBus:
    """Activate the bus, flushing any previous one first.

    ``directory=None`` gives an in-memory bus (listeners only) for
    ``--progress`` without a durable artifact.
    """
    global _bus
    if _bus is not None:
        _bus.flush()
    _bus = EventBus(directory)
    _wire_chaos()
    return _bus


def disable() -> None:
    global _bus
    if _bus is not None:
        _bus.flush()
    _bus = None


def flush() -> None:
    if _bus is not None:
        _bus.flush()


def _reset_after_fork() -> None:
    # Called from the obs package's one fork handler. A forked worker
    # inherits the parent's bus -- buffered events and file token
    # included. The buffered events are the parent's to write; the
    # child gets a fresh stream keyed by its own pid (or no bus at all
    # when the parent's was in-memory only: a worker has no terminal to
    # render progress on).
    global _bus
    if _bus is None:
        return
    directory = _bus.directory
    _bus = None
    if directory is not None:
        _bus = EventBus(directory)
        _wire_chaos()


def _on_chaos_fire(site: str, key: str, attempt: int) -> None:
    """Chaos-harness callback: record every injected fault's firing."""
    if _bus is not None:
        _bus.emit("chaos", site=site, key=str(key)[:48], attempt=attempt)


def _wire_chaos() -> None:
    """Register the chaos callback on the fault taxonomy when the
    harness is loaded. Via ``sys.modules`` rather than an import:
    :mod:`repro.harness.faults` is a leaf the obs layer must not drag
    in (or cycle with) at import time. The supervisor re-wires on
    activation for the case where chaos loads after the bus.
    """
    faults_mod = sys.modules.get("repro.harness.faults")
    if faults_mod is not None and hasattr(faults_mod, "on_chaos_fire"):
        faults_mod.on_chaos_fire = _on_chaos_fire


# ----------------------------------------------------------------------
# Reading streams back
# ----------------------------------------------------------------------


def read_stream(path: os.PathLike) -> EventStream:
    """Parse one stream (events or telemetry), recovering a torn tail.

    An unterminated, undecodable final line is the artifact of a killed
    writer -- counted and skipped, never raised; an undecodable
    *committed* line (newline-terminated, or not the tail) is a parse
    error. A missing or version-skewed ``meta`` line is a warning.
    """
    target = Path(path)
    stream = EventStream(path=str(target), meta=StreamMeta())
    try:
        text = target.read_text()
    except OSError as exc:
        stream.warnings.append("%s: unreadable event stream (%s)" % (target.name, exc))
        return stream
    lines = text.splitlines()
    if not lines:
        stream.warnings.append("%s: empty event stream" % target.name)
        return stream
    truncated_tail = not text.endswith("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if truncated_tail and line_no == len(lines):
                stream.recovered += 1
                stream.warnings.append(
                    "%s: truncated final line recovered [corrupt_record] "
                    "(killed worker?)" % target.name
                )
            else:
                stream.parse_errors.append("%s:%d: %s" % (target.name, line_no, exc))
            continue
        if record.get("type") == "meta":
            stream.meta = StreamMeta(
                writer=str(record.get("writer", "?")),
                version=record.get("v"),
                pid=record.get("pid", 0),
                started_unix=record.get("started_unix", 0.0),
            )
            if record.get("v") not in SUPPORTED_EVENT_VERSIONS:
                stream.warnings.append(
                    "%s: event schema version %r not in supported %s -- "
                    "fields may be misread"
                    % (target.name, record.get("v"), list(SUPPORTED_EVENT_VERSIONS))
                )
            continue
        if record.get("type") in RETIRED_EVENT_TYPES:
            stream.retired[record["type"]] = stream.retired.get(record["type"], 0) + 1
            continue
        stream.events.append(record)
    if stream.meta.version is None and stream.events:
        stream.warnings.append("%s: event stream has no meta line" % target.name)
    return stream


def stream_paths(path_or_dir: os.PathLike, pattern: str = STREAM_GLOB) -> List[Path]:
    """The stream files under ``path_or_dir`` (a single stream file, a
    merged file, or a directory of ``pattern`` files)."""
    root = Path(path_or_dir)
    if root.is_dir():
        return sorted(root.glob(pattern))
    if root.exists():
        return [root]
    return []


def load_streams(path_or_dir: os.PathLike, pattern: str = STREAM_GLOB) -> List[EventStream]:
    return [read_stream(path) for path in stream_paths(path_or_dir, pattern)]


# ----------------------------------------------------------------------
# Merging worker streams
# ----------------------------------------------------------------------


def _monotonic_events(stream: EventStream) -> List[dict]:
    """One stream's events, annotated with the writer identity and with
    timestamps reconciled to be monotonic *within the writer*.

    A stepped clock can make a writer's own wall times run backwards;
    its sequence numbers are the ground truth for its internal order,
    so timestamps are clamped forward (``t = max(t, prev t)``) rather
    than letting a skewed clock reorder a single worker's history.
    """
    out: List[dict] = []
    previous = float("-inf")
    for event in sorted(stream.events, key=lambda e: e.get("seq", 0)):
        record = dict(event)
        record["w"] = stream.meta.writer
        stamp = float(record.get("t", 0.0))
        if stamp < previous:
            stamp = previous
            record["t"] = stamp
        previous = stamp
        out.append(record)
    return out


def merge_events(streams: Sequence[EventStream]) -> List[dict]:
    """Combine worker streams into one coherent, deterministic timeline.

    Total order: (reconciled timestamp, writer id, per-writer seq).
    The key is unique and independent of input order, so merging the
    same streams in any order yields an identical timeline -- the
    property the merge-determinism test pins byte-for-byte.
    """
    merged: List[dict] = []
    for stream in streams:
        merged.extend(_monotonic_events(stream))
    merged.sort(key=lambda e: (float(e.get("t", 0.0)), str(e.get("w", "")), e.get("seq", 0)))
    return merged


def write_merged(streams: Sequence[EventStream], out_path: os.PathLike) -> int:
    """Write one merged stream; returns the number of events written.

    The merged file opens with its own ``meta`` line naming the source
    writers (sorted -- input order must not leak into the bytes) and is
    readable by every stream consumer, :func:`read_stream` included.
    """
    merged = merge_events(streams)
    meta = {
        "type": "meta",
        "v": EVENT_SCHEMA_VERSION,
        "writer": "merged",
        "merged_from": sorted(s.meta.writer for s in streams),
    }
    target = Path(out_path)
    dumps = json.dumps
    body = "".join(
        dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        for record in [meta] + merged
    )
    tmp = target.with_name(target.name + ".tmp.%d" % os.getpid())
    try:
        tmp.write_text(body)
        os.replace(tmp, target)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    return len(merged)
