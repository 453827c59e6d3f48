"""Artifact store: the harness's one checksummed record format.

Every cell is a deterministic function of its content-addressed key
(see :func:`repro.harness.supervisor.cell_key`), so a stored result is
bit-identical to re-execution. Three users keep records in this format:

* the fleet (:mod:`repro.harness.fleet`) publishes finalized cells to
  ``<fleet-dir>/store/`` and every other worker (and the coordinator's
  merge) reads them back instead of re-executing;
* ``--resume DIR`` opens a store in DIR: the supervisor publishes every
  finalized cell there, and a resumed campaign takes ``ok`` records and
  re-attempts the degraded ones;
* the plan cache (:mod:`repro.harness.cache`) keeps its entries as
  records named ``<kind>-<digest>``.

Record format -- one ``cell-<key>.res`` file per record:

* line 1: a JSON header ``{"v", "key", "status", "attempts", "worker",
  "sha256"}`` where ``sha256`` digests the body;
* the rest: a pickle of the result (None for degraded cells). Reading
  a record unpickles it, so a store directory must be as trusted as
  the code that runs the campaign.

Record integrity: a record is written to a temp file in the store
directory and renamed into place (with an fsync before the rename, and
of the directory after it, when the store is durable), so a record
that exists is whole. A read verifies the header version, the key and
the body checksum before unpickling; any failure -- unreadable file,
torn header, checksum or key mismatch, unpicklable body -- renames the
record to ``*.corrupt`` and reports a miss, never an exception: the
reader recomputes the cell, which is always sound.

Publication is idempotent: when a record already exists it stands
(another worker won the race; by determinism it is byte-identical),
except that an ``ok`` result replaces a degraded (``quarantined`` /
``failed``) tombstone -- the resumed re-attempt of a failed cell.
Tombstones let workers waiting on a cell another worker gave up on see
the verdict instead of spinning forever.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Iterator, Optional

from ..core.persistence import fsync_dir
from ..obs import eventbus
from . import faults

#: Store record naming convention (one file per record).
RESULT_PREFIX = "cell-"
RESULT_SUFFIX = ".res"

#: Store record format version (the header's ``v`` field).
STORE_FORMAT_VERSION = 1


@dataclasses.dataclass
class CellRecord:
    """One fetched store record."""

    key: str
    status: str  # ok | quarantined | failed
    result: Any
    attempts: int = 1
    worker: str = "?"
    sha256: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def record_path(directory: Path, key: str) -> Path:
    return directory / ("%s%s%s" % (RESULT_PREFIX, key, RESULT_SUFFIX))


def write_record(target: Path, key: str, status: str, result: Any,
                 attempts: int = 1, worker: str = "?", fsync: bool = True) -> str:
    """Write one record atomically; returns the body's sha256."""
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = {
        "v": STORE_FORMAT_VERSION,
        "key": key,
        "status": status,
        "attempts": attempts,
        "worker": worker,
        "sha256": digest,
    }
    tmp = target.with_name(target.name + ".tmp.%d" % os.getpid())
    with open(tmp, "wb") as fp:
        fp.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)
        if fsync:
            fp.flush()
            os.fsync(fp.fileno())
    os.replace(tmp, target)
    if fsync:
        fsync_dir(target.parent)
    return digest


def read_record(target: Path, key: str) -> CellRecord:
    """Read and verify one record.

    Raises :class:`~repro.harness.faults.CorruptRecordFault` on any
    integrity failure; the caller quarantines it with :func:`quarantine`.
    """
    # Chaos site: deterministically corrupt the record before the read,
    # exercising the quarantine path (keyed by file name).
    faults.maybe_corrupt_record(target)
    try:
        head, _, payload = target.read_bytes().partition(b"\n")
        header = json.loads(head.decode("utf-8"))
        if header.get("v") != STORE_FORMAT_VERSION:
            raise ValueError("store record version %r" % header.get("v"))
        if header.get("key") != key:
            raise ValueError("store record names key %r" % header.get("key"))
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise ValueError("store record failed checksum")
        result = pickle.loads(payload)
    except (OSError, ValueError, AttributeError, ImportError, EOFError,
            pickle.PickleError) as exc:
        raise faults.CorruptRecordFault("%s: %s" % (target.name, exc))
    return CellRecord(
        key=key,
        status=str(header.get("status", "ok")),
        result=result,
        attempts=int(header.get("attempts", 1)),
        worker=str(header.get("worker", "?")),
        sha256=str(header.get("sha256", "")),
    )


def quarantine(target: Path) -> None:
    """Move a record that failed verification out of the namespace."""
    try:
        os.replace(target, target.with_name(target.name + ".corrupt"))
    except OSError:
        pass  # the quarantine rename itself must never crash a run


@dataclasses.dataclass
class StoreStats:
    """Traffic counters for one store handle (tests and the bench)."""

    publishes: int = 0
    races: int = 0  # publish found the record already present
    hits: int = 0
    misses: int = 0
    corrupt: int = 0


class ArtifactStore:
    """File-backed result exchange over a (possibly shared) directory."""

    def __init__(self, directory: os.PathLike, fsync: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.stats = StoreStats()

    def path(self, key: str) -> Path:
        return record_path(self.directory, key)

    def publish(self, key: str, status: str, result: Any,
                attempts: int = 1, worker: str = "?") -> CellRecord:
        """Make a finalized cell visible, atomically. Returns the record
        as published, or the existing record when that one stands."""
        target = self.path(key)
        if target.exists():
            existing = self.fetch(key, count_stats=False)
            if existing is not None and (existing.ok or status != "ok"):
                self.stats.races += 1
                return existing
            # Corrupt (now quarantined) or a tombstone this ok result
            # supersedes: publish over it.
        digest = write_record(target, key, status, result, attempts, worker, self.fsync)
        self.stats.publishes += 1
        eventbus.emit("store", action="publish", cell=key[:16], status=status)
        return CellRecord(key=key, status=status, result=result, attempts=attempts,
                          worker=worker, sha256=digest)

    def fetch(self, key: str, count_stats: bool = True) -> Optional[CellRecord]:
        """A published record, checksum-verified; None on a miss or a
        quarantined corrupt record. ``count_stats=False`` suppresses
        the hit/miss accounting for internal probes (publish-race
        reads, waiters polling)."""
        target = self.path(key)
        record = None
        if target.exists():
            try:
                record = read_record(target, key)
            except faults.CorruptRecordFault:
                self.stats.corrupt += 1
                eventbus.emit("store", action="corrupt", cell=target.name[:32])
                quarantine(target)
        if count_stats:
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                eventbus.emit("store", action="hit", cell=key[:16], status=record.status)
        return record

    def keys(self) -> Iterator[str]:
        """Every published cell key, sorted (deterministic merge order)."""
        for path in sorted(self.directory.glob(RESULT_PREFIX + "*" + RESULT_SUFFIX)):
            yield path.name[len(RESULT_PREFIX):-len(RESULT_SUFFIX)]
