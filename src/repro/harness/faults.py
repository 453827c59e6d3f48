"""Fault taxonomy and deterministic chaos injection for the harness.

Waffle's evaluation deliberately drives target programs into crashes,
deadlocks and timeouts, so the harness itself must survive every such
outcome. This module is the vocabulary the campaign supervisor
(:mod:`repro.harness.supervisor`) speaks:

* a **taxonomy** of faults a cell execution can suffer, split into
  *retryable* faults (a killed worker, a wedged cell, transient
  cache I/O, a torn or corrupted record) and *deterministic* ones
  (assertion failures, schema errors) that would fail identically on
  every retry and are quarantined instead;
* a **chaos harness** (``WAFFLE_CHAOS``) that deterministically injects
  exactly those faults -- worker crashes, hangs, cache-record
  corruption -- at configurable sites and rates, so the supervisor's
  guarantees are themselves tested. This is the same active-injection
  philosophy Waffle applies to target programs, turned on our own
  harness.

Determinism contract: whether a chaos site fires is a pure function of
``(chaos seed, site, key, attempt)`` via a SHA-256 draw, so a chaos
campaign is exactly reproducible. By default injected faults fire only
on a cell's first attempt (``attempts=1`` in the spec), so a supervised
campaign always converges: the retry runs clean.

This module is deliberately a **leaf**: stdlib imports only, so the
telemetry layer and the real-threads runtime can import the taxonomy
without dragging in the full harness package.

``WAFFLE_CHAOS`` spec format -- comma-separated ``key=value`` tokens::

    WAFFLE_CHAOS="seed=7,worker_crash=0.5,hang=0.25,hang_s=2.0,cache_corrupt=1.0"

Recognized keys: ``seed`` (int, default 0), ``attempts`` (last attempt
index on which injected faults still fire, default 1), ``hang_s``
(injected hang duration in seconds, default 3600), and one rate in
``[0, 1]`` per site in :data:`CHAOS_SITES`.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: Environment variable holding the chaos spec. Present-and-non-empty
#: means chaos is on for this process and every worker it forks.
CHAOS_ENV = "WAFFLE_CHAOS"

#: Canonical fault kinds. ``repro.obs.telemetry`` mirrors this tuple
#: (it cannot import this module at import time without initializing
#: the whole harness package); tests/harness/test_faults.py guards the
#: two copies against drifting apart.
WORKER_CRASH = "worker_crash"
HANG = "hang"
TRANSIENT_IO = "transient_io"
CORRUPT_RECORD = "corrupt_record"
DETERMINISTIC = "deterministic"
FAULT_KINDS = (WORKER_CRASH, HANG, TRANSIENT_IO, CORRUPT_RECORD, DETERMINISTIC)

#: Chaos injection sites. ``worker_crash`` and ``hang`` fire in the
#: cell fault boundary (killing / wedging the executing worker);
#: ``cache_corrupt`` flips bytes in a cache record before it is read.
CHAOS_SITES = ("worker_crash", "hang", "cache_corrupt")

#: Exit code a chaos-crashed worker dies with (mimics an OOM-kill /
#: SIGKILL'd worker: no result, no traceback, nonzero exit).
CHAOS_CRASH_EXIT = 66


# ----------------------------------------------------------------------
# Fault taxonomy
# ----------------------------------------------------------------------


class HarnessFault(Exception):
    """Base class for faults the supervisor's boundary understands.

    ``kind`` is one of :data:`FAULT_KINDS`; ``retryable`` drives the
    retry-vs-quarantine decision.
    """

    kind: str = DETERMINISTIC
    retryable: bool = False


class WorkerCrashFault(HarnessFault):
    """A worker died without delivering a result (OOM kill,
    segfault, chaos crash). The work itself may be fine: retryable."""

    kind = WORKER_CRASH
    retryable = True

    def __init__(self, message: str, exitcode: Optional[int] = None):
        super().__init__(message)
        self.exitcode = exitcode


class CellHangFault(HarnessFault):
    """A cell exceeded its wall-clock watchdog and was killed."""

    kind = HANG
    retryable = True


class TransientIOFault(HarnessFault):
    """An I/O hiccup (cache or store read/write) that a retry
    can reasonably expect not to see again."""

    kind = TRANSIENT_IO
    retryable = True


class CorruptRecordFault(HarnessFault):
    """A record failed its integrity check (checksum mismatch,
    truncation, torn write). The file is quarantined; recomputing the
    record is sound, so the fault is retryable."""

    kind = CORRUPT_RECORD
    retryable = True


class HangError(RuntimeError):
    """Structured hang report from a real-threads ``join_all``.

    Names every thread still alive at the deadline and the last
    instrumented site each one was seen at, so a wedged run is
    attributable instead of silently falling through.
    """

    def __init__(self, threads: List[Dict[str, object]], timeout_s: float):
        self.threads = threads
        self.timeout_s = timeout_s
        detail = ", ".join(
            "%s (tid %s) at %s"
            % (t.get("name", "?"), t.get("tid", "?"), t.get("site") or "<no instrumented op yet>")
            for t in threads
        )
        super().__init__(
            "%d thread(s) still alive after %.3fs: %s" % (len(threads), timeout_s, detail)
        )


def classify(exc: BaseException) -> Tuple[str, bool]:
    """Map an exception to ``(fault kind, retryable)``.

    Harness faults carry their own verdict. OS-level errors are
    presumed transient; hangs are retryable by definition. Everything
    else -- assertion failures, schema/type errors, arbitrary
    application exceptions -- is deterministic: the same inputs would
    fail the same way, so retrying burns budget without new
    information and the cell is quarantined instead.
    """
    if isinstance(exc, HarnessFault):
        return exc.kind, exc.retryable
    if isinstance(exc, HangError):
        return HANG, True
    if isinstance(exc, (OSError, EOFError)):
        return TRANSIENT_IO, True
    if isinstance(exc, MemoryError):
        return WORKER_CRASH, True
    return DETERMINISTIC, False


def describe(exc: BaseException) -> Dict[str, object]:
    """A JSON-safe fault record for crash dossiers and ``fault`` events."""
    kind, retryable = classify(exc)
    return {
        "kind": kind,
        "retryable": retryable,
        "error": type(exc).__name__,
        "detail": str(exc)[:500],
    }


# ----------------------------------------------------------------------
# Chaos configuration
# ----------------------------------------------------------------------


@dataclass
class ChaosConfig:
    """Parsed ``WAFFLE_CHAOS`` spec."""

    seed: int = 0
    #: Injected faults fire only while ``attempt <= max_attempt`` --
    #: the default of 1 makes every chaos campaign converge under
    #: retries (the retry runs clean).
    max_attempt: int = 1
    #: How long an injected hang sleeps (the watchdog must kill it).
    hang_s: float = 3600.0
    rates: Dict[str, float] = field(default_factory=dict)
    #: Sites that already fired this process, so file-level chaos
    #: (corruption) does not re-fire on every re-read of a record the
    #: supervisor just repaired.
    fired: Set[Tuple[str, str]] = field(default_factory=set)


def parse_chaos(spec: str) -> ChaosConfig:
    """Parse a ``WAFFLE_CHAOS`` spec string (raises ValueError)."""
    config = ChaosConfig()
    for token in spec.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError("chaos token %r is not key=value" % token)
        key, _, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "seed":
            config.seed = int(value)
        elif key == "attempts":
            config.max_attempt = int(value)
        elif key == "hang_s":
            config.hang_s = float(value)
        elif key in CHAOS_SITES:
            rate = float(value)
            if not 0.0 <= rate <= 1.0:
                raise ValueError("chaos rate for %r must be in [0,1], got %s" % (key, value))
            config.rates[key] = rate
        else:
            raise ValueError("unknown chaos key %r (sites: %s)" % (key, ", ".join(CHAOS_SITES)))
    return config


_chaos: Optional[ChaosConfig] = None

#: Observer called as ``on_chaos_fire(site, key, attempt)`` each time a
#: chaos site fires. Assigned from outside (the campaign event bus,
#: :mod:`repro.obs.eventbus`) so this module stays a stdlib-only leaf;
#: exceptions are swallowed -- observation must never perturb a chaos
#: campaign's determinism.
on_chaos_fire = None


def chaos() -> Optional[ChaosConfig]:
    """The active chaos config, or None when chaos is off."""
    return _chaos


def active() -> bool:
    return _chaos is not None


def configure(spec: str) -> ChaosConfig:
    global _chaos
    _chaos = parse_chaos(spec)
    return _chaos


def disable() -> None:
    global _chaos
    _chaos = None


def _configure_from_env() -> Optional[str]:
    """Configure chaos from ``WAFFLE_CHAOS``. A spec that does not parse
    leaves chaos off and is returned as an error message."""
    spec = os.environ.get(CHAOS_ENV)
    if spec:
        try:
            configure(spec)
        except ValueError as exc:
            return "%s=%r: %s" % (CHAOS_ENV, spec, exc)
    return None


def should_fire(site: str, key: str, attempt: int = 1) -> bool:
    """Deterministic chaos draw for ``(site, key, attempt)``.

    Pure function of the chaos seed and its arguments, except that a
    given ``(site, key)`` fires at most once per process (see
    :attr:`ChaosConfig.fired`) so repaired records are not re-broken in
    an endless loop.
    """
    config = _chaos
    if config is None:
        return False
    rate = config.rates.get(site, 0.0)
    if rate <= 0.0 or attempt > config.max_attempt:
        return False
    if (site, key) in config.fired:
        return False
    blob = "%d|%s|%s|%d" % (config.seed, site, key, attempt)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    if draw >= rate:
        return False
    config.fired.add((site, key))
    if on_chaos_fire is not None:
        try:
            on_chaos_fire(site, key, attempt)
        except Exception:
            pass
    return True


# ----------------------------------------------------------------------
# Chaos actuators (called from the guarded sites)
# ----------------------------------------------------------------------


def cell_prelude(key: str, attempt: int, in_child: bool) -> None:
    """The cell fault boundary's chaos hook: maybe crash or wedge.

    Both cell loops of :mod:`repro.harness.supervisor` call it before
    each cell. On a forked worker (``in_child``) a crash is the real
    thing: ``os._exit`` with no reply, like an OOM-killed worker, which
    the worker pool reads as a :class:`WorkerCrashFault` and replaces.
    In-process it is simulated by raising :class:`WorkerCrashFault`,
    which exercises the same retry machinery without taking down the
    campaign process. An injected hang sleeps for ``hang_s``; the
    supervisor's watchdog is expected to kill it. With the executor
    slot empty there is no fault boundary, so an injected crash reaches
    the caller and an injected hang is waited out.
    """
    config = _chaos
    if config is None:
        return
    if should_fire("worker_crash", key, attempt):
        if in_child:
            os._exit(CHAOS_CRASH_EXIT)
        raise WorkerCrashFault("chaos: injected worker crash (cell %s)" % key[:12])
    if should_fire("hang", key, attempt):
        time.sleep(config.hang_s)


def corrupt_file(path: os.PathLike, key: str) -> bool:
    """Deterministically flip one byte of ``path`` (chaos actuator).

    The position and the flip are derived from the chaos seed and
    ``key``, so a chaos campaign corrupts the same byte of the same
    record every time. Returns True when the file was modified.
    """
    config = _chaos
    target = Path(path)
    if config is None or not target.exists():
        return False
    data = target.read_bytes()
    if not data:
        return False
    blob = "%d|corrupt|%s" % (config.seed, key)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    position = int.from_bytes(digest[:8], "big") % len(data)
    mutated = bytes(data[:position]) + bytes([data[position] ^ 0xFF]) + bytes(data[position + 1:])
    target.write_bytes(mutated)
    return True


def maybe_corrupt_record(path: os.PathLike) -> bool:
    """Chaos site for cache-record reads: corrupt the file first.

    Keyed by file name so the draw is stable regardless of which
    process or cell reads the record.
    """
    name = Path(path).name
    if should_fire("cache_corrupt", name):
        return corrupt_file(path, name)
    return False


#: Why this process's ``WAFFLE_CHAOS`` did not parse, or None; the CLI
#: reports it as a usage error rather than run without the chaos asked for.
ENV_ERROR = _configure_from_env()

if hasattr(os, "register_at_fork"):
    # A forked worker inherits the parent's fired-site memory; clear it
    # so the child's draws depend only on the seed and its own keys.
    os.register_at_fork(after_in_child=lambda: _chaos is not None and _chaos.fired.clear())
