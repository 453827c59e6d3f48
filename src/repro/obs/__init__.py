"""Run-telemetry subsystem: run records, tracing, explainable injections.

Waffle's behavior is driven by decisions that used to be invisible at
runtime -- which near-misses became candidates, why a planned delay was
skipped (probability decay vs. the interference set of section 4.4),
what each preparation/detection run actually did. This package makes
every run explainable from emitted data instead of reruns:

* :mod:`repro.obs.eventbus` -- the campaign event bus, and the one
  JSONL stream writer (:class:`~repro.obs.eventbus.Stream`) and reader
  (:func:`~repro.obs.eventbus.read_stream`) every obs stream uses;
* :mod:`repro.obs.telemetry` -- the per-process session, the ``run``
  record the scheduler writes at the end of every run
  (:func:`~repro.obs.telemetry.collect_run_telemetry`), and the
  per-analysis record;
* :mod:`repro.obs.tracing` -- the Chrome ``trace_event`` export of
  virtual-time schedules;
* :mod:`repro.obs.report` -- ``repro obs report``: fold every count
  of an obs directory from its records into a human-readable digest;
* :mod:`repro.obs.flightrec` -- a bounded ring buffer of scheduler /
  injection / near-miss events, the raw material for bug dossiers;
* :mod:`repro.obs.dossier` -- assemble a :class:`BugDossier` (pair
  provenance, swimlane, minimal replay schedule) when a bug manifests;
* :mod:`repro.obs.coverage` -- per-session and cross-session
  candidate-pair coverage accounting (``repro obs coverage``).

Activation model
----------------
Telemetry is **off by default** and controlled by one switch.
``configure(obs_dir)`` (or the ``WAFFLE_OBS_DIR`` environment
variable, consulted at import) opens the process session and the
campaign event bus in the same directory: ``telemetry-*.jsonl`` and
``events-*.jsonl``, one of each per process. Instrumented constructors
(the scheduler, the injection engine) call :func:`session` once and
keep the result, so a disabled process pays only a handful of
``is None`` checks per *run*, not per event -- the bound guarded by
``benchmarks/bench_obs.py``. No layer keeps a count of its own for
obs: each count is folded from a record the unit of work writes once.

The same switch is the only one for dossier provenance: a detection
session asked for dossiers under an active session records into a
flight ring of its own (see :mod:`repro.obs.flightrec`) and writes the
dossiers into the session directory.

A forked ``--jobs`` worker reopens both streams under its own
pid (one fork handler, below); spawned processes inherit the
environment variable. Workers flush their own streams, which
``repro obs report`` merges.
"""

from __future__ import annotations

import atexit
import os
from typing import Optional

from . import eventbus  # noqa: F401  (re-export)
from . import flightrec  # noqa: F401  (re-export)
from .eventbus import EventBus  # noqa: F401
from .flightrec import FlightRecorder  # noqa: F401
from .telemetry import SKIP_REASONS, TelemetrySession, collect_run_telemetry  # noqa: F401

#: Environment variable holding the default obs directory. Setting it
#: enables telemetry for this process and every child it spawns.
OBS_DIR_ENV = "WAFFLE_OBS_DIR"

_session: Optional[TelemetrySession] = None
_atexit_registered = False


def session() -> Optional[TelemetrySession]:
    """The active session, or None when telemetry is disabled.

    Hot-path contract: bind the result once per constructed object and
    branch on ``is not None``; do not call this per event.
    """
    return _session


def record_analysis(tracker) -> None:
    """Under a session, write one analyzed trace's ``analysis`` record
    from the near-miss ``tracker`` that analyzed it."""
    if _session is not None:
        _session.record_analysis(tracker)


def configure(obs_dir: os.PathLike) -> TelemetrySession:
    """Enable telemetry and the campaign event bus in ``obs_dir``,
    flushing any previous session first.

    Must run before the instrumented objects (engines, trackers,
    caches, schedulers) are constructed -- they bind the session at
    construction time.
    """
    global _session, _atexit_registered
    if _session is not None:
        _session.flush()
    _session = TelemetrySession(obs_dir)
    eventbus.configure(obs_dir)
    if not _atexit_registered:
        atexit.register(_flush_at_exit)
        _atexit_registered = True
    return _session


def disable() -> None:
    """Flush and drop the session and the bus (used by tests and the CLI)."""
    global _session
    if _session is not None:
        _session.flush()
    _session = None
    eventbus.disable()


def flush() -> None:
    if _session is not None:
        _session.flush()
    eventbus.flush()


def _flush_at_exit() -> None:
    # Worker processes in the harness pool exit without an explicit
    # flush call; this hook is what lands their telemetry on disk.
    try:
        flush()
    except Exception:
        pass


def _configure_from_env() -> None:
    obs_dir = os.environ.get(OBS_DIR_ENV)
    if obs_dir:
        configure(obs_dir)


def _reset_after_fork() -> None:
    # A forked worker inherits the parent's session and bus --
    # including their buffered (unflushed) records and file tokens.
    # Drop them without flushing (those records are the parent's to
    # write) and reopen both streams keyed by the child's own pid.
    global _session
    if _session is not None:
        _session = TelemetrySession(_session.directory)
    eventbus._reset_after_fork()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)

_configure_from_env()
