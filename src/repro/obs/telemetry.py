"""The per-process telemetry session and per-run summaries.

A :class:`TelemetrySession` owns one ``telemetry-<pid>-<token>.jsonl``
stream, written through the event bus's
:class:`~repro.obs.eventbus.Stream` (one ``meta`` line, then one JSON
object per line, discriminated by ``type``):

* ``inject`` -- one injection decision (inject, or skip with a reason);
* ``run`` -- one simulated run's summary (:func:`collect_run_telemetry`),
  written by the scheduler at the end of every run (dossier replays
  included);
* ``analysis`` -- one analyzed trace's near-miss and candidate counts;
* ``coverage`` -- one detection session's candidate-pair coverage
  record (:mod:`repro.obs.coverage`).

No count is stored on its own: :mod:`repro.obs.report` folds every
count from these records and the campaign events. Streams written
before carry ``metrics`` snapshots, which the reader still takes.

The harness's forked workers each get their own session (a fork
reopens it; spawned processes inherit ``WAFFLE_OBS_DIR``), so
``repro obs report`` merges one stream per participating process.

Everything here is observational: sessions never feed values back into
the simulation, so runs stay bit-identical with telemetry on or off.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from .eventbus import Stream

#: Telemetry stream file naming convention (``events-*.jsonl`` is the bus's).
TELEMETRY_GLOB = "telemetry-*.jsonl"

#: Injection-skip reason tags (the explainability contract): ``decay``
#: -- the probability-decay draw failed; ``interference`` -- an ongoing
#: delay at an interfering site suppressed the injection (section 4.4);
#: ``budget`` -- the location's injection budget is exhausted (decayed
#: to probability 0 and retired) or its delay length is zero.
SKIP_REASONS = ("decay", "interference", "budget")

#: Fault taxonomy tags mirrored from ``repro.harness.faults.FAULT_KINDS``
#: (importing the harness here at module scope would tie the obs layer
#: to the harness package during partial initialization; the guard test
#: in tests/harness/test_faults.py keeps the copies identical).
FAULT_KINDS = ("worker_crash", "hang", "transient_io", "corrupt_record", "deterministic")

#: The near-miss and candidate-set counters whose change over its run
#: a ``run`` record holds, in :func:`run_counters` order.
CHURN_FIELDS = (
    "pairs_observed", "pairs_new", "candidates_added", "candidates_removed",
    "pruned_parent_child", "pruned_hb_inference",
)


class TelemetrySession:
    """Process-local telemetry state, flushed to ``directory``.

    Instrumented constructors (injection engines and the scheduler)
    bind the session -- or None -- once; with no session their hot
    paths reduce to a single ``is not None`` check.
    """

    #: ``maybe_flush`` batching threshold: buffered records before a
    #: flush actually happens. At per-cell cadence the JSON encode was
    #: the largest single item of enabled-path overhead; batching
    #: amortizes it into a few large appends, with the atexit hook (and
    #: the CLI's end-of-command ``obs.flush()``) landing the tail.
    FLUSH_EVERY = 4096

    def __init__(self, directory: os.PathLike):
        self.stream = Stream("telemetry", directory)
        self.directory = self.stream.directory
        self._run_seq = 0

    # -- Event emission (hot-ish; bounded by decision/run counts) -------

    def next_run_seq(self) -> int:
        self._run_seq += 1
        return self._run_seq

    def decision(
        self,
        run_seq: int,
        site: str,
        t_ms: float,
        reason: Optional[str] = None,
        length_ms: Optional[float] = None,
        detail: Optional[str] = None,
        tid: Optional[int] = None,
    ) -> None:
        """Buffer one injection decision.

        ``reason is None`` means an injection (with ``length_ms`` and
        the delayed thread's ``tid``), a reason tag from
        :data:`SKIP_REASONS` means a skip. One call per decision keeps
        the engine's ``decide`` hot path at one dict build.
        """
        record: Dict[str, Any] = {
            "type": "inject",
            "run": run_seq,
            "action": "inject" if reason is None else "skip",
            "site": site,
            "t_ms": round(t_ms, 4),
        }
        if reason is None:
            record["len_ms"] = round(length_ms, 4)
            record["tid"] = tid
        else:
            record["reason"] = reason
        if detail is not None:
            record["detail"] = detail
        self.stream.pending.append(record)

    def record_analysis(self, tracker: Any) -> None:
        """Buffer one analyzed trace's counts, read off the near-miss
        ``tracker`` that analyzed it and its candidate set."""
        candidates = tracker.candidates
        self.stream.pending.append({
            "type": "analysis",
            "pairs_observed": tracker.pairs_observed,
            "pairs_new": tracker.pairs_new,
            "candidates_added": candidates.added_total,
            "pruned_parent_child": candidates.pruned_parent_child,
        })

    def queue_coverage(self, record: dict) -> None:
        """Buffer a detection session's candidate-pair coverage record;
        it lands in the stream with the next flush."""
        self.stream.pending.append(record)

    # -- Flushing --------------------------------------------------------

    def maybe_flush(self) -> None:
        """Flush only once enough records have accumulated.

        The batching valve for hot callers (the per-cell hook in
        :mod:`repro.harness.parallel`): below the :data:`FLUSH_EVERY`
        threshold this is one ``len`` call. Callers that need durability
        *now* (forked workers about to lose the process, end-of-command
        handlers) use :meth:`flush` directly.
        """
        if len(self.stream.pending) >= self.FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Append the buffered records to the stream."""
        self.stream.flush()


def run_counters(hook: Any) -> Tuple[int, ...]:
    """The near-miss and candidate-set counters of ``hook``'s tracker
    and its engine's candidate set: pairs observed and new, candidates
    added and removed, pruned parent-child and by hb-inference. A hook
    without them reads zeros."""
    tracker = getattr(hook, "_tracker", None)
    engine = getattr(hook, "engine", None)
    candidates = engine.candidates if engine is not None else None
    return (
        getattr(tracker, "pairs_observed", 0),
        getattr(tracker, "pairs_new", 0),
        getattr(candidates, "added_total", 0),
        getattr(candidates, "removed_total", 0),
        getattr(candidates, "pruned_parent_child", 0),
        getattr(candidates, "pruned_hb_inference", 0),
    )


def collect_run_telemetry(
    session: TelemetrySession, scheduler: Any, wall_ms: float, before: Tuple[int, ...]
) -> dict:
    """Buffer the ``run`` record of one finished run of ``scheduler``.

    The scheduler is the one caller; ``before`` is :func:`run_counters`
    of its hook at run start, so the :data:`CHURN_FIELDS` count what
    this run did. ``run_seq`` is a process-local sequence number
    linking the record to its per-decision ``inject`` records; the
    decision fields must reconcile exactly with them -- the invariant
    tests/obs/test_skip_accounting.py guards. ``candidates_final`` is
    the size of the candidate set the run ended with. Duck-typed on
    purpose: ``scheduler`` is a :class:`~repro.sim.scheduler.Scheduler`
    and its hook any instrumentation hook (injection hooks expose
    ``engine``), which keeps :mod:`repro.obs` free of core/sim imports.
    """
    hook = scheduler.hook
    result = scheduler.result
    engine = getattr(hook, "engine", None)
    record = {
        "type": "run",
        "run_seq": getattr(engine, "obs_run_seq", 0) or session.next_run_seq(),
        "kind": getattr(hook, "run_kind", "baseline"),
        "test": scheduler.name,
        "seed": scheduler.seed,
        "wall_ms": round(wall_ms, 4),
        "virtual_ms": result.virtual_time,
        "op_count": result.op_count,
        "context_switches": result.context_switches,
        "crashed": result.crashed,
        "timed_out": result.timed_out,
        "considered": 0,
        "injected": 0,
        "total_delay_ms": 0.0,
        "skipped_decay": 0,
        "skipped_interference": 0,
        "skipped_budget": 0,
    }
    record.update(zip(CHURN_FIELDS, (end - start for end, start in zip(run_counters(hook), before))))
    record["candidates_final"] = 0
    if engine is not None:
        record.update(
            considered=engine.considered,
            injected=engine.ledger.count,
            total_delay_ms=engine.ledger.total_delay_ms,
            skipped_decay=engine.skipped_decay,
            skipped_interference=engine.skipped_interference,
            skipped_budget=engine.skipped_budget,
            candidates_final=len(engine.candidates),
        )
    session.stream.pending.append(record)
    return record
