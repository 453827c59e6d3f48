"""The per-process telemetry session and per-run summaries.

A :class:`TelemetrySession` owns one metrics registry and one
``telemetry-<pid>-<token>.jsonl`` stream, written through the event
bus's :class:`~repro.obs.eventbus.Stream` (one ``meta`` line, then one
JSON object per line, discriminated by ``type``):

* ``inject`` -- one injection decision (inject, or skip with a reason);
* ``run`` -- one simulated run's :class:`RunTelemetry` summary;
* ``metrics`` -- the metrics snapshot, written at the head of each
  flush whose counters moved. Readers take the last one per stream.

The harness's forked workers each get their own session (a fork
reopens it; spawned processes inherit ``WAFFLE_OBS_DIR``), so
``repro obs report`` merges one stream per participating process.

Everything here is observational: sessions never feed values back into
the simulation, so runs stay bit-identical with telemetry on or off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .eventbus import Stream
from .metrics import MetricsRegistry

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

#: Bucket bounds for the observed near-miss gap distribution (virtual
#: ms). The default near-miss window is 100 ms, so in-window gaps land
#: below the last bound; a widened window spills into the overflow
#: bucket. Gaps are virtual-time differences, so the histogram sums are
#: deterministic across --jobs values and happens-before engines.
GAP_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)


@dataclass
class RunTelemetry:
    """Everything one simulated run did, in summary form.

    ``run_seq`` is a process-local sequence number linking the summary
    to its per-decision ``inject`` events. The injection totals here
    must reconcile exactly with the engine's internal counters -- the
    invariant tests/obs/test_skip_accounting.py guards.
    """

    run_seq: int
    kind: str  # "baseline" | "prep" | "detect" | "online"
    test: str
    seed: int
    wall_ms: float
    virtual_ms: float
    op_count: int
    context_switches: int
    crashed: bool
    timed_out: bool
    # Injection-engine decision accounting.
    considered: int = 0
    injected: int = 0
    total_delay_ms: float = 0.0
    skipped_decay: int = 0
    skipped_interference: int = 0
    skipped_budget: int = 0
    # Near-miss and candidate-set churn.
    pairs_observed: int = 0
    pairs_new: int = 0
    candidates_added: int = 0
    candidates_removed: int = 0
    pruned_parent_child: int = 0
    pruned_hb_inference: int = 0
    candidates_final: int = 0
    # Virtual-time schedule (for the Chrome trace_event view).
    vt_threads: List[Dict[str, Any]] = field(default_factory=list)
    vt_delays: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def skipped_total(self) -> int:
        return self.skipped_decay + self.skipped_interference + self.skipped_budget

    def to_record(self) -> dict:
        # Hand-rolled (not dataclasses.asdict): asdict recurses through
        # and deep-copies the vt_threads/vt_delays dict lists, which
        # made run-summary assembly the hottest obs call on the enabled
        # path. The key set is pinned by tests/obs/test_telemetry.py;
        # the vt lists are already JSON-plain, so sharing them is safe
        # -- they are built fresh per run and never mutated after.
        return {
            "type": "run",
            "run_seq": self.run_seq,
            "kind": self.kind,
            "test": self.test,
            "seed": self.seed,
            "wall_ms": self.wall_ms,
            "virtual_ms": self.virtual_ms,
            "op_count": self.op_count,
            "context_switches": self.context_switches,
            "crashed": self.crashed,
            "timed_out": self.timed_out,
            "considered": self.considered,
            "injected": self.injected,
            "total_delay_ms": self.total_delay_ms,
            "skipped_decay": self.skipped_decay,
            "skipped_interference": self.skipped_interference,
            "skipped_budget": self.skipped_budget,
            "pairs_observed": self.pairs_observed,
            "pairs_new": self.pairs_new,
            "candidates_added": self.candidates_added,
            "candidates_removed": self.candidates_removed,
            "pruned_parent_child": self.pruned_parent_child,
            "pruned_hb_inference": self.pruned_hb_inference,
            "candidates_final": self.candidates_final,
            "vt_threads": self.vt_threads,
            "vt_delays": self.vt_delays,
        }


class TelemetrySession:
    """Process-local telemetry state, flushed to ``directory``.

    Instrumented constructors (injection engines, near-miss trackers,
    caches, the scheduler) bind the session -- or None -- once; with no
    session their hot paths reduce to a single ``is not None`` check.
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
        self.registry = MetricsRegistry()
        self._coverage_pending: List[dict] = []
        self._last_metrics: Optional[dict] = None
        self._run_seq = 0

        # Pre-bound instruments for the hot layers. Pre-registering also
        # guarantees the counter *names* appear in every metrics record,
        # which the CI telemetry check asserts.
        registry = self.registry
        self.c_considered = registry.counter("inject.considered")
        self.c_injected = registry.counter("inject.injected")
        self.c_skip = {
            reason: registry.counter("inject.skipped.%s" % reason) for reason in SKIP_REASONS
        }
        self.c_pairs_observed = registry.counter("nearmiss.pairs_observed")
        self.c_pairs_new = registry.counter("nearmiss.pairs_new")
        self.h_gap_ms = registry.histogram("nearmiss.gap_ms", GAP_BUCKETS)
        self.c_cand_added = registry.counter("candidates.added")
        self.c_cand_removed = registry.counter("candidates.removed")
        self.c_pruned_parent_child = registry.counter("candidates.pruned_parent_child")
        self.c_pruned_hb = registry.counter("candidates.pruned_hb_inference")
        self.c_cache_hits = registry.counter("cache.hits")
        self.c_cache_misses = registry.counter("cache.misses")
        self.c_cache_writes = registry.counter("cache.writes")
        self.c_sched_runs = registry.counter("sched.runs")
        self.c_context_switches = registry.counter("sched.context_switches")
        self.g_virtual_ms = registry.gauge("sched.virtual_time_ms")
        self.g_virtual_ms_total = registry.gauge("sched.virtual_time_ms_total")
        self.c_cells = registry.counter("harness.cells")
        self.h_cell_wall_ms = registry.histogram("harness.cell_wall_ms")
        self.c_runs_recorded = registry.counter("telemetry.runs_recorded")
        # Resilience accounting (the campaign supervisor's dialect).
        self.c_faults = {
            kind: registry.counter("faults.%s" % kind) for kind in FAULT_KINDS
        }
        self.c_cells_retried = registry.counter("cells.retried")
        self.c_cells_quarantined = registry.counter("cells.quarantined")
        self.c_cells_resumed = registry.counter("cells.resumed")
        self.c_cache_corrupt = registry.counter("cache.corrupt")

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
    ) -> None:
        """Count and buffer one injection decision in a single call.

        ``reason is None`` means an injection (with ``length_ms``), a
        reason tag from :data:`SKIP_REASONS` means a skip. One call per
        decision keeps the engine's ``decide`` hot path at one dict
        build plus two counter bumps.
        """
        self.c_considered.inc()
        record: Dict[str, Any] = {
            "type": "inject",
            "run": run_seq,
            "action": "inject" if reason is None else "skip",
            "site": site,
            "t_ms": round(t_ms, 4),
        }
        if reason is None:
            self.c_injected.inc()
            record["len_ms"] = round(length_ms, 4)
        else:
            self.c_skip[reason].inc()
            record["reason"] = reason
        if detail is not None:
            record["detail"] = detail
        self.stream.pending.append(record)

    def record_run(self, run: RunTelemetry) -> None:
        self.c_runs_recorded.inc()
        self.stream.pending.append(run.to_record())

    def queue_coverage(self, record: dict) -> None:
        """Buffer a candidate-pair coverage record until the next flush.

        Coverage records used to be written (one atomic file each) the
        moment a detection cell finished; at per-cell cadence those
        open/rename pairs were a measurable slice of enabled-path
        overhead. Queuing them keeps the file-per-record on-disk layout
        while batching the I/O with everything else.
        """
        self._coverage_pending.append(record)

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
        """Append the buffered records to the stream, led by a
        ``metrics`` record when the counters moved since the last one.

        The snapshot counts every record in the same write, and leads
        it: a torn tail can then only cut records the snapshot already
        counts (counters ahead of events, the deficit the reconcilers
        tolerate) or the snapshot itself, which takes its whole batch
        with it and leaves the previous snapshot matching what remains.
        """
        snapshot = self.registry.snapshot()
        if snapshot != self._last_metrics:
            self._last_metrics = snapshot
            self.stream.flush({"type": "metrics", "metrics": snapshot})
        else:
            self.stream.flush()
        if self._coverage_pending:
            from .coverage import write_coverage

            queued = self._coverage_pending
            self._coverage_pending = []
            for record in queued:
                write_coverage(record, self.directory)


def collect_run_telemetry(
    session: TelemetrySession,
    kind: str,
    test: str,
    seed: int,
    wall_ms: float,
    result: Any,
    hook: Any = None,
    scheduler: Any = None,
) -> RunTelemetry:
    """Assemble a :class:`RunTelemetry` from a finished run.

    Duck-typed on purpose: ``result`` is a
    :class:`~repro.sim.scheduler.RunResult`, ``hook`` any
    instrumentation hook (injection hooks expose ``engine``), and
    ``scheduler`` the driving scheduler (for thread lifetimes). Using
    ``getattr`` keeps :mod:`repro.obs` free of core/sim imports.
    """
    engine = getattr(hook, "engine", None)
    tracker = getattr(hook, "_tracker", None)
    run = RunTelemetry(
        run_seq=getattr(engine, "obs_run_seq", 0) or session.next_run_seq(),
        kind=kind,
        test=test,
        seed=seed,
        wall_ms=round(wall_ms, 4),
        virtual_ms=getattr(result, "virtual_time", 0.0),
        op_count=getattr(result, "op_count", 0),
        context_switches=getattr(result, "context_switches", 0),
        crashed=bool(getattr(result, "crashed", False)),
        timed_out=bool(getattr(result, "timed_out", False)),
    )
    if engine is not None:
        ledger = engine.ledger
        run.considered = engine.considered
        run.injected = ledger.count
        run.total_delay_ms = ledger.total_delay_ms
        run.skipped_decay = engine.skipped_decay
        run.skipped_interference = engine.skipped_interference
        run.skipped_budget = engine.skipped_budget
        candidates = engine.candidates
        run.candidates_added = getattr(candidates, "added_total", 0)
        run.candidates_removed = getattr(candidates, "removed_total", 0)
        run.pruned_parent_child = getattr(candidates, "pruned_parent_child", 0)
        run.pruned_hb_inference = getattr(candidates, "pruned_hb_inference", 0)
        run.candidates_final = len(candidates)
        run.vt_delays = [
            {"site": i.site, "tid": i.thread_id, "start": i.start, "end": i.end}
            for i in ledger.history
        ]
    if tracker is not None:
        run.pairs_observed = getattr(tracker, "pairs_observed", 0)
        run.pairs_new = getattr(tracker, "pairs_new", 0)
    if scheduler is not None:
        threads = getattr(scheduler, "threads", {})
        run.vt_threads = [
            {
                "tid": tid,
                "name": thread.name,
                "start": getattr(thread, "spawn_time", 0.0),
                "end": getattr(thread, "end_time", None),
            }
            for tid, thread in threads.items()
        ]
    session.record_run(run)
    return run
