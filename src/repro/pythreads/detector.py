"""Waffle over real threads: the unchanged core, new substrate.

``RealThreadsWaffle.detect`` mirrors :class:`repro.core.detector.Waffle`
-- preparation run, trace analysis, bootstrapped detection runs -- but
each run executes a user callable that spawns genuine ``threading``
threads through a :class:`RealThreadsRuntime`. Every analysis component
(near-miss tracking, vector-clock pruning, delay lengths, interference
set, probability decay) is reused verbatim from :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .. import obs
from ..core.analyzer import InjectionPlan, analyze_trace
from ..core.config import DEFAULT_CONFIG, WaffleConfig
from ..core.delay_policy import DecayState
from ..core.reports import BugReport, build_report
from ..core.runtime import PlannedInjectionHook
from ..core.trace import RecordingHook
from ..sim.errors import NullReferenceError
from ..sim.instrument import NoopHook
from .runtime import RealThreadsRuntime

#: A real-threads workload: receives a runtime, spawns threads through
#: it, joins them, returns when the scenario is over. Exceptions from
#: worker threads are collected by the runtime, not raised here.
RealWorkload = Callable[[RealThreadsRuntime], None]


@dataclass
class RealRunRecord:
    kind: str
    index: int
    wall_time_ms: float
    op_count: int
    delays_injected: int = 0
    crashed: bool = False
    #: Same skip-reason taxonomy as the sim detector's RunRecord, so
    #: real-threads runs are explainable with identical accounting.
    skipped_interference: int = 0
    skipped_decay: int = 0
    skipped_budget: int = 0


@dataclass
class RealDetectionOutcome:
    workload: str
    runs: List[RealRunRecord] = field(default_factory=list)
    reports: List[BugReport] = field(default_factory=list)
    plan: Optional[InjectionPlan] = None

    @property
    def bug_found(self) -> bool:
        return bool(self.reports)

    @property
    def runs_to_expose(self) -> Optional[int]:
        for record in self.runs:
            if record.crashed and self.reports:
                return record.index
        return None


class RealThreadsWaffle:
    """The Figure 3 workflow over real Python threads."""

    name = "waffle-realthreads"

    def __init__(
        self, config: Optional[WaffleConfig] = None, join_timeout_s: float = 30.0
    ):
        # The recording/injection per-op overheads are meaningless on
        # wall-clock time (the real work costs what it costs), so they
        # are zeroed; everything else carries over.
        base = config if config is not None else DEFAULT_CONFIG
        from dataclasses import replace

        self.config = replace(base, record_overhead_ms=0.0, inject_overhead_ms=0.0)
        #: Per-run join deadline; a workload still running past it is a
        #: wedged run, degraded via the HangError path below.
        self.join_timeout_s = join_timeout_s

    def _execute(self, workload: RealWorkload, hook, name: str) -> RealThreadsRuntime:
        from ..harness.faults import HangError

        runtime = RealThreadsRuntime(hook=hook)
        try:
            workload(runtime)
        except NullReferenceError as exc:
            # A crash on the orchestrating thread itself.
            runtime.failures.append(("main", exc))
        try:
            runtime.join_all(timeout_s=self.join_timeout_s)
        except HangError:
            # join_all already recorded the stuck threads in
            # runtime.failures and marked the flight recorder; the run
            # degrades to "crashed" instead of wedging the campaign.
            pass
        return runtime

    def stress(self, workload: RealWorkload, runs: int = 5, name: str = "real") -> int:
        """Delay-free control runs; returns spontaneous crash count."""
        crashes = 0
        for _ in range(runs):
            runtime = self._execute(workload, NoopHook(), name)
            crashes += bool(runtime.failures)
        return crashes

    def detect(
        self,
        workload: RealWorkload,
        max_detection_runs: int = 5,
        name: str = "real",
    ) -> RealDetectionOutcome:
        outcome = RealDetectionOutcome(workload=name)
        config = self.config
        flight = obs.flightrec.recorder()

        # Preparation run: record, no delays.
        if flight is not None:
            flight.begin_run(kind="prep", test=name, seed=config.seed)
        recorder = RecordingHook(record_overhead_ms=0.0, track_vector_clocks=True)
        runtime = self._execute(workload, recorder, name)
        outcome.runs.append(
            RealRunRecord(
                kind="prep",
                index=1,
                wall_time_ms=runtime.now_ms(),
                op_count=runtime.op_count,
                crashed=bool(runtime.failures),
            )
        )
        plan = analyze_trace(recorder.trace, config)
        outcome.plan = plan

        decay = DecayState(config.decay_lambda)
        for attempt in range(1, max_detection_runs + 1):
            if flight is not None:
                flight.begin_run(kind="detect", test=name, seed=config.seed + attempt)
            hook = PlannedInjectionHook(plan, config, decay, seed=config.seed * 7919 + attempt)
            runtime = self._execute(workload, hook, name)
            crashed = any(isinstance(e, NullReferenceError) for _, e in runtime.failures)
            outcome.runs.append(
                RealRunRecord(
                    kind="detect",
                    index=attempt + 1,
                    wall_time_ms=runtime.now_ms(),
                    op_count=runtime.op_count,
                    delays_injected=hook.delays_injected,
                    crashed=crashed,
                    skipped_interference=hook.engine.skipped_interference,
                    skipped_decay=hook.engine.skipped_decay,
                    skipped_budget=hook.engine.skipped_budget,
                )
            )
            if crashed and hook.delays_injected > 0:
                error = next(e for _, e in runtime.failures if isinstance(e, NullReferenceError))
                outcome.reports.append(
                    build_report(
                        tool=self.name,
                        workload=name,
                        error=error,
                        run_index=attempt + 1,
                        fault_time_ms=runtime.now_ms(),
                        matched_pairs=hook.matched_pairs_for(error),
                        active_delays=[],
                        delays_injected=hook.delays_injected,
                    )
                )
                if config.stop_at_first_bug:
                    break
        return outcome
