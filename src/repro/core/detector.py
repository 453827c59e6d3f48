"""The Waffle detector: preparation run -> analysis -> detection runs.

This is the orchestration of Figure 3. ``Waffle.detect`` executes the
workload once delay-free while recording a trace, analyzes the trace
into an :class:`InjectionPlan`, then repeatedly re-executes the workload
with the :class:`PlannedInjectionHook` until a MemOrder bug manifests or
the run budget is exhausted. Decay state and the (mutable) candidate
set persist across detection runs, mirroring the on-disk bootstrap
described in section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from .. import obs
from ..sim.api import Simulation
from ..sim.errors import NullReferenceError
from ..sim.scheduler import RunResult
from .analyzer import InjectionPlan, analyze_trace
from .config import DEFAULT_CONFIG, WaffleConfig
from .delay_policy import DecayState, ProportionalDelayPolicy
from .reports import BugReport, build_report
from .runtime import OnlineInjectionHook, PlannedInjectionHook, _BaseInjectionHook
from .trace import RecordingHook, Trace


class Workload:
    """A named, re-runnable test input.

    ``build(sim)`` must return a fresh root generator for the given
    simulation; it is called once per run. Plain generator functions
    taking a single ``sim`` argument can be wrapped with
    :func:`as_workload`.
    """

    def __init__(self, name: str, build: Callable[[Simulation], Generator]):
        self.name = name
        self._build = build

    def build(self, sim: Simulation) -> Generator:
        return self._build(sim)

    def __repr__(self) -> str:
        return "Workload(%r)" % self.name


def as_workload(obj: Any) -> Workload:
    """Coerce a Workload, or a callable ``f(sim) -> generator``, to Workload."""
    if isinstance(obj, Workload):
        return obj
    if callable(obj):
        return Workload(getattr(obj, "__name__", "workload"), obj)
    if hasattr(obj, "name") and hasattr(obj, "build"):
        return Workload(obj.name, obj.build)
    raise TypeError("cannot interpret %r as a workload" % (obj,))


@dataclass
class RunRecord:
    """Measurements of one run within a detection session."""

    kind: str  # "prep" | "detect"
    index: int  # 1-based position in the session
    virtual_time_ms: float
    delays_injected: int = 0
    total_delay_ms: float = 0.0
    overlap_ratio: float = 0.0
    op_count: int = 0
    crashed: bool = False
    timed_out: bool = False
    bug_found: bool = False
    skipped_interference: int = 0
    skipped_decay: int = 0
    skipped_budget: int = 0


@dataclass
class DetectionOutcome:
    """Everything a detection session produced."""

    tool: str
    workload: str
    runs: List[RunRecord] = field(default_factory=list)
    reports: List[BugReport] = field(default_factory=list)
    plan: Optional[InjectionPlan] = None
    trace: Optional[Trace] = None
    #: One :class:`repro.obs.dossier.BugDossier` per report, assembled
    #: when ``detect`` was asked for dossiers; under an obs session the
    #: session's flight ring adds provenance (prunes, decisions, flight
    #: events), never the schedule.
    dossiers: List[Any] = field(default_factory=list)
    #: The session's coverage record (``repro.obs.coverage``): which
    #: candidate pairs were delayed vs. planned vs. pruned. Built only
    #: under an obs session, which keeps it.
    coverage: Optional[dict] = None

    @property
    def bug_found(self) -> bool:
        return bool(self.reports)

    @property
    def runs_to_expose(self) -> Optional[int]:
        """Total runs executed up to and including the exposing run
        (Waffle's count includes the preparation run, matching Table 4
        where 'bug reliably exposed in the first detection run after a
        preparation run' is reported as 2)."""
        for record in self.runs:
            if record.bug_found:
                return record.index
        return None

    @property
    def total_time_ms(self) -> float:
        return sum(record.virtual_time_ms for record in self.runs)

    @property
    def total_delays(self) -> int:
        return sum(record.delays_injected for record in self.runs)

    @property
    def total_delay_ms(self) -> float:
        return sum(record.total_delay_ms for record in self.runs)

    @property
    def timed_out(self) -> bool:
        return any(record.timed_out for record in self.runs)

    def slowdown_vs(self, baseline_ms: float) -> float:
        """End-to-end detection slowdown vs one uninstrumented run."""
        if baseline_ms <= 0:
            return float("inf")
        return self.total_time_ms / baseline_ms


class ToolDriver:
    """Base class for detection tools (Waffle, WaffleBasic, Tsvd)."""

    name = "tool"

    def __init__(self, config: Optional[WaffleConfig] = None):
        self.config = config if config is not None else DEFAULT_CONFIG

    # -- Common helpers -------------------------------------------------

    def _simulate(self, workload: Workload, hook, seed: int) -> RunResult:
        sim = Simulation(
            seed=seed,
            hook=hook,
            time_limit_ms=self.config.run_time_limit_ms,
            stop_on_failure=True,
            name=workload.name,
        )
        return sim.run(workload.build(sim), name="main")

    def _record(
        self,
        kind: str,
        index: int,
        result: RunResult,
        hook: Optional[_BaseInjectionHook] = None,
        bug_found: bool = False,
    ) -> RunRecord:
        return RunRecord(
            kind=kind,
            index=index,
            virtual_time_ms=result.virtual_time,
            delays_injected=hook.delays_injected if hook else 0,
            total_delay_ms=hook.total_delay_ms if hook else 0.0,
            overlap_ratio=hook.overlap_ratio() if hook else 0.0,
            op_count=result.op_count,
            crashed=result.crashed,
            timed_out=result.timed_out,
            bug_found=bug_found,
            skipped_interference=(
                hook.engine.skipped_interference if hook and hook.engine else 0
            ),
            skipped_decay=hook.engine.skipped_decay if hook and hook.engine else 0,
            skipped_budget=hook.engine.skipped_budget if hook and hook.engine else 0,
        )

    def _memorder_failure(self, result: RunResult) -> Optional[BaseException]:
        for _, error in result.failures:
            if isinstance(error, NullReferenceError):
                return error
        return None

    def _harvest(
        self,
        workload: Workload,
        hook: _BaseInjectionHook,
        result: RunResult,
        run_index: int,
    ) -> Optional[BugReport]:
        """Turn a crashed run into a bug report, if the crash is a
        delay-induced MemOrder manifestation."""
        error = self._memorder_failure(result)
        if error is None:
            return None
        if hook.delays_injected == 0:
            # Zero false positives: a crash the tool did not cause is
            # not claimed (and, in this reproduction, indicates a
            # mis-constructed benchmark -- surfaced by tests).
            return None
        context = hook.failure
        return build_report(
            tool=self.name,
            workload=workload.name,
            error=error,
            run_index=run_index,
            fault_time_ms=context.fault_time_ms if context else result.virtual_time,
            matched_pairs=hook.matched_pairs_for(error),
            active_delays=context.active_delays if context else [],
            delays_injected=hook.delays_injected,
            stacks=context.stacks if context else {},
        )

    def _assemble_dossier(
        self,
        workload: Workload,
        report: BugReport,
        hook: _BaseInjectionHook,
        sim_seed: int,
        recorder,
    ):
        """Build a replay-verified bug dossier; an obs session keeps it.

        Only a kept dossier is minimized. Without an obs session the
        dossier is verified by one replay of its full captured schedule,
        the one bit the fuzz oracle reads. ``recorder`` is the session's
        own flight ring or None; it feeds only the provenance fields."""
        from ..obs import dossier as dossier_mod

        session = obs.session()
        built = dossier_mod.assemble_dossier(
            tool=self.name,
            workload=workload.name,
            report=report,
            hook=hook,
            config=self.config,
            sim_seed=sim_seed,
            recorder=recorder,
            build=workload.build,
            max_replays=dossier_mod.DEFAULT_MAX_REPLAYS if session is not None else 1,
        )
        if session is not None:
            built.path = dossier_mod.write_dossier(built, session.directory)
        return built

    def _finish_coverage(
        self,
        outcome: DetectionOutcome,
        candidates,
        decay,
        site_injections: Dict[str, int],
    ) -> None:
        """Attach the session's coverage record and queue it for the
        telemetry stream; without an obs session nothing keeps it, so
        none is built."""
        session = obs.session()
        if session is None:
            return
        from ..obs import coverage as coverage_mod

        record = coverage_mod.build_coverage(
            tool=self.name,
            test=outcome.workload,
            candidates=candidates,
            decay=decay,
            runs=outcome.runs,
            site_injections=site_injections,
            bug_found=outcome.bug_found or getattr(outcome, "tsv_found", False),
        )
        outcome.coverage = record
        # A record of the session's telemetry stream, written with its
        # next flush.
        session.queue_coverage(record)

    @staticmethod
    def _count_site_injections(hook, site_injections: Dict[str, int]) -> None:
        """Fold one run's ledger history into per-site injection counts."""
        if hook.engine is None:
            return
        for interval in hook.engine.ledger.history:
            site_injections[interval.site] = site_injections.get(interval.site, 0) + 1

    def detect(
        self,
        workload: Any,
        max_detection_runs: Optional[int] = None,
        dossiers: bool = False,
    ) -> DetectionOutcome:
        """Run one detection session. ``dossiers`` asks for one
        replay-verified dossier per bug report. Under an obs session,
        which keeps them, each is minimized and the session records
        into a fresh flight ring of its own for their provenance; the
        recorder in place before is restored when it ends. Without one,
        each dossier is verified by a single replay of its captured
        schedule and neither minimized nor recorded."""
        workload = as_workload(workload)
        budget = (
            max_detection_runs
            if max_detection_runs is not None
            else self.config.max_detection_runs
        )
        if not dossiers or obs.session() is None:
            return self._detect(workload, budget, dossiers, None)
        with obs.flightrec.suspended():
            return self._detect(workload, budget, True, obs.flightrec.install())

    def _detect(
        self, workload: Workload, budget: int, dossiers: bool, flight
    ) -> DetectionOutcome:
        """The session itself; ``flight`` is its own ring or None."""
        raise NotImplementedError


class Waffle(ToolDriver):
    """The paper's tool: prepare once, analyze, then inject (Figure 3).

    With ``config.preparation_run`` disabled (the Table 7 ablation),
    Waffle degenerates to a single-phase online tool that keeps its
    other design points: variable-length delays learned online,
    parent-child pruning via live vector clocks, and online
    interference discovery.
    """

    name = "waffle"

    def _detect(
        self, workload: Workload, budget: int, dossiers: bool, flight
    ) -> DetectionOutcome:
        config = self.config
        outcome = DetectionOutcome(tool=self.name, workload=workload.name)
        decay = DecayState(config.decay_lambda)
        run_index = 0
        site_injections: Dict[str, int] = {}

        plan: Optional[InjectionPlan] = None
        if config.preparation_run:
            run_index += 1
            if flight is not None:
                flight.begin_run(kind="prep", test=workload.name, seed=config.seed)
            recorder = RecordingHook(
                record_overhead_ms=config.record_overhead_ms,
                track_vector_clocks=config.parent_child_analysis,
            )
            result = self._simulate(workload, recorder, seed=config.seed)
            outcome.trace = recorder.trace
            plan = analyze_trace(recorder.trace, config)
            outcome.plan = plan
            record = RunRecord(
                kind="prep",
                index=run_index,
                virtual_time_ms=result.virtual_time,
                op_count=result.op_count,
                crashed=result.crashed,
                timed_out=result.timed_out,
            )
            outcome.runs.append(record)

        # State shared by the online (no-prep) configuration.
        online_candidates = None
        online_policy = None
        if plan is None:
            from .candidates import CandidateSet

            online_candidates = CandidateSet()
            online_policy = ProportionalDelayPolicy({}, config.alpha, config.min_delay_ms)

        for attempt in range(1, budget + 1):
            run_index += 1
            sim_seed = config.seed + attempt
            if flight is not None:
                flight.begin_run(kind="detect", test=workload.name, seed=sim_seed)
            if plan is not None:
                hook: _BaseInjectionHook = PlannedInjectionHook(
                    plan,
                    config,
                    decay,
                    seed=config.seed * 7919 + attempt,
                    capture_schedule=dossiers,
                )
            else:
                hook = OnlineInjectionHook(
                    config,
                    decay,
                    candidates=online_candidates,
                    seed=config.seed * 7919 + attempt,
                    variable_delays=True,
                    hb_inference=False,
                    parent_child=config.parent_child_analysis,
                    online_interference=config.interference_control,
                    shared_policy=online_policy,
                    capture_schedule=dossiers,
                )
            result = self._simulate(workload, hook, seed=sim_seed)
            report = self._harvest(workload, hook, result, run_index)
            self._count_site_injections(hook, site_injections)
            outcome.runs.append(
                self._record("detect", run_index, result, hook, bug_found=report is not None)
            )
            if report is not None:
                outcome.reports.append(report)
                if dossiers:
                    outcome.dossiers.append(
                        self._assemble_dossier(workload, report, hook, sim_seed, flight)
                    )
                if config.stop_at_first_bug:
                    break
        self._finish_coverage(
            outcome,
            plan.candidates if plan is not None else online_candidates,
            decay,
            site_injections,
        )
        return outcome
