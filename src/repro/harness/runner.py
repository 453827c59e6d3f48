"""Low-level run drivers shared by the experiment implementations.

Provides single-run primitives (baseline, recording, one online or
planned detection run) with per-test timeout handling, so experiment
code composes runs instead of re-implementing tool loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs
from ..apps.base import AppTestCase
from ..core.analyzer import InjectionPlan, analyze_trace
from ..core.candidates import CandidateSet
from ..core.config import WaffleConfig
from ..core.delay_policy import DecayState
from ..core.nearmiss import TsvNearMissTracker
from ..core.runtime import OnlineInjectionHook, PlannedInjectionHook
from ..core.trace import RecordingHook, Trace
from ..sim.api import Simulation
from ..sim.instrument import NoopHook
from .cache import PlanCache, PrepResult, config_hash, prep_from_record, prep_to_record, run_to_dict
#: Per-test timeout multiplier: a run exceeding ``TIMEOUT_FACTOR x``
#: its uninstrumented duration (with a floor) is marked TimeOut -- the
#: convention behind the MQTT.Net rows of Tables 5 and 6, where most
#: tests time out under WaffleBasic's accumulated fixed delays. The
#: campaign supervisor (:mod:`repro.harness.supervisor`) applies the
#: same factor/floor convention at cell granularity for its wall-clock
#: watchdog: factor x the median completed-cell time, floored.
TIMEOUT_FACTOR = 30.0
TIMEOUT_FLOOR_MS = 3_000.0

#: Process-local simulation counters, incremented by the run primitives
#: below. The cache tests assert hits against these: a warm-cache call
#: must not move them.
BASELINE_RUNS = 0
RECORDING_RUNS = 0


def test_time_limit(baseline_ms: float) -> float:
    return max(TIMEOUT_FLOOR_MS, TIMEOUT_FACTOR * baseline_ms)


@dataclass
class SingleRun:
    """One measured run of one test."""

    virtual_time_ms: float
    op_count: int
    crashed: bool
    timed_out: bool
    delays_injected: int = 0
    total_delay_ms: float = 0.0
    overlap_ratio: float = 0.0


def run_baseline(test: AppTestCase, seed: int = 0) -> SingleRun:
    """Uninstrumented execution: the 'Base' column."""
    global BASELINE_RUNS
    BASELINE_RUNS += 1
    sim = Simulation(seed=seed, hook=NoopHook(), time_limit_ms=600_000.0, name=test.name)
    result = sim.run(test.build(sim))
    return SingleRun(
        virtual_time_ms=result.virtual_time,
        op_count=result.op_count,
        crashed=result.crashed,
        timed_out=result.timed_out,
    )


def run_recording(
    test: AppTestCase,
    config: WaffleConfig,
    seed: int = 0,
    time_limit_ms: Optional[float] = None,
) -> Tuple[SingleRun, Trace]:
    """A Waffle preparation run: delay-free, full tracing."""
    global RECORDING_RUNS
    RECORDING_RUNS += 1
    hook = RecordingHook(
        record_overhead_ms=config.record_overhead_ms,
        track_vector_clocks=config.parent_child_analysis,
    )
    sim = Simulation(
        seed=seed,
        hook=hook,
        time_limit_ms=time_limit_ms if time_limit_ms is not None else 600_000.0,
        name=test.name,
    )
    result = sim.run(test.build(sim))
    run = SingleRun(
        virtual_time_ms=result.virtual_time,
        op_count=result.op_count,
        crashed=result.crashed,
        timed_out=result.timed_out,
    )
    return run, hook.trace


def run_planned_detection(
    test: AppTestCase,
    plan: InjectionPlan,
    config: WaffleConfig,
    decay: DecayState,
    seed: int = 0,
    hook_seed: Optional[int] = None,
    time_limit_ms: Optional[float] = None,
) -> Tuple[SingleRun, PlannedInjectionHook]:
    """One Waffle detection run bootstrapped from a plan."""
    hook = PlannedInjectionHook(
        plan, config, decay, seed=hook_seed if hook_seed is not None else seed
    )
    sim = Simulation(
        seed=seed,
        hook=hook,
        time_limit_ms=time_limit_ms if time_limit_ms is not None else 600_000.0,
        name=test.name,
    )
    result = sim.run(test.build(sim))
    run = SingleRun(
        virtual_time_ms=result.virtual_time,
        op_count=result.op_count,
        crashed=result.crashed,
        timed_out=result.timed_out,
        delays_injected=hook.delays_injected,
        total_delay_ms=hook.total_delay_ms,
        overlap_ratio=hook.overlap_ratio(),
    )
    return run, hook


def run_online_detection(
    test: AppTestCase,
    config: WaffleConfig,
    decay: DecayState,
    candidates: CandidateSet,
    seed: int = 0,
    hook_seed: Optional[int] = None,
    tsv_mode: bool = False,
    time_limit_ms: Optional[float] = None,
) -> Tuple[SingleRun, OnlineInjectionHook]:
    """One WaffleBasic (or Tsvd) run; state persists via the arguments."""
    hook = OnlineInjectionHook(
        config,
        decay,
        candidates=candidates,
        seed=hook_seed if hook_seed is not None else seed,
        tsv_mode=tsv_mode,
        variable_delays=False,
        hb_inference=True,
        parent_child=False,
        online_interference=False,
    )
    sim = Simulation(
        seed=seed,
        hook=hook,
        time_limit_ms=time_limit_ms if time_limit_ms is not None else 600_000.0,
        name=test.name,
    )
    result = sim.run(test.build(sim))
    run = SingleRun(
        virtual_time_ms=result.virtual_time,
        op_count=result.op_count,
        crashed=result.crashed,
        timed_out=result.timed_out,
        delays_injected=hook.delays_injected,
        total_delay_ms=hook.total_delay_ms,
        overlap_ratio=hook.overlap_ratio(),
    )
    return run, hook


def analyze_test(
    test: AppTestCase,
    config: WaffleConfig,
    seed: int = 0,
    cache: Optional[PlanCache] = None,
    test_id: Optional[str] = None,
) -> InjectionPlan:
    """Record one delay-free trace of a test and analyze it.

    With a cache, the preparation run is recorded once per
    (test, config, seed) and its plan reused across tables.
    """
    return prepare_test(test, config, seed=seed, cache=cache, test_id=test_id).plan


# ----------------------------------------------------------------------
# Cached primitives
#
# Each wraps one deterministic unit of work with a content-addressed
# cache lookup. ``test_id`` must uniquely identify the workload across
# applications (the experiment drivers pass "<app>:<test>"); it
# defaults to the test's own name.
# ----------------------------------------------------------------------


def _test_key(test: AppTestCase, test_id: Optional[str]) -> str:
    return test_id if test_id is not None else test.name


def baseline_run(
    test: AppTestCase,
    seed: int = 0,
    cache: Optional[PlanCache] = None,
    test_id: Optional[str] = None,
) -> SingleRun:
    """:func:`run_baseline` with content-addressed caching."""
    if cache is None:
        return run_baseline(test, seed=seed)
    key = {"test": _test_key(test, test_id), "seed": seed}
    record = cache.get("baseline", key)
    if record is not None:
        return SingleRun(**record)
    run = run_baseline(test, seed=seed)
    cache.put("baseline", key, run_to_dict(run))
    return run


def prepare_test(
    test: AppTestCase,
    config: WaffleConfig,
    seed: int = 0,
    time_limit_ms: Optional[float] = None,
    cache: Optional[PlanCache] = None,
    test_id: Optional[str] = None,
) -> PrepResult:
    """One preparation run, analyzed, with every table-facing census.

    The fresh path records the trace, analyzes it into an
    :class:`InjectionPlan` and computes the site/instance censuses that
    Tables 2/5/6 and section 3.3 consume; a cache hit returns all of it
    without re-running the simulation.
    """
    key = None
    if cache is not None:
        key = {
            "test": _test_key(test, test_id),
            "config": config_hash(config),
            "seed": seed,
            "limit": time_limit_ms,
        }
        record = cache.get("prep", key)
        if record is not None:
            return prep_from_record(record, SingleRun)

    run, trace = run_recording(test, config, seed=seed, time_limit_ms=time_limit_ms)
    plan = analyze_trace(trace, config)
    tsv_tracker = TsvNearMissTracker(config.near_miss_window_ms)
    tsv_tracker.observe_all(trace.sorted_events())
    obs.record_analysis(tsv_tracker)
    prep = PrepResult(
        run=run,
        plan=plan,
        mo_sites=len(trace.static_sites(memorder=True)),
        tsv_sites=len(trace.static_sites(memorder=False)),
        tsv_injection_sites=len(tsv_tracker.candidates.delay_locations),
        init_instance_counts=trace.init_instance_counts(),
        event_count=len(trace),
    )
    if cache is not None and key is not None:
        cache.put("prep", key, prep_to_record(prep))
    return prep


def online_pair(
    test: AppTestCase,
    config: WaffleConfig,
    seed: int = 0,
    time_limit_ms: Optional[float] = None,
    tsv_mode: bool = False,
    cache: Optional[PlanCache] = None,
    test_id: Optional[str] = None,
) -> List[SingleRun]:
    """The two-run online-detection unit shared by Tables 5/6 and the
    overlap census: fresh decay/candidate state, run 1 identifies, run 2
    injects from the persisted state. Returns both runs' measurements.
    """
    key = None
    if cache is not None:
        key = {
            "test": _test_key(test, test_id),
            "config": config_hash(config),
            "seed": seed,
            "limit": time_limit_ms,
            "tsv": tsv_mode,
        }
        record = cache.get("online_pair", key)
        if record is not None:
            return [SingleRun(**entry) for entry in record["runs"]]

    decay = DecayState(config.decay_lambda)
    candidates = CandidateSet()
    runs: List[SingleRun] = []
    for run_index in (1, 2):
        run, _ = run_online_detection(
            test,
            config,
            decay,
            candidates,
            seed=seed + run_index,
            hook_seed=seed * 7919 + run_index,
            tsv_mode=tsv_mode,
            time_limit_ms=time_limit_ms,
        )
        runs.append(run)
    if cache is not None and key is not None:
        cache.put("online_pair", key, {"runs": [run_to_dict(run) for run in runs]})
    return runs
