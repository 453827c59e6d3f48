"""The drivers behind the paper's tables and figures (DESIGN.md section 4).

Every function returns plain dataclasses so the renderers in
:mod:`repro.harness.tables`, the pytest benchmarks and the CLI can share
results; the CLI's ``ARTIFACTS`` registry pairs each driver with its
renderer. Paper-reported values are carried alongside measured ones so
EXPERIMENTS.md tables can be regenerated mechanically.

Each driver decomposes into independent *cells* -- one (app, test,
seed) or (bug, tool, seed) unit implemented as a module-level worker
function -- mapped through :func:`repro.harness.parallel.map_units`.
The per-app drivers (Tables 2, 5 and 6, the section 3.3 censuses) share
one fan-out, :func:`_per_app_rows`. Cells take only plain arguments
(names, configs, seeds, a cache directory) and ``jobs > 1`` fans them
out over forked workers; results merge in submission order, so
parallel runs are bit-identical to serial ones. ``cache_dir`` enables
the content-addressed trace/plan cache (:mod:`repro.harness.cache`):
preparation traces are recorded once and their plans reused across
tables instead of re-executed per driver.

When a campaign supervisor is active (``--resume``/``--retries``/
``--cell-timeout`` or ``WAFFLE_CHAOS``; see
:mod:`repro.harness.supervisor`), ``map_units`` routes every cell
through its fault boundary: hung or crashed cells are retried with
backoff, deterministic failures are quarantined, and with ``--resume``
finished cells are published to an artifact store
(:mod:`repro.harness.store`) for checkpoint-resume. A degraded cell's
slot is ``None``, and so is every row derived from it: the table keeps
its other rows instead of aborting. Because cells are deterministic,
supervised, resumed and chaos-surviving campaigns all produce
bit-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..apps import all_apps, all_bugs, bug_workload, get_app, get_bug
from ..apps.base import Application, AppTestCase, KnownBug
from ..baselines import ALL_ABLATIONS, DESIGN_POINT_LABELS, StressRunner, WaffleBasic
from ..core.config import DEFAULT_CONFIG, WaffleConfig
from ..core.delay_policy import DecayState
from ..core.detector import DetectionOutcome, Waffle
from ..sim.api import Simulation
from ..sim.errors import NullReferenceError
from ..sim.instrument import InstrumentationHook
from ..obs import eventbus
from . import metrics
from .cache import PlanCache, config_hash, open_cache, run_to_dict
from .parallel import map_units
from .runner import (
    SingleRun,
    analyze_test,
    baseline_run,
    online_pair,
    prepare_test,
    run_planned_detection,
    test_time_limit,
)


def _apps(subset: Optional[Sequence[str]] = None) -> List[Application]:
    registry = all_apps()
    if subset is None:
        return list(registry.values())
    return [registry[name] for name in subset]


def _bugs(subset: Optional[Sequence[str]] = None) -> List[KnownBug]:
    return [bug for bug in all_bugs() if subset is None or bug.bug_id in subset]


def _test_id(app_name: str, test_name: str) -> str:
    return "%s:%s" % (app_name, test_name)


def _per_app_rows(
    cell_fn: Callable[..., Any],
    build: Callable[[Application, list], Any],
    config: WaffleConfig,
    apps: Optional[Sequence[str]],
    seed: int,
    jobs: int,
    cache_dir: Optional[str],
) -> List[Optional[Any]]:
    """The per-app drivers' shared fan-out: one ``cell_fn`` cell per
    multithreaded test of the selected apps, grouped back per app in
    test order and folded into one row by ``build(app, cells)``.

    An app with a degraded cell (a supervisor-quarantined ``None``)
    gets ``None`` for its row instead of an average over the rest.
    """
    selected = _apps(apps)
    results = iter(map_units(
        cell_fn,
        [(app.name, test.name, config, seed, cache_dir)
         for app in selected for test in app.multithreaded_tests],
        jobs,
    ))
    rows: List[Optional[Any]] = []
    for app in selected:
        cells = [next(results) for _ in app.multithreaded_tests]
        rows.append(None if any(c is None for c in cells) else build(app, cells))
    return rows


def _planned_run_cached(
    test: AppTestCase,
    plan,
    config: WaffleConfig,
    seed: int,
    hook_seed: int,
    time_limit_ms: Optional[float],
    plan_limit: Optional[float],
    cache: Optional[PlanCache],
    test_id: str,
) -> SingleRun:
    """One planned detection run, memoized.

    The plan is itself a deterministic function of (test, config, seed,
    plan_limit), so the cache key covers the run without serializing the
    plan. ``plan_limit`` records the time limit the *preparation* run
    used (Tables 5 and 6 differ here).
    """
    key = None
    if cache is not None:
        key = {
            "test": test_id,
            "config": config_hash(config),
            "seed": seed,
            "hook_seed": hook_seed,
            "limit": time_limit_ms,
            "plan_limit": plan_limit,
        }
        record = cache.get("planned", key)
        if record is not None:
            return SingleRun(**record)
    run, _ = run_planned_detection(
        test,
        plan,
        config,
        DecayState(config.decay_lambda),
        seed=seed,
        hook_seed=hook_seed,
        time_limit_ms=time_limit_ms,
    )
    if cache is not None and key is not None:
        cache.put("planned", key, run_to_dict(run))
    return run


# ======================================================================
# Table 2 -- instrumentation and injection site densities
# ======================================================================


@dataclass
class Table2Row:
    app: str
    tsv_instr_sites: float
    mo_instr_sites: float
    tsv_injection_sites: float
    mo_injection_sites: float


def _table2_cell(
    app_name: str,
    test_name: str,
    config: WaffleConfig,
    seed: int,
    cache_dir: Optional[str],
) -> Tuple[int, int, int, int]:
    """Site censuses of one test: (mo_instr, tsv_instr, mo_inject, tsv_inject)."""
    test = get_app(app_name).test(test_name)
    prep = prepare_test(
        test,
        config,
        seed=seed,
        cache=open_cache(cache_dir),
        test_id=_test_id(app_name, test_name),
    )
    return (
        prep.mo_sites,
        prep.tsv_sites,
        len(prep.plan.candidates.delay_locations),
        prep.tsv_injection_sites,
    )


def table2_sites(
    config: WaffleConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Optional[Table2Row]]:
    """Average unique static instrumentation and injection sites per
    test input, for the TSV (Tsvd) and MemOrder (Waffle) surfaces."""

    def row(app: Application, per_test: list) -> Table2Row:
        count = max(1, len(per_test))
        return Table2Row(
            app=app.display_name,
            tsv_instr_sites=sum(c[1] for c in per_test) / count,
            mo_instr_sites=sum(c[0] for c in per_test) / count,
            tsv_injection_sites=sum(c[3] for c in per_test) / count,
            mo_injection_sites=sum(c[2] for c in per_test) / count,
        )

    return _per_app_rows(_table2_cell, row, config, apps, seed, jobs, cache_dir)


# ======================================================================
# Figure 2 -- timing conditions for TSVs vs MemOrder bugs
# ======================================================================


@dataclass
class Figure2Point:
    delay_ms: float
    tsv_exposed: bool
    memorder_exposed: bool


class _FixedDelayAt(InstrumentationHook):
    """Inject a fixed delay at exactly one static site (microbench aid)."""

    def __init__(self, site: str, delay_ms: float):
        self.site = site
        self.delay_ms = delay_ms

    def before_access(self, pending) -> float:
        return self.delay_ms if pending.location.site == self.site else 0.0


def _figure2_tsv_scenario(sim: Simulation) -> object:
    """API call 1 (thread 1) ends well before API call 2 (thread 2):
    only a delay within (T3-T2, T4-T1) makes the windows overlap."""
    table = sim.unsafe_dict("fig2.Dict")

    def caller_one():
        yield from sim.unsafe_call(table, "add", "k", 1, loc="fig2.call1", duration=3.0)

    def caller_two():
        yield from sim.sleep(10.0)
        yield from sim.unsafe_call(table, "add", "k", 2, loc="fig2.call2", duration=3.0)

    def root():
        a = sim.fork(caller_one(), name="fig2-one")
        b = sim.fork(caller_two(), name="fig2-two")
        yield from sim.join(a)
        yield from sim.join(b)

    return root()


def _figure2_memorder_scenario(sim: Simulation) -> object:
    """Use at t=0 (thread 2), dispose at t=10 (thread 1): only a delay
    longer than the whole gap (delay > T4-T1) exposes the bug."""
    ref = sim.ref("fig2_obj")

    def user():
        yield from sim.use(ref, member="Touch", loc="fig2.use")

    def root():
        yield from sim.assign(ref, sim.new("fig2.Obj"), loc="fig2.init")
        worker = sim.fork(user(), name="fig2-user")
        yield from sim.sleep(10.0)
        yield from sim.dispose(ref, loc="fig2.dispose")
        yield from sim.join(worker)

    return root()


def _figure2_cell(delay: float, seed: int) -> Figure2Point:
    sim = Simulation(seed=seed, hook=_FixedDelayAt("fig2.call1", float(delay)),
                     name="figure2.tsv")
    result = sim.run(_figure2_tsv_scenario(sim))
    tsv_exposed = bool(result.tsv_occurrences)

    sim = Simulation(seed=seed, hook=_FixedDelayAt("fig2.use", float(delay)),
                     name="figure2.memorder")
    result = sim.run(_figure2_memorder_scenario(sim))
    memorder_exposed = result.crashed and isinstance(
        result.first_failure(), NullReferenceError
    )
    return Figure2Point(float(delay), tsv_exposed, memorder_exposed)


def figure2_timing_conditions(
    delays_ms: Sequence[float] = (0, 2, 4, 6, 8, 9, 11, 12, 14, 16, 20, 30),
    seed: int = 0,
    jobs: int = 1,
) -> List[Optional[Figure2Point]]:
    return map_units(_figure2_cell, [(delay, seed) for delay in delays_ms], jobs)


# ======================================================================
# Section 3.3 -- delay overlap and dynamic-instance censuses
# ======================================================================


@dataclass
class OverlapRow:
    app: str
    tsvd_overlap: float
    wafflebasic_overlap: float


def _overlap_cell(
    app_name: str,
    test_name: str,
    config: WaffleConfig,
    seed: int,
    cache_dir: Optional[str],
) -> Tuple[float, float]:
    """(tsvd_overlap, wafflebasic_overlap) of one test's delayed run."""
    test = get_app(app_name).test(test_name)
    cache = open_cache(cache_dir)
    test_id = _test_id(app_name, test_name)
    base = baseline_run(test, seed=seed, cache=cache, test_id=test_id).virtual_time_ms
    limit = test_time_limit(base)
    overlaps: Dict[bool, float] = {}
    for tsv_mode in (True, False):
        last_overlap = 0.0
        for run in online_pair(
            test,
            config,
            seed=seed,
            time_limit_ms=limit,
            tsv_mode=tsv_mode,
            cache=cache,
            test_id=test_id,
        ):
            if run.delays_injected:
                last_overlap = run.overlap_ratio
        overlaps[tsv_mode] = last_overlap
    return overlaps[True], overlaps[False]


def overlap_ratios(
    config: WaffleConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Optional[OverlapRow]]:
    """Average delay-overlap ratio per app for Tsvd vs WaffleBasic.

    Each test gets two runs per tool (state persists across them, so
    the second run actually injects); the overlap ratio of the delayed
    run is averaged across tests.
    """

    def row(app: Application, per_test: list) -> OverlapRow:
        tsvd = [c[0] for c in per_test]
        basic = [c[1] for c in per_test]
        return OverlapRow(
            app=app.display_name,
            tsvd_overlap=metrics.mean(tsvd, context="overlap/tsvd: %s" % app.name) if tsvd else 0.0,
            wafflebasic_overlap=(
                metrics.mean(basic, context="overlap/wafflebasic: %s" % app.name)
                if basic
                else 0.0
            ),
        )

    return _per_app_rows(_overlap_cell, row, config, apps, seed, jobs, cache_dir)


@dataclass
class DynamicInstanceRow:
    app: str
    median_init_instances: float
    init_sites: int


def _dynamic_cell(
    app_name: str,
    test_name: str,
    config: WaffleConfig,
    seed: int,
    cache_dir: Optional[str],
) -> List[int]:
    test = get_app(app_name).test(test_name)
    prep = prepare_test(
        test,
        config,
        seed=seed,
        cache=open_cache(cache_dir),
        test_id=_test_id(app_name, test_name),
    )
    return prep.init_instance_counts


def dynamic_instances(
    config: WaffleConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Tuple[List[Optional[DynamicInstanceRow]], Optional[float]]:
    """Median dynamic instances of initialization sites (section 3.3:
    'the median number of dynamic instances for all object
    initialization operations is 2'). The overall median is None when
    an app's row degraded."""
    all_counts: List[int] = []

    def row(app: Application, per_test: list) -> DynamicInstanceRow:
        counts = [count for cell in per_test for count in cell]
        all_counts.extend(counts)
        return DynamicInstanceRow(
            app=app.display_name,
            median_init_instances=(
                metrics.median(counts, context="dynamic: %s" % app.name) if counts else 0.0
            ),
            init_sites=len(counts),
        )

    rows = _per_app_rows(_dynamic_cell, row, config, apps, seed, jobs, cache_dir)
    if any(r is None for r in rows):
        return rows, None
    return rows, metrics.median(all_counts) if all_counts else 0.0


# ======================================================================
# Table 4 -- bug detection results
# ======================================================================


@dataclass
class Table4Row:
    bug: KnownBug
    baseline_ms: float
    basic_runs: Optional[int]
    waffle_runs: Optional[int]
    basic_slowdown: Optional[float]
    waffle_slowdown: Optional[float]
    basic_attempt_runs: List[Optional[int]] = field(default_factory=list)
    waffle_attempt_runs: List[Optional[int]] = field(default_factory=list)


def _detect_attempts(
    tool_factory,
    bug: KnownBug,
    test: AppTestCase,
    attempts: int,
    budget: int,
    base_seed: int,
    cache: Optional[PlanCache] = None,
    tool_label: Optional[str] = None,
    test_id: Optional[str] = None,
) -> Tuple[List[Optional[int]], List[float]]:
    runs: List[Optional[int]] = []
    times: List[float] = []
    for attempt in range(1, attempts + 1):
        config = DEFAULT_CONFIG.with_seed(base_seed + attempt)
        key = None
        entry = None
        if cache is not None and tool_label is not None:
            key = {
                "tool": tool_label,
                "bug": bug.bug_id,
                "test": test_id if test_id is not None else test.name,
                "budget": budget,
                "config": config_hash(config, include_seed=True),
            }
            entry = cache.get("detect", key)
        if entry is None:
            outcome: DetectionOutcome = tool_factory(config).detect(
                test, max_detection_runs=budget
            )
            matched = outcome.bug_found and bug.matches(outcome.reports[0])
            entry = {
                "matched": matched,
                "runs": outcome.runs_to_expose if matched else None,
                "time_ms": outcome.total_time_ms,
                # Carried in the cache entry so a warm-cache campaign
                # emits the same detection event as a cold one.
                "session_runs": len(outcome.runs),
            }
            if cache is not None and key is not None:
                cache.put("detect", key, entry)
        bus = eventbus.bus()
        if bus is not None:
            bus.emit(
                "detection",
                tool=tool_label or getattr(tool_factory, "__name__", "tool"),
                bug=bug.bug_id,
                test=test_id if test_id is not None else test.name,
                attempt=attempt,
                matched=bool(entry["matched"]),
                runs=entry["runs"],
                time_ms=entry["time_ms"],
                session_runs=entry.get("session_runs", 0),
            )
            bus.maybe_flush()
        runs.append(entry["runs"] if entry["matched"] else None)
        if entry["matched"]:
            times.append(entry["time_ms"])
    return runs, times


def _table4_cell(
    bug_id: str,
    attempts: int,
    budget: int,
    base_seed: int,
    cache_dir: Optional[str],
) -> Table4Row:
    bug = get_bug(bug_id)
    test = bug_workload(bug_id)
    cache = open_cache(cache_dir)
    test_id = _test_id(bug.app, bug.test_name)
    baseline = baseline_run(test, seed=base_seed, cache=cache, test_id=test_id).virtual_time_ms

    waffle_runs, waffle_times = _detect_attempts(
        Waffle, bug, test, attempts, budget, base_seed, cache, "waffle", test_id
    )
    basic_runs, basic_times = _detect_attempts(
        WaffleBasic, bug, test, attempts, budget, base_seed, cache, "wafflebasic", test_id
    )

    return Table4Row(
        bug=bug,
        baseline_ms=baseline,
        basic_runs=metrics.majority_runs_to_expose(basic_runs),
        waffle_runs=metrics.majority_runs_to_expose(waffle_runs),
        basic_slowdown=(
            metrics.median(
                [t / baseline for t in basic_times],
                context="table4/wafflebasic: %s" % bug_id,
            )
            if basic_times
            else None
        ),
        waffle_slowdown=(
            metrics.median(
                [t / baseline for t in waffle_times],
                context="table4/waffle: %s" % bug_id,
            )
            if waffle_times
            else None
        ),
        basic_attempt_runs=basic_runs,
        waffle_attempt_runs=waffle_runs,
    )


def table4_detection(
    attempts: int = 15,
    budget: int = 50,
    bugs: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Optional[Table4Row]]:
    """Per-bug detection runs and end-to-end slowdowns, Waffle vs
    WaffleBasic, with the paper's 15-attempt majority convention."""
    return map_units(
        _table4_cell,
        [(bug.bug_id, attempts, budget, base_seed, cache_dir) for bug in _bugs(bugs)], jobs
    )


# ======================================================================
# Table 5 -- average overhead on all test inputs
# ======================================================================


@dataclass
class Table5Row:
    app: str
    baseline_ms: float
    basic_run1_pct: Optional[float]
    basic_run2_pct: Optional[float]
    waffle_run1_pct: Optional[float]
    waffle_run2_pct: Optional[float]
    basic_timeouts: int = 0
    waffle_timeouts: int = 0
    tests: int = 0

    @property
    def basic_timed_out(self) -> bool:
        return self.tests > 0 and self.basic_timeouts > self.tests / 2


@dataclass
class _Table5Cell:
    """Per-test measurements merged into Table5Row averages."""

    base: float
    basic_pcts: Dict[int, Optional[float]]
    basic_timed_out: bool
    waffle_pcts: Dict[int, Optional[float]]
    waffle_timeouts: int


def _table5_cell(
    app_name: str,
    test_name: str,
    config: WaffleConfig,
    seed: int,
    cache_dir: Optional[str],
) -> _Table5Cell:
    test = get_app(app_name).test(test_name)
    cache = open_cache(cache_dir)
    test_id = _test_id(app_name, test_name)
    base = baseline_run(test, seed=seed, cache=cache, test_id=test_id).virtual_time_ms
    limit = test_time_limit(base)

    # WaffleBasic run 1 and run 2.
    basic_pcts: Dict[int, Optional[float]] = {1: None, 2: None}
    timed_out = False
    for run_index, run in enumerate(
        online_pair(test, config, seed=seed, time_limit_ms=limit, cache=cache, test_id=test_id),
        start=1,
    ):
        if run.timed_out:
            timed_out = True
        else:
            basic_pcts[run_index] = metrics.overhead_percent(
                run.virtual_time_ms,
                base,
                context="table5/wafflebasic run %d: %s" % (run_index, test_id),
            )

    # Waffle preparation + first detection run.
    waffle_pcts: Dict[int, Optional[float]] = {1: None, 2: None}
    waffle_timeouts = 0
    prep = prepare_test(
        test, config, seed=seed, time_limit_ms=limit, cache=cache, test_id=test_id
    )
    if prep.run.timed_out:
        waffle_timeouts += 1
    else:
        waffle_pcts[1] = metrics.overhead_percent(
            prep.run.virtual_time_ms,
            base,
            context="table5/waffle prep: %s" % test_id,
        )
        detect = _planned_run_cached(
            test,
            prep.plan,
            config,
            seed=seed + 1,
            hook_seed=seed * 7919 + 1,
            time_limit_ms=limit,
            plan_limit=limit,
            cache=cache,
            test_id=test_id,
        )
        if detect.timed_out:
            waffle_timeouts += 1
        else:
            waffle_pcts[2] = metrics.overhead_percent(
                detect.virtual_time_ms,
                base,
                context="table5/waffle detect: %s" % test_id,
            )

    return _Table5Cell(
        base=base,
        basic_pcts=basic_pcts,
        basic_timed_out=timed_out,
        waffle_pcts=waffle_pcts,
        waffle_timeouts=waffle_timeouts,
    )


def table5_overhead(
    config: WaffleConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Optional[Table5Row]]:
    """Average Run#1/Run#2 overheads per app for both tools.

    For WaffleBasic, Run#1 and Run#2 are its first two (online)
    detection runs with persisted state. For Waffle, Run#1 is the
    preparation run and Run#2 the first detection run (the paper's R#1
    and R#2 columns). Tests whose run exceeds the per-test timeout are
    counted as timeouts and excluded from the percentage averages.
    """

    def row(app: Application, per_test: List[_Table5Cell]) -> Table5Row:
        bases = [c.base for c in per_test]
        basic_pcts = {
            index: [c.basic_pcts[index] for c in per_test if c.basic_pcts[index] is not None]
            for index in (1, 2)
        }
        waffle_pcts = {
            index: [c.waffle_pcts[index] for c in per_test if c.waffle_pcts[index] is not None]
            for index in (1, 2)
        }

        def avg(values: List[float]) -> Optional[float]:
            return metrics.mean(values, context="table5: %s" % app.name) if values else None

        return Table5Row(
            app=app.display_name,
            baseline_ms=(
                metrics.mean(bases, context="table5/baseline: %s" % app.name)
                if bases
                else 0.0
            ),
            basic_run1_pct=avg(basic_pcts[1]),
            basic_run2_pct=avg(basic_pcts[2]),
            waffle_run1_pct=avg(waffle_pcts[1]),
            waffle_run2_pct=avg(waffle_pcts[2]),
            basic_timeouts=sum(1 for c in per_test if c.basic_timed_out),
            waffle_timeouts=sum(c.waffle_timeouts for c in per_test),
            tests=len(per_test),
        )

    return _per_app_rows(_table5_cell, row, config, apps, seed, jobs, cache_dir)


# ======================================================================
# Table 6 -- cumulative delays injected
# ======================================================================


@dataclass
class Table6Row:
    app: str
    basic_delays: int
    basic_duration_ms: float
    waffle_delays: int
    waffle_duration_ms: float
    basic_timeouts: int = 0
    tests: int = 0

    @property
    def basic_timed_out(self) -> bool:
        return self.tests > 0 and self.basic_timeouts > self.tests / 2


def _table6_cell(
    app_name: str,
    test_name: str,
    config: WaffleConfig,
    seed: int,
    cache_dir: Optional[str],
) -> Tuple[int, float, int, float, bool]:
    """(basic_delays, basic_ms, waffle_delays, waffle_ms, basic_timed_out)."""
    test = get_app(app_name).test(test_name)
    cache = open_cache(cache_dir)
    test_id = _test_id(app_name, test_name)
    base = baseline_run(test, seed=seed, cache=cache, test_id=test_id).virtual_time_ms
    limit = test_time_limit(base)

    basic_delays = 0
    basic_duration = 0.0
    timed_out = False
    for run_index, run in enumerate(
        online_pair(test, config, seed=seed, time_limit_ms=limit, cache=cache, test_id=test_id),
        start=1,
    ):
        if run.timed_out:
            timed_out = True
        if run_index == 2:
            basic_delays += run.delays_injected
            basic_duration += run.total_delay_ms

    plan = analyze_test(test, config, seed=seed, cache=cache, test_id=test_id)
    detect = _planned_run_cached(
        test,
        plan,
        config,
        seed=seed + 1,
        hook_seed=seed * 7919 + 1,
        time_limit_ms=limit,
        plan_limit=None,
        cache=cache,
        test_id=test_id,
    )
    return basic_delays, basic_duration, detect.delays_injected, detect.total_delay_ms, timed_out


def table6_delays(
    config: WaffleConfig = DEFAULT_CONFIG,
    apps: Optional[Sequence[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Optional[Table6Row]]:
    """Cumulative number and duration of injected delays across all
    test inputs, one detection run per input (Basic: its second run,
    when persisted state makes injection meaningful; Waffle: its first
    detection run after the preparation run)."""

    def row(app: Application, per_test: list) -> Table6Row:
        return Table6Row(
            app=app.display_name,
            basic_delays=sum(c[0] for c in per_test),
            basic_duration_ms=sum(c[1] for c in per_test),
            waffle_delays=sum(c[2] for c in per_test),
            waffle_duration_ms=sum(c[3] for c in per_test),
            basic_timeouts=sum(1 for c in per_test if c[4]),
            tests=len(per_test),
        )

    return _per_app_rows(_table6_cell, row, config, apps, seed, jobs, cache_dir)


# ======================================================================
# Table 7 -- design-point ablations
# ======================================================================


@dataclass
class Table7Row:
    design_point: str
    label: str
    bugs_missed: int
    slowdown_over_waffle: float


def _ablation_factory(design_point: Optional[str]):
    """Tool factory + cache label for an ablation (None = full Waffle)."""
    if design_point is None:
        return Waffle, "waffle"
    factory = ALL_ABLATIONS[design_point]
    return (lambda cfg, factory=factory: factory(cfg)), "ablation:" + design_point


def _table7_found_cell(
    design_point: Optional[str],
    bug_id: str,
    attempts: int,
    budget: int,
    base_seed: int,
    cache_dir: Optional[str],
) -> bool:
    """Does this (possibly ablated) tool find the bug by majority?"""
    factory, label = _ablation_factory(design_point)
    bug = get_bug(bug_id)
    test = bug_workload(bug_id)
    runs, _ = _detect_attempts(
        factory, bug, test, attempts, budget, base_seed, open_cache(cache_dir), label,
        _test_id(bug.app, bug.test_name),
    )
    return metrics.majority_runs_to_expose(runs) is not None


def _table7_perf_cell(
    design_point: Optional[str],
    app_name: str,
    base_seed: int,
    cache_dir: Optional[str],
) -> Tuple[float, int]:
    """(total detection-run virtual time, test count) for one app."""
    factory, label = _ablation_factory(design_point)
    driver = factory(DEFAULT_CONFIG)
    # Re-seed without disturbing the driver's (possibly ablated) flags.
    driver.config = driver.config.with_seed(base_seed)
    cache = open_cache(cache_dir)
    total = 0.0
    count = 0
    for test in get_app(app_name).multithreaded_tests:
        key = None
        entry = None
        if cache is not None:
            key = {
                "tool": label,
                "test": _test_id(app_name, test.name),
                "config": config_hash(driver.config, include_seed=True),
            }
            entry = cache.get("perf", key)
        if entry is None:
            outcome = driver.detect(test, max_detection_runs=1)
            detect_runs = [r for r in outcome.runs if r.kind == "detect"]
            entry = {"vt": detect_runs[-1].virtual_time_ms if detect_runs else None}
            if cache is not None and key is not None:
                cache.put("perf", key, entry)
        if entry["vt"] is not None:
            total += entry["vt"]
            count += 1
    return total, count


def table7_ablations(
    attempts: int = 5,
    budget: int = 15,
    base_seed: int = 0,
    apps_for_perf: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    bugs: Optional[Sequence[str]] = None,
) -> List[Optional[Table7Row]]:
    """Bugs missed and detection-run slowdown for each single-design-
    point ablation, relative to full Waffle.

    Three fan-outs: the bugs Waffle itself finds (among ``bugs``,
    default all 18); every tool's per-app perf probes on
    ``apps_for_perf`` (Waffle first); and each ablation on the bugs
    Waffle finds. An ablation's row is None when a cell it depends on
    (its own, or Waffle's reference) degraded.
    """
    selected = _bugs(bugs)
    found_flags = map_units(
        _table7_found_cell,
        [(None, bug.bug_id, attempts, budget, base_seed, cache_dir) for bug in selected],
        jobs,
    )
    found_bugs = [bug for bug, flag in zip(selected, found_flags) if flag]
    perf_apps = _apps(apps_for_perf)
    perf_cells = map_units(
        _table7_perf_cell,
        [(point, app.name, base_seed, cache_dir)
         for point in (None, *ALL_ABLATIONS) for app in perf_apps],
        jobs,
    )
    ablation_flags = map_units(
        _table7_found_cell,
        [(point, bug.bug_id, attempts, budget, base_seed, cache_dir)
         for point in ALL_ABLATIONS for bug in found_bugs],
        jobs,
    )

    def slice_of(cells: list, index: int, width: int) -> Optional[list]:
        part = cells[index * width:(index + 1) * width]
        return None if any(c is None for c in part) else part

    def mean_perf(cells: list) -> float:
        """Average detection-run virtual time across every test input,
        capped at one detection run per test."""
        count = sum(c[1] for c in cells)
        return sum(c[0] for c in cells) / count if count else 0.0

    reference = slice_of(perf_cells, 0, len(perf_apps))
    if reference is None or any(flag is None for flag in found_flags):
        return [None] * len(ALL_ABLATIONS)
    waffle_perf = mean_perf(reference)
    rows: List[Optional[Table7Row]] = []
    for index, point in enumerate(ALL_ABLATIONS):
        flags = slice_of(ablation_flags, index, len(found_bugs))
        perf = slice_of(perf_cells, index + 1, len(perf_apps))
        rows.append(None if flags is None or perf is None else Table7Row(
            design_point=point,
            label=DESIGN_POINT_LABELS[point],
            bugs_missed=sum(1 for flag in flags if not flag),
            slowdown_over_waffle=mean_perf(perf) / waffle_perf if waffle_perf > 0 else 0.0,
        ))
    return rows


# ======================================================================
# Section 6.2 -- delay-free stress control
# ======================================================================


@dataclass
class StressRow:
    bug_id: str
    runs: int
    spontaneous_manifestations: int


def _stress_cell(bug_id: str, runs: int, base_seed: int) -> StressRow:
    test = bug_workload(bug_id)
    runner = StressRunner(DEFAULT_CONFIG.with_seed(base_seed))
    outcome = runner.detect(test, max_detection_runs=runs)
    return StressRow(
        bug_id=bug_id,
        runs=len(outcome.runs),
        spontaneous_manifestations=runner.spontaneous_manifestations(outcome),
    )


def stress_control(
    runs: int = 50,
    bugs: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    jobs: int = 1,
) -> List[Optional[StressRow]]:
    """Re-run each bug-triggering input ``runs`` times without delays;
    the paper's control says no bug ever manifests."""
    return map_units(_stress_cell, [(bug.bug_id, runs, base_seed) for bug in _bugs(bugs)], jobs)


# ======================================================================
# Extension -- the full Table 1 design space, quantified
# ======================================================================


@dataclass
class RelatedToolsRow:
    """Runs-to-expose and end-to-end slowdown for one bug x tool."""

    bug_id: str
    app: str
    runs: Dict[str, Optional[int]] = field(default_factory=dict)
    slowdowns: Dict[str, Optional[float]] = field(default_factory=dict)


def _related_cell(
    bug_id: str,
    budget: int,
    base_seed: int,
    cache_dir: Optional[str],
) -> RelatedToolsRow:
    from ..baselines.related import RELATED_TOOLS

    tool_factories = dict(RELATED_TOOLS)
    tool_factories["waffle"] = Waffle

    bug = get_bug(bug_id)
    test = bug_workload(bug_id)
    cache = open_cache(cache_dir)
    test_id = _test_id(bug.app, bug.test_name)
    baseline = baseline_run(test, seed=base_seed, cache=cache, test_id=test_id).virtual_time_ms
    row = RelatedToolsRow(bug_id=bug.bug_id, app=bug.app)
    for name, factory in tool_factories.items():
        runs, times = _detect_attempts(
            factory, bug, test, 1, budget, base_seed - 1, cache, "related:" + name, test_id
        )
        matched = runs[0] is not None
        row.runs[name] = runs[0]
        row.slowdowns[name] = (
            times[0] / baseline if matched and baseline > 0 else None
        )
    return row


def related_tools_comparison(
    bugs: Optional[Sequence[str]] = None,
    budget: int = 60,
    base_seed: int = 1,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Optional[RelatedToolsRow]]:
    """Extension experiment: quantify Table 1's qualitative matrix.

    Runs simplified models of RaceFuzzer, CTrigger, RaceMob and
    DataCollider (see :mod:`repro.baselines.related`) next to Waffle on
    the Table 4 bug suite. The paper's section 7 claim -- prior
    validation-style tools "naturally require many more runs than
    Waffle" -- becomes measurable: the one-candidate-per-run tools sweep
    |S| candidates on the dense apps, and the sampling tools miss the
    long-gap bugs outright.
    """
    return map_units(
        _related_cell, [(bug.bug_id, budget, base_seed, cache_dir) for bug in _bugs(bugs)], jobs
    )


# ======================================================================
# Figure 5 -- the delay-interference window
# ======================================================================


@dataclass
class Figure5Point:
    """One sweep point: when the interfering delay starts, and whether
    the target bug still manifests."""

    interferer_at_ms: float
    interferer_delay_overlaps_window: bool
    bug_exposed: bool


class _TwoSiteDelays(InstrumentationHook):
    """Fixed delays at the target use site and the interfering site."""

    def __init__(self, target_delay_ms: float, interferer_delay_ms: float):
        self.target_delay_ms = target_delay_ms
        self.interferer_delay_ms = interferer_delay_ms

    def before_access(self, pending) -> float:
        if pending.location.site == "fig5.use":
            return self.target_delay_ms
        if pending.location.site == "fig5.interferer":
            return self.interferer_delay_ms
        return 0.0


def _figure5_cell(
    interferer_at: float,
    target_delay_ms: float,
    interferer_delay_ms: float,
    seed: int,
) -> Figure5Point:
    sim = Simulation(
        seed=seed, hook=_TwoSiteDelays(target_delay_ms, interferer_delay_ms), name="figure5"
    )
    ref = sim.ref("fig5_obj")
    scratch = sim.ref("fig5_scratch")
    gate = sim.event("fig5.gate")

    def user():
        yield from sim.sleep(5.0)
        yield from sim.use(ref, member="Touch", loc="fig5.use")

    def disposer(at=interferer_at):
        yield from sim.sleep(at)
        yield from sim.use(scratch, member="Prep", loc="fig5.interferer")
        yield from gate.wait()  # slack absorbs early delays
        yield from sim.sleep(0.5)
        yield from sim.dispose(ref, loc="fig5.dispose")

    def timer():
        yield from sim.sleep(9.5)
        gate.set()

    def root():
        yield from sim.assign(ref, sim.new("fig5.Obj"), loc="fig5.init")
        yield from sim.assign(scratch, sim.new("fig5.Scratch"), loc="fig5.scratch_init")
        threads = [
            sim.fork(user(), name="fig5-user"),
            sim.fork(disposer(), name="fig5-disposer"),
            sim.fork(timer(), name="fig5-timer"),
        ]
        yield from sim.join_all(threads)

    result = sim.run(root())
    exposed = result.crashed and isinstance(result.first_failure(), NullReferenceError)
    use_lands_at = 5.0 + target_delay_ms
    overlaps = interferer_at + interferer_delay_ms + 0.5 > use_lands_at
    return Figure5Point(interferer_at, overlaps, exposed)


def figure5_interference_window(
    interferer_times_ms: Sequence[float] = (0.0, 1.0, 2.0, 6.0, 7.0, 8.0),
    target_delay_ms: float = 20.0,
    interferer_delay_ms: float = 20.0,
    seed: int = 0,
    jobs: int = 1,
) -> List[Optional[Figure5Point]]:
    """Quantify Figure 5: an equal-length delay at l* on the disposer's
    thread cancels the reordering delay at l1 *only when it runs late
    enough to still be pending when the delayed use lands* -- an early
    l* delay is absorbed by the thread's slack before the disposal and
    interferes with nothing.

    Scenario (delay-free timeline): thread 1 uses the object at t=5;
    thread 2 executes l* at a swept time, waits for a timer gate at
    t=9.5, then disposes at t~10. Both sites receive the same 20 ms
    delay (the WaffleBasic fixed-length setting that makes Figure 4's
    cancellations deterministic). The delayed use lands at ~25 ms; the
    disposal lands at max(10, t* + 20) + 0.5 -- so for t* late enough
    that the two delay windows still overlap at the use's landing, the
    disposal is pushed past the use and the bug is hidden.
    """
    return map_units(
        _figure5_cell,
        [(at, target_delay_ms, interferer_delay_ms, seed) for at in interferer_times_ms],
        jobs,
    )
