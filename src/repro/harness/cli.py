"""Command-line interface: regenerate any paper table or figure.

Examples::

    waffle-repro table1
    waffle-repro table4 --attempts 15 --budget 50
    waffle-repro table5 --apps netmq mqttnet
    waffle-repro detect --bug Bug-11 --tool wafflebasic
    waffle-repro all --attempts 5 --out results.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, List, NoReturn, Optional, Tuple

from .. import obs
from ..obs import eventbus
from ..apps import all_apps, all_bugs, bug_workload, get_app
from ..baselines import StressRunner, WaffleBasic
from ..core.config import DEFAULT_CONFIG
from ..core.detector import Waffle
from . import experiments, faults, parallel, supervisor, tables
from .cache import GLOBAL_STATS
from .store import ArtifactStore


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with argparse's one-line ``waffle-repro: error:`` format."""
    print("waffle-repro: error: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _resolve_target(args):
    """The test case named by ``--bug`` or ``--app``/``--test``."""
    if args.bug:
        try:
            return bug_workload(args.bug)
        except KeyError:
            _usage_error(
                "unknown bug %r (known: %s)"
                % (args.bug, ", ".join(bug.bug_id for bug in all_bugs()))
            )
    try:
        app = get_app(args.app)
    except KeyError:
        _usage_error(
            "unknown app %r (known: %s)" % (args.app, ", ".join(sorted(all_apps())))
        )
    try:
        return app.test(args.test)
    except KeyError:
        _usage_error(
            "unknown test %r in app %r (known: %s)"
            % (args.test, app.name, ", ".join(test.name for test in app.tests))
        )


def check_selection(args) -> None:
    """Unknown ``--apps`` keys and ``--bugs`` ids are usage errors."""
    apps = getattr(args, "apps", None)
    if apps:
        known_apps = sorted(all_apps())
        unknown = [name for name in apps if name not in known_apps]
        if unknown:
            _usage_error(
                "unknown app %s (known: %s)"
                % (", ".join(map(repr, unknown)), ", ".join(known_apps))
            )
    bugs = getattr(args, "bugs", None)
    if bugs:
        known_bugs = [bug.bug_id for bug in all_bugs()]
        unknown = [bug_id for bug_id in bugs if bug_id not in known_bugs]
        if unknown:
            _usage_error(
                "unknown bug %s (known: %s)"
                % (", ".join(map(repr, unknown)), ", ".join(known_bugs))
            )


def _seed_range(text: str) -> Tuple[int, int]:
    """Parse ``--seed-range START:STOP`` (half-open, non-empty)."""
    try:
        start_text, stop_text = text.split(":", 1)
        start, stop = int(start_text), int(stop_text)
    except ValueError:
        _usage_error("--seed-range expects START:STOP, got %r" % text)
    if stop <= start:
        _usage_error("--seed-range: empty range %r" % text)
    return start, stop


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "a") as fp:
            fp.write(text + "\n\n")
    print(text)
    print()


def _to_jsonable(value: Any) -> Any:
    """Best-effort conversion of experiment rows to JSON-safe values."""
    from ..sim.instrument import Location

    if isinstance(value, Location):
        return value.site
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Field-by-field (not dataclasses.asdict) so nested values still
        # pass through this dispatcher, e.g. Locations become site
        # strings rather than {"site": ...} dicts.
        return {
            f.name: _to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_to_jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _emit_rows(name: str, rows: Any, text: str, args) -> None:
    """Emit rendered text, or machine-readable JSON with --json."""
    if getattr(args, "json", False):
        payload = json.dumps({name: _to_jsonable(rows)}, indent=2, sort_keys=True)
        _emit(payload, args.out)
    else:
        _emit(text, args.out)


def cmd_table1(args) -> None:
    _emit(tables.design_matrix(), args.out)


def cmd_table2(args) -> None:
    rows = experiments.table2_sites(
        apps=args.apps, seed=args.seed, jobs=args.jobs, cache_dir=args.cache_dir
    )
    _emit_rows("table2", rows, tables.render_table2(rows), args)


def cmd_figure2(args) -> None:
    points = experiments.figure2_timing_conditions(seed=args.seed, jobs=args.jobs)
    _emit_rows("figure2", points, tables.render_figure2(points), args)


def cmd_figure5(args) -> None:
    points = experiments.figure5_interference_window(seed=args.seed, jobs=args.jobs)
    _emit_rows("figure5", points, tables.render_figure5(points), args)


def cmd_overlap(args) -> None:
    rows = experiments.overlap_ratios(
        apps=args.apps, seed=args.seed, jobs=args.jobs, cache_dir=args.cache_dir
    )
    _emit_rows("overlap", rows, tables.render_overlap(rows), args)


def cmd_dynamic(args) -> None:
    rows, overall = experiments.dynamic_instances(
        apps=args.apps, seed=args.seed, jobs=args.jobs, cache_dir=args.cache_dir
    )
    _emit(tables.render_dynamic_instances(rows, overall), args.out)


def cmd_table4(args) -> None:
    rows = experiments.table4_detection(
        attempts=args.attempts,
        budget=args.budget,
        bugs=args.bugs,
        base_seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    _emit_rows("table4", rows, tables.render_table4(rows), args)


def cmd_table5(args) -> None:
    rows = experiments.table5_overhead(
        apps=args.apps, seed=args.seed, jobs=args.jobs, cache_dir=args.cache_dir
    )
    _emit_rows("table5", rows, tables.render_table5(rows), args)


def cmd_table6(args) -> None:
    rows = experiments.table6_delays(
        apps=args.apps, seed=args.seed, jobs=args.jobs, cache_dir=args.cache_dir
    )
    _emit_rows("table6", rows, tables.render_table6(rows), args)


def cmd_table7(args) -> None:
    rows = experiments.table7_ablations(
        attempts=args.attempts,
        budget=args.budget,
        base_seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    _emit_rows("table7", rows, tables.render_table7(rows), args)


def cmd_related(args) -> None:
    rows = experiments.related_tools_comparison(
        bugs=args.bugs,
        budget=args.budget,
        base_seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    _emit_rows("related", rows, tables.render_related_tools(rows), args)


def cmd_stress(args) -> None:
    rows = experiments.stress_control(
        runs=args.budget, bugs=args.bugs, base_seed=args.seed, jobs=args.jobs
    )
    _emit_rows("stress", rows, tables.render_stress(rows), args)


def cmd_fuzz(args) -> int:
    """Oracle-verify a range of generated workloads (property suite)."""
    from . import fuzz as fuzz_mod

    start, stop = _seed_range(args.seed_range)
    config = DEFAULT_CONFIG.with_seed(args.seed)
    rows = fuzz_mod.fuzz_range(
        start,
        stop,
        config=config,
        budget=args.budget,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        check_replay=not args.no_replay,
    )
    digest = fuzz_mod.fuzz_digest(rows)
    _emit_rows(
        "fuzz", {"rows": rows, "digest": digest}, fuzz_mod.render_fuzz(rows, digest), args
    )
    failures = [r for r in rows if not r["ok"]]
    if failures and args.shrink_dir:
        for path in fuzz_mod.shrink_failures(failures, config, args.budget, args.shrink_dir):
            print("regression fixture written: %s" % path)
    if getattr(args, "dashboard", False):
        target = args.obs_dir or "waffle-dashboard"
        for path in _write_dashboard_artifacts(target, rows=rows, label="fuzz"):
            print("dashboard artifact written: %s" % path)
    return 1 if failures else 0


def _write_dashboard_artifacts(
    directory: str,
    rows: Optional[List[dict]] = None,
    bench_paths: Optional[List[Any]] = None,
    deterministic: bool = False,
    label: str = "campaign",
    dashboard_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> List[str]:
    """Render ``dashboard.html`` + ``metrics.prom`` and append one
    quality row to ``timeseries.jsonl`` under ``directory``.

    Flushes telemetry and the event bus first so same-process campaigns
    (``fuzz --dashboard``) see their own data on disk; every input is
    optional, so the artifacts always render (with empty sections
    standing in for absent sources)."""
    from ..obs import dashboard as dashboard_mod
    from ..obs import openmetrics as openmetrics_mod
    from ..obs import quality as quality_mod
    from ..obs import timeseries as timeseries_mod
    from ..obs.report import load_obs_dir

    eventbus.flush()
    obs.flush()
    os.makedirs(directory, exist_ok=True)
    data = load_obs_dir(directory)
    view, snapshot = data.view, data.metrics or None
    quality = quality_mod.build_quality(data, rows=rows)
    row = timeseries_mod.build_row(
        view=view, quality=quality, bench_paths=bench_paths or (), label=label
    )
    series_path = timeseries_mod.append_row(directory, row)
    trend_rows, _trend_warnings = timeseries_mod.load_series(directory)
    html_path = Path(dashboard_out or os.path.join(directory, "dashboard.html"))
    html_path.write_text(
        dashboard_mod.render_dashboard(
            view=view, quality=quality, snapshot=snapshot, trend_rows=trend_rows
        )
    )
    prom_path = Path(metrics_out or os.path.join(directory, "metrics.prom"))
    prom_path.write_text(
        openmetrics_mod.render_openmetrics(
            snapshot=snapshot, view=view, quality=quality,
            deterministic_only=deterministic,
        )
    )
    return [str(html_path), str(prom_path), str(series_path)]


def cmd_detect(args) -> None:
    test = _resolve_target(args)
    config = DEFAULT_CONFIG.with_seed(args.seed)
    if getattr(args, "dossier_dir", None) and not obs.flightrec.active():
        # Dossiers need the flight recorder's provenance; install it
        # before the driver constructs its instrumented objects.
        obs.flightrec.install()
    driver = {"waffle": Waffle, "wafflebasic": WaffleBasic, "stress": StressRunner}[args.tool](
        config
    )
    outcome = driver.detect(test, max_detection_runs=args.budget)
    print("tool=%s workload=%s" % (outcome.tool, outcome.workload))
    for record in outcome.runs:
        print(
            "  run %d (%s): %.2fms, %d delays (%.1fms), crashed=%s%s"
            % (
                record.index,
                record.kind,
                record.virtual_time_ms,
                record.delays_injected,
                record.total_delay_ms,
                record.crashed,
                " TIMEOUT" if record.timed_out else "",
            )
        )
    if outcome.bug_found:
        print("BUG EXPOSED after %s runs:" % outcome.runs_to_expose)
        print("  " + outcome.reports[0].summary())
    else:
        print("no bug exposed within %d runs" % args.budget)
    if getattr(args, "dossier_dir", None):
        from ..obs import coverage as coverage_mod
        from ..obs import dossier as dossier_mod

        for built in getattr(outcome, "dossiers", []):
            path = dossier_mod.write_dossier(built, args.dossier_dir)
            print(
                "dossier written: %s (replay with: waffle-repro replay %s)"
                % (path, path)
            )
        if getattr(outcome, "coverage", None) is not None:
            path = coverage_mod.write_coverage(outcome.coverage, args.dossier_dir)
            print("coverage written: %s" % path)


def _resolve_workload(name: str):
    """Find a test case by name across all applications (for replay)."""
    for app in all_apps().values():
        for test in app.tests:
            if test.name == name:
                return test
    # Generated workloads (including the oracle's defused variants) are
    # rebuilt from their name alone: gen-<seed>:workload[+defused[...]].
    from ..gen import registry as gen_registry

    test = gen_registry.resolve_test(name)
    if test is not None:
        return test
    _usage_error("workload %r not found in any registered application" % name)


def cmd_replay(args) -> int:
    """Deterministically re-execute a dossier's minimal schedule."""
    from ..obs import dossier as dossier_mod

    try:
        dossier = dossier_mod.load_dossier(args.dossier)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        reason = "missing field %s" % exc if isinstance(exc, KeyError) else exc
        _usage_error("cannot read dossier %s: %s" % (args.dossier, reason))
    test = _resolve_workload(dossier.workload)
    print(
        "replaying %s :: %s (%s @ %s, %d delay(s), %s)"
        % (
            dossier.tool,
            dossier.workload,
            dossier.error_type,
            dossier.fault_site,
            len(dossier.schedule.get("delays", [])),
            "minimized" if dossier.minimized else "full schedule",
        )
    )
    outcome, reproduced = dossier_mod.replay_dossier(dossier, test.build)
    print(
        "  outcome: crashed=%s error=%s site=%s (%d delay(s) injected, %.2f virtual ms)"
        % (
            outcome.crashed,
            outcome.error_type,
            outcome.fault_site,
            outcome.delays_injected,
            outcome.virtual_time_ms,
        )
    )
    if reproduced:
        print("REPRODUCED: same error type at the same fault location")
        return 0
    print("NOT REPRODUCED: outcome differs from the dossier's bug report")
    return 1


def cmd_apps(args) -> None:
    """List the benchmark applications and their test suites."""
    for app in all_apps().values():
        bugs = ", ".join(b.bug_id for b in app.known_bugs) or "none"
        print(
            "%-18s %-20s %3d tests   bugs: %s"
            % (app.name, app.display_name, len(app.tests), bugs)
        )
        if args.verbose:
            for test in app.tests:
                print("    %s" % test.name)


def cmd_bugs(args) -> None:
    """List the 18 Table 4 bugs with their metadata."""
    for bug in all_bugs():
        print(
            "%-7s %-17s issue %-5s %-16s %-9s test=%s"
            % (
                bug.bug_id,
                bug.app,
                bug.issue_id,
                bug.kind,
                "known" if bug.previously_known else "unknown",
                bug.test_name,
            )
        )
        if args.verbose:
            print("    %s" % bug.description)


def cmd_trace(args) -> None:
    """Record a delay-free trace of one test; dump stats and optionally
    the JSONL events and the analyzed injection plan."""
    from ..core.analyzer import analyze_trace
    from ..core.persistence import save_plan
    from .runner import run_recording

    test = _resolve_target(args)
    config = DEFAULT_CONFIG.with_seed(args.seed)
    run, trace = run_recording(test, config, seed=args.seed)
    print("trace of %r: %d events, %.2f virtual ms" % (test.name, len(trace), run.virtual_time_ms))
    print("  threads: %d (%s)" % (
        len(trace.thread_names),
        ", ".join(sorted(trace.thread_names.values())[:8]),
    ))
    print("  MemOrder sites: %d, TSV sites: %d" % (
        len(trace.static_sites(memorder=True)),
        len(trace.static_sites(memorder=False)),
    ))
    plan = analyze_trace(trace, config)
    print("  candidate pairs: %d, injection sites: %d, interference pairs: %d, "
          "pruned fork-ordered: %d" % (
        plan.stats.candidate_pairs,
        plan.stats.injection_sites,
        plan.stats.interference_pairs,
        plan.stats.pruned_parent_child,
    ))
    for site in sorted(plan.delay_sites):
        print("    delay %-50s %.2f ms (x%.2f)" % (
            site, plan.delay_lengths.get(site, 0.0), config.alpha))
    if args.save_trace:
        with open(args.save_trace, "w") as fp:
            count = trace.dump(fp)
        print("  wrote %d events to %s" % (count, args.save_trace))
    if args.save_plan:
        save_plan(plan, args.save_plan)
        print("  wrote injection plan to %s" % args.save_plan)


def _bench_history(values: Optional[List[str]]) -> List[Path]:
    """Expand --bench arguments: files pass through, directories glob
    their ``BENCH_*.json`` snapshots (lexicographic = history order)."""
    out: List[Path] = []
    for value in values or []:
        path = Path(value)
        if path.is_dir():
            out.extend(sorted(path.glob("BENCH_*.json")))
        else:
            out.append(path)
    return out


def cmd_obs(args) -> int:
    """Aggregate an obs directory: digest report, coverage observatory,
    bug dossiers, Chrome trace export, or campaign analytics."""
    from ..obs.report import load_obs_dir, render_report, write_chrome_trace

    data = load_obs_dir(args.obs_path)  # parses each file on first use
    if args.action == "dashboard":
        for path in _write_dashboard_artifacts(
            args.obs_path,
            bench_paths=_bench_history(args.bench),
            deterministic=args.deterministic,
            label="obs-dashboard",
            dashboard_out=args.dashboard_out,
            metrics_out=args.metrics_out,
        ):
            print("dashboard artifact written: %s" % path)
        return 0
    if args.action == "metrics":
        from ..obs import openmetrics as openmetrics_mod
        from ..obs import quality as quality_mod

        text = openmetrics_mod.render_openmetrics(
            snapshot=data.metrics or None,
            view=data.view,
            quality=quality_mod.build_quality(data),
            deterministic_only=args.deterministic,
        )
        target = args.metrics_out or os.path.join(args.obs_path, "metrics.prom")
        with open(target, "w") as fp:
            fp.write(text)
        print("openmetrics export written to %s" % target)
        return 0
    if args.action == "trend":
        from ..obs import timeseries as timeseries_mod

        rows, warnings = timeseries_mod.load_series(args.obs_path)
        text = timeseries_mod.render_trend(rows)
        if warnings:
            text += "\n" + "\n".join("  warning: %s" % w for w in warnings)
        _emit(text, args.out)
        return 0
    if args.action == "analytics":
        from ..obs import campaign as campaign_mod

        if data.view is None:
            print("no event streams under %s" % args.obs_path)
            return 1
        _emit(
            campaign_mod.render_analytics(
                data.view,
                obs_data=data,
                bench_paths=_bench_history(args.bench),
                source=args.obs_path,
            ),
            args.out,
        )
        return 0
    if args.action == "coverage":
        from ..obs import coverage as coverage_mod

        records = data.coverage
        for warning in data.unreadable("coverage"):
            print("warning: %s" % warning, file=sys.stderr)
        if not records:
            print("no coverage records under %s" % args.obs_path)
            return 1
        merged = coverage_mod.merge_coverage(records)
        _emit(
            coverage_mod.render_coverage(
                merged if len(records) > 1 else records[0],
                per_session=records if len(records) > 1 else None,
            ),
            args.out,
        )
        return 0
    if args.action == "dossier":
        from ..obs import dossier as dossier_mod

        dossiers = data.dossiers
        for warning in data.unreadable("dossier"):
            print("warning: %s" % warning, file=sys.stderr)
        if not dossiers:
            print("no dossiers under %s" % args.obs_path)
            return 1
        for item in dossiers:
            dossier = dossier_mod.BugDossier.from_dict(item["dossier"])
            _emit(dossier_mod.render_dossier(dossier), args.out)
            if args.html:
                html_path = (data.root / item["file"]).with_suffix(".html")
                html_path.write_text(dossier_mod.render_swimlane_html(dossier))
                print("swimlane written to %s" % html_path)
        return 0
    if args.action == "chrome":
        out = args.trace_out or os.path.join(args.obs_path, "trace.json")
        count = write_chrome_trace(data, out)
        print("wrote %d trace events to %s (open in chrome://tracing or Perfetto)" % (count, out))
        return 0
    _emit(render_report(data, max_runs=args.max_runs), args.out)
    return 0


def cmd_campaign(args) -> int:
    """Inspect or merge campaign event streams (``events-*.jsonl``)."""
    from ..obs import campaign as campaign_mod

    merged_out = getattr(args, "merged_out", None)
    if args.action == "merge" and not merged_out:
        _usage_error("campaign merge requires --merged-out PATH")
    streams = []
    for path in args.paths:
        streams.extend(eventbus.load_streams(path))
    source = args.paths[0] if len(args.paths) == 1 else ", ".join(args.paths)
    if not streams:
        print("no event streams under %s" % source)
        return 1
    if args.action == "merge":
        count = eventbus.write_merged(streams, merged_out)
        print(
            "merged %d event(s) from %d stream(s) into %s"
            % (count, len(streams), merged_out)
        )
        return 0
    view = campaign_mod.fold_streams(streams)
    _emit(
        campaign_mod.render_status(
            view, source=source, max_cells=getattr(args, "max_cells", 8)
        ),
        args.out,
    )
    return 0


def cmd_campaign_run(args) -> int:
    """Coordinate a fleet campaign (see :mod:`repro.harness.fleet`)."""
    from . import fleet as fleet_mod

    inner = list(args.inner)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        _usage_error(
            "campaign run requires an inner command after --, "
            "e.g.: campaign run --fleet-dir DIR -- fuzz --seed-range 0:40"
        )
    return fleet_mod.run_campaign(
        args.fleet_dir,
        inner,
        workers=args.workers,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
        retries=args.retries,
        min_workers=args.min_workers,
        drain_timeout_s=args.drain_timeout,
    )


def cmd_campaign_worker(args) -> int:
    """Join a fleet campaign as one worker process."""
    from . import fleet as fleet_mod

    return fleet_mod.run_worker(
        args.fleet_dir, wait_s=args.wait, worker_id=args.worker_id
    )


def cmd_all(args) -> None:
    for command in (
        cmd_table1,
        cmd_table2,
        cmd_figure2,
        cmd_figure5,
        cmd_overlap,
        cmd_dynamic,
        cmd_table4,
        cmd_table5,
        cmd_table6,
        cmd_table7,
        cmd_stress,
    ):
        command(args)


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's (unset) copy of a shared option
    # from clobbering a value given before the subcommand.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="base random seed"
    )
    shared.add_argument(
        "--out", type=str, default=argparse.SUPPRESS, help="append output to this file"
    )
    shared.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit machine-readable JSON instead of rendered tables",
    )
    shared.add_argument(
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        help="worker processes for experiment cells (1 = serial, 0 = all CPUs); "
        "results are bit-identical at any value",
    )
    shared.add_argument(
        "--cache-dir",
        type=str,
        default=argparse.SUPPRESS,
        help="content-addressed run cache directory (also via WAFFLE_CACHE_DIR); "
        "prep traces are recorded once and their plans reused across tables",
    )
    shared.add_argument(
        "--obs-dir",
        type=str,
        default=argparse.SUPPRESS,
        help="enable run telemetry and the campaign event stream and write "
        "both here (also via WAFFLE_OBS_DIR); inspect with 'obs report <dir>', "
        "'campaign status <dir>' or 'obs analytics <dir>' afterwards",
    )
    shared.add_argument(
        "--progress",
        action="store_true",
        default=argparse.SUPPRESS,
        help="render live campaign progress (cells, retries, detections, eta) "
        "to stderr while experiments run",
    )
    shared.add_argument(
        "--resume",
        type=str,
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="campaign checkpoint directory (an artifact store): completed "
        "cells are skipped, the failure tail re-attempted; results are "
        "bit-identical to an uninterrupted run (activates the supervisor)",
    )
    shared.add_argument(
        "--retries",
        type=int,
        default=argparse.SUPPRESS,
        help="per-cell attempt budget for retryable faults (worker crash, "
        "hang, transient I/O); deterministic failures are quarantined, "
        "not retried (activates the supervisor; default 3 when active)",
    )
    shared.add_argument(
        "--cell-timeout",
        type=float,
        default=argparse.SUPPRESS,
        metavar="SECONDS",
        help="explicit per-cell watchdog deadline; default adapts from the "
        "median completed-cell time x the runner's TIMEOUT_FACTOR "
        "(activates the supervisor)",
    )
    parser = argparse.ArgumentParser(
        prog="waffle-repro",
        parents=[shared],
        description="Regenerate the tables and figures of the Waffle paper (EuroSys '23).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, attempts_default=15, budget_default=50):
        p.add_argument("--apps", nargs="*", default=None, help="restrict to these app keys")
        p.add_argument("--bugs", nargs="*", default=None, help="restrict to these bug ids")
        p.add_argument("--attempts", type=positive_int, default=attempts_default)
        p.add_argument("--budget", type=positive_int, default=budget_default)

    for name, fn, help_text in (
        ("table1", cmd_table1, "design-decision matrix (Table 1)"),
        ("table2", cmd_table2, "instrumentation/injection site densities (Table 2)"),
        ("figure2", cmd_figure2, "timing-condition microbenchmark (Figure 2)"),
        ("figure5", cmd_figure5, "interference-window microbenchmark (Figure 5)"),
        ("overlap", cmd_overlap, "delay-overlap ratios (section 3.3)"),
        ("dynamic", cmd_dynamic, "init-site dynamic-instance census (section 3.3)"),
        ("table4", cmd_table4, "bug detection results (Table 4)"),
        ("table5", cmd_table5, "average overhead per app (Table 5)"),
        ("table6", cmd_table6, "cumulative delays injected (Table 6)"),
        ("table7", cmd_table7, "design-point ablations (Table 7)"),
        ("stress", cmd_stress, "delay-free control (section 6.2)"),
        ("related", cmd_related, "extension: the full Table 1 design space"),
        ("all", cmd_all, "everything above"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[shared])
        common(p, attempts_default=5 if name in ("table7", "all") else 15)
        p.set_defaults(func=fn)

    for name, fn, help_text in (
        ("apps", cmd_apps, "list the benchmark applications"),
        ("bugs", cmd_bugs, "list the 18 Table 4 bugs"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[shared])
        p.add_argument("-v", "--verbose", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser(
        "trace",
        help="record and analyze a delay-free trace of one workload",
        parents=[shared],
    )
    p.add_argument("--bug", type=str, default=None, help="bug id, e.g. Bug-11")
    p.add_argument("--app", type=str, default=None)
    p.add_argument("--test", type=str, default=None)
    p.add_argument("--save-trace", type=str, default=None, help="write events (JSONL) here")
    p.add_argument("--save-plan", type=str, default=None, help="write the injection plan here")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("detect", help="run one tool on one workload", parents=[shared])
    p.add_argument("--tool", choices=["waffle", "wafflebasic", "stress"], default="waffle")
    p.add_argument("--bug", type=str, default=None, help="bug id, e.g. Bug-11")
    p.add_argument("--app", type=str, default=None)
    p.add_argument("--test", type=str, default=None)
    p.add_argument("--budget", type=positive_int, default=50)
    p.add_argument(
        "--dossier-dir",
        type=str,
        default=None,
        help="enable the flight recorder and write bug dossiers + coverage here",
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "fuzz",
        help="generate seeded workloads and verify the detector against "
        "their planted-bug oracles",
        parents=[shared],
    )
    p.add_argument(
        "--seed-range",
        type=str,
        default="0:20",
        metavar="START:STOP",
        help="generator seeds to evaluate, half-open (default 0:20); each "
        "seed is one procedurally generated workload with an analytic "
        "ground-truth oracle",
    )
    p.add_argument(
        "--budget",
        type=positive_int,
        default=8,
        help="detection runs per oracle session (default 8)",
    )
    p.add_argument(
        "--no-replay",
        action="store_true",
        help="skip re-executing each detection's dossier (replay "
        "verification is on by default)",
    )
    p.add_argument(
        "--shrink-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="shrink failing workloads to minimal specs and persist them "
        "here as regression-*.json fixtures",
    )
    p.add_argument(
        "--dashboard",
        action="store_true",
        help="render dashboard.html + metrics.prom and append a "
        "timeseries.jsonl quality row into --obs-dir "
        "(or ./waffle-dashboard) after the run",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "replay",
        help="deterministically re-execute a bug dossier's minimal schedule",
        parents=[shared],
    )
    p.add_argument("dossier", type=str, help="path to a dossier-*.json file")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "obs",
        help="aggregate a telemetry directory written via --obs-dir",
        parents=[shared],
    )
    p.add_argument(
        "action",
        choices=[
            "report", "chrome", "coverage", "dossier", "analytics",
            "dashboard", "metrics", "trend",
        ],
        help="digest, trace_event export, coverage observatory, dossier dump, "
        "cross-run campaign analytics, self-contained HTML dashboard, "
        "OpenMetrics export, or the quality time-series trend",
    )
    p.add_argument("obs_path", type=str, help="the obs directory to aggregate")
    p.add_argument("--max-runs", type=int, default=20, help="rows in the slowest-runs table")
    p.add_argument(
        "--trace-out", type=str, default=None, help="chrome: output path (default <dir>/trace.json)"
    )
    p.add_argument(
        "--html",
        action="store_true",
        help="dossier: also write an HTML swimlane next to each dossier file",
    )
    p.add_argument(
        "--bench",
        nargs="*",
        default=None,
        metavar="PATH",
        help="analytics/dashboard: BENCH_*.json snapshots (or directories of "
        "them) for the perf-regression tracker",
    )
    p.add_argument(
        "--dashboard-out",
        type=str,
        default=None,
        metavar="PATH",
        help="dashboard: output path (default <dir>/dashboard.html)",
    )
    p.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="dashboard/metrics: output path (default <dir>/metrics.prom)",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="dashboard/metrics: export only data derived from deduplicated "
        "work products, so chaos / resumed / cached campaigns export "
        "byte-identically to clean ones",
    )
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "campaign",
        help="run fleet campaigns; inspect or merge campaign event streams",
        parents=[shared],
    )
    campaign_sub = p.add_subparsers(dest="action", required=True)

    cp = campaign_sub.add_parser(
        "run",
        parents=[shared],
        help="coordinate a fleet campaign: N worker processes pull leased "
        "cells from a shared directory; output is byte-identical to a "
        "serial run",
    )
    cp.add_argument(
        "--fleet-dir",
        type=str,
        required=True,
        metavar="DIR",
        help="the shared coordination directory (manifest, leases, artifact "
        "store and event streams)",
    )
    cp.add_argument(
        "--workers",
        type=int,
        default=0,
        help="local worker processes to spawn (default 0: the coordinator "
        "executes alone; remote workers join via 'campaign worker')",
    )
    cp.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat deadline on cell leases; a worker silent this long "
        "is presumed dead and its cell is stolen (default 30)",
    )
    cp.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="wait-loop poll interval for other workers' results (default 0.2)",
    )
    cp.add_argument(
        "--min-workers",
        type=int,
        default=0,
        help="wait for this many workers to register before starting "
        "(default 0: start immediately)",
    )
    cp.add_argument(
        "--drain-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="give up waiting for unresolved cells / straggling workers "
        "after this long (default 600)",
    )
    cp.add_argument(
        "inner",
        nargs=argparse.REMAINDER,
        metavar="-- COMMAND ...",
        help="the campaign to run, e.g. -- fuzz --seed-range 0:40",
    )
    cp.set_defaults(func=cmd_campaign_run)

    cp = campaign_sub.add_parser(
        "worker",
        parents=[shared],
        help="join a fleet campaign as one worker (the inner command comes "
        "from the fleet directory's manifest)",
    )
    cp.add_argument("--fleet-dir", type=str, required=True, metavar="DIR")
    cp.add_argument(
        "--wait",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="how long to wait for the coordinator's manifest (default 60)",
    )
    cp.add_argument(
        "--worker-id", type=str, default=None, help="stable identity override"
    )
    cp.set_defaults(func=cmd_campaign_worker)

    for action, help_text in (
        ("status", "render progress/health/funnel from event streams"),
        ("merge", "combine worker streams into one deterministic timeline"),
    ):
        cp = campaign_sub.add_parser(action, parents=[shared], help=help_text)
        cp.add_argument(
            "paths",
            nargs="+",
            help="event stream files or directories of events-*.jsonl "
            "(a fleet dir works directly)",
        )
        if action == "merge":
            cp.add_argument(
                "--merged-out",
                type=str,
                default=None,
                metavar="PATH",
                help="where to write the combined stream",
            )
        else:
            cp.add_argument(
                "--max-cells", type=int, default=8, help="in-flight cells listed"
            )
        cp.set_defaults(func=cmd_campaign)
    return parser


def _cache_summary_line(
    hits0: int = 0, misses0: int = 0, writes0: int = 0, corrupt0: int = 0
) -> Optional[str]:
    """End-of-run cache effectiveness for this invocation: the delta of
    the process-wide totals against the counts observed at entry (so
    embedders calling main() repeatedly don't see stale numbers)."""
    hits = GLOBAL_STATS.hits - hits0
    misses = GLOBAL_STATS.misses - misses0
    writes = GLOBAL_STATS.writes - writes0
    corrupt = GLOBAL_STATS.corrupt - corrupt0
    lookups = hits + misses
    if lookups == 0 and writes == 0:
        return None
    rate = 100.0 * hits / lookups if lookups else 0.0
    line = "cache: %d hits / %d misses (%.1f%% hit rate), %d writes" % (
        hits,
        misses,
        rate,
        writes,
    )
    if corrupt:
        line += ", %d corrupt record(s) quarantined" % corrupt
    return line


def normalize_args(args) -> None:
    """Fill the shared options' defaults in place.

    The shared flags parse with ``SUPPRESS`` (so a value given before
    the subcommand survives), which means unset options are *absent*
    rather than None. Both :func:`main` and the fleet's inner-command
    dispatch (:func:`repro.harness.fleet._dispatch_inner`) normalize
    through here so the two entry paths cannot drift.
    """
    if not hasattr(args, "seed"):
        args.seed = 0
    if not hasattr(args, "out"):
        args.out = None
    if not hasattr(args, "json"):
        args.json = False
    if not hasattr(args, "jobs"):
        args.jobs = 1
    if not hasattr(args, "cache_dir"):
        args.cache_dir = None
    if not hasattr(args, "obs_dir"):
        args.obs_dir = None
    if not hasattr(args, "progress"):
        args.progress = False
    if not hasattr(args, "resume"):
        args.resume = None
    if not hasattr(args, "retries"):
        args.retries = None
    if not hasattr(args, "cell_timeout"):
        args.cell_timeout = None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    normalize_args(args)
    check_selection(args)
    if args.command in ("detect", "trace") and not args.bug and not (args.app and args.test):
        parser.error("%s requires --bug or both --app and --test" % args.command)
    store = None
    if args.resume and args.command != "campaign":
        try:
            store = ArtifactStore(args.resume, fsync=False)
        except OSError as exc:
            _usage_error("--resume %s: %s" % (args.resume, exc.strerror or exc))
    if args.obs_dir:
        # The environment variable is what spawned processes inherit;
        # configure() opens telemetry and the campaign event stream in
        # this process right away.
        os.environ[obs.OBS_DIR_ENV] = args.obs_dir
        obs.configure(args.obs_dir)
    if args.progress:
        from ..obs import campaign as campaign_mod

        if eventbus.bus() is None:
            # No durable stream requested: an in-memory bus is all the
            # live renderer needs.
            eventbus.configure(None)
        campaign_mod.attach_progress(sys.stderr)
    # Campaign lifecycle events frame every *computing* command; the
    # inspector commands (which read streams rather than produce them)
    # stay silent so `campaign status` never appends to what it reads.
    emit_campaign = eventbus.active() and args.command not in (
        "campaign",
        "obs",
        "apps",
        "bugs",
        "replay",
    )
    campaign_started = time.time()
    if emit_campaign:
        eventbus.emit(
            "campaign_begin", command=args.command, seed=args.seed, jobs=args.jobs
        )
    # The supervisor activates when any resilience flag is given, or
    # when chaos injection is on (a chaos campaign without the fault
    # boundary would just crash, which is not what chaos is for).
    # ... except under fleet commands: the fleet owns parallelism,
    # retries and lease-level crash recovery itself.
    sup = None
    if args.command != "campaign" and (
        args.resume or args.retries or args.cell_timeout or faults.active()
    ):
        sup = supervisor.Supervisor(
            policy=supervisor.RetryPolicy(max_attempts=args.retries or 3, seed=args.seed),
            store=store,
            cell_timeout_s=args.cell_timeout,
        )
        parallel.activate(sup)
    hits0, misses0, writes0, corrupt0 = (
        GLOBAL_STATS.hits,
        GLOBAL_STATS.misses,
        GLOBAL_STATS.writes,
        GLOBAL_STATS.corrupt,
    )
    try:
        # Commands return an exit code or None (= success): replay and
        # the obs inspectors signal "not reproduced" / "nothing found"
        # via rc.
        rc = args.func(args)
    finally:
        if sup is not None:
            parallel.deactivate()
    summary = _cache_summary_line(hits0, misses0, writes0, corrupt0)
    if summary is not None:
        print(summary)
    if sup is not None and sup.stats.cells:
        # The degradation summary: the campaign completed, possibly
        # minus quarantined cells -- exit code stays 0 by design.
        print(sup.stats.summary_line())
    if emit_campaign:
        eventbus.emit(
            "campaign_end",
            ok=not rc,
            wall_s=round(time.time() - campaign_started, 3),
        )
    eventbus.flush()
    if args.obs_dir:
        obs.flush()
        print("telemetry written to %s (inspect with: obs report %s)" % (args.obs_dir, args.obs_dir))
    return int(rc) if rc else 0


if __name__ == "__main__":
    sys.exit(main())
