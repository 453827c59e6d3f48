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
import contextlib
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, List, NoReturn, Optional, Tuple

from .. import obs
from ..obs import eventbus
from ..apps import all_apps, all_bugs, bug_workload, get_app
from ..baselines import StressRunner, WaffleBasic
from ..core.config import DEFAULT_CONFIG
from ..core.detector import Waffle
from . import experiments, faults, parallel, supervisor, tables
from .cache import GLOBAL_STATS, CacheStats
from .store import ArtifactStore


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with argparse's one-line ``waffle-repro: error:`` format."""
    print("waffle-repro: error: %s" % message, file=sys.stderr)
    raise SystemExit(2)


@contextlib.contextmanager
def _writing(path: Optional[str]):
    """Turn a failure to write the output file ``path`` into a usage error."""
    try:
        yield
    except OSError as exc:
        _usage_error("cannot write %s: %s" % (path, exc.strerror or exc))


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def positive_seconds(text: str) -> float:
    """argparse type for a duration that must be a positive number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError("must be a positive number of seconds, got %s" % text)
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


#: The selection options an artifact may read, as argparse settings;
#: ``--attempts`` takes its default from the artifact.
SELECTION_OPTIONS = {
    "apps": dict(nargs="*", default=None, help="restrict to these app keys"),
    "bugs": dict(nargs="*", default=None, help="restrict to these bug ids"),
    "attempts": dict(type=positive_int, help="detection attempts per bug"),
    "budget": dict(type=positive_int, default=50,
                   help="detection runs per attempt (stress: delay-free runs per bug)"),
}

#: The shared options every driver call may read.
DRIVER_OPTIONS = ("seed", "jobs", "cache_dir")


@dataclasses.dataclass(frozen=True)
class Artifact:
    """One paper table or figure: the subcommand that regenerates it."""

    #: The subcommand, which is also the ``--json`` key.
    name: str
    help: str
    #: The :data:`SELECTION_OPTIONS` its driver reads; the subcommand
    #: accepts exactly these.
    options: Tuple[str, ...]
    #: The driver call: parsed arguments to rows, a degraded row None.
    run: Callable[[argparse.Namespace], Any]
    #: Rows to text, with the degraded rows already left out.
    render: Callable[[Any], str]
    attempts: int = 15
    #: Whether ``all`` runs it.
    in_all: bool = True


def _per_app(driver: Callable[..., Any]) -> Callable[[argparse.Namespace], Any]:
    """The driver call of a per-app table."""
    return lambda a: driver(apps=a.apps, seed=a.seed, jobs=a.jobs, cache_dir=a.cache_dir)


def _dynamic(a: argparse.Namespace) -> dict:
    rows, overall = _per_app(experiments.dynamic_instances)(a)
    return {"rows": rows, "overall": overall}


#: Every paper artifact, in the order ``all`` runs them.
ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact("table1", "design-decision matrix (Table 1)", (),
             lambda a: {"header": tables.TABLE1_HEADER, "rows": tables.TABLE1_ROWS},
             lambda table: tables.design_matrix()),
    Artifact("table2", "instrumentation/injection site densities (Table 2)", ("apps",),
             _per_app(experiments.table2_sites), tables.render_table2),
    Artifact("figure2", "timing-condition microbenchmark (Figure 2)", (),
             lambda a: experiments.figure2_timing_conditions(seed=a.seed, jobs=a.jobs),
             tables.render_figure2),
    Artifact("figure5", "interference-window microbenchmark (Figure 5)", (),
             lambda a: experiments.figure5_interference_window(seed=a.seed, jobs=a.jobs),
             tables.render_figure5),
    Artifact("overlap", "delay-overlap ratios (section 3.3)", ("apps",),
             _per_app(experiments.overlap_ratios), tables.render_overlap),
    Artifact("dynamic", "init-site dynamic-instance census (section 3.3)", ("apps",),
             _dynamic, lambda p: tables.render_dynamic_instances(p["rows"], p["overall"])),
    Artifact("table4", "bug detection results (Table 4)", ("bugs", "attempts", "budget"),
             lambda a: experiments.table4_detection(
                 attempts=a.attempts, budget=a.budget, bugs=a.bugs, base_seed=a.seed,
                 jobs=a.jobs, cache_dir=a.cache_dir),
             tables.render_table4),
    Artifact("table5", "average overhead per app (Table 5)", ("apps",),
             _per_app(experiments.table5_overhead), tables.render_table5),
    Artifact("table6", "cumulative delays injected (Table 6)", ("apps",),
             _per_app(experiments.table6_delays), tables.render_table6),
    Artifact("table7", "design-point ablations (Table 7)",
             ("apps", "bugs", "attempts", "budget"),
             lambda a: experiments.table7_ablations(
                 attempts=a.attempts, budget=a.budget, base_seed=a.seed,
                 apps_for_perf=a.apps, bugs=a.bugs, jobs=a.jobs, cache_dir=a.cache_dir),
             tables.render_table7, attempts=5),
    Artifact("stress", "delay-free control (section 6.2)", ("bugs", "budget"),
             lambda a: experiments.stress_control(
                 runs=a.budget, bugs=a.bugs, base_seed=a.seed, jobs=a.jobs),
             tables.render_stress),
    Artifact("related", "extension: the full Table 1 design space", ("bugs", "budget"),
             lambda a: experiments.related_tools_comparison(
                 bugs=a.bugs, budget=a.budget, base_seed=a.seed, jobs=a.jobs,
                 cache_dir=a.cache_dir),
             tables.render_related_tools, in_all=False),
)

#: ``all``'s ``--attempts`` default: table7's, which it applies to
#: table4 too.
ALL_ATTEMPTS = 5


def _present(rows: Any) -> Any:
    """``rows`` without its degraded (None) rows, for rendering."""
    if isinstance(rows, dict):
        return {key: _present(value) for key, value in rows.items()}
    if isinstance(rows, list):
        return [row for row in rows if row is not None]
    return rows


def cmd_artifacts(args) -> None:
    """Regenerate each artifact the subcommand names (``all``: every
    one it runs, in order).

    A driver sees only :data:`DRIVER_OPTIONS` and its own selection
    options. A row derived from a degraded cell is None: ``--json``
    keeps it as ``null``, and the rendered grid leaves it out and ends
    with one ``quarantined:`` line naming the degraded cells' keys.
    """
    for entry in args.artifacts:
        view = argparse.Namespace(
            **{name: getattr(args, name) for name in DRIVER_OPTIONS + entry.options}
        )
        stats = getattr(parallel.current(), "stats", None)
        before = len(stats.degraded) if stats is not None else 0
        rows = entry.run(view)
        text = entry.render(_present(rows))
        degraded = stats.degraded[before:] if stats is not None else []
        if degraded:
            text += "\nquarantined: %s" % ", ".join(key[:16] for key in degraded)
        _emit_rows(entry.name, rows, text, args)


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
        path = _write_dashboard_artifact(args.obs_dir or "waffle-dashboard", rows=rows)
        print("dashboard artifact written: %s" % path)
    return 1 if failures else 0


def _write_dashboard_artifact(
    directory: str,
    rows: Optional[List[dict]] = None,
    dashboard_out: Optional[str] = None,
) -> str:
    """Render ``dashboard.html`` (or ``dashboard_out``) from the obs
    data under ``directory`` and return its path.

    Flushes telemetry and the event bus first so same-process campaigns
    (``fuzz --dashboard``) see their own data on disk; every input is
    optional, so the dashboard always renders (with empty sections
    standing in for absent sources)."""
    from ..obs import dashboard as dashboard_mod
    from ..obs import quality as quality_mod
    from ..obs.report import load_obs_dir

    eventbus.flush()
    obs.flush()
    os.makedirs(directory, exist_ok=True)
    data = load_obs_dir(directory)
    html_path = Path(dashboard_out or os.path.join(directory, "dashboard.html"))
    html_path.write_text(
        dashboard_mod.render_dashboard(
            data, quality=quality_mod.build_quality(data, rows=rows)
        )
    )
    return str(html_path)


def cmd_detect(args) -> None:
    test = _resolve_target(args)
    config = DEFAULT_CONFIG.with_seed(args.seed)
    driver = {"waffle": Waffle, "wafflebasic": WaffleBasic, "stress": StressRunner}[args.tool](
        config
    )
    # An obs session keeps the dossiers (and their flight provenance).
    outcome = driver.detect(
        test, max_detection_runs=args.budget, dossiers=obs.session() is not None
    )
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
    for built in outcome.dossiers:
        print("dossier written: %s (replay with: waffle-repro replay %s)"
              % (built.path, built.path))


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
    """Deterministically re-execute a dossier's stored schedule; with
    ``--minimize``, also derive and print its minimal schedule."""
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
    if args.minimize:
        # Minimization's first replay is the stored schedule's.
        delays, replays, reproduced = dossier_mod.minimize_dossier(dossier, test.build)
    else:
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
    if not reproduced:
        print("NOT REPRODUCED: outcome differs from the dossier's bug report")
        return 1
    print("REPRODUCED: same error type at the same fault location")
    if args.minimize:
        print(
            "minimal schedule: %d of %d delay(s), verified by %d replay(s)"
            % (len(delays), len(dossier.schedule.get("delays", [])), replays)
        )
        for entry in delays:
            print(
                "    occurrence #%d of %s -> sleep %.2fms"
                % (entry["nth"], entry["site"], entry["len_ms"])
            )
    return 0


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


def cmd_obs(args) -> int:
    """Aggregate an obs directory: digest report, coverage observatory,
    bug dossiers, Chrome trace export, or HTML dashboard."""
    from ..obs.report import load_obs_dir, render_report, write_chrome_trace

    if not os.path.exists(args.obs_path):
        _usage_error("obs path %s does not exist" % args.obs_path)
    data = load_obs_dir(args.obs_path)  # parses each file on first use
    if args.action == "dashboard":
        with _writing(args.dashboard_out):
            path = _write_dashboard_artifact(args.obs_path, dashboard_out=args.dashboard_out)
        print("dashboard artifact written: %s" % path)
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
        with _writing(out):
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
        with _writing(merged_out):
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


#: ``campaign run``'s files in its fleet directory.
MANIFEST_NAME = "campaign.json"
MERGED_JOURNAL_NAME = "journal-merged.jsonl"
#: Deliberately NOT matching ``events-*.jsonl``: the merged stream must
#: not be re-merged (double-counted) by ``campaign status <fleet-dir>``.
MERGED_EVENTS_NAME = "merged-events.jsonl"


def _claim_fleet_dir(fleet_dir: Path, inner: List[str]) -> None:
    """Record the inner command in ``<fleet-dir>/campaign.json``, or
    refuse a directory that already records a different one."""
    manifest = fleet_dir / MANIFEST_NAME
    if manifest.exists():
        try:
            existing = json.loads(manifest.read_text())
        except ValueError as exc:
            _usage_error("fleet manifest %s is not valid JSON: %s" % (manifest, exc))
        if not isinstance(existing, dict) or not isinstance(existing.get("argv"), list) \
                or not existing["argv"]:
            _usage_error("fleet manifest %s carries no inner command" % manifest)
        if existing["argv"] != inner:
            _usage_error(
                "fleet dir %s already runs %r; refusing to mix campaigns"
                % (fleet_dir, " ".join(existing["argv"]))
            )
        return
    fleet_dir.mkdir(parents=True, exist_ok=True)
    tmp = manifest.with_name(manifest.name + ".tmp")
    tmp.write_text(json.dumps({"argv": inner}, indent=2, sort_keys=True))
    os.replace(tmp, manifest)


def _campaign_run_args(parser: argparse.ArgumentParser, args) -> argparse.Namespace:
    """``campaign run --fleet-dir D --workers N -- CMD`` as the parsed
    arguments of ``CMD --jobs N+1 --resume D/store``. Shared options
    given before ``--`` apply unless CMD sets them itself. :func:`main`
    then runs CMD supervised over that store, with the event bus in D,
    and merges D."""
    inner = list(args.inner)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        _usage_error(
            "campaign run requires an inner command after --, "
            "e.g.: campaign run --fleet-dir DIR -- fuzz --seed-range 0:40"
        )
    inner_args = parser.parse_args(inner)
    if inner_args.command == "campaign":
        _usage_error("fleet campaigns cannot nest ('campaign %s' inside run)"
                     % inner_args.action)
    fleet_dir = Path(args.fleet_dir)
    _claim_fleet_dir(fleet_dir, inner)
    for name in SHARED_DEFAULTS:
        if not hasattr(inner_args, name) and hasattr(args, name):
            setattr(inner_args, name, getattr(args, name))
    inner_args.fleet_dir = fleet_dir
    inner_args.jobs = args.workers + 1
    inner_args.resume = str(fleet_dir / "store")
    return inner_args


def _merge_fleet_dir(fleet_dir: Path, store: ArtifactStore) -> Tuple[int, int]:
    """``campaign run``'s merge: one canonical journal from the store
    (sorted by key, deterministic fields only -- ``attempts`` depends on
    chaos, so a chaos campaign's journal is byte-identical to a clean
    one's) and one merged stream of the directory's ``events-*.jsonl``."""
    lines = []
    for key in store.keys():
        record = store.fetch(key, count_stats=False)
        if record is not None:
            lines.append(json.dumps(
                {"key": key, "sha256": record.sha256, "status": record.status},
                sort_keys=True, separators=(",", ":"),
            ) + "\n")
    journal = fleet_dir / MERGED_JOURNAL_NAME
    tmp = journal.with_name(journal.name + ".tmp")
    tmp.write_text("".join(lines))
    os.replace(tmp, journal)
    streams = eventbus.load_streams(fleet_dir)
    return len(lines), eventbus.write_merged(streams, fleet_dir / MERGED_EVENTS_NAME)


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
        help="worker processes for experiment cells (default 0: one per usable "
        "CPU; 1 = serial, in this process); results are bit-identical at any value",
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
        "both here (also via WAFFLE_OBS_DIR); inspect with 'obs report <dir>' "
        "or 'campaign status <dir>' afterwards",
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
        type=positive_int,
        default=argparse.SUPPRESS,
        help="per-cell attempt budget for retryable faults (worker crash, "
        "hang, transient I/O); deterministic failures are quarantined, "
        "not retried (activates the supervisor; default 3 when active)",
    )
    shared.add_argument(
        "--cell-timeout",
        type=positive_seconds,
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

    def artifact_parser(name, help_text, artifacts, attempts):
        p = sub.add_parser(name, help=help_text, parents=[shared])
        for option, settings in SELECTION_OPTIONS.items():
            if any(option in entry.options for entry in artifacts):
                p.add_argument("--" + option, **{"default": attempts, **settings})
        p.set_defaults(func=cmd_artifacts, artifacts=artifacts)

    for entry in ARTIFACTS:
        artifact_parser(entry.name, entry.help, (entry,), entry.attempts)
    artifact_parser("all", "every artifact above but related",
                    tuple(entry for entry in ARTIFACTS if entry.in_all), ALL_ATTEMPTS)

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
        help="render dashboard.html into --obs-dir (or ./waffle-dashboard) "
        "after the run",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "replay",
        help="deterministically re-execute a bug dossier's stored schedule",
        parents=[shared],
    )
    p.add_argument("dossier", type=str, help="path to a dossier-*.json file")
    p.add_argument(
        "--minimize",
        action="store_true",
        help="also shrink the schedule by replay (the matched delay sites' "
        "delays first, then drop-one) and print the minimal schedule",
    )
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "obs",
        help="aggregate a telemetry directory written via --obs-dir",
        parents=[shared],
    )
    p.add_argument(
        "action",
        choices=["report", "chrome", "coverage", "dossier", "dashboard"],
        help="digest (detection funnel, time to first detection, generated "
        "workloads), trace_event export, coverage observatory, dossier dump, "
        "or self-contained HTML dashboard",
    )
    p.add_argument("obs_path", type=str, help="the obs directory to aggregate")
    p.add_argument(
        "--max-runs", type=positive_int, default=20, help="rows in the slowest-runs table"
    )
    p.add_argument(
        "--trace-out", type=str, default=None, help="chrome: output path (default <dir>/trace.json)"
    )
    p.add_argument(
        "--html",
        action="store_true",
        help="dossier: also write an HTML swimlane next to each dossier file",
    )
    p.add_argument(
        "--dashboard-out",
        type=str,
        default=None,
        metavar="PATH",
        help="dashboard: output path (default <dir>/dashboard.html)",
    )
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "campaign",
        help="run a campaign in a fleet directory; inspect or merge campaign "
        "event streams",
        parents=[shared],
    )
    campaign_sub = p.add_subparsers(dest="action", required=True)

    cp = campaign_sub.add_parser(
        "run",
        parents=[shared],
        help="run a campaign supervised over a fleet directory's artifact "
        "store, then merge its journal and event streams; output is "
        "byte-identical to a serial run",
    )
    cp.add_argument(
        "--fleet-dir",
        type=str,
        required=True,
        metavar="DIR",
        help="the campaign directory (manifest, artifact store and event "
        "streams)",
    )
    cp.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes beside the campaign process: the inner "
        "command runs with --jobs N+1 --resume DIR/store (default 0: "
        "serial); give it --cache-dir to reuse sub-cell work",
    )
    cp.add_argument(
        "inner",
        nargs=argparse.REMAINDER,
        metavar="-- COMMAND ...",
        help="the campaign to run, e.g. -- fuzz --seed-range 0:40",
    )

    for action, help_text in (
        ("status", "render progress, health and cells in flight from event streams"),
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
                "--max-cells", type=positive_int, default=8, help="in-flight cells listed"
            )
        cp.set_defaults(func=cmd_campaign)
    return parser


def _cache_summary_line(before: CacheStats) -> Optional[str]:
    """End-of-run cache effectiveness for this invocation: the delta of
    the process-wide totals against ``before``, their copy at entry (so
    embedders calling main() repeatedly don't see stale numbers)."""
    delta = GLOBAL_STATS.since(before)
    lookups = delta.hits + delta.misses
    if lookups == 0 and delta.writes == 0:
        return None
    rate = 100.0 * delta.hits / lookups if lookups else 0.0
    line = "cache: %d hits / %d misses (%.1f%% hit rate), %d writes" % (
        delta.hits, delta.misses, rate, delta.writes
    )
    if delta.corrupt:
        line += ", %d corrupt record(s) quarantined" % delta.corrupt
    return line


#: The shared options' defaults. They parse with ``SUPPRESS`` (so a
#: value given before the subcommand survives), which leaves unset
#: options *absent* rather than None.
SHARED_DEFAULTS = {
    "seed": 0,
    "out": None,
    "json": False,
    "jobs": parallel.AUTO_JOBS,
    "cache_dir": None,
    "obs_dir": None,
    "progress": False,
    "resume": None,
    "retries": None,
    "cell_timeout": None,
}


def normalize_args(args) -> None:
    """Fill the absent shared options with :data:`SHARED_DEFAULTS`, in
    place (after :func:`_campaign_run_args` has carried ``campaign
    run``'s own over to its inner command)."""
    for name, default in SHARED_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)


def main(argv: Optional[List[str]] = None) -> int:
    """The CLI entry point: :func:`_run`, quiet when stdout's reader
    goes away early (``waffle-repro bugs | head``).

    The Python documentation's SIGPIPE recipe: the rest of the output
    goes to devnull, so the interpreter's final flush cannot raise a
    second time, and the exit status is 1.
    """
    try:
        rc = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return rc


def _run(argv: Optional[List[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if faults.ENV_ERROR:
        _usage_error(faults.ENV_ERROR)
    if args.command == "campaign" and args.action == "run":
        args = _campaign_run_args(parser, args)
    normalize_args(args)
    check_selection(args)
    if args.command in ("detect", "trace") and not args.bug and not (args.app and args.test):
        parser.error("%s requires --bug or both --app and --test" % args.command)
    fleet_dir = getattr(args, "fleet_dir", None)
    store = None
    if args.resume and args.command != "campaign":
        try:
            store = ArtifactStore(args.resume)
        except OSError as exc:
            _usage_error("--resume %s: %s" % (args.resume, exc.strerror or exc))
    if args.obs_dir:
        # The environment variable is what spawned processes inherit;
        # configure() opens telemetry and the campaign event stream in
        # this process right away.
        os.environ[obs.OBS_DIR_ENV] = args.obs_dir
        obs.configure(args.obs_dir)
    if fleet_dir is not None:
        eventbus.configure(fleet_dir)
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
            "campaign_begin", command=args.command, seed=args.seed,
            jobs=parallel.resolve_jobs(args.jobs),
        )
    # The supervisor activates when any resilience flag is given, or
    # when chaos injection is on (a chaos campaign without the fault
    # boundary would just crash, which is not what chaos is for).
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
    cache_before = dataclasses.replace(GLOBAL_STATS)
    try:
        # Commands return an exit code or None (= success): replay and
        # the obs inspectors signal "not reproduced" / "nothing found"
        # via rc.
        rc = args.func(args)
    finally:
        if sup is not None:
            parallel.deactivate()
    summary = _cache_summary_line(cache_before)
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
    if fleet_dir is not None:
        cells, events = _merge_fleet_dir(fleet_dir, store)
        print(
            "fleet merge: %d cell(s) -> %s, %d event(s) -> %s"
            % (cells, fleet_dir / MERGED_JOURNAL_NAME,
               events, fleet_dir / MERGED_EVENTS_NAME)
        )
        eventbus.disable()
    if args.obs_dir:
        obs.flush()
        print("telemetry written to %s (inspect with: obs report %s)" % (args.obs_dir, args.obs_dir))
    return int(rc) if rc else 0


if __name__ == "__main__":
    sys.exit(main())
