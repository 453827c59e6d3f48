"""Aggregate an obs directory into a human-readable run digest.

``repro obs report <dir>`` reads every ``telemetry-*.jsonl`` stream the
telemetry sessions wrote (one per participating process -- the CLI
process plus any ``--jobs`` workers) through
:func:`repro.obs.eventbus.read_stream`, merges the last ``metrics``
record of each, reconciles injection-decision events against the
per-run summaries, and renders a digest that answers the debugging
questions the subsystem exists for: how many delays were planned,
injected, and skipped -- and *why* -- plus cache effectiveness and
where the wall time went.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from . import eventbus
from .metrics import merge_snapshots
from .telemetry import SKIP_REASONS, TELEMETRY_GLOB
from .tracing import chrome_trace_events


@dataclass
class ObsData:
    """Everything parsed out of one obs directory."""

    directory: str
    processes: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)
    runs: List[dict] = field(default_factory=list)
    inject_events: List[dict] = field(default_factory=list)
    parse_errors: List[str] = field(default_factory=list)
    #: Recoverable oddities: a missing directory, a truncated final
    #: JSONL line from a killed worker, an unreadable coverage/dossier
    #: file. Unlike ``parse_errors`` (malformed data *inside* a file's
    #: committed content) these are expected operational noise and are
    #: reported as warnings, never raised.
    warnings: List[str] = field(default_factory=list)
    #: Truncated-tail JSONL lines recovered (skipped) during loading.
    #: These are ``corrupt_record`` faults in the harness taxonomy
    #: (``repro.harness.faults``): a worker killed mid-append commits a
    #: partial line, losing at most one event record per file. The
    #: count feeds :func:`reconcile`, which tolerates exactly this many
    #: missing events so chaos-run artifacts still reconcile.
    recovered_lines: int = 0
    #: Coverage records (``coverage-*.json``, repro.obs.coverage).
    coverage: List[dict] = field(default_factory=list)
    #: Bug dossiers, as ``{"file": name, "dossier": payload}``.
    dossiers: List[dict] = field(default_factory=list)
    #: Campaign event streams (``events-*.jsonl``, repro.obs.eventbus).
    event_streams: List[Any] = field(default_factory=list)


def load_obs_dir(directory: os.PathLike) -> ObsData:
    """Parse and merge every telemetry stream under ``directory``.

    Tolerant by design: an empty or missing directory, and the
    partially-written files a killed ``--jobs`` worker leaves behind
    (most commonly a truncated final JSONL line with no newline), are
    reported in :attr:`ObsData.warnings` instead of raising.
    """
    root = Path(directory)
    data = ObsData(directory=str(root))
    if not root.is_dir():
        data.warnings.append("obs directory %s does not exist" % root)
        return data
    snapshots: List[dict] = []
    for stream in eventbus.load_streams(root, TELEMETRY_GLOB):
        data.warnings.extend(stream.warnings)
        data.parse_errors.extend(stream.parse_errors)
        data.recovered_lines += stream.recovered
        snapshot = None
        for record in stream.events:
            kind = record.get("type")
            if kind == "run":
                data.runs.append(record)
            elif kind == "inject":
                data.inject_events.append(record)
            elif kind == "metrics":
                snapshot = record.get("metrics")
        if snapshot is not None:
            snapshots.append(snapshot)
            data.processes += 1
    from ..core import persistence

    for path in sorted(root.glob("coverage-*.json")):
        try:
            record = persistence.load_record(path)
        except (ValueError, KeyError, OSError) as exc:
            data.warnings.append("%s: unreadable coverage record (%s)" % (path.name, exc))
            continue
        if record.get("type") == "coverage":
            data.coverage.append(record)
    for path in sorted(root.glob("dossier-*.json")):
        try:
            payload = persistence.load_record(path)["dossier"]
        except (ValueError, KeyError, OSError) as exc:
            data.warnings.append("%s: unreadable dossier (%s)" % (path.name, exc))
            continue
        data.dossiers.append({"file": path.name, "dossier": payload})
    data.metrics = merge_snapshots(snapshots)
    # Campaign event streams ride in the same directory when the bus is
    # active; their anomalies (empty stream, missing meta line, schema
    # version skew, torn tails) surface through the same warning /
    # parse-error channels as telemetry's.
    data.event_streams = eventbus.load_streams(root)
    for stream in data.event_streams:
        data.warnings.extend(stream.warnings)
        data.parse_errors.extend(stream.parse_errors)
    if not data.event_streams and data.metrics.get("counters", {}).get("harness.cells", 0):
        data.warnings.append(
            "harness cells were recorded but no campaign event stream "
            "(events-*.jsonl) is present"
        )
    return data


def reconcile(data: ObsData) -> List[str]:
    """Cross-check decision events against run summaries and counters.

    Returns a list of discrepancy descriptions (empty = consistent).
    Only runs that have matching per-decision events are checked; a
    summary alone (e.g. from a process whose events were disabled) is
    not an inconsistency. Events lost to recovered truncated tail lines
    (:attr:`ObsData.recovered_lines`, the ``corrupt_record`` fault
    class) are accounted for: counters may exceed events by at most
    that many records, so a chaos run's artifacts reconcile exactly.
    """
    problems: List[str] = []
    counters = data.metrics.get("counters", {})
    total_skips = sum(counters.get("inject.skipped.%s" % r, 0) for r in SKIP_REASONS)
    skip_events = [e for e in data.inject_events if e.get("action") == "skip"]
    untagged = [e for e in skip_events if e.get("reason") not in SKIP_REASONS]
    if untagged:
        problems.append("%d skip events missing a valid reason tag" % len(untagged))
    skip_deficit = total_skips - len(skip_events)
    if data.inject_events and not (0 <= skip_deficit <= data.recovered_lines):
        problems.append(
            "skip events (%d) != skip counters (%d)" % (len(skip_events), total_skips)
        )
    run_totals = {
        run["run_seq"]: run
        for run in data.runs
        if run.get("considered", 0) or run.get("injected", 0)
    }
    events_by_run: Dict[int, List[dict]] = {}
    for event in data.inject_events:
        events_by_run.setdefault(event.get("run", 0), []).append(event)
    for run_seq, events in events_by_run.items():
        run = run_totals.get(run_seq)
        if run is None:
            continue
        injected = sum(1 for e in events if e["action"] == "inject")
        skipped = sum(1 for e in events if e["action"] == "skip")
        expected_skips = (
            run.get("skipped_decay", 0)
            + run.get("skipped_interference", 0)
            + run.get("skipped_budget", 0)
        )
        inject_deficit = run.get("injected", 0) - injected
        skip_run_deficit = expected_skips - skipped
        if data.recovered_lines and (
            0 <= inject_deficit and 0 <= skip_run_deficit
            and 0 < inject_deficit + skip_run_deficit <= data.recovered_lines
        ):
            # The missing events are exactly the ones lost to recovered
            # truncated lines: expected degradation, not inconsistency.
            continue
        if injected != run.get("injected", 0) or skipped != expected_skips:
            problems.append(
                "run %d (%s): events inject/skip %d/%d vs summary %d/%d"
                % (run_seq, run.get("test", "?"), injected, skipped,
                   run.get("injected", 0), expected_skips)
            )
    return problems


def _fmt_count(value: float) -> str:
    if value >= 1_000_000:
        return "%.1fM" % (value / 1_000_000)
    if value >= 10_000:
        return "%.1fk" % (value / 1_000)
    return "%d" % value


def _fuzz_section(event_streams: List[Any]) -> List[str]:
    """Generated-workload digest from ``fuzz_workload`` events.

    Folds through the campaign view so retried/resumed/cache-hit
    re-emissions collapse, then checks each workload's oracle is still
    *resolvable*: ``generate_spec(seed)`` must hash to the spec prefix
    the event recorded, else the ground truth regenerated today is not
    the one the campaign ran against (generator drift) and sensitivity
    joins against it would be fiction.
    """
    from . import campaign as campaign_mod

    view = campaign_mod.fold_events(eventbus.merge_events(event_streams))
    if not view.fuzz:
        return []
    from .quality import resolvable_fuzz_events

    resolvable, mismatched = resolvable_fuzz_events(view.fuzz.values())
    generated = campaign_mod.fuzz_analytics(view)
    lines: List[str] = ["generated workloads (fuzz)"]
    lines.append(
        "  %d workload(s) oracle-verified   %d with invariant violations"
        % (generated["workloads"], generated["failed"])
    )
    lines.append(
        "  %-10s %9s %11s %6s %9s"
        % ("topology", "workloads", "detectable", "found", "rate")
    )
    for bucket in generated["rows"]:
        lines.append(
            "  %-10s %9d %11d %6d %8.1f%%"
            % (bucket["topology"], bucket["workloads"], bucket["detectable"],
               bucket["found"], 100.0 * bucket["detection_rate"])
        )
    if not resolvable:
        lines.append(
            "  WARNING: %d fuzz event(s) but no oracle rows are resolvable -- "
            "generate_spec(seed) no longer hashes to the recorded spec; "
            "re-run the fuzz campaign against the current generator"
            % len(view.fuzz)
        )
    elif mismatched:
        lines.append(
            "  warning: %d of %d workload(s) have unresolvable oracles "
            "(spec hash mismatch)" % (mismatched, len(view.fuzz))
        )
    lines.append("  sensitivity curves: repro obs dashboard <dir>")
    return lines


def render_report(data: ObsData, max_runs: int = 20) -> str:
    """The human-readable digest behind ``repro obs report``."""
    counters = data.metrics.get("counters", {})
    gauges = data.metrics.get("gauges", {})
    histograms = data.metrics.get("histograms", {})

    lines: List[str] = []
    lines.append("Telemetry digest — %s" % data.directory)
    lines.append(
        "processes: %d   runs recorded: %d   decision events: %d"
        % (data.processes, len(data.runs), len(data.inject_events))
    )
    if data.parse_errors:
        lines.append("PARSE ERRORS (%d):" % len(data.parse_errors))
        lines.extend("  " + err for err in data.parse_errors[:10])
    if data.warnings:
        lines.append("warnings (%d):" % len(data.warnings))
        lines.extend("  " + msg for msg in data.warnings[:10])

    considered = counters.get("inject.considered", 0)
    injected = counters.get("inject.injected", 0)
    skips = {r: counters.get("inject.skipped.%s" % r, 0) for r in SKIP_REASONS}
    lines.append("")
    lines.append("injection decisions")
    lines.append(
        "  considered %s   injected %s   skipped %s (decay %s, interference %s, budget %s)"
        % (
            _fmt_count(considered),
            _fmt_count(injected),
            _fmt_count(sum(skips.values())),
            _fmt_count(skips["decay"]),
            _fmt_count(skips["interference"]),
            _fmt_count(skips["budget"]),
        )
    )

    lines.append("candidate pipeline")
    lines.append(
        "  near-misses observed %s (%s new pairs)   candidates +%s / -%s"
        "   pruned: parent-child %s, hb-inference %s"
        % (
            _fmt_count(counters.get("nearmiss.pairs_observed", 0)),
            _fmt_count(counters.get("nearmiss.pairs_new", 0)),
            _fmt_count(counters.get("candidates.added", 0)),
            _fmt_count(counters.get("candidates.removed", 0)),
            _fmt_count(counters.get("candidates.pruned_parent_child", 0)),
            _fmt_count(counters.get("candidates.pruned_hb_inference", 0)),
        )
    )

    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    rate = 100.0 * hits / (hits + misses) if (hits + misses) else 0.0
    lines.append("run cache")
    lines.append(
        "  hits %s   misses %s   writes %s   hit rate %.1f%%"
        % (_fmt_count(hits), _fmt_count(misses), _fmt_count(counters.get("cache.writes", 0)), rate)
    )

    fault_counts = {
        name.split("faults.", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("faults.") and value
    }
    resilience = (
        sum(fault_counts.values())
        + counters.get("cells.retried", 0)
        + counters.get("cells.quarantined", 0)
        + counters.get("cells.resumed", 0)
        + counters.get("cache.corrupt", 0)
        + data.recovered_lines
    )
    if resilience:
        lines.append("resilience")
        lines.append(
            "  faults: %s"
            % (
                ", ".join(
                    "%s %s" % (kind, _fmt_count(count))
                    for kind, count in sorted(fault_counts.items())
                )
                or "none"
            )
        )
        lines.append(
            "  cells retried %s   quarantined %s   resumed %s   "
            "cache records quarantined %s   truncated lines recovered %d"
            % (
                _fmt_count(counters.get("cells.retried", 0)),
                _fmt_count(counters.get("cells.quarantined", 0)),
                _fmt_count(counters.get("cells.resumed", 0)),
                _fmt_count(counters.get("cache.corrupt", 0)),
                data.recovered_lines,
            )
        )

    lines.append("scheduler")
    lines.append(
        "  simulated runs %s   context switches %s   virtual time %.1f ms total"
        % (
            _fmt_count(counters.get("sched.runs", 0)),
            _fmt_count(counters.get("sched.context_switches", 0)),
            gauges.get("sched.virtual_time_ms_total", 0.0),
        )
    )

    cell_hist = histograms.get("harness.cell_wall_ms")
    if cell_hist and cell_hist["count"]:
        lines.append("harness cells")
        lines.append(
            "  %d cells   wall %.1f ms total   mean %.1f ms   min %.1f / max %.1f ms"
            % (
                cell_hist["count"],
                cell_hist["sum"],
                cell_hist["sum"] / cell_hist["count"],
                cell_hist["min"],
                cell_hist["max"],
            )
        )

    if data.coverage:
        from . import coverage as coverage_mod

        merged = coverage_mod.merge_coverage(data.coverage)
        total = merged["pairs_total"] or 1
        lines.append("coverage observatory (%d session(s))" % len(data.coverage))
        lines.append(
            "  pairs %d: delayed %d (%.0f%%) / pruned %d / planned-untested %d"
            "   injections %d   bugs found %d"
            % (
                merged["pairs_total"],
                merged["pairs_delayed"],
                100.0 * merged["pairs_delayed"] / total,
                merged["pairs_pruned"],
                merged["pairs_planned"],
                merged["injected_total"],
                merged["bugs_found"],
            )
        )
        coverage_problems = [
            "%s/%s: %s" % (rec.get("tool", "?"), rec.get("test", "?"), problem)
            for rec in data.coverage
            for problem in coverage_mod.reconcile_coverage(rec)
        ]
        if coverage_problems:
            lines.append("  COVERAGE RECONCILIATION: %d problem(s)" % len(coverage_problems))
            lines.extend("    " + p for p in coverage_problems[:10])
        else:
            lines.append("  coverage reconciles with engine counters ✓")
        lines.append("  full digest: repro obs coverage %s" % data.directory)

    if data.event_streams:
        lines.extend(_fuzz_section(data.event_streams))
        events_total = sum(len(s.events) for s in data.event_streams)
        recovered = sum(s.recovered for s in data.event_streams)
        lines.append("campaign events (%d stream(s))" % len(data.event_streams))
        lines.append(
            "  %d event(s)%s   status: repro campaign status %s   "
            "analytics: repro obs analytics %s"
            % (
                events_total,
                "   (%d torn line(s) recovered)" % recovered if recovered else "",
                data.directory,
                data.directory,
            )
        )

    if data.dossiers:
        lines.append("bug dossiers (%d)" % len(data.dossiers))
        for item in data.dossiers[:10]:
            payload = item["dossier"]
            report = payload.get("report", {})
            lines.append(
                "  %-38s %s @ %s  verified=%s"
                % (
                    item["file"],
                    report.get("error_type", "?"),
                    report.get("fault_location", "?"),
                    payload.get("verified", False),
                )
            )
        lines.append("  inspect one: repro obs dossier %s" % data.directory)

    problems = reconcile(data)
    lines.append("")
    if problems:
        lines.append("RECONCILIATION: %d problem(s)" % len(problems))
        lines.extend("  " + p for p in problems)
    else:
        lines.append("reconciliation: decision events match run summaries and counters ✓")

    if data.runs:
        lines.append("")
        lines.append("runs (slowest %d by wall time)" % min(max_runs, len(data.runs)))
        lines.append(
            "  %-8s %-28s %9s %10s %6s %6s %6s  %s"
            % ("kind", "test", "wall ms", "virt ms", "inj", "skip", "cand", "flags")
        )
        ranked = sorted(data.runs, key=lambda r: r.get("wall_ms", 0.0), reverse=True)
        for run in ranked[:max_runs]:
            skipped = (
                run.get("skipped_decay", 0)
                + run.get("skipped_interference", 0)
                + run.get("skipped_budget", 0)
            )
            flags = "".join(
                token
                for token, on in (
                    ("C", run.get("crashed")),
                    ("T", run.get("timed_out")),
                )
                if on
            )
            lines.append(
                "  %-8s %-28s %9.2f %10.2f %6d %6d %6d  %s"
                % (
                    run.get("kind", "?"),
                    str(run.get("test", "?"))[:28],
                    run.get("wall_ms", 0.0),
                    run.get("virtual_ms", 0.0),
                    run.get("injected", 0),
                    skipped,
                    run.get("candidates_final", 0),
                    flags,
                )
            )
    return "\n".join(lines)


def write_chrome_trace(data: ObsData, out_path: os.PathLike) -> int:
    """Write the Chrome ``trace_event`` view of the recorded virtual-time
    schedules; returns the number of trace events written."""
    trace = chrome_trace_events(data.runs)
    Path(out_path).write_text(json.dumps(trace, indent=1, sort_keys=True))
    return len(trace["traceEvents"])
