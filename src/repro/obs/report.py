"""Read an obs directory, check its laws, and render its digest.

:func:`load_obs_dir` is the one reader of an obs directory. Every
``repro obs`` command and ``scripts/check_obs.py`` are functions of
the :class:`ObsData` it returns, which parses each source -- the
``telemetry-*.jsonl`` and ``events-*.jsonl`` streams (through
:func:`repro.obs.eventbus.read_stream`), the ``coverage-*.json``
records and the ``dossier-*.json`` bug dossiers -- at most once, and
only when a consumer asks for it. :func:`check` holds every
consistency law CI applies to the recorded data; ``repro obs report``
renders its verdict next to the digest of how many delays were
planned, injected and skipped (and *why*), cache effectiveness and
where the wall time went.
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List

from . import eventbus
from .metrics import merge_snapshots
from .telemetry import FAULT_KINDS, SKIP_REASONS, TELEMETRY_GLOB
from .tracing import chrome_trace_events

#: Counters every telemetry stream's last ``metrics`` record must name.
#: Sessions pre-register them, so the names are present even at 0.
REQUIRED_COUNTERS = (
    "inject.considered", "inject.injected", "inject.skipped.decay",
    "inject.skipped.interference", "inject.skipped.budget",
    "nearmiss.pairs_observed", "candidates.added", "cache.hits", "cache.misses",
    "sched.runs", "sched.context_switches", "telemetry.runs_recorded",
) + tuple("faults.%s" % kind for kind in FAULT_KINDS) + (
    "cells.retried", "cells.quarantined", "cells.resumed", "cache.corrupt",
)

#: Record types a telemetry stream may carry (after its ``meta`` line).
TELEMETRY_TYPES = ("inject", "run", "metrics")


class ObsData:
    """One obs directory, parsed lazily: each source at most once.

    Unreadable files have one policy: a warning naming the file, and
    the rest of the directory loads. Warnings cover a missing
    directory, the torn final JSONL line a killed worker leaves, and an
    unreadable coverage record or dossier; :attr:`parse_errors` are
    malformed *committed* stream lines, which :func:`check` fails on.
    """

    def __init__(self, directory: os.PathLike):
        self.root = Path(directory)
        self.directory = str(self.root)
        self._loaded: Dict[str, tuple] = {}

    # -- sources ---------------------------------------------------------

    @cached_property
    def telemetry_streams(self) -> List[eventbus.EventStream]:
        """One stream per process. ``run_seq`` is process-local, so runs
        are matched to their decision events per stream."""
        if not self.root.is_dir():
            return []
        return eventbus.load_streams(self.root, TELEMETRY_GLOB)

    @cached_property
    def event_streams(self) -> List[eventbus.EventStream]:
        """Campaign event streams (a directory's, or one stream file)."""
        return eventbus.load_streams(self.root)

    def _files(self, kind: str) -> tuple:
        """``([(file name, record)], [unreadable-file warnings])`` for
        the ``<kind>-*.json`` records, parsed on the first call."""
        if kind not in self._loaded:
            from ..core import persistence

            loaded, unreadable = [], []
            for path in sorted(self.root.glob("%s-*.json" % kind)):
                try:
                    record = persistence.load_record(path)
                    loaded.append((path.name, record["dossier"] if kind == "dossier" else record))
                except (ValueError, KeyError, OSError) as exc:
                    label = "coverage record" if kind == "coverage" else kind
                    unreadable.append("%s: unreadable %s (%s)" % (path.name, label, exc))
            self._loaded[kind] = (loaded, unreadable)
        return self._loaded[kind]

    def unreadable(self, kind: str) -> List[str]:
        """Warnings for the ``coverage`` or ``dossier`` files that could
        not be read."""
        return self._files(kind)[1]

    @cached_property
    def coverage_files(self) -> List[tuple]:
        """``(file name, record)`` per coverage record, ordered by tool,
        test and content, so worker pids never decide the order."""
        return sorted(
            ((name, record) for name, record in self._files("coverage")[0]
             if record.get("type") == "coverage"),
            key=lambda item: (str(item[1].get("tool")), str(item[1].get("test")),
                              json.dumps(item[1], sort_keys=True)),
        )

    @property
    def coverage(self) -> List[dict]:
        return [record for _name, record in self.coverage_files]

    @cached_property
    def dossiers(self) -> List[dict]:
        """Bug dossiers, as ``{"file": name, "dossier": payload}``."""
        return [{"file": name, "dossier": payload}
                for name, payload in self._files("dossier")[0]]

    # -- folds -----------------------------------------------------------

    def _telemetry(self, kind: str) -> List[dict]:
        return [r for s in self.telemetry_streams for r in s.events if r.get("type") == kind]

    @cached_property
    def runs(self) -> List[dict]:
        return self._telemetry("run")

    @cached_property
    def inject_events(self) -> List[dict]:
        return self._telemetry("inject")

    @cached_property
    def snapshots(self) -> List[dict]:
        """The last ``metrics`` record of each stream that has one."""
        out = []
        for stream in self.telemetry_streams:
            metrics = [r.get("metrics") for r in stream.events if r.get("type") == "metrics"]
            if metrics and metrics[-1] is not None:
                out.append(metrics[-1])
        return out

    @property
    def processes(self) -> int:
        return len(self.snapshots)

    @cached_property
    def metrics(self) -> Dict[str, Any]:
        return merge_snapshots(self.snapshots)

    @property
    def recovered_lines(self) -> int:
        """Torn telemetry tail lines recovered (skipped) while loading:
        ``corrupt_record`` faults, at most one lost record per file,
        which the run and skip laws tolerate."""
        return sum(s.recovered for s in self.telemetry_streams)

    @cached_property
    def events(self) -> List[dict]:
        """The event streams merged into one deterministic timeline."""
        return eventbus.merge_events(self.event_streams)

    @cached_property
    def view(self):
        """The folded campaign view, or None without event streams."""
        from .campaign import fold_events

        return fold_events(self.events) if self.event_streams else None

    @cached_property
    def ledger(self) -> dict:
        """The de-duplicated run ledger (:func:`quality.load_run_ledger`)."""
        from .quality import load_run_ledger

        return load_run_ledger(self.telemetry_streams)

    # -- diagnostics -----------------------------------------------------

    @property
    def parse_errors(self) -> List[str]:
        return [e for s in self.telemetry_streams + self.event_streams for e in s.parse_errors]

    @property
    def warnings(self) -> List[str]:
        """Every recoverable oddity in the directory (parses it all)."""
        out = [] if self.root.is_dir() else ["obs directory %s does not exist" % self.root]
        out += [w for s in self.telemetry_streams for w in s.warnings]
        out += self.unreadable("coverage") + self.unreadable("dossier")
        out += [w for s in self.event_streams for w in s.warnings]
        if not self.event_streams and self.metrics["counters"].get("harness.cells", 0):
            out.append(
                "harness cells were recorded but no campaign event stream "
                "(events-*.jsonl) is present"
            )
        return out


def load_obs_dir(directory: os.PathLike) -> ObsData:
    """The one reader of an obs directory; parses nothing until asked."""
    return ObsData(directory)


def check(data: ObsData, events_only: bool = False) -> List[str]:
    """Every consistency law CI applies to recorded data; [] = consistent.

    The telemetry laws: streams exist, carry only known record types and
    tagged skips, and end in a ``metrics`` record naming every
    :data:`REQUIRED_COUNTERS` entry; dossiers validate against the
    dossier schema; coverage records reconcile with their own engine
    counters; committed lines parse; decision events reconcile with
    the run summaries and the merged skip counters. The event laws
    (all that ``events_only`` runs, for a fleet directory): known event
    types at a supported schema version, a balanced lease ledger, and
    event counts equal to their telemetry counters. Events lost to
    recovered torn tail lines are the only tolerated deficit; a surplus
    never is.
    """
    problems: List[str] = []
    if not events_only:
        problems += _telemetry_laws(data)
        problems += _dossier_laws(data) + _coverage_laws(data)
        problems += [e for s in data.telemetry_streams for e in s.parse_errors]
        problems += _decision_laws(data)
    problems += _event_laws(data)
    if events_only and not data.event_streams:
        problems.append("no events-*.jsonl streams in %s" % data.directory)
    return problems


def _telemetry_laws(data: ObsData) -> List[str]:
    problems: List[str] = []
    if not data.telemetry_streams:
        problems.append("no telemetry-*.jsonl files in %s" % data.directory)
    for stream in data.telemetry_streams:
        name = Path(stream.path).name
        metrics = None
        for record in stream.events:
            kind = record.get("type")
            if kind not in TELEMETRY_TYPES:
                problems.append("%s: unknown type %r" % (name, kind))
            elif kind == "metrics":
                metrics = record.get("metrics") or {}
            elif kind == "inject" and record.get("action") == "skip":
                if record.get("reason") not in SKIP_REASONS:
                    problems.append("%s: skip event without a valid reason" % name)
        if metrics is None:
            problems.append("%s: no metrics record" % name)
            continue
        counters = metrics.get("counters", {})
        problems += [
            "%s: missing counter %r" % (name, counter)
            for counter in REQUIRED_COUNTERS
            if counter not in counters
        ]
    return problems


def _dossier_laws(data: ObsData) -> List[str]:
    from .dossier import validate_dossier_dict

    problems = [
        "%s: %s" % (item["file"], issue)
        for item in data.dossiers
        for issue in validate_dossier_dict(item["dossier"])
    ]
    return data.unreadable("dossier") + problems


def _coverage_laws(data: ObsData) -> List[str]:
    from .coverage import reconcile_coverage

    problems = [
        "%s: %s" % (name, issue)
        for name, record in data.coverage_files
        for issue in reconcile_coverage(record)
    ]
    return data.unreadable("coverage") + problems


def _decision_laws(data: ObsData) -> List[str]:
    """Decision events against run summaries and the skip counters.

    Only runs with matching per-decision events are checked; a summary
    alone is not an inconsistency. Counters may lead events by at most
    the recovered torn lines, so a chaos run's artifacts reconcile.
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
    for stream in data.telemetry_streams:
        problems.extend(_reconcile_runs(stream.events, data.recovered_lines))
    return problems


def _reconcile_runs(records: List[dict], recovered_lines: int) -> List[str]:
    """Match one process's run summaries to its decision events."""
    problems: List[str] = []
    run_totals = {
        run["run_seq"]: run
        for run in records
        if run.get("type") == "run" and (run.get("considered", 0) or run.get("injected", 0))
    }
    events_by_run: Dict[int, List[dict]] = {}
    for event in records:
        if event.get("type") == "inject":
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
        if recovered_lines and (
            0 <= inject_deficit and 0 <= skip_run_deficit
            and 0 < inject_deficit + skip_run_deficit <= recovered_lines
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


def _event_laws(data: ObsData) -> List[str]:
    """Event streams: schema, the lease ledger, event == counter.

    Every emission site increments its telemetry counter and emits its
    bus event in the same code path, so any divergence is an
    instrumentation bug; the one tolerated deficit is the recovered
    torn tail lines (at most one per killed writer).
    """
    if not data.event_streams:
        return []
    problems: List[str] = []
    recovered = sum(s.recovered for s in data.event_streams)
    for stream in data.event_streams:
        name = Path(stream.path).name
        problems.extend(stream.parse_errors)
        if (
            stream.meta.version is not None
            and stream.meta.version not in eventbus.SUPPORTED_EVENT_VERSIONS
        ):
            problems.append(
                "%s: event schema version %r not in supported %s"
                % (name, stream.meta.version, list(eventbus.SUPPORTED_EVENT_VERSIONS))
            )
        problems += [
            "%s: unknown event type %r (seq %s)" % (name, event.get("type"), event.get("seq"))
            for event in stream.events
            if event.get("type") not in eventbus.EVENT_TYPES
        ]
    view = data.view
    # Lease events are hard-flushed at emission, so creations (acquire,
    # steal) and terminations (release, expire) balance exactly, modulo
    # torn lines in either direction.
    creations = view.lease_acquired + view.lease_stolen
    terminations = view.lease_released + view.lease_expired
    if abs(creations - terminations) > recovered:
        problems.append(
            "events: lease ledger unbalanced: %d acquire + %d steal != "
            "%d release + %d expire (|diff| %d > %d recovered torn line(s))"
            % (view.lease_acquired, view.lease_stolen, view.lease_released,
               view.lease_expired, abs(creations - terminations), recovered)
        )
    counters = data.metrics.get("counters", {})
    if not counters:
        return problems

    def exact(label: str, observed: int, expected: int) -> None:
        if observed > expected:
            problems.append(
                "events: %d %s event(s) exceed the counter value %d"
                % (observed, label, expected)
            )
        elif expected - observed > recovered:
            problems.append(
                "events: %d %s event(s) vs counter %d (deficit %d > %d "
                "recovered torn line(s))"
                % (observed, label, expected, expected - observed, recovered)
            )

    exact("cache-hit", view.cache_hits, counters.get("cache.hits", 0))
    exact("cache-miss", view.cache_misses, counters.get("cache.misses", 0))
    for kind in FAULT_KINDS:
        exact("fault[%s]" % kind, view.faults.get(kind, 0),
              counters.get("faults.%s" % kind, 0))
    cell_ends = [e for e in data.events if e.get("type") == "cell_end"]
    exact(
        "quarantined cell_end",
        sum(1 for e in cell_ends if e.get("status") == "quarantined"),
        counters.get("cells.quarantined", 0),
    )
    exact(
        "retried-ok cell_end",
        sum(1 for e in cell_ends
            if e.get("status") == "ok" and int(e.get("attempt", 1)) > 1),
        counters.get("cells.retried", 0),
    )
    exact("cell_resumed", view.resumed, counters.get("cells.resumed", 0))
    return problems


def _fmt_count(value: float) -> str:
    if value >= 1_000_000:
        return "%.1fM" % (value / 1_000_000)
    if value >= 10_000:
        return "%.1fk" % (value / 1_000)
    return "%d" % value


def _fuzz_section(view) -> List[str]:
    """Generated-workload digest from ``fuzz_workload`` events.

    Reads the folded campaign view, so retried/resumed/cache-hit
    re-emissions collapse, then checks each workload's oracle is still
    *resolvable*: ``generate_spec(seed)`` must hash to the spec prefix
    the event recorded, else the ground truth regenerated today is not
    the one the campaign ran against (generator drift) and sensitivity
    joins against it would be fiction.
    """
    from . import campaign as campaign_mod

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
        coverage_problems = _coverage_laws(data)
        if coverage_problems:
            lines.append("  COVERAGE RECONCILIATION: %d problem(s)" % len(coverage_problems))
            lines.extend("    " + p for p in coverage_problems[:10])
        else:
            lines.append("  coverage reconciles with engine counters ✓")
        lines.append("  full digest: repro obs coverage %s" % data.directory)

    if data.event_streams:
        lines.extend(_fuzz_section(data.view))
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

    problems = check(data, events_only=not data.telemetry_streams)
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
