"""Read an obs directory, check its laws, and render its digest.

:func:`load_obs_dir` is the one reader of an obs directory. Every
``repro obs`` command and ``scripts/check_obs.py`` are functions of
the :class:`ObsData` it returns, which parses each source -- the
``telemetry-*.jsonl`` and ``events-*.jsonl`` streams (through
:func:`repro.obs.eventbus.read_stream`), the ``coverage-*.json``
records and the ``dossier-*.json`` bug dossiers -- at most once, and
only when a consumer asks for it. Every count it prints is folded from
a record (:attr:`ObsData.counts`). :func:`check` holds every
consistency law CI applies to the recorded data; ``repro obs report``
renders its verdict next to the digest of how many delays were
planned, injected and skipped (and *why*), cache effectiveness, where
the wall time went, and the run's :func:`funnel` from near-miss pairs
to detected bugs.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional

from . import eventbus
from .telemetry import SKIP_REASONS, TELEMETRY_GLOB
from .tracing import chrome_trace_events, virtual_runs

#: Record types a telemetry stream may carry (after its ``meta`` line).
#: Only a stream written before every count was folded from records
#: carries ``metrics`` snapshots.
TELEMETRY_TYPES = ("inject", "run", "analysis", "coverage", "metrics")

#: Count name per field that ``run`` and ``analysis`` records sum into.
RECORD_FIELDS = {
    "pairs_observed": "nearmiss.pairs_observed",
    "pairs_new": "nearmiss.pairs_new",
    "candidates_added": "candidates.added",
    "candidates_removed": "candidates.removed",
    "pruned_parent_child": "candidates.pruned_parent_child",
    "pruned_hb_inference": "candidates.pruned_hb_inference",
    "context_switches": "sched.context_switches",
}

#: The counts a ``metrics`` snapshot of an older stream stored, for
#: which that stream holds no record: its near-miss, candidate and
#: scheduler counts, and the cache writes and corrupt reads its
#: ``cache`` events did not name.
SNAPSHOT_COUNTERS = tuple(RECORD_FIELDS.values()) + (
    "sched.runs", "cache.writes", "cache.corrupt")

#: ``cache`` event action -> count.
CACHE_ACTIONS = {"hit": "cache.hits", "miss": "cache.misses",
                 "write": "cache.writes", "corrupt": "cache.corrupt"}


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
    def coverage_records(self) -> List[tuple]:
        """``(file name, record)`` per coverage record -- from the
        telemetry streams, and from the ``coverage-*.json`` files of an
        older directory -- ordered by tool, test and content, so worker
        pids never decide the order."""
        records = [(Path(stream.path).name, record) for stream in self.telemetry_streams
                   for record in stream.events if record.get("type") == "coverage"]
        records += [(name, record) for name, record in self._files("coverage")[0]
                    if record.get("type") == "coverage"]
        return sorted(
            records,
            key=lambda item: (str(item[1].get("tool")), str(item[1].get("test")),
                              json.dumps(item[1], sort_keys=True)),
        )

    @property
    def coverage(self) -> List[dict]:
        return [record for _name, record in self.coverage_records]

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

    @property
    def processes(self) -> int:
        return len(self.telemetry_streams)

    @cached_property
    def counts(self) -> Counter:
        """Every count the report prints, folded from the records: each
        telemetry stream's ``run`` and ``analysis`` records (an older
        stream's ``metrics`` snapshot instead, see
        :func:`_snapshot_counts`), the ``inject`` records, and the
        ``cache``, ``fault`` and cell events. ``sched.virtual_time_ms_total``
        sums run records' virtual time. The event-derived counts fold in
        any directory, a fleet directory without a telemetry stream
        too."""
        counts: Counter = Counter()
        virtual_ms = 0.0
        for stream in self.telemetry_streams:
            stream_counts = _snapshot_counts(stream.events)
            if stream_counts is None:
                stream_counts = _record_counts(stream.events)
            virtual_ms = stream_counts.pop("sched.virtual_time_ms_total", 0.0) + virtual_ms
            counts.update(stream_counts)
        counts["sched.virtual_time_ms_total"] = virtual_ms
        counts["telemetry.runs_recorded"] = len(self.runs)
        for record in self.inject_events:
            counts["inject.considered"] += 1
            counts["inject.injected" if record.get("action") == "inject"
                   else "inject.skipped.%s" % record.get("reason")] += 1
        for event in self.events:
            kind, status = event.get("type"), event.get("status")
            if kind == "cache" and event.get("action") in CACHE_ACTIONS:
                counts[CACHE_ACTIONS[event["action"]]] += 1
            elif kind == "fault":
                counts["faults.%s" % event.get("kind")] += 1
            elif kind == "cell_resumed":
                counts["cells.resumed"] += 1
            elif kind == "cell_end" and status == "quarantined":
                counts["cells.quarantined"] += 1
            elif kind == "cell_end" and status == "ok" and int(event.get("attempt", 1)) > 1:
                counts["cells.retried"] += 1
        return counts

    @cached_property
    def cache_recorded(self) -> bool:
        """Whether the directory saw a run cache: a ``cache`` event, or
        an older stream's ``metrics`` snapshot, which counted the cache."""
        return (any(event.get("type") == "cache" for event in self.events)
                or any(_snapshot_counts(stream.events) is not None
                       for stream in self.telemetry_streams))

    @cached_property
    def cell_walls_ms(self) -> List[float]:
        """Wall time of each cell that ended ``ok`` (its ``cell_end``
        event)."""
        return [1000.0 * float(event.get("wall_s", 0.0)) for event in self.events
                if event.get("type") == "cell_end" and event.get("status") == "ok"]

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
        return out


def _record_counts(records: List[dict]) -> Counter:
    """One stream's counts from its ``run`` and ``analysis`` records."""
    counts: Counter = Counter()
    virtual_ms = 0.0
    for record in records:
        kind = record.get("type")
        if kind in ("run", "analysis"):
            for field, name in RECORD_FIELDS.items():
                counts[name] += record.get(field, 0)
        if kind == "run":
            counts["sched.runs"] += 1
            virtual_ms += record.get("virtual_ms", 0.0)
    counts["sched.virtual_time_ms_total"] = virtual_ms
    return counts


def _snapshot_counts(records: List[dict]) -> Optional[Counter]:
    """An older stream's counts, from the counters and ``*_total``
    gauge of its last ``metrics`` snapshot; None for a stream without
    one. Its run records then count only ``telemetry.runs_recorded``:
    they covered some of its runs, and their candidate fields were
    session totals."""
    snapshots = [r.get("metrics") for r in records if r.get("type") == "metrics"]
    if not snapshots or snapshots[-1] is None:
        return None
    counters, gauges = snapshots[-1].get("counters", {}), snapshots[-1].get("gauges", {})
    counts = Counter({name: counters[name] for name in SNAPSHOT_COUNTERS if name in counters})
    counts.update({name: value for name, value in gauges.items() if name.endswith("_total")})
    return counts


def load_obs_dir(directory: os.PathLike) -> ObsData:
    """The one reader of an obs directory; parses nothing until asked."""
    return ObsData(directory)


def check(data: ObsData, events_only: bool = False) -> List[str]:
    """Every consistency law CI applies to recorded data; [] = consistent.

    The telemetry laws: streams exist and carry only known record types
    and tagged skips; dossiers validate against the dossier schema;
    coverage records reconcile with their own engine counters; committed
    lines parse; each run's decision events reconcile with its run
    summary. The event laws (all that
    ``events_only`` runs, for a fleet directory): committed lines parse,
    and carry known event types at a supported schema version.
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
        for record in stream.events:
            kind = record.get("type")
            if kind not in TELEMETRY_TYPES:
                problems.append("%s: unknown type %r" % (name, kind))
            elif kind == "inject" and record.get("action") == "skip":
                if record.get("reason") not in SKIP_REASONS:
                    problems.append("%s: skip event without a valid reason" % name)
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
        for name, record in data.coverage_records
        for issue in reconcile_coverage(record)
    ]
    return data.unreadable("coverage") + problems


def _decision_laws(data: ObsData) -> List[str]:
    """Decision events against the run summaries.

    Only runs with matching per-decision events are checked; a summary
    alone is not an inconsistency. A summary may lead its events by at
    most the recovered torn lines, so a chaos run's artifacts reconcile.
    """
    problems: List[str] = []
    untagged = [e for e in data.inject_events
                if e.get("action") == "skip" and e.get("reason") not in SKIP_REASONS]
    if untagged:
        problems.append("%d skip events missing a valid reason tag" % len(untagged))
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
    """Event streams: committed lines parse, known types and versions."""
    problems: List[str] = []
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
    return problems


def _fmt_count(value: float) -> str:
    if value >= 1_000_000:
        return "%.1fM" % (value / 1_000_000)
    if value >= 10_000:
        return "%.1fk" % (value / 1_000)
    return "%d" % value


def funnel(data: ObsData) -> List[tuple]:
    """The detection funnel of one obs directory, as ``(stage, count)``.

    The paper's pipeline, each stage from one source that every driver
    writes: near-miss pairs observed and candidate pairs added are
    summed over the ``run`` and ``analysis`` records, delays injected
    are counted from the ``inject`` records (:attr:`ObsData.counts`),
    and detected is the number of
    ``(tool, bug, test)`` targets with a matched ``detection`` event
    plus the bugs found in generated workloads (``fuzz_workload``
    events). A stage whose source the directory does not hold -- the
    first three without a telemetry stream (a fleet directory), the
    last without an event stream -- counts None, which readers show as
    "not recorded" rather than a 0 nothing measured. ``obs report``
    and the dashboard both render this.
    """
    from .campaign import detection_analytics

    counters = data.counts
    view = data.view
    detected = None
    if view is not None:
        detected = detection_analytics(view)["detected"]
        detected += sum(int(e.get("found", 0)) for e in view.fuzz.values())
    telemetry = bool(data.telemetry_streams)
    return [
        ("near-miss pairs", counters["nearmiss.pairs_observed"] if telemetry else None),
        ("candidate pairs", counters["candidates.added"] if telemetry else None),
        ("delays injected", counters["inject.injected"] if telemetry else None),
        ("detected", detected),
    ]


def event_sections(view) -> List[str]:
    """The report sections folded from campaign events alone: time to
    first detection and generated workloads. Both read deterministic,
    deduplicated fields only, so a chaos-retried or resumed campaign
    renders them identically to an uninterrupted one."""
    return _ttfd_section(view) + _fuzz_section(view)


def _ttfd_section(view) -> List[str]:
    """Per-target time to first detection, with per-app and per-bug
    quantiles (:func:`repro.obs.campaign.detection_analytics`)."""
    from .campaign import detection_analytics

    analytics = detection_analytics(view)
    if not analytics["rows"]:
        return []
    rows = analytics["rows"]
    # Columns fit their longest entry (``ablation:*`` tools, long app
    # names), never narrower than the headers' usual widths.
    bug_w = max([10] + [len(str(row["bug"])) for row in rows])
    tool_w = max([12] + [len(str(row["tool"])) for row in rows])
    app_w = max([14] + [len(str(row["app"])) for row in rows])
    row_format = "  %%-%ds %%-%ds %%-%ds %%8s %%6s %%12s" % (bug_w, tool_w, app_w)
    lines = [
        "time to first detection (virtual ms): %d of %d target(s) detected"
        % (analytics["detected"], analytics["targets"]),
        row_format % ("bug", "tool", "app", "attempts", "runs", "ttfd"),
    ]
    for row in rows:
        lines.append(
            row_format
            % (row["bug"], row["tool"], row["app"], row["attempts"], row["runs"],
               "%.1f" % row["ttfd_ms"] if row["detected"] else "—"))
    for label, table in (("per app", analytics["ttfd_by_app"]),
                         ("per bug", analytics["ttfd_by_bug"])):
        if table:
            name_w = max([14] + [len(str(name)) for name in table])
            lines.append("  ttfd %s:" % label)
            for name, stats in table.items():
                lines.append(
                    "    %-*s n=%d  min %.1f  p50 %.1f  p90 %.1f  max %.1f"
                    % (name_w, name, stats["n"], stats["min"], stats["p50"],
                       stats["p90"], stats["max"]))
    return lines


def _fuzz_section(view) -> List[str]:
    """:func:`fuzz_lines`, pointing to the dashboard's curves."""
    lines = fuzz_lines(view)
    if lines:
        lines.append("  sensitivity curves: repro obs dashboard <dir>")
    return lines


def fuzz_lines(view) -> List[str]:
    """Generated-workload digest from ``fuzz_workload`` events; the
    report and the dashboard both render it.

    Reads the folded campaign view, so retried/resumed/cache-hit
    re-emissions collapse, then checks each workload's oracle is still
    *resolvable*: ``generate_spec(seed)`` must hash to the spec prefix
    the event recorded, else the ground truth regenerated today is not
    the one the campaign ran against (generator drift) and sensitivity
    joins against it would be fiction.
    """
    from .campaign import fuzz_analytics
    from .quality import resolvable_fuzz_events

    if not view.fuzz:
        return []
    resolvable, mismatched = resolvable_fuzz_events(view.fuzz.values())
    generated = fuzz_analytics(view)
    lines: List[str] = ["generated workloads (fuzz)"]
    lines.append(
        "  %d workload(s) oracle-verified   %d with invariant violations"
        % (generated["workloads"], generated["failed"])
    )
    lines.append(
        "  %-10s %9s %8s %11s %6s %6s %9s"
        % ("topology", "workloads", "planted", "detectable", "found", "runs", "rate")
    )
    for bucket in generated["rows"]:
        lines.append(
            "  %-10s %9d %8d %11d %6d %6d %8.1f%%"
            % (bucket["topology"], bucket["workloads"], bucket["planted"],
               bucket["detectable"], bucket["found"], bucket["runs"],
               100.0 * bucket["detection_rate"])
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
    return lines


def render_report(data: ObsData, max_runs: int = 20) -> str:
    """The human-readable digest behind ``repro obs report``."""
    counters = data.counts

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

    def section(title: str, recorded: bool, line: str) -> None:
        """One count section; "not recorded" when the directory holds
        none of its source, rather than a 0 nothing measured."""
        lines.append(title)
        lines.append("  " + (line if recorded else "not recorded"))

    telemetry = bool(data.telemetry_streams)
    skips = {r: counters["inject.skipped.%s" % r] for r in SKIP_REASONS}
    lines.append("")
    lines.append("detection funnel: %s" % " → ".join(
        "%s %s" % (name, "not recorded" if count is None else "%d" % count)
        for name, count in funnel(data)))
    section("injection decisions", telemetry, (
        "considered %s   injected %s   skipped %s (decay %s, interference %s, budget %s)"
        % (
            _fmt_count(counters["inject.considered"]),
            _fmt_count(counters["inject.injected"]),
            _fmt_count(sum(skips.values())),
            _fmt_count(skips["decay"]),
            _fmt_count(skips["interference"]),
            _fmt_count(skips["budget"]),
        )
    ))
    section("candidate pipeline", telemetry, (
        "near-misses observed %s (%s new pairs)   candidates +%s / -%s"
        "   pruned: parent-child %s, hb-inference %s"
        % (
            _fmt_count(counters["nearmiss.pairs_observed"]),
            _fmt_count(counters["nearmiss.pairs_new"]),
            _fmt_count(counters["candidates.added"]),
            _fmt_count(counters["candidates.removed"]),
            _fmt_count(counters["candidates.pruned_parent_child"]),
            _fmt_count(counters["candidates.pruned_hb_inference"]),
        )
    ))
    hits = counters["cache.hits"]
    misses = counters["cache.misses"]
    rate = 100.0 * hits / (hits + misses) if (hits + misses) else 0.0
    section("run cache", data.cache_recorded, (
        "hits %s   misses %s   writes %s   hit rate %.1f%%"
        % (_fmt_count(hits), _fmt_count(misses), _fmt_count(counters["cache.writes"]), rate)
    ))

    fault_counts = {
        name.split("faults.", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("faults.") and value
    }
    resilience = (
        sum(fault_counts.values())
        + counters["cells.retried"]
        + counters["cells.quarantined"]
        + counters["cells.resumed"]
        + counters["cache.corrupt"]
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
                _fmt_count(counters["cells.retried"]),
                _fmt_count(counters["cells.quarantined"]),
                _fmt_count(counters["cells.resumed"]),
                _fmt_count(counters["cache.corrupt"]),
                data.recovered_lines,
            )
        )

    section("scheduler", telemetry, (
        "simulated runs %s   context switches %s   virtual time %.1f ms total"
        % (
            _fmt_count(counters["sched.runs"]),
            _fmt_count(counters["sched.context_switches"]),
            counters["sched.virtual_time_ms_total"],
        )
    ))

    walls = data.cell_walls_ms
    if walls:
        lines.append("harness cells")
        lines.append(
            "  %d cells   wall %.1f ms total   mean %.1f ms   min %.1f / max %.1f ms"
            % (len(walls), sum(walls), sum(walls) / len(walls), min(walls), max(walls))
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
        lines.extend(event_sections(data.view))
        events_total = sum(len(s.events) for s in data.event_streams)
        recovered = sum(s.recovered for s in data.event_streams)
        lines.append("campaign events (%d stream(s))" % len(data.event_streams))
        lines.append(
            "  %d event(s)%s   status: repro campaign status %s"
            % (
                events_total,
                "   (%d torn line(s) recovered)" % recovered if recovered else "",
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
    from .dossier import dossier_pid

    trace = chrome_trace_events(virtual_runs(
        [(stream.meta.pid, stream.events) for stream in data.telemetry_streams],
        [(dossier_pid(item["file"]), item["dossier"]) for item in data.dossiers],
    ))
    Path(out_path).write_text(json.dumps(trace, indent=1, sort_keys=True))
    return len(trace["traceEvents"])
