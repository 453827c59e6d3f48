"""Campaign event consumption: live status, progress, cross-run analytics.

:mod:`repro.obs.eventbus` writes the campaign event stream; this module
reads it. Three consumers share one incremental fold
(:func:`apply_event` / :func:`fold_events` -> :class:`CampaignView`):

* ``repro campaign status <events>`` -- render a point-in-time view of
  a running (or finished) campaign: per-cell state, ETA from completed
  cell wall times, the detection funnel, and campaign health;
* ``--progress`` on experiment commands -- a :class:`ProgressRenderer`
  subscribed to the live bus, printing one status line per lifecycle
  event to stderr while the tables compute;
* ``repro obs analytics <dir>`` -- cross-run analytics: per-app /
  per-bug time-to-first-detection distributions, injection-skip
  taxonomy rollups from co-located telemetry, and a perf-regression
  tracker over ``BENCH_*.json`` history.

Determinism contract: the analytics sections are computed only from
deterministic event fields (virtual ``time_ms``, candidate-pair and
delay counts, runs-to-expose, matched flags), and the work-product
events (``prep``, ``detect_run``, ``detection``) are deduplicated by
their deterministic identity keys -- a retried or resumed cell re-runs
the same pure function and re-emits identical values, so its duplicate
events collapse. A chaos-interrupted, resumed campaign therefore
renders an analytics report identical to an uninterrupted run's.
Wall-clock fields feed only the live view (ETA, throughput), never
analytics.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from . import eventbus


# ----------------------------------------------------------------------
# Folding a stream into a campaign view
# ----------------------------------------------------------------------


@dataclass
class CellState:
    """The latest known state of one campaign cell."""

    cell: str
    unit: str = "?"
    status: str = "running"  # running | ok | quarantined | failed | resumed
    attempt: int = 1
    wall_s: float = 0.0
    retries: int = 0


@dataclass
class CampaignView:
    """Everything ``campaign status`` needs, folded from one stream."""

    events: int = 0
    campaigns: List[dict] = field(default_factory=list)
    finished: List[dict] = field(default_factory=list)
    cells_expected: int = 0
    cells: Dict[str, CellState] = field(default_factory=dict)
    retries: int = 0
    resumed: int = 0
    watchdog_kills: int = 0
    chaos_fires: int = 0
    checkpoints: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Work-product events, deduplicated by deterministic identity key.
    #: Values are whole events; a re-emitted duplicate (retry, resume,
    #: cold cache) overwrites with identical content.
    preps: Dict[Tuple, dict] = field(default_factory=dict)
    detect_runs: Dict[Tuple, dict] = field(default_factory=dict)
    detections: Dict[Tuple, dict] = field(default_factory=dict)
    fuzz: Dict[Tuple, dict] = field(default_factory=dict)
    first_t: float = 0.0
    last_t: float = 0.0
    warnings: List[str] = field(default_factory=list)

    # -- derived -------------------------------------------------------

    @property
    def cells_done(self) -> int:
        return sum(1 for c in self.cells.values() if c.status != "running")

    @property
    def cells_running(self) -> List[CellState]:
        return [c for c in self.cells.values() if c.status == "running"]

    @property
    def cells_total(self) -> int:
        return max(self.cells_expected, len(self.cells))

    def by_status(self, status: str) -> int:
        return sum(1 for c in self.cells.values() if c.status == status)

    @property
    def cache_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def elapsed_s(self) -> float:
        return max(0.0, self.last_t - self.first_t)

    def eta_s(self) -> Optional[float]:
        """Seconds until done, from completed-cell wall times.

        Throughput-based: completed cells over elapsed wall time folds
        in parallelism and cache effects without knowing ``--jobs``.
        Returns None before the first cell completes (no basis yet).
        """
        done = self.cells_done
        remaining = self.cells_total - done
        if remaining <= 0:
            return 0.0
        if not done or self.elapsed_s <= 0:
            return None
        return remaining * (self.elapsed_s / done)

    # -- detection funnel (deterministic fields only) ------------------

    @property
    def pairs_candidates(self) -> int:
        """Candidate pairs discovered by preparation analysis (both the
        harness prep primitive and detection sessions' own plans)."""
        return (
            sum(int(e.get("pairs", 0)) for e in self.preps.values())
            + sum(int(e.get("pairs", 0)) for e in self.detections.values())
        )

    @property
    def delays_injected(self) -> int:
        return (
            sum(int(e.get("injected", 0)) for e in self.detect_runs.values())
            + sum(int(e.get("delays", 0)) for e in self.detections.values())
        )

    @property
    def pairs_observed(self) -> int:
        """Near-miss pairs observed during online detection runs."""
        return sum(int(e.get("pairs_observed", 0)) for e in self.detect_runs.values())

    @property
    def detect_crashes(self) -> int:
        return (
            sum(1 for e in self.detect_runs.values() if e.get("crashed"))
            + sum(int(e.get("crashes", 0)) for e in self.detections.values())
        )

    @property
    def detected(self) -> List[dict]:
        return [d for d in self.detections.values() if d.get("matched")]


def detection_key(event: dict) -> Tuple:
    """The deterministic identity of one detection attempt.

    A retried cell re-runs deterministically and re-emits its detection
    events with identical values; this key is what collapses them so
    chaos/resumed campaigns analyze identically to clean ones.
    """
    return (
        event.get("tool", "?"),
        event.get("bug", "?"),
        event.get("test", "?"),
        event.get("attempt", 0),
    )


def _identity(event: dict) -> Tuple:
    """Whole-event identity minus transport fields (seq, timestamp,
    writer). ``prep`` and ``detect_run`` events carry only deterministic
    work-product fields, so two emissions of the same computation (a
    retried cell, a resumed campaign's overlap) have equal identity and
    collapse, while genuinely distinct runs never do."""
    return tuple(
        sorted((k, str(v)) for k, v in event.items() if k not in ("seq", "t", "w"))
    )


def apply_event(view: CampaignView, event: dict) -> None:
    """Fold one event into ``view`` (shared by the offline loader and
    the live progress renderer, so their numbers always agree)."""
    view.events += 1
    stamp = float(event.get("t", 0.0))
    if stamp:
        if not view.first_t:
            view.first_t = stamp
        view.last_t = max(view.last_t, stamp)
    etype = event.get("type")
    if etype == "campaign_begin":
        view.campaigns.append(event)
    elif etype == "campaign_end":
        view.finished.append(event)
    elif etype == "fanout":
        view.cells_expected += int(event.get("cells", 0))
    elif etype == "cell_begin":
        cell = str(event.get("cell", "?"))
        state = view.cells.get(cell)
        if state is None:
            view.cells[cell] = CellState(
                cell=cell,
                unit=str(event.get("unit", "?")),
                attempt=int(event.get("attempt", 1)),
            )
        else:  # a retry re-enters the cell
            state.status = "running"
            state.attempt = int(event.get("attempt", state.attempt))
    elif etype == "cell_end":
        cell = str(event.get("cell", "?"))
        state = view.cells.setdefault(cell, CellState(cell=cell))
        state.status = str(event.get("status", "ok"))
        state.attempt = int(event.get("attempt", 1))
        state.wall_s = float(event.get("wall_s", 0.0))
    elif etype == "cell_retry":
        view.retries += 1
        cell = str(event.get("cell", "?"))
        view.cells.setdefault(cell, CellState(cell=cell)).retries += 1
    elif etype == "cell_resumed":
        view.resumed += 1
        cell = str(event.get("cell", "?"))
        state = view.cells.get(cell)
        if state is None:
            view.cells[cell] = CellState(cell=cell, status="resumed")
        else:
            # An earlier run in this stream already counted the cell and
            # its fanout announced it: count it once and keep the status
            # it first ended with.
            view.cells_expected -= 1
            if state.status == "running":
                state.status = "resumed"
    elif etype == "watchdog":
        view.watchdog_kills += 1
    elif etype == "fault":
        kind = str(event.get("kind", "?"))
        view.faults[kind] = view.faults.get(kind, 0) + 1
    elif etype == "chaos":
        view.chaos_fires += 1
    elif etype == "checkpoint":
        view.checkpoints += 1
    elif etype == "cache":
        if event.get("action") == "hit":
            view.cache_hits += 1
        else:
            view.cache_misses += 1
    elif etype == "prep":
        view.preps[_identity(event)] = event
    elif etype == "detect_run":
        view.detect_runs[_identity(event)] = event
    elif etype == "detection":
        view.detections[detection_key(event)] = event
    elif etype == "fuzz_workload":
        view.fuzz[_identity(event)] = event
    elif etype not in eventbus.EVENT_TYPES:
        view.warnings.append("unknown event type %r" % etype)


def fold_events(events: Iterable[dict]) -> CampaignView:
    """One pass over a (possibly merged) stream -> :class:`CampaignView`."""
    view = CampaignView()
    for event in events:
        apply_event(view, event)
    return view


def fold_streams(streams: Sequence[eventbus.EventStream]) -> CampaignView:
    """Fold parsed streams into a view that carries their warnings."""
    view = fold_events(eventbus.merge_events(streams))
    for stream in streams:
        view.warnings.extend(stream.warnings)
        view.warnings.extend(stream.parse_errors)
    return view


def load_view(path_or_dir: os.PathLike) -> Tuple[CampaignView, List[eventbus.EventStream]]:
    """Load and fold every stream under a path (file or directory)."""
    streams = eventbus.load_streams(path_or_dir)
    return fold_streams(streams), streams


# ----------------------------------------------------------------------
# Live status rendering
# ----------------------------------------------------------------------


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    if seconds >= 3600:
        return "%dh%02dm" % (seconds // 3600, (seconds % 3600) // 60)
    if seconds >= 60:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%.1fs" % seconds


def eta_text(view: CampaignView) -> str:
    """The ETA cell of the status line. A campaign with cells in flight
    but none completed has no throughput basis yet -- render an explicit
    "warming up" instead of a degenerate estimate (or a bare "--" that
    reads like the field is broken)."""
    if view.finished:
        return _fmt_eta(0.0)
    if view.cells_total and not view.cells_done:
        return "warming up"
    return _fmt_eta(view.eta_s())


def _bar(done: int, total: int, width: int = 24) -> str:
    total = max(total, 1)
    filled = int(width * min(done, total) / total)
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_status(view: CampaignView, source: str = "", max_cells: int = 8) -> str:
    """The ``campaign status`` digest: progress, health, funnel, detections."""
    lines: List[str] = []
    header = "Campaign status"
    if source:
        header += " — %s" % source
    lines.append(header)
    for record in view.campaigns:
        lines.append(
            "  command: %s   seed %s   jobs %s"
            % (record.get("command", "?"), record.get("seed", "?"), record.get("jobs", "?"))
        )
    done, total = view.cells_done, view.cells_total
    pct = 100.0 * done / total if total else 0.0
    state = "finished" if view.finished else ("running" if total else "idle")
    lines.append(
        "  %s %d/%d cells (%.0f%%)   %s   elapsed %s   eta %s"
        % (
            _bar(done, total),
            done,
            total,
            pct,
            state,
            _fmt_eta(view.elapsed_s) if view.elapsed_s else "--",
            eta_text(view),
        )
    )
    lines.append("")
    lines.append("health")
    lines.append(
        "  ok %d   quarantined %d   failed %d   resumed %d   retries %d   "
        "watchdog kills %d   chaos fires %d   checkpoints %d"
        % (
            view.by_status("ok"),
            view.by_status("quarantined"),
            view.by_status("failed"),
            view.resumed,
            view.retries,
            view.watchdog_kills,
            view.chaos_fires,
            view.checkpoints,
        )
    )
    cache_total = view.cache_hits + view.cache_misses
    lines.append(
        "  cache: %d hits / %d misses (%.0f%% hit ratio)"
        % (view.cache_hits, view.cache_misses, 100.0 * view.cache_ratio)
        if cache_total
        else "  cache: no lookups recorded"
    )
    if view.faults:
        lines.append(
            "  faults: %s"
            % ", ".join("%s %d" % (k, n) for k, n in sorted(view.faults.items()))
        )
    lines.append("")
    lines.append("detection funnel")
    lines.append(
        "  candidate pairs %d → delays injected %d → near-miss pairs %d → detected %d"
        % (
            view.pairs_candidates,
            view.delays_injected,
            view.pairs_observed,
            len(view.detected),
        )
    )
    if view.detect_runs:
        lines.append(
            "  online/planned detection runs %d (%d crashed)"
            % (len(view.detect_runs), view.detect_crashes)
        )
    if view.detected:
        lines.append("")
        lines.append("detections")
        for event in sorted(view.detected, key=detection_key):
            lines.append(
                "  %-10s %-12s %-24s attempt %d   %s run(s)   %.1f virtual ms"
                % (
                    event.get("bug", "?"),
                    event.get("tool", "?"),
                    str(event.get("test", "?"))[:24],
                    event.get("attempt", 0),
                    event.get("runs", "?"),
                    event.get("time_ms", 0.0),
                )
            )
    running = sorted(view.cells_running, key=lambda c: c.cell)
    if running and not view.finished:
        lines.append("")
        lines.append("in flight (%d)" % len(running))
        for cell in running[:max_cells]:
            lines.append(
                "  %-16s %-32s attempt %d%s"
                % (
                    cell.cell[:16],
                    cell.unit[:32],
                    cell.attempt,
                    "   (%d retries)" % cell.retries if cell.retries else "",
                )
            )
        if len(running) > max_cells:
            lines.append("  ... and %d more" % (len(running) - max_cells))
    if view.warnings:
        lines.append("")
        lines.append("warnings (%d)" % len(view.warnings))
        lines.extend("  " + w for w in view.warnings[:10])
    return "\n".join(lines)


class ProgressRenderer:
    """A live bus listener: one stderr line per lifecycle event.

    Intentionally line-oriented (no cursor control) so output survives
    ``tee``, CI logs, and interleaving with table prints. Folds events
    through the same :func:`apply_event` accounting the offline view
    uses, so the live numbers and ``campaign status`` agree.
    """

    #: Event types worth a line; high-frequency types (cache, prep,
    #: detect_run) only update counters silently.
    RENDERED = ("fanout", "cell_end", "cell_retry", "cell_resumed",
                "watchdog", "chaos", "detection", "campaign_end")

    def __init__(self, stream: TextIO):
        self.stream = stream
        self.view = CampaignView()

    def __call__(self, event: dict) -> None:
        apply_event(self.view, event)
        if event.get("type") in self.RENDERED:
            self._render(event)

    def _render(self, event: dict) -> None:
        view = self.view
        etype = event.get("type")
        prefix = "progress: %d/%d" % (view.cells_done, view.cells_total)
        if etype == "fanout":
            line = "%s  fanout %s: %s cells across %s job(s)" % (
                prefix, event.get("unit", "?"), event.get("cells", "?"), event.get("jobs", "?"))
        elif etype == "cell_end":
            line = "%s  cell %s %s (attempt %s, %.2fs)   eta %s" % (
                prefix, str(event.get("cell", "?"))[:12], event.get("status", "?"),
                event.get("attempt", 1), float(event.get("wall_s", 0.0)),
                eta_text(view))
        elif etype == "cell_retry":
            line = "%s  retry %s attempt %s after %s (backoff %.2fs)" % (
                prefix, str(event.get("cell", "?"))[:12], event.get("attempt", "?"),
                event.get("kind", "?"), float(event.get("backoff_s", 0.0)))
        elif etype == "cell_resumed":
            line = "%s  cell %s resumed from store" % (
                prefix, str(event.get("cell", "?"))[:12])
        elif etype == "watchdog":
            line = "%s  watchdog killed %s after %ss" % (
                prefix, str(event.get("cell", "?"))[:12], event.get("deadline_s", "?"))
        elif etype == "chaos":
            line = "%s  chaos fired at %s" % (prefix, event.get("site", "?"))
        elif etype == "detection":
            verdict = "DETECTED" if event.get("matched") else "not detected"
            line = "%s  %s %s/%s attempt %s: %s" % (
                prefix, verdict, event.get("tool", "?"), event.get("bug", "?"),
                event.get("attempt", "?"),
                "%s run(s)" % event.get("runs", "?") if event.get("matched") else "exhausted")
        elif etype == "campaign_end":
            line = "%s  campaign finished in %.1fs (%d detection(s))" % (
                prefix, float(event.get("wall_s", 0.0)), len(view.detected))
        else:
            return
        try:
            self.stream.write(line + "\n")
            self.stream.flush()
        except Exception:
            pass


def attach_progress(stream: TextIO) -> Optional[ProgressRenderer]:
    """Subscribe a progress renderer to the active bus, if any."""
    active = eventbus.bus()
    if active is None:
        return None
    renderer = ProgressRenderer(stream)
    active.add_listener(renderer)
    return renderer


# ----------------------------------------------------------------------
# Cross-run analytics
# ----------------------------------------------------------------------


def _quantiles(values: Sequence[float]) -> Dict[str, float]:
    ranked = sorted(values)
    n = len(ranked)
    if not n:
        return {}

    def q(fraction: float) -> float:
        return ranked[min(n - 1, int(fraction * n))]

    return {
        "n": n,
        "min": ranked[0],
        "p50": q(0.50),
        "p90": q(0.90),
        "max": ranked[-1],
    }


def detection_analytics(view: CampaignView) -> Dict[str, Any]:
    """Per-app / per-bug time-to-first-detection, from detection events.

    TTFD for one (tool, bug, test) is the cumulative deterministic
    virtual ``time_ms`` of its detection attempts up to and including
    the first matched one; targets never matched report ``None``. Only
    deterministic fields enter, so chaos/resumed streams analyze
    identically to clean ones (the dedup in :func:`apply_event` already
    collapsed re-run attempts).
    """
    by_target: Dict[Tuple[str, str, str], List[dict]] = {}
    for event in view.detections.values():
        key = (str(event.get("tool", "?")), str(event.get("bug", "?")),
               str(event.get("test", "?")))
        by_target.setdefault(key, []).append(event)
    rows: List[dict] = []
    for (tool, bug, test), attempts in sorted(by_target.items()):
        attempts.sort(key=lambda e: e.get("attempt", 0))
        cumulative_ms = 0.0
        runs = 0
        ttfd_ms: Optional[float] = None
        expose_attempt: Optional[int] = None
        for event in attempts:
            cumulative_ms += float(event.get("time_ms", 0.0))
            runs += int(event.get("session_runs", 0))
            if event.get("matched") and ttfd_ms is None:
                ttfd_ms = round(cumulative_ms, 3)
                expose_attempt = event.get("attempt", 0)
        app = test.split(":", 1)[0] if ":" in test else "?"
        rows.append({
            "tool": tool, "bug": bug, "app": app, "test": test,
            "attempts": len(attempts), "runs": runs,
            "detected": ttfd_ms is not None,
            "ttfd_ms": ttfd_ms, "expose_attempt": expose_attempt,
        })
    per_app: Dict[str, List[float]] = {}
    per_bug: Dict[str, List[float]] = {}
    for row in rows:
        if row["ttfd_ms"] is not None:
            per_app.setdefault(row["app"], []).append(row["ttfd_ms"])
            per_bug.setdefault(row["bug"], []).append(row["ttfd_ms"])
    return {
        "rows": rows,
        "detected": sum(1 for r in rows if r["detected"]),
        "targets": len(rows),
        "ttfd_by_app": {app: _quantiles(v) for app, v in sorted(per_app.items())},
        "ttfd_by_bug": {bug: _quantiles(v) for bug, v in sorted(per_bug.items())},
    }


def fuzz_analytics(view: CampaignView) -> Dict[str, Any]:
    """Detection-rate-vs-topology rollup of the generated-workload
    (``fuzz_workload``) events. Every folded field is deterministic, and
    the whole-event dedup already collapsed retried/resumed/cache-hit
    re-emissions, so one logical workload counts exactly once."""
    buckets: Dict[str, dict] = {}
    for event in view.fuzz.values():
        name = str(event.get("topology", "?"))
        bucket = buckets.setdefault(
            name,
            {"topology": name, "workloads": 0, "planted": 0,
             "detectable": 0, "found": 0, "runs": 0, "failed": 0},
        )
        bucket["workloads"] += 1
        bucket["planted"] += int(event.get("planted", 0))
        bucket["detectable"] += int(event.get("detectable", 0))
        bucket["found"] += int(event.get("found", 0))
        bucket["runs"] += int(event.get("runs", 0))
        if not event.get("ok", True):
            bucket["failed"] += 1
    rows = []
    for name in sorted(buckets):
        bucket = buckets[name]
        bucket["detection_rate"] = (
            round(bucket["found"] / bucket["detectable"], 4)
            if bucket["detectable"] else 1.0
        )
        rows.append(bucket)
    return {
        "rows": rows,
        "workloads": sum(b["workloads"] for b in rows),
        "failed": sum(b["failed"] for b in rows),
    }


#: BENCH_*.json timing keys end in ``_s``; a newer snapshot slower than
#: its predecessor by more than this fraction is flagged.
PERF_REGRESSION_THRESHOLD = 0.25


def perf_tracker(bench_paths: Sequence[os.PathLike],
                 threshold: float = PERF_REGRESSION_THRESHOLD) -> Dict[str, Any]:
    """Ingest ``BENCH_*.json`` history and flag deltas beyond budget.

    Two signal classes: (a) a snapshot's own verdict (``within_budget``
    / ``rows_identical`` false) and (b) timing drift -- for benchmarks
    with multiple snapshots (same ``benchmark`` name, lexicographic
    path order = history order), any shared top-level ``*_s`` timing
    growing more than ``threshold`` between consecutive snapshots.
    """
    history: Dict[str, List[Tuple[str, dict]]] = {}
    problems: List[str] = []
    loaded = 0
    for path in bench_paths:
        target = Path(path)
        try:
            payload = json.loads(target.read_text())
        except (OSError, ValueError) as exc:
            problems.append("%s: unreadable bench snapshot (%s)" % (target.name, exc))
            continue
        loaded += 1
        name = str(payload.get("benchmark", target.stem))
        history.setdefault(name, []).append((target.name, payload))
        if payload.get("within_budget") is False:
            problems.append("%s: outside its own overhead budget" % target.name)
        if payload.get("rows_identical") is False:
            problems.append("%s: parallel/cached rows diverged" % target.name)
    regressions: List[dict] = []
    for name, snapshots in sorted(history.items()):
        snapshots.sort(key=lambda item: item[0])
        for (prev_name, prev), (cur_name, cur) in zip(snapshots, snapshots[1:]):
            for key in sorted(set(prev) & set(cur)):
                if not key.endswith("_s"):
                    continue
                before, after = prev.get(key), cur.get(key)
                if not isinstance(before, (int, float)) or not isinstance(after, (int, float)):
                    continue
                if before > 0 and (after - before) / before > threshold:
                    regressions.append({
                        "benchmark": name, "key": key,
                        "before": before, "after": after,
                        "delta_pct": round(100.0 * (after - before) / before, 1),
                        "from": prev_name, "to": cur_name,
                    })
    return {
        "snapshots": loaded,
        "benchmarks": sorted(history),
        "budget_problems": problems,
        "regressions": regressions,
        "threshold_pct": round(100.0 * threshold, 1),
    }


def skip_taxonomy(obs_data: Any) -> Dict[str, int]:
    """Injection-skip rollup out of a loaded obs directory's counters."""
    counters = (obs_data.metrics or {}).get("counters", {})
    from .telemetry import SKIP_REASONS

    rollup = {reason: counters.get("inject.skipped.%s" % reason, 0)
              for reason in SKIP_REASONS}
    rollup["injected"] = counters.get("inject.injected", 0)
    rollup["considered"] = counters.get("inject.considered", 0)
    return rollup


def render_analytics(view: CampaignView,
                     obs_data: Any = None,
                     bench_paths: Sequence[os.PathLike] = (),
                     source: str = "") -> str:
    """The ``repro obs analytics`` report.

    Section order is fixed and every section renders deterministically
    from its inputs; with events-only input (no telemetry, no bench
    history) the report is a pure function of the deduplicated event
    stream -- the identity the chaos/resume acceptance test pins.
    """
    lines: List[str] = []
    header = "Campaign analytics"
    if source:
        header += " — %s" % source
    lines.append(header)
    analytics = detection_analytics(view)
    lines.append(
        "  targets %d   detected %d   detection events %d (deduplicated)"
        % (analytics["targets"], analytics["detected"], len(view.detections))
    )
    lines.append("")
    lines.append("detection funnel (deduplicated, deterministic)")
    lines.append(
        "  candidate pairs %d → delays injected %d → near-miss pairs %d → detected %d"
        % (view.pairs_candidates, view.delays_injected,
           view.pairs_observed, analytics["detected"])
    )
    if analytics["rows"]:
        lines.append("")
        lines.append("time to first detection (virtual ms, deterministic)")
        lines.append("  %-10s %-12s %-14s %8s %6s %12s" %
                     ("bug", "tool", "app", "attempts", "runs", "ttfd"))
        for row in analytics["rows"]:
            lines.append(
                "  %-10s %-12s %-14s %8d %6d %12s"
                % (row["bug"], row["tool"], row["app"], row["attempts"], row["runs"],
                   "%.1f" % row["ttfd_ms"] if row["detected"] else "—"))
        for label, table in (("per app", analytics["ttfd_by_app"]),
                             ("per bug", analytics["ttfd_by_bug"])):
            if table:
                lines.append("  ttfd %s:" % label)
                for name, stats in table.items():
                    lines.append(
                        "    %-14s n=%d  min %.1f  p50 %.1f  p90 %.1f  max %.1f"
                        % (name, stats["n"], stats["min"], stats["p50"],
                           stats["p90"], stats["max"]))
    if view.fuzz:
        generated = fuzz_analytics(view)
        lines.append("")
        lines.append("generated workloads (deduplicated, deterministic)")
        lines.append(
            "  %d workload(s) oracle-verified   %d failing"
            % (generated["workloads"], generated["failed"]))
        lines.append("  %-10s %9s %8s %11s %6s %6s %9s" %
                     ("topology", "workloads", "planted", "detectable",
                      "found", "runs", "rate"))
        for bucket in generated["rows"]:
            lines.append(
                "  %-10s %9d %8d %11d %6d %6d %8.1f%%"
                % (bucket["topology"], bucket["workloads"], bucket["planted"],
                   bucket["detectable"], bucket["found"], bucket["runs"],
                   100.0 * bucket["detection_rate"]))
    lines.append("")
    lines.append("injection-skip taxonomy")
    if obs_data is not None and (obs_data.metrics or {}).get("counters"):
        rollup = skip_taxonomy(obs_data)
        total_skips = sum(v for k, v in rollup.items()
                          if k not in ("injected", "considered"))
        lines.append(
            "  considered %d   injected %d   skipped %d (decay %d, interference %d, budget %d)"
            % (rollup["considered"], rollup["injected"], total_skips,
               rollup.get("decay", 0), rollup.get("interference", 0),
               rollup.get("budget", 0)))
    else:
        lines.append("  no co-located telemetry (run with --obs-dir for the rollup)")
    lines.append("")
    lines.append("perf-regression tracker")
    if bench_paths:
        perf = perf_tracker(bench_paths)
        lines.append(
            "  %d snapshot(s) across %d benchmark(s)   drift threshold %.0f%%"
            % (perf["snapshots"], len(perf["benchmarks"]), perf["threshold_pct"]))
        for problem in perf["budget_problems"]:
            lines.append("  BUDGET: %s" % problem)
        for reg in perf["regressions"]:
            lines.append(
                "  REGRESSION: %s %s %.4fs → %.4fs (+%.1f%%) [%s → %s]"
                % (reg["benchmark"], reg["key"], reg["before"], reg["after"],
                   reg["delta_pct"], reg["from"], reg["to"]))
        if not perf["budget_problems"] and not perf["regressions"]:
            lines.append("  all snapshots within budget, no drift beyond threshold ✓")
    else:
        lines.append("  no BENCH_*.json history supplied")
    return "\n".join(lines)
