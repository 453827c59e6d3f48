"""Campaign event consumption: live status, progress, detection folds.

:mod:`repro.obs.eventbus` writes the campaign event stream; this module
reads it. Every consumer shares one incremental fold
(:func:`apply_event` / :func:`fold_events` -> :class:`CampaignView`):

* ``repro campaign status <events>`` -- render a point-in-time view of
  a running (or finished) campaign: per-cell state, ETA from completed
  cell wall times, and campaign health;
* ``--progress`` on experiment commands -- a :class:`ProgressRenderer`
  subscribed to the live bus, printing one status line per lifecycle
  event to stderr while the tables compute;
* ``repro obs report <dir>`` -- its time-to-first-detection and
  generated-workload sections (:func:`detection_analytics`,
  :func:`fuzz_analytics`) and the detected stage of its detection
  funnel.

Determinism contract: the detection folds read only deterministic
event fields (virtual ``time_ms``, runs-to-expose, matched flags,
oracle counts), and the outcome events (``detection``,
``fuzz_workload``) are deduplicated by their deterministic identity
keys -- a retried or resumed cell re-runs the same pure function and
re-emits identical values, so its duplicate events collapse. A
chaos-interrupted, resumed campaign therefore folds to the same
detections as an uninterrupted run. Wall-clock fields feed only the
live view (ETA, throughput).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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
    #: Outcome events, deduplicated by deterministic identity key.
    #: Values are whole events; a re-emitted duplicate (retry, resume,
    #: cold cache) overwrites with identical content.
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
    writer). ``fuzz_workload`` events carry only deterministic oracle
    fields, so two emissions of the same workload (a retried cell, a
    resumed campaign's overlap) have equal identity and collapse, while
    genuinely distinct workloads never do."""
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
    """The ``campaign status`` digest: progress, health, cells in flight."""
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

    #: Event types worth a line; high-frequency types (cache, store,
    #: checkpoint) only update counters silently.
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
# Detection folds (deterministic fields only)
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
