"""Bug dossiers: everything needed to understand and replay one bug.

When a detection run manifests a MemOrder bug and the detector was
asked for dossiers, it assembles a *dossier* from the hook and
engine/candidate state of the crashing run:

* full candidate-pair provenance for every matched pair -- the
  near-miss gap history that created it, the planned ``alpha * len``
  delay and the decay probability it ended the run with; under an obs
  session, the detection session's own flight ring
  (:mod:`repro.obs.flightrec`) adds every pruning verdict it recorded
  (parent-child with vector clocks, happens-before inference windows,
  retirement), the crashing run's decisions and its raw flight events;
* a virtual-time swimlane of all threads with injected delays and the
  faulting access highlighted (ASCII and HTML renderings);
* a **reproducing schedule**: the per-site, per-occurrence delays the
  run actually injected, verified by actual replay through the
  deterministic simulator, so ``repro replay <dossier.json>``
  re-manifests the same error at the same location. A dossier an obs
  session keeps is also minimized by replay -- the delays at the
  report's matched delay sites are tried alone first, then greedy
  drop-one; any other is verified by one replay of the full schedule.

Determinism contract: the simulator draws all op-cost jitter from one
RNG seeded with the run's sim seed; the injection engine uses its own
RNG. Replaying the same workload with the same sim seed, the same
per-op overhead, and the same delays at the same per-site occurrence
indices therefore reproduces the interleaving exactly -- which is also
why minimization *must* be verified by replay rather than assumed.

This module is imported directly (``from repro.obs import dossier``),
never via ``repro.obs.__init__`` -- it pulls in ``core``/``sim`` and
would otherwise create an import cycle.
"""

from __future__ import annotations

import html as _html
import itertools as _itertools
import os as _os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..sim.api import Simulation
from ..sim.instrument import AccessType, InstrumentationHook, PendingAccess
from ..core import persistence
from ..core.reports import BugReport
from . import flightrec

#: Schedule modes: which access classes the per-site occurrence counter
#: ticks on. Must match the counting filter of the hook that captured
#: the schedule (``_BaseInjectionHook.before_access``).
SCHEDULE_MODES = ("memorder", "tsv")

#: Default replay budget for schedule minimization: the verification
#: replay, the suspects trial and the drop-one trials together.
DEFAULT_MAX_REPLAYS = 24


# ---------------------------------------------------------------------------
# Deterministic schedule replay
# ---------------------------------------------------------------------------


class ScheduleReplayHook(InstrumentationHook):
    """Re-inject a recorded schedule by (site, nth-occurrence) key.

    The capturing hook counted every access that reached
    ``engine.decide`` -- all MemOrder accesses (``memorder`` mode) or
    all unsafe calls (``tsv`` mode). This hook counts the same stream,
    so occurrence index *n* here is the same dynamic operation as
    occurrence *n* during detection, regardless of which sites are in
    the schedule.
    """

    run_kind = "replay"

    def __init__(
        self,
        delays: List[dict],
        mode: str = "memorder",
        per_op_overhead_ms: float = 0.0,
    ):
        if mode not in SCHEDULE_MODES:
            raise ValueError("unknown schedule mode %r" % (mode,))
        self.mode = mode
        self.per_op_overhead_ms = per_op_overhead_ms
        self._delays: Dict[str, Dict[int, float]] = {}
        for entry in delays:
            by_site = self._delays.setdefault(str(entry["site"]), {})
            by_site[int(entry["nth"])] = float(entry["len_ms"])
        self._seen: Dict[str, int] = {}
        self.delays_injected: int = 0
        self.total_delay_ms: float = 0.0

    def before_access(self, pending: PendingAccess) -> float:
        if self.mode == "tsv":
            if pending.access_type is not AccessType.UNSAFE_CALL:
                return 0.0
        elif not pending.access_type.is_memorder:
            return 0.0
        site = pending.location.site
        nth = self._seen.get(site, 0)
        self._seen[site] = nth + 1
        by_site = self._delays.get(site)
        if by_site is None:
            return 0.0
        length = by_site.get(nth, 0.0)
        if length > 0.0:
            self.delays_injected += 1
            self.total_delay_ms += length
        return length


@dataclass
class ReplayOutcome:
    """What one deterministic schedule replay observed."""

    crashed: bool
    error_type: Optional[str]
    fault_site: Optional[str]
    fault_time_ms: float
    virtual_time_ms: float
    timed_out: bool
    delays_injected: int

    def matches(self, error_type: str, fault_site: str) -> bool:
        """Same manifestation: same exception class, same static site."""
        return self.error_type == error_type and (self.fault_site or "") == (
            fault_site or ""
        )


def replay_schedule(
    build: Callable[[Simulation], Generator],
    schedule: dict,
    delays: Optional[List[dict]] = None,
) -> ReplayOutcome:
    """Re-execute a workload under a recorded schedule, deterministically.

    ``schedule`` is the dossier's schedule envelope (``sim_seed``,
    ``time_limit_ms``, ``inject_overhead_ms``, ``mode``, ``delays``);
    ``delays`` overrides the delay list (used by minimization trials).
    The run is named ``replay:<workload>``, which its telemetry record
    carries. The flight recorder is suspended for the duration so
    verification replays do not pollute the ring being snapshotted.
    """
    with flightrec.suspended():
        hook = ScheduleReplayHook(
            delays if delays is not None else schedule.get("delays", []),
            mode=schedule.get("mode", "memorder"),
            per_op_overhead_ms=float(schedule.get("inject_overhead_ms", 0.0)),
        )
        sim = Simulation(
            seed=int(schedule["sim_seed"]),
            hook=hook,
            time_limit_ms=float(schedule.get("time_limit_ms", 600_000.0)),
            stop_on_failure=True,
            name="replay:%s" % schedule.get("workload", ""),
        )
        result = sim.run(build(sim), name="main")
    error_type: Optional[str] = None
    fault_site: Optional[str] = None
    fault_time = 0.0
    if result.failures:
        thread, error = result.failures[0]
        error_type = type(error).__name__
        location = getattr(error, "location", None)
        fault_site = location.site if location is not None else None
        fault_time = thread.end_time if thread.end_time is not None else 0.0
    return ReplayOutcome(
        crashed=result.crashed,
        error_type=error_type,
        fault_site=fault_site,
        fault_time_ms=fault_time,
        virtual_time_ms=result.virtual_time,
        timed_out=result.timed_out,
        delays_injected=hook.delays_injected,
    )


def minimize_schedule(
    build: Callable[[Simulation], Generator],
    schedule: dict,
    error_type: str,
    fault_site: str,
    max_replays: int = DEFAULT_MAX_REPLAYS,
    suspects: Optional[List[dict]] = None,
) -> Tuple[List[dict], int, bool]:
    """Suspects-first, then greedy drop-one minimization, verified by
    actual replay.

    ``suspects`` is a sub-list of the schedule's delays expected to
    carry the bug on their own -- :func:`assemble_dossier` passes the
    delays at the report's matched delay sites. After the full schedule
    reproduces, the suspects are replayed alone; if they reproduce,
    the greedy drop-one pass starts from them instead of the full
    schedule. A k-delay schedule whose one suspect reproduces thus
    costs 3 replays instead of k + 1; a failed suspects trial costs
    one. ``max_replays`` counts every replay, the suspects trial too.

    Returns ``(delays, replays_used, verified)``. Invariant: whenever
    ``verified`` is True, the returned delay list has been replayed and
    reproduced the target manifestation; trials that stopped reproducing
    are discarded, so the result is never an unverified guess. When the
    budget allows the greedy pass to finish, no single delay can be
    dropped from the result.
    """
    current = list(schedule.get("delays", []))
    replays = 0

    def reproduces(trial: List[dict]) -> bool:
        nonlocal replays
        replays += 1
        outcome = replay_schedule(build, schedule, delays=trial)
        return outcome.matches(error_type, fault_site)

    if not reproduces(current):
        # The full schedule itself does not replay (should not happen
        # under the determinism contract); report it unverified rather
        # than shrinking from a broken baseline.
        return current, replays, False

    if suspects and len(suspects) < len(current) and replays < max_replays:
        if reproduces(suspects):
            current = list(suspects)

    index = 0
    while index < len(current) and replays < max_replays:
        trial = current[:index] + current[index + 1 :]
        if reproduces(trial):
            current = trial  # keep the drop; same index now names the next entry
        else:
            index += 1
    return current, replays, True


# ---------------------------------------------------------------------------
# The dossier
# ---------------------------------------------------------------------------


@dataclass
class BugDossier:
    """A self-contained, JSON-serializable account of one manifested bug."""

    tool: str
    workload: str
    report: BugReport
    #: Config snapshot relevant to reproduction and provenance.
    config: Dict[str, Any] = field(default_factory=dict)
    #: Replay envelope: sim_seed, time_limit_ms, inject_overhead_ms,
    #: mode, delays=[{site, nth, len_ms}] -- the *minimal* schedule of a
    #: kept dossier, the full captured one otherwise.
    schedule: Dict[str, Any] = field(default_factory=dict)
    #: The full schedule as captured, before minimization.
    schedule_original: List[dict] = field(default_factory=list)
    minimized: bool = False
    verified: bool = False
    replays_used: int = 0
    #: Per matched pair: gap history, planned delay, decay state.
    provenance: List[dict] = field(default_factory=list)
    #: Pruning verdicts of the whole detection session still retained
    #: in the flight ring.
    prunes: List[dict] = field(default_factory=list)
    #: Interference conflicts for each matched delay site.
    interference: Dict[str, List[str]] = field(default_factory=dict)
    #: Thread/delay/fault timeline backing the swimlane renderings.
    swimlane: Dict[str, Any] = field(default_factory=dict)
    #: Raw flight events of the crashing run, plus ring-loss accounting.
    flight_events: List[dict] = field(default_factory=list)
    flight_dropped: int = 0
    #: Where an obs session wrote the dossier; not part of its record.
    path: Optional[Path] = field(default=None, compare=False)

    @property
    def fault_site(self) -> str:
        return self.report.fault_site

    @property
    def error_type(self) -> str:
        return self.report.error_type

    @property
    def decisions(self) -> List[dict]:
        """Injection decisions (inject/skip) of the crashing run: its
        flight events of those kinds."""
        return [e for e in self.flight_events if e["k"] in ("inject", "skip")]

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "workload": self.workload,
            "report": self.report.to_dict(),
            "config": dict(self.config),
            "schedule": dict(self.schedule),
            "schedule_original": list(self.schedule_original),
            "minimized": self.minimized,
            "verified": self.verified,
            "replays_used": self.replays_used,
            "provenance": list(self.provenance),
            "prunes": list(self.prunes),
            "interference": {k: list(v) for k, v in self.interference.items()},
            "swimlane": dict(self.swimlane),
            "flight_events": list(self.flight_events),
            "flight_dropped": self.flight_dropped,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BugDossier":
        return cls(
            tool=payload["tool"],
            workload=payload["workload"],
            report=BugReport.from_dict(payload["report"]),
            config=dict(payload.get("config", {})),
            schedule=dict(payload.get("schedule", {})),
            schedule_original=list(payload.get("schedule_original", [])),
            minimized=payload.get("minimized", False),
            verified=payload.get("verified", False),
            replays_used=payload.get("replays_used", 0),
            provenance=list(payload.get("provenance", [])),
            prunes=list(payload.get("prunes", [])),
            interference={
                k: list(v) for k, v in payload.get("interference", {}).items()
            },
            swimlane=dict(payload.get("swimlane", {})),
            flight_events=list(payload.get("flight_events", [])),
            flight_dropped=payload.get("flight_dropped", 0),
        )


def save_dossier(dossier: BugDossier, path) -> None:
    persistence.save_record({"dossier": dossier.to_dict()}, path)


def load_dossier(path) -> BugDossier:
    return BugDossier.from_dict(persistence.load_record(path)["dossier"])


def assemble_dossier(
    tool: str,
    workload: str,
    report: BugReport,
    hook,
    config,
    sim_seed: int,
    recorder: Optional[flightrec.FlightRecorder] = None,
    build: Optional[Callable[[Simulation], Generator]] = None,
    max_replays: int = DEFAULT_MAX_REPLAYS,
) -> BugDossier:
    """Build a dossier for ``report`` from the crashing run's state.

    ``hook`` is the injection hook of the crashing run (its engine,
    candidate set, ledger, threads and captured schedule are mined for
    provenance); ``build`` is the workload's generator factory -- when
    given, the embedded schedule is verified and minimized by actual
    replay (the delays at the report's matched delay sites first, see
    :func:`minimize_schedule`), otherwise it is stored as captured
    (unverified). ``max_replays=1`` verifies the full captured schedule
    by one replay and minimizes nothing; detectors pass it for a
    dossier no obs session keeps. ``recorder`` is the detection
    session's own ring; it feeds only ``prunes`` and the flight events
    (``decisions`` are theirs), and without one they stay empty.
    """
    engine = hook.engine
    candidates = engine.candidates
    mode = "tsv" if getattr(hook, "tsv_mode", False) else "memorder"

    schedule_original = [dict(entry) for entry in hook.injection_schedule]
    schedule = {
        "workload": workload,
        "sim_seed": sim_seed,
        "time_limit_ms": config.run_time_limit_ms,
        "inject_overhead_ms": config.inject_overhead_ms,
        "mode": mode,
        "delays": [
            {"site": e["site"], "nth": e["nth"], "len_ms": e["len_ms"]}
            for e in schedule_original
        ],
    }

    minimized = False
    verified = False
    replays_used = 0
    if build is not None and schedule["delays"]:
        suspect_sites = {pair.delay_location.site for pair in report.matched_pairs}
        delays, replays_used, verified = minimize_schedule(
            build,
            schedule,
            report.error_type,
            report.fault_site,
            max_replays=max_replays,
            suspects=[d for d in schedule["delays"] if d["site"] in suspect_sites],
        )
        if verified:
            minimized = len(delays) < len(schedule["delays"])
            schedule["delays"] = delays

    provenance = []
    for pair in report.matched_pairs:
        site = pair.delay_location.site
        observations = candidates.observations(pair)
        provenance.append(
            {
                "kind": pair.kind.value,
                "delay_site": site,
                "other_site": pair.other_location.site,
                "gaps_ms": [round(o.gap_ms, 4) for o in observations],
                "max_gap_ms": round(candidates.max_gap(pair), 4),
                "planned_delay_ms": round(engine.delay_policy.length_for(site), 4),
                "decay_probability": round(engine.decay.probability(site), 4),
                "in_candidate_set": pair in candidates,
            }
        )

    interference: Dict[str, List[str]] = {}
    if engine.interference is not None:
        for pair in report.matched_pairs:
            site = pair.delay_location.site
            if site not in interference:
                interference[site] = sorted(engine.interference.conflicts_of(site))

    threads = sorted(
        (
            {
                "tid": t.tid,
                "name": t.name,
                "start": round(t.spawn_time, 4),
                "end": round(t.end_time, 4) if t.end_time is not None else None,
            }
            for t in hook._threads.values()
        ),
        key=lambda entry: entry["tid"],
    )
    swimlane = {
        "threads": threads,
        "delays": [
            {
                "site": d.site,
                "tid": d.thread_id,
                "start": round(d.start, 4),
                "end": round(d.end, 4),
            }
            for d in engine.ledger.history
        ],
        "fault": {
            "site": report.fault_site or None,
            "t": round(report.fault_time_ms, 4),
            "thread": report.thread_name,
        },
    }

    prunes: List[dict] = []
    flight_events: List[dict] = []
    flight_dropped = 0
    if recorder is not None:
        prunes = recorder.events("prune_parent_child") + recorder.events("prune_hb")
        prunes += [e for e in recorder.events("pair_removed") if e.get("reason")]
        flight_events = recorder.events_for_run(recorder.run_seq)
        flight_dropped = recorder.dropped

    config_snapshot = {
        "seed": config.seed,
        "alpha": config.alpha,
        "decay_lambda": config.decay_lambda,
        "near_miss_window_ms": config.near_miss_window_ms,
        "min_delay_ms": config.min_delay_ms,
        "fixed_delay_ms": config.fixed_delay_ms,
        "run_time_limit_ms": config.run_time_limit_ms,
        "inject_overhead_ms": config.inject_overhead_ms,
        "interference_control": config.interference_control,
    }

    return BugDossier(
        tool=tool,
        workload=workload,
        report=report,
        config=config_snapshot,
        schedule=schedule,
        schedule_original=schedule_original,
        minimized=minimized,
        verified=verified,
        replays_used=replays_used,
        provenance=provenance,
        prunes=prunes,
        interference=interference,
        swimlane=swimlane,
        flight_events=flight_events,
        flight_dropped=flight_dropped,
    )


def replay_dossier(
    dossier: BugDossier, build: Callable[[Simulation], Generator]
) -> Tuple[ReplayOutcome, bool]:
    """Replay a dossier's schedule; returns (outcome, reproduced)."""
    outcome = replay_schedule(build, dossier.schedule)
    return outcome, outcome.matches(dossier.error_type, dossier.fault_site)


# ---------------------------------------------------------------------------
# Swimlane renderings
# ---------------------------------------------------------------------------


def _timeline_bounds(swimlane: dict) -> Tuple[float, float]:
    t_max = swimlane.get("fault", {}).get("t") or 0.0
    for entry in swimlane.get("threads", ()):
        if entry.get("end") is not None:
            t_max = max(t_max, entry["end"])
    for d in swimlane.get("delays", ()):
        t_max = max(t_max, d["end"])
    return 0.0, max(t_max, 1e-9)


def render_swimlane(dossier: BugDossier, width: int = 72) -> str:
    """ASCII virtual-time swimlane: one lane per thread.

    ``-`` thread alive, ``#`` injected delay in progress, ``X`` the
    faulting access, space before spawn / after termination.
    """
    swimlane = dossier.swimlane
    threads = swimlane.get("threads", [])
    if not threads:
        return "(no thread timeline recorded)"
    t0, t1 = _timeline_bounds(swimlane)
    span = t1 - t0

    def column(t: float) -> int:
        return min(width - 1, max(0, int((t - t0) / span * (width - 1))))

    delays_by_tid: Dict[int, List[dict]] = {}
    for d in swimlane.get("delays", ()):
        delays_by_tid.setdefault(d["tid"], []).append(d)
    fault = swimlane.get("fault", {})
    label_width = max(len(t["name"] or str(t["tid"])) for t in threads)
    label_width = max(label_width, len("virtual ms"))

    lines = [
        "%s |%s|" % (
            "virtual ms".rjust(label_width),
            ("0" + " " * width)[: width - len("%.1f" % t1)] + "%.1f" % t1,
        )
    ]
    for entry in threads:
        lane = [" "] * width
        start = column(entry["start"])
        end = column(entry["end"]) if entry["end"] is not None else width - 1
        for i in range(start, end + 1):
            lane[i] = "-"
        for d in delays_by_tid.get(entry["tid"], ()):
            for i in range(column(d["start"]), column(d["end"]) + 1):
                lane[i] = "#"
        name = entry["name"] or str(entry["tid"])
        if fault.get("thread") == entry["name"] and fault.get("t") is not None:
            lane[column(fault["t"])] = "X"
        lines.append("%s |%s|" % (name.rjust(label_width), "".join(lane)))
    legend = "%s   - alive   # injected delay   X fault (%s at %s)" % (
        " " * label_width,
        fault.get("site") or "?",
        "t=%.2fms" % fault.get("t", 0.0),
    )
    lines.append(legend)
    return "\n".join(lines)


def render_swimlane_html(dossier: BugDossier) -> str:
    """Standalone HTML swimlane (same data, proportional layout)."""
    swimlane = dossier.swimlane
    threads = swimlane.get("threads", [])
    t0, t1 = _timeline_bounds(swimlane)
    span = t1 - t0

    def pct(t: float) -> float:
        return (t - t0) / span * 100.0

    delays_by_tid: Dict[int, List[dict]] = {}
    for d in swimlane.get("delays", ()):
        delays_by_tid.setdefault(d["tid"], []).append(d)
    fault = swimlane.get("fault", {})

    rows = []
    for entry in threads:
        end = entry["end"] if entry["end"] is not None else t1
        bars = [
            '<div class="life" style="left:%.2f%%;width:%.2f%%"></div>'
            % (pct(entry["start"]), max(0.5, pct(end) - pct(entry["start"])))
        ]
        for d in delays_by_tid.get(entry["tid"], ()):
            bars.append(
                '<div class="delay" title="%s [%.2f, %.2f]ms" '
                'style="left:%.2f%%;width:%.2f%%"></div>'
                % (
                    _html.escape(d["site"]),
                    d["start"],
                    d["end"],
                    pct(d["start"]),
                    max(0.5, pct(d["end"]) - pct(d["start"])),
                )
            )
        if fault.get("thread") == entry["name"] and fault.get("t") is not None:
            bars.append(
                '<div class="fault" title="%s at t=%.2fms" style="left:%.2f%%"></div>'
                % (_html.escape(fault.get("site") or "?"), fault["t"], pct(fault["t"]))
            )
        rows.append(
            '<div class="row"><span class="name">%s</span>'
            '<div class="lane">%s</div></div>'
            % (_html.escape(entry["name"] or str(entry["tid"])), "".join(bars))
        )

    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>%s: %s</title><style>"
        "body{font:13px monospace;background:#fff;color:#222;margin:1em}"
        ".row{display:flex;align-items:center;margin:2px 0}"
        ".name{width:12em;text-align:right;padding-right:.8em}"
        ".lane{position:relative;flex:1;height:16px;background:#f4f4f4}"
        ".life{position:absolute;top:6px;height:4px;background:#9ab}"
        ".delay{position:absolute;top:2px;height:12px;background:#e6a23c}"
        ".fault{position:absolute;top:0;width:3px;height:16px;background:#d22}"
        "</style></head><body><h3>%s &mdash; %s on %s (%s)</h3>%s"
        "<p>orange = injected delay, red = faulting access "
        "(t axis: 0 &ndash; %.2f virtual ms)</p></body></html>"
        % (
            _html.escape(dossier.tool),
            _html.escape(dossier.workload),
            _html.escape(dossier.tool),
            _html.escape(dossier.error_type),
            _html.escape(dossier.fault_site or "?"),
            _html.escape(dossier.workload),
            "".join(rows),
            t1,
        )
    )


def render_dossier(dossier: BugDossier) -> str:
    """Human-readable digest: bug, provenance, schedule, swimlane."""
    out: List[str] = []
    report = dossier.report
    out.append("=" * 72)
    out.append(
        "BUG DOSSIER  %s :: %s" % (dossier.tool, dossier.workload)
    )
    out.append("=" * 72)
    out.append(
        "%s on ref %r at %s (thread %s, t=%.2fms, run %d)"
        % (
            report.error_type,
            report.ref_name,
            report.fault_site or "?",
            report.thread_name,
            report.fault_time_ms,
            report.run_index,
        )
    )
    out.append(
        "delays injected in crashing run: %d; delay-induced: %s"
        % (report.delays_injected, report.delay_induced)
    )

    out.append("")
    out.append("-- candidate-pair provenance " + "-" * 42)
    if not dossier.provenance:
        out.append("  (no matched pairs)")
    for entry in dossier.provenance:
        gaps = entry["gaps_ms"]
        out.append(
            "  %s  delay@%s vs %s" % (entry["kind"], entry["delay_site"], entry["other_site"])
        )
        out.append(
            "    near-miss gaps: %s (max %.2fms) -> planned delay %.2fms; "
            "decay p=%.2f%s"
            % (
                ", ".join("%.2f" % g for g in gaps[:8]) + ("..." if len(gaps) > 8 else ""),
                entry["max_gap_ms"],
                entry["planned_delay_ms"],
                entry["decay_probability"],
                "" if entry["in_candidate_set"] else " (since removed from S)",
            )
        )
        conflicts = dossier.interference.get(entry["delay_site"])
        if conflicts:
            out.append("    interference conflicts: %s" % ", ".join(conflicts))

    if dossier.prunes:
        out.append("")
        out.append("-- pruning verdicts " + "-" * 51)
        for event in dossier.prunes[:16]:
            if event["k"] == "prune_parent_child":
                out.append(
                    "  t=%8.2f  parent-child: delay@%s vs %s (vc %s <= %s)"
                    % (
                        event["t"],
                        event["delay_site"],
                        event["other_site"],
                        event.get("vc_earlier", {}),
                        event.get("vc_later", {}),
                    )
                )
            elif event["k"] == "prune_hb":
                out.append(
                    "  t=%8.2f  hb-inference: delay@%s vs %s (window %s)"
                    % (event["t"], event["delay_site"], event["other_site"], event.get("window"))
                )
            else:
                out.append(
                    "  pair removed: %s delay@%s vs %s (%s)"
                    % (
                        event.get("kind"),
                        event.get("delay_site"),
                        event.get("other_site"),
                        event.get("reason") or "untagged",
                    )
                )
        if len(dossier.prunes) > 16:
            out.append("  ... and %d more" % (len(dossier.prunes) - 16))

    out.append("")
    out.append("-- minimal reproducing schedule " + "-" * 39)
    delays = dossier.schedule.get("delays", [])
    out.append(
        "  sim_seed=%s  mode=%s  %d delay(s) (%d captured); minimized=%s verified=%s"
        % (
            dossier.schedule.get("sim_seed"),
            dossier.schedule.get("mode"),
            len(delays),
            len(dossier.schedule_original),
            dossier.minimized,
            dossier.verified,
        )
    )
    for entry in delays:
        out.append(
            "    occurrence #%d of %s -> sleep %.2fms"
            % (entry["nth"], entry["site"], entry["len_ms"])
        )
    out.append("  replay with: repro replay <dossier.json>")

    out.append("")
    out.append("-- virtual-time swimlane " + "-" * 46)
    out.append(render_swimlane(dossier))
    if dossier.flight_dropped:
        out.append(
            "(flight ring evicted %d events this session; oldest provenance lost)"
            % dossier.flight_dropped
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Schema validation (scripts/check_obs.py)
# ---------------------------------------------------------------------------

_REQUIRED_TOP = (
    "tool",
    "workload",
    "report",
    "config",
    "schedule",
    "verified",
    "provenance",
    "swimlane",
)


def validate_dossier_dict(payload: dict) -> List[str]:
    """Structural checks for a serialized dossier; returns problems."""
    problems: List[str] = []
    for key in _REQUIRED_TOP:
        if key not in payload:
            problems.append("missing key %r" % key)
    report = payload.get("report")
    if not isinstance(report, dict):
        problems.append("report is not an object")
    else:
        for key in ("error_type", "fault_location", "workload", "tool"):
            if key not in report:
                problems.append("report missing %r" % key)
    schedule = payload.get("schedule")
    if not isinstance(schedule, dict):
        problems.append("schedule is not an object")
    else:
        if "sim_seed" not in schedule:
            problems.append("schedule missing 'sim_seed'")
        if schedule.get("mode") not in SCHEDULE_MODES:
            problems.append("schedule mode %r unknown" % (schedule.get("mode"),))
        for index, entry in enumerate(schedule.get("delays", [])):
            for key in ("site", "nth", "len_ms"):
                if key not in entry:
                    problems.append("schedule delay %d missing %r" % (index, key))
    swimlane = payload.get("swimlane")
    if isinstance(swimlane, dict):
        if "threads" not in swimlane:
            problems.append("swimlane missing 'threads'")
        if "fault" not in swimlane:
            problems.append("swimlane missing 'fault'")
    else:
        problems.append("swimlane is not an object")
    for index, event in enumerate(payload.get("flight_events", [])):
        if not isinstance(event, dict) or "k" not in event or "seq" not in event:
            problems.append("flight event %d malformed" % index)
        elif event["k"] not in flightrec.EVENT_KINDS:
            problems.append("flight event %d unknown kind %r" % (index, event["k"]))
    return problems


_file_seq = _itertools.count()


def dossier_filename(dossier: BugDossier, index: Optional[int] = None) -> str:
    """Collision-resistant file name (pid + per-process sequence)."""
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in dossier.workload
    )
    return "dossier-%s-%s-run%d-%d-%d.json" % (
        dossier.tool,
        safe,
        dossier.report.run_index,
        _os.getpid(),
        next(_file_seq) if index is None else index,
    )


def dossier_pid(name: str) -> Optional[int]:
    """The writing process's pid in a :func:`dossier_filename` name, or
    None for a name of another form."""
    try:
        return int(name.rsplit("-", 2)[1])
    except (IndexError, ValueError):
        return None


def write_dossier(dossier: BugDossier, directory) -> "Path":
    """Persist a dossier into an obs directory; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / dossier_filename(dossier)
    save_dossier(dossier, path)
    return path
