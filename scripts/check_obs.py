"""CI gate for an obs directory written via --obs-dir.

Asserts the telemetry contract end to end, from files alone:

* every ``telemetry-*.jsonl`` stream parses (via
  :func:`repro.obs.eventbus.read_stream`), carries only known record
  types, and its last ``metrics`` record contains the required counters
  (sessions pre-register them, so the *names* must be present even at
  value 0);
* every skip event carries a valid reason tag;
* decision events reconcile with run summaries and merged counters
  (via :func:`repro.obs.report.reconcile`);
* every ``dossier-*.json`` validates against the dossier schema
  (:func:`repro.obs.dossier.validate_dossier_dict`);
* every ``coverage-*.json`` reconciles with its own engine counters
  (:func:`repro.obs.coverage.reconcile_coverage`);
* every co-located ``events-*.jsonl`` campaign stream parses, carries
  only known event types at the supported schema version, and its
  folded counts reconcile **exactly** with the merged telemetry
  counters (cache hits/misses, faults by kind, retried/quarantined/
  resumed cells) -- the only tolerated deficit is the number of
  recovered torn tail lines.

A truncated final JSONL line (no trailing newline -- the artifact a
killed ``--jobs`` worker leaves) is tolerated, as ``read_stream``
recovers it; it is reported as a warning, not a failure.

With a second argument naming a ``BENCH_obs.json`` produced by
``benchmarks/bench_obs.py``, also enforces the overhead budgets the
benchmark recorded: the disabled path within ``max_overhead_pct`` and
the enabled path within ``max_enabled_overhead_pct`` of the in-process
baseline.

Fleet campaigns add the lease-ledger conservation law: every lease
creation (``lease_acquire`` or ``lease_steal``) is matched by exactly
one termination (``lease_release`` or ``lease_expire``), modulo
recovered torn lines. ``--events-only`` validates a directory that has
event streams but no telemetry (a fleet dir): stream parse/schema
checks and the lease ledger, without the counter reconciliation.

Usage::

    PYTHONPATH=src python scripts/check_obs.py <obs-dir> [bench-obs-json]
    PYTHONPATH=src python scripts/check_obs.py --events-only <fleet-dir>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core import persistence
from repro.harness.faults import FAULT_KINDS
from repro.obs import campaign as campaign_mod
from repro.obs import eventbus
from repro.obs.coverage import reconcile_coverage
from repro.obs.dossier import validate_dossier_dict
from repro.obs.report import load_obs_dir, reconcile
from repro.obs.telemetry import SKIP_REASONS, TELEMETRY_GLOB

REQUIRED_COUNTERS = (
    "inject.considered",
    "inject.injected",
    "inject.skipped.decay",
    "inject.skipped.interference",
    "inject.skipped.budget",
    "nearmiss.pairs_observed",
    "candidates.added",
    "cache.hits",
    "cache.misses",
    "sched.runs",
    "sched.context_switches",
    "telemetry.runs_recorded",
    # Resilience counters (repro.harness.supervisor / faults taxonomy);
    # pre-registered at session start so every metrics record carries them.
    "faults.worker_crash",
    "faults.hang",
    "faults.transient_io",
    "faults.corrupt_record",
    "faults.deterministic",
    "cells.retried",
    "cells.quarantined",
    "cells.resumed",
    "cache.corrupt",
)

KNOWN_TYPES = {"inject", "run", "metrics"}


def check(obs_dir: Path) -> list:
    problems = []
    streams = eventbus.load_streams(obs_dir, TELEMETRY_GLOB)
    if not streams:
        problems.append("no telemetry-*.jsonl files in %s" % obs_dir)

    for stream in streams:
        name = Path(stream.path).name
        metrics = None
        for record in stream.events:
            kind = record.get("type")
            if kind not in KNOWN_TYPES:
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
        for counter in REQUIRED_COUNTERS:
            if counter not in counters:
                problems.append("%s: missing counter %r" % (name, counter))

    for path in sorted(obs_dir.glob("dossier-*.json")):
        try:
            payload = persistence.load_record(path)["dossier"]
        except (ValueError, KeyError, OSError) as exc:
            problems.append("%s: unreadable dossier (%s)" % (path.name, exc))
            continue
        problems.extend(
            "%s: %s" % (path.name, issue) for issue in validate_dossier_dict(payload)
        )

    for path in sorted(obs_dir.glob("coverage-*.json")):
        try:
            record = persistence.load_record(path)
        except (ValueError, KeyError, OSError) as exc:
            problems.append("%s: unreadable coverage record (%s)" % (path.name, exc))
            continue
        problems.extend(
            "%s: %s" % (path.name, issue) for issue in reconcile_coverage(record)
        )

    data = load_obs_dir(obs_dir)
    problems.extend(data.parse_errors)
    problems.extend(reconcile(data))
    problems.extend(check_events(obs_dir, data))
    problems.extend(check_dashboard_artifacts(obs_dir))
    return problems


def check_dashboard_artifacts(obs_dir: Path) -> list:
    """Validate co-located dashboard artifacts, when present.

    ``fuzz --dashboard`` / ``obs dashboard`` leave three artifacts next
    to the telemetry; each has a machine-checkable contract: the time
    series is schema-versioned JSONL (every row passes
    ``validate_row``), the OpenMetrics export parses under
    ``validate_openmetrics``, and the HTML is self-contained (no
    external stylesheet/script/image references). Absent artifacts are
    fine -- not every campaign renders a dashboard.
    """
    from repro.obs import openmetrics as openmetrics_mod
    from repro.obs import timeseries as timeseries_mod

    problems = []
    series_path = obs_dir / timeseries_mod.TIMESERIES_NAME
    if series_path.exists():
        rows, warnings = timeseries_mod.load_series(series_path)
        problems.extend("timeseries: %s" % w for w in warnings)
        if not rows:
            problems.append("timeseries: %s has no valid data rows" % series_path.name)
    prom_path = obs_dir / "metrics.prom"
    if prom_path.exists():
        problems.extend(
            "metrics.prom: %s" % issue
            for issue in openmetrics_mod.validate_openmetrics(prom_path.read_text())
        )
    html_path = obs_dir / "dashboard.html"
    if html_path.exists():
        text = html_path.read_text()
        for marker in ('<link rel="stylesheet"', "<script src=", "http://", "https://"):
            if marker in text:
                problems.append(
                    "dashboard.html: external reference %r breaks the "
                    "self-contained contract" % marker
                )
        for heading in ("Detection funnel", "Sensitivity curves",
                        "Delay-budget attribution"):
            if heading not in text:
                problems.append("dashboard.html: missing section %r" % heading)
    return problems


def check_events(obs_dir: Path, data) -> list:
    """Reconcile co-located campaign event streams with the counters.

    Zero-tolerance by design: every emission site increments its
    telemetry counter and emits its bus event in the same code path, so
    any divergence is an instrumentation bug. The single tolerated
    deficit is the number of recovered torn tail lines (a killed
    writer commits at most one partial line per stream); a *surplus*
    of events over counters is never tolerated. Skipped entirely when
    either artifact is absent (events-only or telemetry-only runs have
    nothing to cross-check).
    """
    streams = eventbus.load_streams(obs_dir)
    if not streams:
        return []
    problems = []
    recovered = 0
    for stream in streams:
        name = Path(stream.path).name
        problems.extend(stream.parse_errors)
        recovered += stream.recovered
        if (
            stream.meta.version is not None
            and stream.meta.version not in eventbus.SUPPORTED_EVENT_VERSIONS
        ):
            problems.append(
                "%s: event schema version %r not in supported %s"
                % (name, stream.meta.version,
                   list(eventbus.SUPPORTED_EVENT_VERSIONS))
            )
        for event in stream.events:
            if event.get("type") not in eventbus.EVENT_TYPES:
                problems.append(
                    "%s: unknown event type %r (seq %s)"
                    % (name, event.get("type"), event.get("seq"))
                )
    merged = eventbus.merge_events(streams)
    view = campaign_mod.fold_events(merged)
    # Lease ledger conservation (fleet campaigns; trivially 0 == 0
    # elsewhere): every lease creation is an acquire or a steal, every
    # termination a release or an expire, and lease events are hard-
    # flushed at emission -- so the two sides balance exactly, modulo
    # recovered torn tail lines (in either direction: a killed worker's
    # torn line can be a creation or a termination).
    creations = view.lease_acquired + view.lease_stolen
    terminations = view.lease_released + view.lease_expired
    if abs(creations - terminations) > recovered:
        problems.append(
            "events: lease ledger unbalanced: %d acquire + %d steal != "
            "%d release + %d expire (|diff| %d > %d recovered torn line(s))"
            % (view.lease_acquired, view.lease_stolen, view.lease_released,
               view.lease_expired, abs(creations - terminations), recovered)
        )
    counters = (data.metrics or {}).get("counters", {})
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
    cell_ends = [e for e in merged if e.get("type") == "cell_end"]
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


def check_overhead_budget(bench_path: Path) -> list:
    """Validate the overhead figures recorded by ``bench_obs.py``."""
    problems = []
    try:
        payload = json.loads(bench_path.read_text())
    except (OSError, ValueError) as exc:
        return ["%s: unreadable benchmark record (%s)" % (bench_path.name, exc)]
    for pct_key, budget_key, label in (
        ("disabled_overhead_pct", "max_overhead_pct", "disabled"),
        ("enabled_overhead_pct", "max_enabled_overhead_pct", "enabled"),
    ):
        pct = payload.get(pct_key)
        budget = payload.get(budget_key)
        if pct is None or budget is None:
            problems.append(
                "%s: missing %s/%s" % (bench_path.name, pct_key, budget_key)
            )
        elif pct > budget:
            problems.append(
                "%s: telemetry-%s overhead %.2f%% exceeds the %.0f%% budget"
                % (bench_path.name, label, pct, budget)
            )
    if not payload.get("within_budget", False):
        problems.append("%s: within_budget is not true" % bench_path.name)
    return problems


def main(argv) -> int:
    argv = list(argv)
    # Events-only mode: validate campaign event streams (schema, parse,
    # lease-ledger conservation) in a directory that never had
    # telemetry -- a fleet dir. The counter
    # reconciliation is skipped naturally (there are no counters).
    events_only = "--events-only" in argv
    if events_only:
        argv.remove("--events-only")
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    obs_dir = Path(argv[1])
    if events_only:
        data = load_obs_dir(obs_dir)
        problems = check_events(obs_dir, data)
        if not eventbus.load_streams(obs_dir):
            problems.append("no events-*.jsonl streams in %s" % obs_dir)
        if problems:
            print("obs check FAILED (%d problem(s)):" % len(problems))
            for problem in problems:
                print("  " + str(problem))
            return 1
        streams = eventbus.load_streams(obs_dir)
        view = campaign_mod.fold_events(eventbus.merge_events(streams))
        print(
            "obs check OK (events only): %d event(s) in %d stream(s); "
            "lease ledger %d acquired + %d stolen == %d released + %d expired"
            % (sum(len(s.events) for s in streams), len(streams),
               view.lease_acquired, view.lease_stolen,
               view.lease_released, view.lease_expired)
        )
        return 0
    problems = check(obs_dir)
    if len(argv) == 3:
        problems.extend(check_overhead_budget(Path(argv[2])))
    data = load_obs_dir(obs_dir)
    for warning in data.warnings:
        print("warning: %s" % warning)
    if problems:
        print("obs check FAILED (%d problem(s)):" % len(problems))
        for problem in problems:
            print("  " + str(problem))
        return 1
    streams = eventbus.load_streams(obs_dir)
    print(
        "obs check OK: %d process(es), %d runs, %d decision events, "
        "%d dossier(s), %d coverage record(s), %d campaign event(s) in %d stream(s)"
        % (
            data.processes,
            len(data.runs),
            len(data.inject_events),
            len(data.dossiers),
            len(data.coverage),
            sum(len(s.events) for s in streams),
            len(streams),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
