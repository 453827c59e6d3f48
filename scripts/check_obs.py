"""CI gate for an obs directory written via --obs-dir.

Runs every consistency law on the recorded data through
:func:`repro.obs.report.check`, over the directory as parsed once by
:func:`repro.obs.report.load_obs_dir`:

* every ``telemetry-*.jsonl`` stream parses, carries only known record
  types and tagged skips, and its last ``metrics`` record names every
  required counter (sessions pre-register them, so the *names* must be
  present even at value 0);
* decision events reconcile with run summaries and merged counters;
* every ``dossier-*.json`` validates against the dossier schema;
* every ``coverage-*.json`` reconciles with its own engine counters;
* every co-located ``events-*.jsonl`` campaign stream parses, carries
  only known event types at the supported schema version, and its
  folded counts reconcile **exactly** with the merged telemetry
  counters (cache hits/misses, faults by kind, retried/quarantined/
  resumed cells) -- the only tolerated deficit is the number of
  recovered torn tail lines;
* fleet campaigns add the lease-ledger conservation law: every lease
  creation (``lease_acquire`` or ``lease_steal``) is matched by exactly
  one termination (``lease_release`` or ``lease_expire``), modulo
  recovered torn lines.

A truncated final JSONL line (no trailing newline -- the artifact a
killed ``--jobs`` worker leaves) is tolerated and reported as a
warning, not a failure.

The script adds two checks of files that are not recorded data: the
co-located dashboard artifacts, and, with a second argument naming a
``BENCH_obs.json`` produced by ``benchmarks/bench_obs.py``, the
overhead budgets the benchmark recorded (the disabled path within
``max_overhead_pct`` and the enabled path within
``max_enabled_overhead_pct`` of the in-process baseline).

``--events-only`` validates a directory that has event streams but no
telemetry (a fleet dir): the event laws alone.

Usage::

    PYTHONPATH=src python scripts/check_obs.py <obs-dir> [bench-obs-json]
    PYTHONPATH=src python scripts/check_obs.py --events-only <fleet-dir>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.report import check, load_obs_dir


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
    events_only = "--events-only" in argv
    if events_only:
        argv.remove("--events-only")
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    obs_dir = Path(argv[1])
    data = load_obs_dir(obs_dir)
    problems = check(data, events_only=events_only)
    if not events_only:
        problems.extend(check_dashboard_artifacts(obs_dir))
        if len(argv) == 3:
            problems.extend(check_overhead_budget(Path(argv[2])))
        for warning in data.warnings:
            print("warning: %s" % warning)
    if problems:
        print("obs check FAILED (%d problem(s)):" % len(problems))
        for problem in problems:
            print("  " + str(problem))
        return 1
    events = sum(len(s.events) for s in data.event_streams)
    if events_only:
        view = data.view
        print(
            "obs check OK (events only): %d event(s) in %d stream(s); "
            "lease ledger %d acquired + %d stolen == %d released + %d expired"
            % (events, len(data.event_streams), view.lease_acquired,
               view.lease_stolen, view.lease_released, view.lease_expired)
        )
        return 0
    print(
        "obs check OK: %d process(es), %d runs, %d decision events, "
        "%d dossier(s), %d coverage record(s), %d campaign event(s) in %d stream(s)"
        % (data.processes, len(data.runs), len(data.inject_events),
           len(data.dossiers), len(data.coverage), events, len(data.event_streams))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
