"""CI gate for an obs directory written via --obs-dir.

Runs every consistency law on the recorded data through
:func:`repro.obs.report.check`, over the directory as parsed once by
:func:`repro.obs.report.load_obs_dir`:

* every ``telemetry-*.jsonl`` stream parses, carries only known record
  types and tagged skips, and its last ``metrics`` record names every
  stored counter in ``REQUIRED_COUNTERS`` (sessions pre-register them,
  so the *names* must be present even at value 0);
* each run's decision events reconcile with its run summary (the
  counts of records -- decisions, cache, fault and cell events -- are
  computed from the records, so there is no second copy to compare);
* every ``dossier-*.json`` validates against the dossier schema;
* every coverage record -- in a telemetry stream, or a
  ``coverage-*.json`` file of an older directory -- reconciles with
  its own engine counters;
* every co-located ``events-*.jsonl`` campaign stream parses and
  carries only known event types at the supported schema version.

Events of the retired lease-based fleet (worker and lease types, in a
fleet directory written before it was retired) are dropped by the
reader; the script names them in a note and checks the rest.

A truncated final JSONL line (no trailing newline -- the artifact a
killed ``--jobs`` worker leaves) is tolerated and reported as a
warning, not a failure.

The script adds one check of a file that is not recorded data: the
co-located dashboard. Overhead budgets are not its business:
``benchmarks/bench_obs.py`` enforces them where it measures.

``--events-only`` validates a directory that has event streams but no
telemetry (a ``campaign run`` fleet dir): the event laws alone.

Usage::

    PYTHONPATH=src python scripts/check_obs.py <obs-dir>
    PYTHONPATH=src python scripts/check_obs.py --events-only <fleet-dir>
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from repro.obs.report import check, load_obs_dir


def check_dashboard(obs_dir: Path) -> list:
    """Validate a co-located ``dashboard.html``, when present.

    ``fuzz --dashboard`` / ``obs dashboard`` leave it next to the
    telemetry. It must be self-contained (no external stylesheet,
    script or image references) and carry its key sections. An absent
    dashboard is fine -- not every campaign renders one.
    """
    problems = []
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


def main(argv) -> int:
    argv = list(argv)
    events_only = "--events-only" in argv
    if events_only:
        argv.remove("--events-only")
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    obs_dir = Path(argv[1])
    data = load_obs_dir(obs_dir)
    problems = check(data, events_only=events_only)
    retired = Counter()
    for stream in data.event_streams:
        retired.update(stream.retired)
    if retired:
        print("note: ignored %d event(s) of retired types: %s" % (
            sum(retired.values()),
            ", ".join("%s %d" % item for item in sorted(retired.items()))))
    if not events_only:
        problems.extend(check_dashboard(obs_dir))
        for warning in data.warnings:
            print("warning: %s" % warning)
    if problems:
        print("obs check FAILED (%d problem(s)):" % len(problems))
        for problem in problems:
            print("  " + str(problem))
        return 1
    events = sum(len(s.events) for s in data.event_streams)
    if events_only:
        print("obs check OK (events only): %d event(s) in %d stream(s)"
              % (events, len(data.event_streams)))
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
