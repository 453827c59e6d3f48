"""Chrome ``trace_event`` export of virtual-time schedules.

Injection decisions and thread schedules happen on the simulated
clock. Each run's telemetry record carries them as *virtual events*
(``vt_threads``, ``vt_delays``), which :func:`chrome_trace_events`
turns into a Chrome ``trace_event`` file (chrome://tracing, Perfetto)
where each run becomes a process row and each simulated thread a
track. Wall-clock cell time is not traced here: ``cell_end.wall_s``
on the event bus and the ``harness.cell_wall_ms`` histogram carry it.
"""

from __future__ import annotations

from typing import List


def chrome_trace_events(runs: List[dict]) -> dict:
    """Convert run telemetry records into Chrome ``trace_event`` JSON.

    Each run record (see :class:`~repro.obs.telemetry.RunTelemetry`)
    may carry ``vt_threads`` (simulated thread lifetimes) and
    ``vt_delays`` (injected delay intervals), all in virtual
    milliseconds. Each run maps to one trace "process" whose label names
    the workload; threads map to tracks and delays to nested slices on
    the injected thread's track. Timestamps are microseconds as the
    format requires.
    """
    events: List[dict] = []
    for pid, run in enumerate(runs, start=1):
        label = "%s run#%s %s" % (run.get("kind", "run"), run.get("run_seq", pid), run.get("test", ""))
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        for thread in run.get("vt_threads", ()):
            tid = thread["tid"]
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread.get("name", "thread-%d" % tid)},
                }
            )
            end = thread.get("end")
            if end is None:
                end = run.get("virtual_ms", thread["start"])
            events.append(
                {
                    "name": thread.get("name", "thread-%d" % tid),
                    "cat": "thread",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": thread["start"] * 1000.0,
                    "dur": max(0.0, (end - thread["start"]) * 1000.0),
                }
            )
        for delay in run.get("vt_delays", ()):
            events.append(
                {
                    "name": "delay@%s" % delay["site"],
                    "cat": "delay",
                    "ph": "X",
                    "pid": pid,
                    "tid": delay["tid"],
                    "ts": delay["start"] * 1000.0,
                    "dur": max(0.0, (delay["end"] - delay["start"]) * 1000.0),
                    "args": {"site": delay["site"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
