"""Chrome ``trace_event`` export of virtual-time schedules.

Injection decisions and thread schedules happen on the simulated
clock. :func:`virtual_runs` joins what an obs directory records of them
into one dict per run: injected delay intervals from the run's
``inject`` records (each names the delayed ``tid``), and thread
lifetimes from the swimlane of the dossier written for a crashing run.
Run records written before those joins carry both lists themselves
(``vt_threads``, ``vt_delays``) and are taken as they are.
:func:`chrome_trace_events` turns the runs into a Chrome
``trace_event`` file (chrome://tracing, Perfetto) where each run becomes
a process row and each simulated thread a track. Wall-clock cell time
is not traced here: ``cell_end.wall_s`` on the event bus carries it.
Dossier replays are not drawn: they re-run a schedule the dossier's
own swimlane shows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


def virtual_runs(
    streams: Iterable[Tuple[int, List[dict]]], dossiers: Iterable[Tuple[int, dict]] = ()
) -> List[dict]:
    """One dict per ``run`` record (replays aside) with its
    ``vt_threads``/``vt_delays``.

    ``streams`` holds ``(pid, records)`` per process's telemetry stream
    (``run_seq`` is process-local, so delays join their run within a
    stream); ``dossiers`` holds ``(pid, dossier)`` per serialized
    dossier and the pid of the process that wrote it. A crashed run
    takes the thread lanes of the first unused dossier its process
    wrote with its workload and sim seed; other runs have none.
    """
    lanes: Dict[Tuple[int, str, int], List[List[dict]]] = {}
    for pid, dossier in dossiers:
        key = (pid, dossier.get("workload"), dossier.get("schedule", {}).get("sim_seed"))
        lanes.setdefault(key, []).append(dossier.get("swimlane", {}).get("threads", []))
    runs: List[dict] = []
    for pid, records in streams:
        delays: Dict[int, List[dict]] = {}
        for record in records:
            # Only an injection names a ``tid`` (older ones do not).
            if record.get("type") == "inject" and "tid" in record:
                start = record["t_ms"]
                delays.setdefault(record.get("run"), []).append(
                    {"site": record["site"], "tid": record["tid"], "start": start,
                     "end": start + record["len_ms"]}
                )
        for record in records:
            if record.get("type") != "run" or record.get("kind") == "replay":
                continue
            if "vt_delays" in record:
                runs.append(record)
                continue
            threads: List[dict] = []
            waiting = lanes.get((pid, record.get("test"), record.get("seed")))
            if record.get("crashed") and waiting:
                threads = waiting.pop(0)
            runs.append(dict(record, vt_threads=threads,
                             vt_delays=delays.get(record.get("run_seq"), [])))
    return runs


def chrome_trace_events(runs: List[dict]) -> dict:
    """Convert runs into Chrome ``trace_event`` JSON.

    Each run (see :func:`virtual_runs`) may carry ``vt_threads``
    (simulated thread lifetimes) and ``vt_delays`` (injected delay
    intervals), all in virtual milliseconds. Each run maps to one trace
    "process" whose label names the workload; threads map to tracks and
    delays to nested slices on the injected thread's track. Timestamps
    are microseconds as the format requires.
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
