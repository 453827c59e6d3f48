"""A fixed reference job for timing on a host whose speed drifts.

``run.py`` times this script after every campaign and scales campaign
wall times by it (see ``REFERENCE_CALIBRATION_S`` there). It shares
nothing with the program under test, so no change to the program can
move it, and it is shaped like a campaign: a fresh interpreter that
imports standard modules, steps generator "threads" through a heap
ordered by virtual time, allocates one small event object per step,
indexes the events by site, sorts them and encodes part of them as JSON.
"""

import argparse  # noqa: F401  (import cost, as in a campaign)
import dataclasses  # noqa: F401
import hashlib  # noqa: F401
import heapq
import json
import random  # noqa: F401

THREADS = 600
STEPS = 100


class Event:
    __slots__ = ("site", "kind", "oid", "tid", "ts")

    def __init__(self, site, kind, oid, tid, ts):
        self.site = site
        self.kind = kind
        self.oid = oid
        self.tid = tid
        self.ts = ts


def thread(steps):
    for step in range(steps):
        yield step


def main():
    sites = ["app.C%d.m:%d" % (i, j) for i in range(40) for j in range(25)]
    heap = [(0.0, tid, thread(STEPS)) for tid in range(THREADS)]
    heapq.heapify(heap)
    trace = []
    by_site = {}
    while heap:
        when, tid, gen = heapq.heappop(heap)
        step = next(gen, None)
        if step is None:
            continue
        site = sites[(tid * 31 + step) % len(sites)]
        event = Event(site, step & 3, tid * 7 + step, tid, when)
        trace.append(event)
        by_site.setdefault(site, []).append(event)
        heapq.heappush(heap, (when + (step % 5) * 0.3, tid, gen))
    trace.sort(key=lambda e: (e.ts, e.tid))
    json.dumps([[e.site, e.ts] for e in trace[:20000]])


if __name__ == "__main__":
    main()
