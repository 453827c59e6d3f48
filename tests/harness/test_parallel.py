"""Serial/parallel equivalence: the correctness anchor of --jobs.

Every experiment cell is a deterministic function of picklable inputs
and results merge in submission order, so ``jobs=4`` must reproduce the
``jobs=1`` tables bit for bit.
"""

import multiprocessing
import os
import time
import traceback

import pytest

from repro.harness import experiments
from repro.harness.parallel import AUTO_JOBS, current, map_units, resolve_jobs
from repro.harness.supervisor import cell_key
from repro.obs import eventbus


def _square(x):
    return x * x


def _sleep_cell(seconds):
    time.sleep(seconds)
    return seconds


def _fail_on_two(x):
    if x == 2:
        raise ValueError("cell %d is broken" % x)
    return x


class TestMapUnits:
    def test_serial_matches_builtin_map(self):
        assert map_units(_square, [(i,) for i in range(8)], jobs=1) == [
            i * i for i in range(8)
        ]

    def test_parallel_preserves_submission_order(self):
        assert map_units(_square, [(i,) for i in range(8)], jobs=4) == [
            i * i for i in range(8)
        ]

    def test_single_unit_bypasses_pool(self):
        assert map_units(_square, [(3,)], jobs=4) == [9]

    def test_empty_units(self):
        assert map_units(_square, [], jobs=4) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) >= 1  # AUTO_JOBS -> usable CPUs


def _in_worker(_):
    return multiprocessing.parent_process() is not None


class TestUsableCpus:
    """``AUTO_JOBS`` counts the CPUs this process may run on, which a
    cpuset or ``taskset`` narrows below the host's count."""

    def test_one_usable_cpu_runs_serially(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(AUTO_JOBS) == 1
        assert map_units(_in_worker, [(i,) for i in range(4)], jobs=AUTO_JOBS) == [False] * 4

    def test_three_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(AUTO_JOBS) == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_jobs(AUTO_JOBS) == 5


class TestNoBoundary:
    """With the executor slot empty there is no fault boundary: a
    failing cell's exception reaches the caller, and no worker outlives
    the fan-out either way."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_exception_propagates(self, jobs):
        assert current() is None
        with pytest.raises(ValueError, match="cell 2 is broken") as info:
            map_units(_fail_on_two, [(x,) for x in range(6)], jobs=jobs)
        # A worker's traceback comes along, chained as the cause.
        assert "in _fail_on_two" in "".join(traceback.format_exception(info.value))
        assert multiprocessing.active_children() == []

    def test_workers_are_gone_after_a_normal_return(self):
        assert map_units(_square, [(i,) for i in range(8)], jobs=2) == [
            i * i for i in range(8)
        ]
        assert multiprocessing.active_children() == []


class TestCellWallTime:
    def test_pool_cell_end_reports_each_cells_own_wall_time(self):
        """Under ``--jobs 2`` each ``cell_end.wall_s`` is the cell's own
        time, not the time since the fan-out began: the short cells
        queued behind the long one must not inherit its duration."""
        bus = eventbus.configure(None)
        ends = []
        bus.add_listener(lambda event: event["type"] == "cell_end" and ends.append(event))
        sleeps = [0.6, 0.02, 0.02, 0.02]
        try:
            started = time.perf_counter()
            assert map_units(_sleep_cell, [(s,) for s in sleeps], jobs=2) == sleeps
            total = time.perf_counter() - started
        finally:
            eventbus.disable()
        # cell_end arrives in completion order: pair each with its cell.
        sleep_of = {cell_key(_sleep_cell, (s,))[:16]: s for s in sleeps}
        assert len(ends) == len(sleeps)
        for event in ends:
            sleep = sleep_of[event["cell"]]
            assert sleep <= event["wall_s"] < sleep + 0.3, (event, sleep)
            assert event["wall_s"] < total


class TestLiveView:
    def test_no_more_cells_running_than_workers(self):
        """``cell_begin`` marks a cell's dispatch to a worker, so a live
        view never shows more cells running than there are workers."""
        bus = eventbus.configure(None)
        running, peak = set(), []

        def track(event):
            if event["type"] == "cell_begin":
                running.add(event["cell"])
            elif event["type"] == "cell_end":
                running.discard(event["cell"])
            peak.append(len(running))

        bus.add_listener(track)
        try:
            assert map_units(_sleep_cell, [(0.01 * i,) for i in range(8)], jobs=2) == [
                0.01 * i for i in range(8)
            ]
        finally:
            eventbus.disable()
        assert max(peak) == 2


class TestSerialParallelIdentity:
    """ISSUE acceptance: --jobs 1 and --jobs 4 rows are identical."""

    def test_table4_rows_identical(self):
        kwargs = dict(attempts=2, budget=8, bugs=["Bug-1"], base_seed=0)
        serial = experiments.table4_detection(jobs=1, **kwargs)
        parallel = experiments.table4_detection(jobs=4, **kwargs)
        assert repr(serial) == repr(parallel)

    def test_table6_rows_identical(self):
        serial = experiments.table6_delays(apps=["nsubstitute"], seed=1, jobs=1)
        parallel = experiments.table6_delays(apps=["nsubstitute"], seed=1, jobs=4)
        assert repr(serial) == repr(parallel)

    def test_table2_rows_identical(self):
        serial = experiments.table2_sites(apps=["nsubstitute"], seed=1, jobs=1)
        parallel = experiments.table2_sites(apps=["nsubstitute"], seed=1, jobs=4)
        assert repr(serial) == repr(parallel)

    def test_figure2_points_identical(self):
        serial = experiments.figure2_timing_conditions(delays_ms=(0, 9, 11, 30), jobs=1)
        parallel = experiments.figure2_timing_conditions(delays_ms=(0, 9, 11, 30), jobs=4)
        assert repr(serial) == repr(parallel)

    def test_parallel_with_cache_identical(self, tmp_path):
        kwargs = dict(apps=["nsubstitute"], seed=1)
        serial = experiments.table6_delays(jobs=1, **kwargs)
        cached = experiments.table6_delays(jobs=4, cache_dir=str(tmp_path), **kwargs)
        rewarmed = experiments.table6_delays(jobs=4, cache_dir=str(tmp_path), **kwargs)
        assert repr(serial) == repr(cached) == repr(rewarmed)
