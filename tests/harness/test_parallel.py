"""Serial/parallel equivalence: the correctness anchor of --jobs.

Every experiment cell is a deterministic function of picklable inputs
and results merge in submission order, so ``jobs=4`` must reproduce the
``jobs=1`` tables bit for bit.
"""

import time

from repro.harness import experiments
from repro.harness.parallel import chunked, map_units, resolve_jobs
from repro.obs import eventbus


def _square(x):
    return x * x


def _sleep_cell(seconds):
    time.sleep(seconds)
    return seconds


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
        assert resolve_jobs(0) >= 1  # AUTO_JOBS -> cpu count

    def test_chunked(self):
        assert chunked(range(5), 2) == [[0, 1], [2, 3], [4]]
        assert chunked([], 3) == []


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
        assert len(ends) == len(sleeps)
        for event, sleep in zip(ends, sleeps):
            assert sleep <= event["wall_s"] < sleep + 0.3, (event, sleep)
            assert event["wall_s"] < total


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
