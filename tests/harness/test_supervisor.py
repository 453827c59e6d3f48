"""Campaign supervisor semantics: retry, quarantine, watchdog, resume.

Cells here are deliberately toy module-level functions (deterministic
values, controllable failures) so each property is pinned in
milliseconds; the end-to-end chaos campaign over a real experiment
driver lives in the CLI tests and CI's chaos smoke cell.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.harness import faults, parallel, supervisor
from repro.harness.store import ArtifactStore
from repro.harness.supervisor import (
    RetryPolicy,
    Supervisor,
    cell_key,
    supervised,
)
from repro.obs import eventbus

# Serial-path failure scripting: cells run in-process, so a module
# global can count attempts per key.
ATTEMPTS = {}


def square(x):
    return x * x


def flaky(x, fail_times):
    """Raise a retryable fault on the first ``fail_times`` calls."""
    count = ATTEMPTS.get(x, 0)
    ATTEMPTS[x] = count + 1
    if count < fail_times:
        raise faults.TransientIOFault("transient #%d for %s" % (count + 1, x))
    return x * 10


def broken(x):
    raise ValueError("deterministic schema error for %s" % x)


def sleeper(x, seconds):
    time.sleep(seconds)
    return x


@pytest.fixture(autouse=True)
def clean_state():
    ATTEMPTS.clear()
    faults.disable()
    parallel.deactivate()
    yield
    ATTEMPTS.clear()
    faults.disable()
    parallel.deactivate()


def resume_store(directory):
    return ArtifactStore(directory)


def no_sleep(_s):
    pass


class TestCellKey:
    def test_stable_across_calls(self):
        assert cell_key(square, (3,)) == cell_key(square, (3,))

    def test_sensitive_to_fn_and_args(self):
        assert cell_key(square, (3,)) != cell_key(square, (4,))
        assert cell_key(square, (3,)) != cell_key(flaky, (3,))

    def test_dataclass_args_are_canonical(self):
        from repro.core.config import DEFAULT_CONFIG

        a = cell_key(square, (DEFAULT_CONFIG, "id", 1))
        b = cell_key(square, (DEFAULT_CONFIG, "id", 1))
        assert a == b
        assert a != cell_key(square, (DEFAULT_CONFIG.with_seed(99), "id", 1))


class TestRetryPolicy:
    def test_schedule_is_deterministic_for_a_seed(self):
        a = RetryPolicy(max_attempts=5, seed=7).backoff_schedule("cell-key")
        b = RetryPolicy(max_attempts=5, seed=7).backoff_schedule("cell-key")
        assert a == b
        assert RetryPolicy(max_attempts=5, seed=8).backoff_schedule("cell-key") != a

    def test_jitter_stays_within_band_and_grows_exponentially(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_base_s=0.1, backoff_factor=2.0,
            backoff_max_s=10.0, jitter=0.25, seed=0,
        )
        for attempt, nominal in ((1, 0.1), (2, 0.2), (3, 0.4)):
            value = policy.backoff_s("k", attempt)
            assert nominal * 0.75 <= value <= nominal * 1.25

    def test_backoff_is_capped(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=10.0,
                             backoff_max_s=2.0, jitter=0.0)
        assert policy.backoff_s("k", 5) == 2.0

    def test_keys_get_distinct_jitter(self):
        policy = RetryPolicy(jitter=0.25, seed=0)
        assert policy.backoff_s("a", 1) != policy.backoff_s("b", 1)

    def test_total_cap_bounds_the_cumulative_schedule(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base_s=1.0, backoff_factor=2.0,
            backoff_max_s=60.0, backoff_total_max_s=5.0, jitter=0.0,
        )
        schedule = policy.backoff_schedule("k")
        assert sum(schedule) <= 5.0 + 1e-9
        # Once the budget is spent, every later attempt sleeps zero.
        assert policy.backoff_s("k", 9) == 0.0

    def test_total_cap_none_disables(self):
        policy = RetryPolicy(
            max_attempts=6, backoff_base_s=1.0, backoff_factor=2.0,
            backoff_max_s=60.0, backoff_total_max_s=None, jitter=0.0,
        )
        assert policy.backoff_s("k", 5) == 16.0

    def test_generous_budget_leaves_the_raw_schedule_untouched(self):
        capped = RetryPolicy(backoff_total_max_s=100.0, jitter=0.25, seed=3)
        raw = RetryPolicy(backoff_total_max_s=None, jitter=0.25, seed=3)
        for attempt in (1, 2):
            assert capped.backoff_s("k", attempt) == pytest.approx(
                raw.backoff_s("k", attempt)
            )


class TestRetryAndQuarantine:
    def test_retry_until_budget_succeeds(self):
        sup = Supervisor(policy=RetryPolicy(max_attempts=3, seed=1), sleep=no_sleep)
        assert sup.map(flaky, [(1, 2)]) == [10]  # fails twice, third try ok
        assert ATTEMPTS[1] == 3
        assert sup.stats.ok == 1
        assert sup.stats.retried == 1
        assert sup.stats.fault_counts == {"transient_io": 2}

    def test_budget_exhaustion_degrades_to_none(self):
        sup = Supervisor(policy=RetryPolicy(max_attempts=2, seed=1), sleep=no_sleep)
        assert sup.map(flaky, [(2, 99)]) == [None]
        assert ATTEMPTS[2] == 2  # exactly the budget, no more
        assert sup.stats.failed == 1
        assert sup.stats.ok == 0
        assert sup.stats.degraded == [cell_key(flaky, (2, 99))]

    def test_deterministic_failure_quarantines_without_retry(self):
        sup = Supervisor(policy=RetryPolicy(max_attempts=5, seed=1), sleep=no_sleep)
        results = sup.map(broken, [(1,)])
        assert results == [None]
        assert sup.stats.quarantined == 1
        assert sup.stats.fault_counts == {"deterministic": 1}

    def test_quarantine_does_not_poison_the_rest(self):
        sup = Supervisor(policy=RetryPolicy(max_attempts=2, seed=1), sleep=no_sleep)

        def mixed(x):
            if x == 1:
                raise AssertionError("deterministic")
            return x * x

        assert sup.map(mixed, [(0,), (1,), (2,)]) == [0, None, 4]
        assert sup.stats.ok == 2
        assert sup.stats.quarantined == 1
        assert sup.stats.degraded == [cell_key(mixed, (1,))]

    def test_backoff_uses_the_policy_schedule(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, seed=4)
        sup = Supervisor(policy=policy, sleep=slept.append)
        sup.map(flaky, [(3, 2)])
        key = cell_key(flaky, (3, 2))
        assert slept == [policy.backoff_s(key, 1), policy.backoff_s(key, 2)]


class TestWatchdog:
    def test_explicit_timeout_wins(self):
        assert Supervisor(cell_timeout_s=1.5).watchdog_s() == 1.5

    def test_warmup_deadline_before_samples(self):
        sup = Supervisor()
        assert sup.watchdog_s() == supervisor.WATCHDOG_WARMUP_S

    def test_adapts_to_median_cell_time_with_floor(self):
        sup = Supervisor()
        sup._wall_times = [0.01, 0.02, 0.03]
        assert sup.watchdog_s() == supervisor.WATCHDOG_FLOOR_S  # floored
        sup._wall_times = [1.0, 2.0, 3.0]
        assert sup.watchdog_s() == pytest.approx(2.0 * 30.0)  # TIMEOUT_FACTOR

    @pytest.mark.tier2
    def test_serial_watchdog_kills_a_wedged_cell(self):
        sup = Supervisor(
            policy=RetryPolicy(max_attempts=1), cell_timeout_s=0.2, sleep=no_sleep
        )
        started = time.monotonic()
        assert sup.map(sleeper, [(1, 30.0)]) == [None]
        assert time.monotonic() - started < 5.0
        assert sup.stats.fault_counts == {"hang": 1}

    @pytest.mark.tier2
    def test_parallel_watchdog_kills_a_wedged_worker(self):
        sup = Supervisor(
            policy=RetryPolicy(max_attempts=1), cell_timeout_s=0.5, sleep=no_sleep
        )
        started = time.monotonic()
        results = sup.map(sleeper, [(1, 0.01), (2, 30.0), (3, 0.01)], jobs=3)
        assert results == [1, None, 3]
        assert time.monotonic() - started < 10.0
        assert sup.stats.fault_counts == {"hang": 1}
        assert sup.stats.ok == 2


class TestCheckpointResume:
    def test_resume_completes_exactly_the_remainder(self, tmp_path):
        units = [(x,) for x in range(5)]
        clean = Supervisor(sleep=no_sleep).map(square, units)

        # Campaign "killed" after 3 cells: only those reach the store.
        first = Supervisor(store=resume_store(tmp_path), sleep=no_sleep)
        first.map(square, units[:3])
        assert len(list(resume_store(tmp_path).keys())) == 3

        executed = []

        def counting_square(x):
            executed.append(x)
            return x * x

        counting_square.__module__ = square.__module__
        counting_square.__qualname__ = square.__qualname__  # same cell keys
        resumed = Supervisor(store=resume_store(tmp_path), sleep=no_sleep)
        results = resumed.map(counting_square, units)
        assert results == clean  # bit-identical to an uninterrupted run
        assert executed == [3, 4]  # exactly the remainder ran
        assert resumed.stats.resumed == 3
        assert resumed.stats.ok == 2

    def test_failed_tombstone_is_reattempted_and_superseded(self, tmp_path):
        key = cell_key(flaky, (7, 1))
        first = Supervisor(
            policy=RetryPolicy(max_attempts=1), store=resume_store(tmp_path), sleep=no_sleep
        )
        assert first.map(flaky, [(7, 1)]) == [None]  # exhausts its budget
        assert resume_store(tmp_path).fetch(key).status == "failed"

        # The fault was transient: the resumed campaign re-attempts the
        # cell (failed cells are never skipped) and its ok result
        # replaces the tombstone.
        second = Supervisor(store=resume_store(tmp_path), sleep=no_sleep)
        assert second.map(flaky, [(7, 1)]) == [70]
        assert second.stats.resumed == 0
        assert second.stats.ok == 1
        record = resume_store(tmp_path).fetch(key)
        assert record.ok and record.result == 70

        third = Supervisor(store=resume_store(tmp_path), sleep=no_sleep)
        assert third.map(flaky, [(7, 1)]) == [70]
        assert third.stats.resumed == 1
        assert ATTEMPTS[7] == 2  # the third campaign ran nothing

    def test_corrupt_record_reruns_the_cell(self, tmp_path):
        Supervisor(store=resume_store(tmp_path), sleep=no_sleep).map(square, [(6,)])
        target = resume_store(tmp_path).path(cell_key(square, (6,)))
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        resumed = Supervisor(store=resume_store(tmp_path), sleep=no_sleep)
        assert resumed.map(square, [(6,)]) == [36]
        assert resumed.stats.resumed == 0
        assert resumed.stats.ok == 1
        assert resumed.store.stats.corrupt == 1
        assert target.with_name(target.name + ".corrupt").exists()
        assert resume_store(tmp_path).fetch(cell_key(square, (6,))).result == 36

    def test_undecodable_record_is_a_miss_not_an_error(self, tmp_path):
        store = resume_store(tmp_path)
        store.path(cell_key(square, (4,))).write_bytes(b"not a record\n")
        resumed = Supervisor(store=resume_store(tmp_path), sleep=no_sleep)
        assert resumed.map(square, [(3,), (4,)]) == [9, 16]
        assert resumed.stats.ok == 2

    def test_publication_emits_checkpoint_events(self, tmp_path):
        from repro.obs import eventbus

        events = []
        eventbus.configure(None).add_listener(events.append)
        try:
            Supervisor(store=resume_store(tmp_path), sleep=no_sleep).map(square, [(1,), (2,)])
        finally:
            eventbus.disable()
        checkpoints = [e for e in events if e["type"] == "checkpoint"]
        assert [(e["status"], e["attempts"]) for e in checkpoints] == [("ok", 1), ("ok", 1)]

    @pytest.mark.tier2
    def test_resume_after_sigkill_is_bit_identical(self, tmp_path):
        """Kill a real campaign process mid-run; resuming completes the
        remainder and the merged results match an uninterrupted run."""
        store_dir = tmp_path / "resume"
        out_path = tmp_path / "results.json"
        script = (
            "import json, sys, time\n"
            "from repro.harness.store import ArtifactStore\n"
            "from repro.harness.supervisor import Supervisor\n"
            "from tests.harness.test_supervisor import slow_square\n"
            "sup = Supervisor(store=ArtifactStore(%r))\n"
            "results = sup.map(slow_square, [(x,) for x in range(6)])\n"
            "json.dump(results, open(%r, 'w'))\n" % (str(store_dir), str(out_path))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", ".", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        # Wait until at least one cell is published, then kill -9.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if store_dir.exists() and any(store_dir.glob("cell-*.res")):
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        assert not out_path.exists()  # the first campaign never finished

        resumed = Supervisor(store=resume_store(store_dir))
        results = resumed.map(slow_square, [(x,) for x in range(6)])
        assert results == [x * x for x in range(6)]
        assert resumed.stats.resumed >= 1  # the killed campaign's progress held
        clean = Supervisor().map(slow_square, [(x,) for x in range(6)])
        assert results == clean


def slow_square(x):
    time.sleep(0.15)
    return x * x


class TestChaosCampaign:
    def test_parallel_chaos_campaign_is_bit_identical(self):
        units = [(x,) for x in range(8)]
        clean = [x * x for x in range(8)]
        faults.configure("seed=3,worker_crash=0.6,hang=0.4,hang_s=30")
        sup = Supervisor(
            policy=RetryPolicy(max_attempts=3, seed=0),
            cell_timeout_s=1.0,
            sleep=no_sleep,
        )
        # The live workers at every dispatch: killed ones are replaced.
        alive = []
        eventbus.configure(None).add_listener(
            lambda event: event["type"] == "cell_begin"
            and alive.append({p.pid for p in multiprocessing.active_children()})
        )
        try:
            results = sup.map(square, units, jobs=4)
        finally:
            eventbus.disable()
        assert results == clean
        assert sup.stats.ok == 8
        assert sup.stats.retried >= 1  # the chaos spec guarantees firings
        assert set(sup.stats.fault_counts) <= {"worker_crash", "hang"}
        assert max(map(len, alive)) <= 4 < len(set().union(*alive))

    def test_serial_chaos_campaign_is_bit_identical(self):
        units = [(x,) for x in range(8)]
        faults.configure("seed=3,worker_crash=0.7,hang=0.3,hang_s=30")
        sup = Supervisor(
            policy=RetryPolicy(max_attempts=3, seed=0),
            cell_timeout_s=1.0,
            sleep=no_sleep,
        )
        assert sup.map(square, units, jobs=1) == [x * x for x in range(8)]
        assert sup.stats.retried >= 1

    def test_crash_dossiers_are_written(self, tmp_path):
        faults.configure("seed=1,worker_crash=1.0")
        sup = Supervisor(
            store=resume_store(tmp_path),
            policy=RetryPolicy(max_attempts=2, seed=0),
            sleep=no_sleep,
        )
        assert sup.map(square, [(5,)]) == [25]
        dossiers = list(tmp_path.glob("crash-*.json"))
        assert len(dossiers) == 1
        payload = json.loads(dossiers[0].read_text())["record"]
        assert payload["fault"]["kind"] == "worker_crash"
        assert payload["attempt"] == 1


class TestMapUnitsIntegration:
    def test_map_units_routes_through_active_supervisor(self):
        with supervised(sleep=no_sleep) as sup:
            assert parallel.map_units(square, [(2,), (3,)]) == [4, 9]
        assert sup.stats.ok == 2

    def test_map_units_unsupervised_path_unchanged(self):
        assert parallel.current() is None
        assert parallel.map_units(square, [(2,), (3,)]) == [4, 9]

    def test_summary_line_format(self):
        sup = Supervisor(sleep=no_sleep)
        sup.map(square, [(1,), (2,)])
        line = sup.stats.summary_line()
        assert line == "supervisor: 2 cells ok, 0 retried, 0 quarantined"
