"""Fleet campaigns: leases, work stealing, and the serial/fleet/chaos
byte-identity matrix."""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import faults, fleet, parallel
from repro.harness.fleet import FleetDrained, FleetWorker
from repro.harness.supervisor import CampaignStats, RetryPolicy, Supervisor, cell_key
from repro.obs import eventbus


@pytest.fixture(autouse=True)
def clean_slate():
    faults.disable()
    parallel.deactivate()
    yield
    faults.disable()
    parallel.deactivate()
    eventbus.disable()


def fast_policy(max_attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.0, jitter=0.0)


def make_worker(tmp_path, worker_id="w-test", role="worker", **kwargs):
    kwargs.setdefault("policy", fast_policy())
    kwargs.setdefault("poll_s", 0.02)
    return FleetWorker(tmp_path / "fleet", worker_id=worker_id, role=role, **kwargs)


def square(x):
    return x * x


_FLAKY_CALLS = {"n": 0}


def flaky_square(x):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise OSError("transient wobble")
    return x * x


def always_deterministic_failure(x):
    raise ValueError("same inputs, same crash")


def always_transient_failure(x):
    raise OSError("the disk is never there")


_TWO_FAULTS = {"n": 0}


def transient_then_deterministic(x):
    _TWO_FAULTS["n"] += 1
    if _TWO_FAULTS["n"] == 1:
        raise OSError("transient wobble")
    raise ValueError("same inputs, same crash")


KEY = "f" * 32


class TestLeaseProtocol:
    def test_acquire_is_exclusive(self, tmp_path):
        a = make_worker(tmp_path, "a")
        b = make_worker(tmp_path, "b")
        assert a._try_acquire(KEY, attempt=1)
        assert not b._try_acquire(KEY, attempt=1)
        lease = b._read_lease(KEY)
        assert lease["worker"] == "a"
        assert lease["attempt"] == 1

    def test_release_requires_ownership(self, tmp_path):
        a = make_worker(tmp_path, "a")
        b = make_worker(tmp_path, "b")
        a._try_acquire(KEY, attempt=1)
        assert not b._release_lease(KEY)
        assert a._read_lease(KEY) is not None
        assert a._release_lease(KEY)
        assert a._read_lease(KEY) is None
        # Double release is a no-op, not a second ledger event.
        assert not a._release_lease(KEY)

    def test_steal_requires_expiry_and_has_one_winner(self, tmp_path):
        victim = make_worker(tmp_path, "victim", lease_ttl_s=0.15)
        thief = make_worker(tmp_path, "thief", lease_ttl_s=0.15)
        victim._try_acquire(KEY, attempt=1)
        fresh = thief._read_lease(KEY)
        assert fresh["deadline_unix"] > time.time()  # not stealable yet
        time.sleep(0.25)
        stale = thief._read_lease(KEY)
        assert stale["deadline_unix"] < time.time()
        assert thief._try_steal(KEY, stale) == 2  # victim attempt + 1
        # The rename-to-tombstone is the mutex: the second steal loses.
        assert thief._try_steal(KEY, stale) is None
        tombstones = list((tmp_path / "fleet" / "expired").iterdir())
        assert len(tombstones) == 1
        assert thief._read_lease(KEY)["worker"] == "thief"

    def test_zombie_owner_cannot_resurrect_a_stolen_lease(self, tmp_path):
        victim = make_worker(tmp_path, "victim", lease_ttl_s=0.1)
        thief = make_worker(tmp_path, "thief", lease_ttl_s=0.1)
        victim._try_acquire(KEY, attempt=1)
        time.sleep(0.2)
        assert thief._try_steal(KEY, thief._read_lease(KEY)) == 2
        # The presumed-dead owner wakes up: renewal and release both
        # refuse (the steal's termination already balanced its lease).
        assert not victim._renew_lease(KEY)
        assert not victim._release_lease(KEY)
        assert thief._read_lease(KEY)["worker"] == "thief"

    def test_heartbeat_rearms_the_deadline(self, tmp_path):
        worker = make_worker(tmp_path, "hb", lease_ttl_s=0.3)
        worker._try_acquire(KEY, attempt=1)
        first = worker._read_lease(KEY)["deadline_unix"]
        beat = fleet._Heartbeat(worker, KEY)
        beat.start()
        time.sleep(0.45)  # several beat intervals (ttl/3) past the ttl
        beat.stop()
        beat.join(timeout=2.0)
        lease = worker._read_lease(KEY)
        assert lease["deadline_unix"] > first
        assert lease["deadline_unix"] > time.time() - 0.1
        assert beat.beats >= 1


class TestMapCells:
    def test_results_in_submission_order(self, tmp_path):
        worker = make_worker(tmp_path, "solo")
        units = [(x,) for x in range(7)]
        assert worker.map_cells(square, units) == [x * x for x in range(7)]
        assert worker.stats.executed == 7
        assert worker.stats.fetched == 0
        # Leases all released, results all published.
        assert not list((tmp_path / "fleet" / "leases").iterdir())
        assert len(list(worker.store.keys())) == 7

    def test_second_worker_fetches_instead_of_re_executing(self, tmp_path):
        units = [(x,) for x in range(5)]
        make_worker(tmp_path, "first").map_cells(square, units)
        second = make_worker(tmp_path, "second")
        assert second.map_cells(square, units) == [x * x for x in range(5)]
        assert second.stats.executed == 0
        assert second.stats.fetched == 5

    def test_store_records_every_execution_once(self, tmp_path):
        worker = make_worker(tmp_path, "published")
        worker.map_cells(square, [(x,) for x in range(4)])
        assert worker.store.stats.publishes == 4
        assert set(worker.store.keys()) == {cell_key(square, (x,)) for x in range(4)}
        records = [worker.store.fetch(key) for key in worker.store.keys()]
        assert all(r.ok and r.worker == "published" for r in records)

    def test_transient_failure_retries_to_success(self, tmp_path):
        _FLAKY_CALLS["n"] = 0
        worker = make_worker(tmp_path, "retrier")
        assert worker.map_cells(flaky_square, [(6,)]) == [36]
        assert worker.stats.retried == 1
        record = worker.store.fetch(cell_key(flaky_square, (6,)))
        assert record.ok and record.attempts == 2

    def test_deterministic_failure_quarantines_with_tombstone(self, tmp_path):
        worker = make_worker(tmp_path, "quarantiner")
        assert worker.map_cells(always_deterministic_failure, [(1,)]) == [None]
        assert worker.stats.quarantined == 1
        record = worker.store.fetch(cell_key(always_deterministic_failure, (1,)))
        assert record.status == "quarantined"
        assert record.result is None

    def test_attempt_budget_exhaustion_fails_the_cell(self, tmp_path):
        worker = make_worker(tmp_path, "exhausted", policy=fast_policy(max_attempts=2))
        assert worker.map_cells(always_transient_failure, [(1,)]) == [None]
        assert worker.stats.failed == 1
        record = worker.store.fetch(cell_key(always_transient_failure, (1,)))
        assert record.status == "failed"
        assert record.attempts == 2

    def test_waiter_sees_anothers_tombstone_instead_of_spinning(self, tmp_path):
        make_worker(tmp_path, "first").map_cells(always_deterministic_failure, [(1,)])
        second = make_worker(tmp_path, "second")
        assert second.map_cells(always_deterministic_failure, [(1,)]) == [None]
        assert second.stats.executed == 0

    def test_drain_request_raises_and_releases(self, tmp_path):
        worker = make_worker(tmp_path, "drainer")
        worker.request_shutdown()
        with pytest.raises(FleetDrained):
            worker.map_cells(square, [(x,) for x in range(3)])
        assert not list((tmp_path / "fleet" / "leases").iterdir())

    def test_chaos_crash_in_coordinator_is_retried_in_process(self, tmp_path):
        faults.configure("seed=1,worker_crash=1.0,attempts=1")
        worker = make_worker(tmp_path, "coord", role="coordinator")
        assert worker.map_cells(square, [(x,) for x in range(3)]) == [0, 1, 4]
        assert worker.stats.retried == 3  # every cell crashed once, then ran clean
        assert worker.stats.fault_counts.get("worker_crash") == 3

    def test_map_units_routes_through_an_active_fleet(self, tmp_path):
        worker = make_worker(tmp_path, "routed")
        parallel.activate(worker)
        try:
            assert parallel.current() is worker
            assert parallel.map_units(square, [(3,)], jobs=4) == [9]
        finally:
            parallel.deactivate()
        assert worker.stats.executed == 1

    def test_steal_resumes_a_dead_workers_cell(self, tmp_path):
        dead = make_worker(tmp_path, "dead", lease_ttl_s=0.15)
        key = cell_key(square, (5,))
        dead._try_acquire(key, attempt=1)  # ... and then the host dies
        live = make_worker(tmp_path, "live", lease_ttl_s=0.15,
                           drain_timeout_s=10.0)
        assert live.map_cells(square, [(5,)]) == [25]
        assert live.stats.stolen == 1
        assert live.store.fetch(key).attempts == 2


class TestSharedFaultBoundary:
    """The supervisor and a fleet executor share one verdict function
    and one fault-accounting routine."""

    @staticmethod
    def _run(execute):
        _TWO_FAULTS["n"] = 0
        events = []
        eventbus.configure(None).add_listener(events.append)
        try:
            results = execute()
        finally:
            eventbus.disable()
        kept = [
            {k: v for k, v in e.items() if k not in ("seq", "t", "wall_s")}
            for e in events if e["type"] in ("fault", "cell_retry", "cell_end")
        ]
        return results, kept

    def test_supervisor_and_fleet_account_a_cell_identically(self, tmp_path):
        units = [(1,)]
        sup = Supervisor(policy=fast_policy(), sleep=lambda _s: None)
        sup_results, sup_events = self._run(
            lambda: sup.map(transient_then_deterministic, units)
        )
        worker = make_worker(tmp_path, "fleet")
        fleet_results, fleet_events = self._run(
            lambda: worker.map_cells(transient_then_deterministic, units)
        )
        assert sup_results == fleet_results == [None]

        def counts(stats):
            return {f.name: getattr(stats, f.name)
                    for f in dataclasses.fields(CampaignStats)}

        assert counts(sup.stats) == counts(worker.stats)
        assert counts(sup.stats)["quarantined"] == 1
        assert sup.stats.fault_counts == {"deterministic": 1, "transient_io": 1}
        assert sup_events == fleet_events
        assert [e["type"] for e in sup_events] == ["fault", "cell_retry", "fault", "cell_end"]
        assert sup_events[-1]["status"] == "quarantined"
        assert sup_events[-1]["attempt"] == 2

    def test_fleet_faults_leave_crash_dossiers_next_to_the_store(self, tmp_path):
        worker = make_worker(tmp_path, "dossiers")
        worker.map_cells(always_deterministic_failure, [(1,)])
        dossiers = list(worker.store.directory.glob("crash-*.json"))
        assert len(dossiers) == 1
        payload = json.loads(dossiers[0].read_text())["record"]
        assert payload["fault"]["kind"] == "deterministic"
        assert list(worker.store.keys()) == [cell_key(always_deterministic_failure, (1,))]


class TestLeaseLedger:
    def _ledger(self, directory):
        view_events = []
        for stream in eventbus.load_streams(directory):
            view_events.extend(stream.events)
        counts = {}
        for event in view_events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        return counts

    def test_clean_run_balances(self, tmp_path):
        eventbus.configure(tmp_path / "fleet")
        worker = make_worker(tmp_path, "ledgered")
        worker.map_cells(square, [(x,) for x in range(4)])
        eventbus.flush()
        counts = self._ledger(tmp_path / "fleet")
        assert counts.get("lease_acquire", 0) == 4
        assert counts.get("lease_release", 0) == 4
        assert "lease_expire" not in counts
        assert "lease_steal" not in counts

    def test_steal_emits_expire_and_steal_exactly_once(self, tmp_path):
        eventbus.configure(tmp_path / "fleet")
        dead = make_worker(tmp_path, "dead", lease_ttl_s=0.15)
        dead._try_acquire(cell_key(square, (9,)), attempt=1)
        live = make_worker(tmp_path, "live", lease_ttl_s=0.15)
        live.map_cells(square, [(9,)])
        eventbus.flush()
        counts = self._ledger(tmp_path / "fleet")
        # Conservation: acquire + steal == release + expire.
        assert counts["lease_acquire"] == 1  # the dead worker's claim
        assert counts["lease_steal"] == 1
        assert counts["lease_expire"] == 1
        assert counts["lease_release"] == 1  # the thief's finalize

    def test_sweep_reclaims_publish_then_die_leases(self, tmp_path):
        eventbus.configure(tmp_path / "fleet")
        worker = make_worker(tmp_path, "died-after-publish", role="coordinator")
        key = cell_key(square, (2,))
        worker._try_acquire(key, attempt=1)
        worker.store.publish(key, "ok", 4)
        worker._held.clear()  # simulate the owner dying before release
        assert worker.sweep_stale_leases() == 1
        eventbus.flush()
        counts = self._ledger(tmp_path / "fleet")
        assert counts["lease_acquire"] == 1
        assert counts["lease_release"] == 1
        # An unfinished cell's lease (no published record) is never swept.
        worker._try_acquire("9" * 32, attempt=1)
        worker._held.clear()
        assert worker.sweep_stale_leases() == 0


class TestCampaignManifest:
    def test_mixed_campaigns_are_refused(self, tmp_path):
        target = tmp_path / "campaign.json"
        fleet._write_manifest(target, ["fuzz", "--seed-range", "0:4"], 1.0, 0.1, 3, 60.0)
        reloaded = fleet._write_manifest(
            target, ["fuzz", "--seed-range", "0:4"], 9.0, 0.9, 5, 90.0
        )
        assert reloaded["lease_ttl_s"] == 1.0  # the original manifest stands
        with pytest.raises(SystemExit) as raised:
            fleet._write_manifest(target, ["fuzz", "--seed-range", "0:8"], 1.0, 0.1, 3, 60.0)
        assert raised.value.code == 2

    def test_nested_fleet_commands_are_refused(self, tmp_path):
        with pytest.raises(SystemExit):
            fleet._dispatch_inner(
                ["campaign", "status", "somewhere"], tmp_path / "cache"
            )


def _run(argv, cwd, env_extra=None, check=True, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[2] / "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    env.pop("WAFFLE_CHAOS", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            "command %r failed rc=%d\nstdout:\n%s\nstderr:\n%s"
            % (argv, proc.returncode, proc.stdout, proc.stderr)
        )
    return proc


INNER = ["fuzz", "--seed-range", "0:6", "--budget", "4", "--no-replay",
         "--out", "out.txt", "--cache-dir", "cache"]


@pytest.mark.tier2
class TestFleetMatrix:
    """The acceptance anchor: the same campaign serial, 2-worker, and
    chaos-killed-mid-lease produces byte-identical artifacts.

    Every run uses its own working directory with identical *relative*
    paths, so content-addressed cell keys (which hash the argument
    strings) agree across runs.
    """

    def test_serial_fleet_and_chaos_runs_are_byte_identical(self, tmp_path):
        # 1. Serial: the coordinator is the only executor.
        serial = tmp_path / "serial"
        serial.mkdir()
        _run(["campaign", "run", "--fleet-dir", "fleet", "--workers", "0",
              "--"] + INNER, cwd=serial)

        # 2. Two spawned workers plus the coordinator.
        two = tmp_path / "two"
        two.mkdir()
        _run(["campaign", "run", "--fleet-dir", "fleet", "--workers", "2",
              "--min-workers", "2", "--"] + INNER, cwd=two)

        # 3. Chaos: a doomed worker claims a lease and is killed by
        # chaos mid-cell (os._exit, the real thing); the coordinator
        # must steal the expired lease and finish.
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        fleet_dir = chaos / "fleet"
        paths = fleet._fleet_paths(fleet_dir)
        paths["root"].mkdir(parents=True)
        fleet._write_manifest(paths["manifest"], INNER, 1.0, 0.1, 3, 120.0)
        doomed = _run(
            ["campaign", "worker", "--fleet-dir", "fleet", "--wait", "10",
             "--worker-id", "doomed"],
            cwd=chaos,
            env_extra={"WAFFLE_CHAOS": "seed=1,worker_crash=1.0"},
            check=False,
        )
        assert doomed.returncode == faults.CHAOS_CRASH_EXIT
        stale = list(paths["leases"].glob("lease-*.json"))
        assert len(stale) == 1, "the doomed worker should die holding its lease"
        _run(["campaign", "run", "--fleet-dir", "fleet", "--workers", "0",
              "--"] + INNER, cwd=chaos)

        # -- Byte identity: user tables and the canonical merged journal.
        outs = [(d / "out.txt").read_bytes() for d in (serial, two, chaos)]
        assert outs[0] == outs[1] == outs[2]
        journals = [
            (d / "fleet" / fleet.MERGED_JOURNAL_NAME).read_bytes()
            for d in (serial, two, chaos)
        ]
        assert journals[0] == journals[1] == journals[2]
        assert len(journals[0].splitlines()) == 6

        # -- Byte identity: merged event *analytics* (the deterministic
        # work-product plane; raw timelines legitimately differ).
        from repro.obs import campaign as campaign_mod

        texts = []
        for d in (serial, two, chaos):
            view, _ = campaign_mod.load_view(d / "fleet")
            assert not view.warnings, view.warnings
            texts.append(campaign_mod.render_analytics(view, source="matrix"))
        assert texts[0] == texts[1] == texts[2]

        # -- The chaos run really exercised reclamation.
        chaos_view, _ = campaign_mod.load_view(chaos / "fleet")
        assert chaos_view.lease_stolen == 1
        assert chaos_view.lease_expired == 1
        assert (
            chaos_view.lease_acquired + chaos_view.lease_stolen
            == chaos_view.lease_released + chaos_view.lease_expired
        )
        assert not list((chaos / "fleet" / "leases").iterdir())
        assert len(list((chaos / "fleet" / "expired").iterdir())) == 1

        # -- No cell executed twice: every executor's ``cell_end``
        # events are the execution ledger, and each cell appears
        # exactly once across the whole fleet (the chaos kill happened
        # *before* the doomed worker finalized anything).
        for d in (serial, two, chaos):
            executed = [
                event["cell"]
                for stream in eventbus.load_streams(d / "fleet")
                for event in stream.events if event["type"] == "cell_end"
            ]
            assert len(executed) == len(set(executed)) == 6, d

        # -- The ledger reconciliation gate passes on every run.
        script = Path(__file__).resolve().parents[2] / "scripts" / "check_obs.py"
        for d in (serial, two, chaos):
            proc = subprocess.run(
                [sys.executable, str(script), "--events-only", str(d / "fleet")],
                capture_output=True, text=True,
                env={**os.environ,
                     "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sigterm_drains_a_worker(self, tmp_path):
        """A worker told to stop releases its leases and exits with the
        drain code instead of finishing the campaign."""
        fleet_dir = tmp_path / "fleet"
        paths = fleet._fleet_paths(fleet_dir)
        paths["root"].mkdir(parents=True)
        # Plenty of cells so the worker is still busy when signalled.
        inner = ["fuzz", "--seed-range", "0:40", "--budget", "6",
                 "--no-replay", "--out", "out.txt", "--cache-dir", "cache"]
        fleet._write_manifest(paths["manifest"], inner, 30.0, 0.1, 3, 120.0)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[2] / "src"),
                        env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "worker",
             "--fleet-dir", "fleet", "--wait", "10", "--worker-id", "drainee"],
            cwd=str(tmp_path), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        # Wait for real progress (first published cell), then SIGTERM.
        store_dir = paths["store"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if store_dir.exists() and any(store_dir.glob("cell-*.res")):
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == fleet.DRAIN_EXIT, out.decode()
        assert not list(paths["leases"].glob("lease-*.json"))
        published = len(list(store_dir.glob("cell-*.res")))
        assert 0 < published < 40, "drained mid-campaign, not at either edge"
