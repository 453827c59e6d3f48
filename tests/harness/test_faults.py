"""Fault taxonomy and the deterministic chaos harness."""

import pytest

from repro.harness import faults
from repro.obs import telemetry


@pytest.fixture(autouse=True)
def chaos_off():
    faults.disable()
    yield
    faults.disable()


class TestTaxonomy:
    def test_telemetry_mirror_matches(self):
        # telemetry.py cannot import the harness at module scope, so it
        # carries a copy of the taxonomy; the copies must never drift.
        assert telemetry.FAULT_KINDS == faults.FAULT_KINDS

    def test_harness_faults_carry_their_own_verdict(self):
        for exc, kind, retryable in (
            (faults.WorkerCrashFault("x"), faults.WORKER_CRASH, True),
            (faults.CellHangFault("x"), faults.HANG, True),
            (faults.TransientIOFault("x"), faults.TRANSIENT_IO, True),
            (faults.CorruptRecordFault("x"), faults.CORRUPT_RECORD, True),
        ):
            assert faults.classify(exc) == (kind, retryable)

    def test_os_errors_are_transient(self):
        assert faults.classify(OSError("disk sneeze")) == (faults.TRANSIENT_IO, True)
        assert faults.classify(EOFError()) == (faults.TRANSIENT_IO, True)

    def test_application_errors_are_deterministic(self):
        for exc in (AssertionError("x"), ValueError("x"), TypeError("x"), KeyError("x")):
            kind, retryable = faults.classify(exc)
            assert kind == faults.DETERMINISTIC
            assert not retryable

    def test_describe_is_json_safe(self):
        import json

        record = faults.describe(faults.WorkerCrashFault("boom", exitcode=9))
        json.dumps(record)
        assert record["kind"] == "worker_crash"
        assert record["retryable"] is True
        assert record["error"] == "WorkerCrashFault"

    def test_hang_error_names_threads_and_sites(self):
        err = faults.HangError(
            [{"name": "sender", "tid": 2, "site": "rt.send:10"},
             {"name": "closer", "tid": 3, "site": None}],
            timeout_s=1.5,
        )
        message = str(err)
        assert "sender" in message and "rt.send:10" in message
        assert "closer" in message and "no instrumented op" in message
        assert err.timeout_s == 1.5
        assert faults.classify(err) == (faults.HANG, True)


class TestChaosSpec:
    def test_parse_full_spec(self):
        config = faults.parse_chaos(
            "seed=7, worker_crash=0.5, hang=0.25, hang_s=2.0, cache_corrupt=1.0, attempts=2"
        )
        assert config.seed == 7
        assert config.max_attempt == 2
        assert config.hang_s == 2.0
        assert config.rates == {"worker_crash": 0.5, "hang": 0.25, "cache_corrupt": 1.0}

    def test_bad_tokens_raise(self):
        with pytest.raises(ValueError):
            faults.parse_chaos("worker_crash")
        with pytest.raises(ValueError):
            faults.parse_chaos("nonsense_site=0.5")
        with pytest.raises(ValueError):
            faults.parse_chaos("hang=1.5")

    def test_env_configures_on_import_path(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV, "seed=3,hang=0.5")
        assert faults._configure_from_env() is None
        assert faults.active()
        assert faults.chaos().rates["hang"] == 0.5

    def test_a_malformed_env_spec_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV, "worker_crash")
        error = faults._configure_from_env()
        assert "WAFFLE_CHAOS='worker_crash'" in error
        assert "not key=value" in error
        assert not faults.active()

    def test_truncate_is_not_a_chaos_site(self):
        with pytest.raises(ValueError, match="unknown chaos key 'truncate'"):
            faults.parse_chaos("truncate=1.0")


class TestDeterministicFiring:
    def test_pure_function_of_seed_site_key_attempt(self):
        faults.configure("seed=11,worker_crash=0.5")
        first = [faults.should_fire("worker_crash", "cell-%d" % i) for i in range(64)]
        faults.configure("seed=11,worker_crash=0.5")
        second = [faults.should_fire("worker_crash", "cell-%d" % i) for i in range(64)]
        assert first == second
        assert any(first) and not all(first)  # rate 0.5 actually discriminates

    def test_seed_changes_the_draw(self):
        faults.configure("seed=11,worker_crash=0.5")
        a = [faults.should_fire("worker_crash", "cell-%d" % i) for i in range(64)]
        faults.configure("seed=12,worker_crash=0.5")
        b = [faults.should_fire("worker_crash", "cell-%d" % i) for i in range(64)]
        assert a != b

    def test_retries_fire_only_up_to_max_attempt(self):
        faults.configure("seed=1,worker_crash=1.0,attempts=1")
        assert faults.should_fire("worker_crash", "k", attempt=1)
        assert not faults.should_fire("worker_crash", "k2", attempt=2)

    def test_site_key_fires_at_most_once_per_process(self):
        faults.configure("seed=1,cache_corrupt=1.0")
        assert faults.should_fire("cache_corrupt", "record.json")
        assert not faults.should_fire("cache_corrupt", "record.json")

    def test_off_means_never(self):
        assert not faults.should_fire("worker_crash", "k")


class TestActuators:
    def test_serial_prelude_raises_instead_of_exiting(self):
        faults.configure("seed=1,worker_crash=1.0")
        with pytest.raises(faults.WorkerCrashFault):
            faults.cell_prelude("some-cell", attempt=1, in_child=False)

    def test_corrupt_file_flips_one_deterministic_byte(self, tmp_path):
        target = tmp_path / "record.json"
        target.write_bytes(b"A" * 100)
        faults.configure("seed=5,cache_corrupt=1.0")
        assert faults.corrupt_file(target, "record.json")
        mutated = target.read_bytes()
        diffs = [i for i in range(100) if mutated[i] != ord("A")]
        assert len(diffs) == 1
        position = diffs[0]

        target.write_bytes(b"A" * 100)
        faults.corrupt_file(target, "record.json")
        assert [i for i in range(100) if target.read_bytes()[i] != ord("A")] == [position]
