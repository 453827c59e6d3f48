"""Property-based verification of the detector against planted oracles.

Every property runs the *real* Waffle detector over procedurally
generated workloads whose ground truth is analytic:

* recall -- every planted detectable bug is found within budget;
* soundness -- nothing outside the planted set is ever reported;
* identity -- the fuzz row is bit-identical across repeated
  evaluation (pure function of the seed).

Hypothesis drives the seed space (reproducible: ``derandomize`` keeps
CI deterministic); a fixed-seed sweep pins a broader band cheaply.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import WaffleConfig
from repro.gen.oracle import evaluate_spec, expected_fault_sites
from repro.gen.spec import generate_spec

#: One detector config per workload seed, mirroring the fuzz driver's
#: derived-seed convention.
def _config(seed: int) -> WaffleConfig:
    return WaffleConfig(seed=seed)


_PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,  # CI must not explore a different corpus per run
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=st.integers(min_value=0, max_value=10_000))
@_PROPERTY_SETTINGS
def test_recall_and_soundness_hold(seed):
    result = evaluate_spec(generate_spec(seed), _config(seed))
    assert result.violations == []
    assert result.recall == 1.0


@given(seed=st.integers(min_value=0, max_value=10_000))
@_PROPERTY_SETTINGS
def test_found_sites_are_planted_sites(seed):
    spec = generate_spec(seed)
    result = evaluate_spec(spec, _config(seed))
    legal = expected_fault_sites(spec)
    for verdict in result.found.values():
        assert verdict["fault_site"] in legal


@given(seed=st.integers(min_value=0, max_value=2_000))
@_PROPERTY_SETTINGS
def test_evaluation_is_a_pure_function_of_the_seed(seed):
    spec = generate_spec(seed)
    first = json.dumps(evaluate_spec(spec, _config(seed)).to_row(), sort_keys=True)
    second = json.dumps(evaluate_spec(spec, _config(seed)).to_row(), sort_keys=True)
    assert first == second


class TestFixedSeedSweep:
    """A deterministic band on top of the hypothesis corpus."""

    SEEDS = range(0, 24)

    def test_zero_violations_across_band(self):
        for seed in self.SEEDS:
            result = evaluate_spec(generate_spec(seed), _config(seed))
            assert result.ok, "seed %d: %s" % (seed, result.violations)

    def test_sessions_bounded_by_detectable_count(self):
        for seed in self.SEEDS:
            spec = generate_spec(seed)
            result = evaluate_spec(spec, _config(seed))
            assert result.sessions <= len(spec.detectable_bugs) + 1

    def test_replay_reproduces_every_detection(self):
        # Replay is the expensive leg; a narrower band keeps it cheap.
        for seed in range(0, 8):
            result = evaluate_spec(
                generate_spec(seed), _config(seed), check_replay=True
            )
            assert result.ok, "seed %d: %s" % (seed, result.violations)
            for bug_id, reproduced in result.replays.items():
                assert reproduced, "seed %d: %s dossier did not replay" % (seed, bug_id)

    def test_undetectable_bugs_never_found(self):
        hit = 0
        for seed in self.SEEDS:
            spec = generate_spec(seed)
            undetectable = {b.bug_id for b in spec.bugs if not b.detectable}
            if not undetectable:
                continue
            hit += 1
            result = evaluate_spec(spec, _config(seed))
            assert not (undetectable & set(result.found))
        assert hit > 0  # the band must actually exercise the control arm


class TestRecorderFreeReplay:
    """The replay check asks the detector for dossiers directly; it runs
    without a flight recorder, which only adds dossier provenance."""

    SEEDS = range(0, 10)

    def test_replay_check_never_installs_the_recorder(self, monkeypatch):
        from repro.core.detector import Waffle
        from repro.obs import dossier as dossier_mod
        from repro.obs import flightrec

        seen = []
        simulate, assemble = Waffle._simulate, dossier_mod.assemble_dossier

        def spy_simulate(self, *args, **kwargs):
            seen.append(flightrec.active())
            return simulate(self, *args, **kwargs)

        def spy_assemble(*args, **kwargs):
            seen.append(flightrec.active())
            return assemble(*args, **kwargs)

        monkeypatch.setattr(Waffle, "_simulate", spy_simulate)
        monkeypatch.setattr(dossier_mod, "assemble_dossier", spy_assemble)
        assert not flightrec.active()
        result = evaluate_spec(generate_spec(0), _config(0), check_replay=True)
        assert not flightrec.active()
        assert result.replays and all(result.replays.values())
        assert seen and not any(seen)

    def test_rows_equal_the_rows_under_a_recorder(self):
        from repro.obs import flightrec

        for seed in self.SEEDS:
            spec = generate_spec(seed)
            bare = evaluate_spec(spec, _config(seed), check_replay=True).to_row()
            flightrec.install()
            try:
                recorded = evaluate_spec(spec, _config(seed), check_replay=True).to_row()
            finally:
                flightrec.uninstall()
            assert bare == recorded, "seed %d" % seed


class TestReplayVerdict:
    """The replay check reads each dossier's ``verified`` bit, which its
    assembly set by replay, and replays nothing itself."""

    def test_verified_dossiers_are_not_replayed_again(self, monkeypatch):
        from repro.obs import dossier as dossier_mod

        calls = []
        replay = dossier_mod.replay_dossier
        monkeypatch.setattr(
            dossier_mod, "replay_dossier", lambda *args: calls.append(args) or replay(*args)
        )
        result = evaluate_spec(generate_spec(0), _config(0), check_replay=True)
        assert result.replays and all(result.replays.values())
        assert calls == []

    def test_an_unverified_dossier_is_not_replayed_again(self, monkeypatch):
        from repro.obs import dossier as dossier_mod

        calls = []
        missed = dossier_mod.ReplayOutcome(
            crashed=False, error_type=None, fault_site=None, fault_time_ms=0.0,
            virtual_time_ms=0.0, timed_out=False, delays_injected=0,
        )
        monkeypatch.setattr(dossier_mod, "replay_schedule", lambda *args, **kwargs: missed)
        monkeypatch.setattr(
            dossier_mod, "replay_dossier",
            lambda dossier, build: calls.append(dossier) or (None, True),
        )
        result = evaluate_spec(generate_spec(0), _config(0), check_replay=True)
        assert calls == []
        assert result.replays and not any(result.replays.values())
        violations = [v for v in result.violations if v.startswith("replay: dossier for")]
        assert len(violations) == len(result.replays)

    def test_an_unkept_dossier_whose_one_replay_misses_is_a_violation(
        self, monkeypatch
    ):
        """A schedule that missed once would miss again: each dossier
        costs its assembly's one replay, and the oracle adds none."""
        from repro.obs import dossier as dossier_mod

        calls = []

        def replay(build, schedule, delays=None, timeline=None):
            calls.append(schedule)
            return dossier_mod.ReplayOutcome(
                crashed=False, error_type=None, fault_site=None, fault_time_ms=0.0,
                virtual_time_ms=0.0, timed_out=False, delays_injected=0,
            )

        built = []
        assemble = dossier_mod.assemble_dossier
        monkeypatch.setattr(dossier_mod, "replay_schedule", replay)
        monkeypatch.setattr(
            dossier_mod, "assemble_dossier",
            lambda **kwargs: built.append(assemble(**kwargs)) or built[-1],
        )
        result = evaluate_spec(generate_spec(0), _config(0), check_replay=True)
        assert built and all(
            not d.verified and d.replays_used == 1 and not d.minimized for d in built
        )
        assert len(calls) == len(built)
        assert result.replays and not any(result.replays.values())
        assert sorted(result.violations) == sorted(
            "replay: dossier for %s did not reproduce" % bug_id for bug_id in result.replays
        )
