"""Explainable injection decisions: every skip carries exactly one reason.

These tests pin the skip-reason taxonomy (``decay`` | ``interference`` |
``budget``) at the engine level and the reconciliation invariant: the
per-decision events a session records must match the engine's internal
counters exactly.
"""

import json
import random

import pytest

from repro import obs
from repro.core.candidates import CandidateKind, CandidatePair, CandidateSet
from repro.core.config import WaffleConfig
from repro.core.delay_policy import DecayState, FixedDelayPolicy
from repro.core.interference import InterferenceIndex
from repro.core.runtime import InjectionEngine
from repro.sim.instrument import AccessType, Location, PendingAccess


@pytest.fixture
def session(tmp_path):
    session = obs.configure(tmp_path / "obs")
    yield session
    obs.disable()


def make_pair(delay="l1", other="l2"):
    return CandidatePair(
        kind=CandidateKind.USE_AFTER_FREE,
        delay_location=Location(delay),
        other_location=Location(other),
    )


def pending(site="l1", tid=1, ts=0.0):
    return PendingAccess(
        location=Location(site),
        access_type=AccessType.USE,
        object_id=1,
        thread_id=tid,
        timestamp=ts,
    )


def make_engine(config=None, pairs=(), interference=None, decay=None, rng=None):
    config = config or WaffleConfig()
    candidates = CandidateSet()
    for pair in pairs:
        candidates.add(pair)
    return InjectionEngine(
        config=config,
        candidates=candidates,
        decay=decay or DecayState(config.decay_lambda),
        delay_policy=FixedDelayPolicy(config.fixed_delay_ms),
        interference=interference,
        rng=rng or random.Random(0),
    )


def decisions(session):
    return [e for e in session.stream.pending if e.get("type") == "inject"]


def skip_events(session):
    return [e for e in decisions(session) if e["action"] == "skip"]


class TestInterferenceSuppression:
    def test_emits_exactly_one_interference_skip_and_no_decay_skip(self, session):
        # Fresh decay state: p("A") == 1.0, so the probability draw
        # always passes and the only thing standing between the site
        # and an injection is the interference guard.
        index = InterferenceIndex([frozenset({"A", "B"})])
        engine = make_engine(pairs=[make_pair(delay="A")], interference=index)
        engine.ledger.register("B", thread_id=2, start=0.0, duration=100.0)

        assert engine.decide(pending(site="A", ts=10.0)) == 0.0

        skips = skip_events(session)
        assert [e["reason"] for e in skips] == ["interference"]
        assert not any(e["reason"] == "decay" for e in skips)
        assert engine.skipped_interference == 1
        assert engine.skipped_decay == 0
        assert engine.skipped_budget == 0
        # The suppressing site is named, making the decision explainable.
        assert skips[0]["detail"] == "B"
        assert len(decisions(session)) == engine.considered == 1

    def test_no_event_without_session(self):
        # Engines constructed with telemetry disabled still count.
        index = InterferenceIndex([frozenset({"A", "B"})])
        engine = make_engine(pairs=[make_pair(delay="A")], interference=index)
        engine.ledger.register("B", thread_id=2, start=0.0, duration=100.0)
        engine.decide(pending(site="A", ts=10.0))
        assert engine.skipped_interference == 1


class TestReasonTaxonomy:
    def test_decay_skip(self, session):
        class HighRng:
            @staticmethod
            def random():
                return 0.999

        config = WaffleConfig()
        decay = DecayState(config.decay_lambda)
        decay.register("l1")
        decay.decay("l1")  # p drops below the forced draw
        engine = make_engine(config=config, pairs=[make_pair()], decay=decay, rng=HighRng())
        assert engine.decide(pending()) == 0.0
        (event,) = skip_events(session)
        assert event["reason"] == "decay"
        assert engine.skipped_decay == 1

    def test_budget_skip_for_retired_location(self, session):
        config = WaffleConfig(decay_lambda=1.0)  # one injection retires a site
        engine = make_engine(config=config, pairs=[make_pair()])
        assert engine.decide(pending(ts=0.0)) > 0.0
        # The injection decayed p to 0 and dropped the pair; a tracker
        # rediscovering it without a reset hits the retired path.
        engine.candidates.add(make_pair())
        assert engine.decide(pending(ts=500.0)) == 0.0
        (event,) = skip_events(session)
        assert event["reason"] == "budget"
        assert event["detail"] == "retired"
        assert engine.skipped_budget == 1

    def test_budget_skip_for_zero_length(self, session):
        # A proportional policy with no learned gaps and no floor
        # produces zero-length delays (the online/no-prep ablation
        # before any gap has been observed).
        from repro.core.delay_policy import ProportionalDelayPolicy

        config = WaffleConfig()
        candidates = CandidateSet()
        candidates.add(make_pair())
        engine = InjectionEngine(
            config=config,
            candidates=candidates,
            decay=DecayState(config.decay_lambda),
            delay_policy=ProportionalDelayPolicy({}, alpha=1.0, min_delay_ms=0.0),
            interference=None,
            rng=random.Random(0),
        )
        assert engine.decide(pending()) == 0.0
        (event,) = skip_events(session)
        assert event["reason"] == "budget"
        assert event["detail"] == "zero_length"

    def test_inject_event_carries_length_and_thread(self, session):
        session.decision(7, "l1", 1.23456, length_ms=12.345678, tid=3)
        (event,) = decisions(session)
        assert event == {"type": "inject", "run": 7, "action": "inject", "site": "l1",
                         "t_ms": 1.2346, "len_ms": 12.3457, "tid": 3}
        # The engine's decide() emits through the same call.
        engine = make_engine(pairs=[make_pair()])
        length = engine.decide(pending())
        assert length > 0.0
        event = session.stream.pending[-1]
        assert event["action"] == "inject"
        assert event["len_ms"] == length
        assert event["tid"] == pending().thread_id
        assert len(decisions(session)) == 1 + engine.considered == 2
        assert engine.ledger.count == 1


class TestReconciliation:
    def test_events_match_engine_counters(self, session):
        """Drive one engine through every decision path and check the
        emitted events reconcile with its internal counts."""
        index = InterferenceIndex([frozenset({"A", "B"})])
        engine = make_engine(
            pairs=[make_pair(delay="A", other="x"), make_pair(delay="B", other="y")],
            interference=index,
        )
        engine.decide(pending(site="A", ts=0.0))  # inject
        engine.decide(pending(site="B", ts=200.0, tid=2))  # inject; delay ongoing
        for ts in (210.0, 220.0, 230.0):  # draws under p=0.9 still pass
            engine.decide(pending(site="A", ts=ts))  # interference skips

        events = decisions(session)
        injected = sum(1 for e in events if e["action"] == "inject")
        assert injected == engine.ledger.count == 2
        assert len(events) == engine.considered
        assert all(e["run"] == engine.obs_run_seq for e in events)
        # Each skip counter equals the records tagged with its reason.
        for reason in obs.SKIP_REASONS:
            tagged = sum(1 for e in skip_events(session) if e["reason"] == reason)
            assert tagged == getattr(engine, "skipped_%s" % reason)
        assert engine.skipped_interference == 3

    def test_flushed_jsonl_skips_all_carry_valid_reasons(self, session, tmp_path):
        index = InterferenceIndex([frozenset({"A", "B"})])
        engine = make_engine(pairs=[make_pair(delay="A")], interference=index)
        engine.ledger.register("B", thread_id=2, start=0.0, duration=1000.0)
        for ts in (1.0, 2.0, 3.0):
            engine.decide(pending(site="A", ts=ts))
        session.flush()
        lines = [json.loads(line) for line in session.stream.path.read_text().splitlines()]
        skips = [r for r in lines if r.get("type") == "inject" and r["action"] == "skip"]
        assert len(skips) == 3
        assert all(r["reason"] in obs.SKIP_REASONS for r in skips)
