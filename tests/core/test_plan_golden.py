"""Golden injection plans for every bundled app and topology, plus
all-pairs reference checks of the analyzer on the same traces.

The first multithreaded test of each bundled application, plus one
generated workload per topology (seeds 0-3), goes through
:func:`~repro.harness.runner.prepare_test` at seed 0 with the
process-global id counters reset. Two things are pinned per workload:
the sha256 of the canonical JSON of the injection plan
(``InjectionPlan.to_dict()``, full stats census included) and the TSV
census's ``tsv_injection_sites`` count. The values were computed while
the analyzer still had a tree-clock engine and a batched columnar
tracker path beside the per-event vector-clock path; all four
engine/mode combinations agreed on every value. Any change to near-miss
matching, parent-child pruning, delay lengths, the interference set or
the TSV tracker shows up here as a mismatch.

The reference checks re-derive each workload's plan from its recorded
trace by brute force -- every earlier event against every later one,
and a linear scan of the second thread's operations for interference
(section 4.4) -- and compare it with :func:`analyze_trace`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Dict, Tuple

import pytest

from repro.apps import all_apps, get_app
from repro.core.analyzer import InjectionPlan, analyze_trace
from repro.core.candidates import CandidateKind, CandidatePair, CandidateSet, GapObservation
from repro.core.config import WaffleConfig
from repro.core.vector_clock import ordered
from repro.harness.runner import prepare_test, run_recording
from repro.sim import instrument, refs

#: Generated-workload seeds, one per topology.
GENERATED_SEEDS = (0, 1, 2, 3)

WORKLOADS = tuple("app:%s" % name for name in sorted(all_apps())) + tuple(
    "gen:%d" % seed for seed in GENERATED_SEEDS
)


def _reset_id_counters() -> None:
    # Object ids and event ids are process-global streams; restart them
    # so a workload's plan does not depend on what ran before it.
    refs.HeapObject._oid_counter = itertools.count(1)
    instrument._event_seq = itertools.count()


def _workload_test(workload: str):
    kind, _, name = workload.partition(":")
    if kind == "gen":
        from repro.gen.builder import build_workload
        from repro.gen.spec import generate_spec

        return build_workload(generate_spec(int(name)))
    app = get_app(name)
    return (app.multithreaded_tests or app.tests)[0]


def plan_digest(plan: InjectionPlan) -> str:
    blob = json.dumps(plan.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def golden_values(workload: str) -> Tuple[str, int]:
    _reset_id_counters()
    prep = prepare_test(_workload_test(workload), WaffleConfig(seed=0), seed=0)
    return plan_digest(prep.plan), prep.tsv_injection_sites


def compute_golden() -> Dict[str, Tuple[str, int]]:
    return {workload: golden_values(workload) for workload in WORKLOADS}


#: workload -> (plan digest, tsv_injection_sites).
GOLDEN: Dict[str, Tuple[str, int]] = {
    "app:appinsights": ("cda2905ea0eb828cc90281075ad14a10", 0),
    "app:fluentassertions": ("296a53cf88bf36e33aac280b11aed9e2", 0),
    "app:kubernetesnet": ("4c920b6ab386fc44c38acf4924608415", 0),
    "app:litedb": ("e3b3718cdf48f8eac1e53606dafc546b", 0),
    "app:mqttnet": ("7515e1dba555c9ebf2b486d9a5c92758", 0),
    "app:netmq": ("6ecd6c591cd2b5e9a212e6db7dc6210c", 0),
    "app:npgsql": ("c22548e7892603295fbdab947de8f220", 0),
    "app:nsubstitute": ("481d30eaa90f23ddc7c4047b5dec6447", 0),
    "app:nswag": ("c87a8b090d6b5b7f17395aa2cb3c293b", 0),
    "app:signalr": ("8ee4c074929057c820181404f5799acb", 0),
    "app:sshnet": ("7be61d1d2844fc1c983d3da21f03418f", 0),
    "gen:0": ("3be3c7044cdf22adfdaf59b4bd37d656", 0),
    "gen:1": ("3a585f6245601cef26930bd6259f01b9", 6),
    "gen:2": ("a9cb044a3f2ab1e1a3a9a7e826e87765", 0),
    "gen:3": ("86c30f791420ed15724d4d6647d34a3e", 0),
}

#: workload -> prepare_test's (plan digest, tsv_injection_sites).
_PREPARED: Dict[str, Tuple[str, int]] = {}


def _prepared(workload: str) -> Tuple[str, int]:
    if workload not in _PREPARED:
        _PREPARED[workload] = golden_values(workload)
    return _PREPARED[workload]


class TestGoldenPlans:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_plan_digest(self, workload):
        assert _prepared(workload)[0] == GOLDEN[workload][0]

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_tsv_injection_sites(self, workload):
        assert _prepared(workload)[1] == GOLDEN[workload][1]

    def test_golden_covers_every_app_and_topology(self):
        from repro.gen.spec import TOPOLOGIES, generate_spec

        assert set(GOLDEN) == set(WORKLOADS)
        assert sum(1 for w in GOLDEN if w.startswith("app:")) == len(all_apps())
        assert {generate_spec(seed).topology for seed in GENERATED_SEEDS} == set(TOPOLOGIES)


# -- All-pairs references on the recorded traces -----------------------

#: workload -> (sorted MemOrder events, analyzed plan).
_ANALYZED = {}


def _analyzed(workload: str):
    if workload not in _ANALYZED:
        _reset_id_counters()
        config = WaffleConfig(seed=0)
        _, trace = run_recording(_workload_test(workload), config, seed=0)
        events = [e for e in trace.sorted_events() if e.access_type.is_memorder]
        _ANALYZED[workload] = (events, analyze_trace(trace, config))
    return _ANALYZED[workload]


def reference_candidates(events, window_ms: float) -> CandidateSet:
    """Every earlier event on the same object within the window, from
    another thread, in an INIT -> USE or USE -> DISPOSE pattern, is a
    candidate unless the two clock snapshots are fork-ordered."""
    candidates = CandidateSet()
    for j, later in enumerate(events):
        if later.object_id < 0:
            continue
        for earlier in events[:j]:
            if earlier.object_id != later.object_id or earlier.thread_id == later.thread_id:
                continue
            if later.timestamp - earlier.timestamp > window_ms:
                continue
            kind = CandidateKind.from_access_pair(earlier.access_type, later.access_type)
            if kind is None:
                continue
            if ordered(earlier.vc_snapshot, later.vc_snapshot):
                candidates.pruned_parent_child += 1
                continue
            candidates.add(
                CandidatePair(kind, earlier.location, later.location),
                GapObservation(
                    gap_ms=later.timestamp - earlier.timestamp,
                    timestamp_first=earlier.timestamp,
                    timestamp_second=later.timestamp,
                    object_id=later.object_id,
                    thread_first=earlier.thread_id,
                    thread_second=later.thread_id,
                ),
            )
    return candidates


def reference_interference(events, candidates: CandidateSet, window_ms: float):
    """For each observed pair {l1, l2}, every delay-site operation of
    l2's thread in [tau1 - delta, tau2], other than l2 itself, interferes
    with l1."""
    delay_sites = {loc.site for loc in candidates.delay_locations}
    interference = set()
    for pair in candidates:
        l1, l2 = pair.delay_location.site, pair.other_location.site
        for obs in candidates.observations(pair):
            for event in events:
                if event.thread_id != obs.thread_second or event.location.site not in delay_sites:
                    continue
                if not obs.timestamp_first - window_ms <= event.timestamp <= obs.timestamp_second:
                    continue
                if event.timestamp == obs.timestamp_second and event.location.site == l2:
                    continue
                interference.add(frozenset((l1, event.location.site)))
    return interference


class TestAnalyzerMatchesReference:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_candidates_match_all_pairs_reference(self, workload):
        events, plan = _analyzed(workload)
        expected = reference_candidates(events, WaffleConfig().near_miss_window_ms)
        # Pairs in insertion order, every gap observation, pruned count.
        assert plan.candidates.to_dict() == expected.to_dict()
        assert plan.stats.pruned_parent_child == expected.pruned_parent_child
        assert plan.stats.candidate_pairs == len(expected)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_delay_lengths_are_max_observed_gaps(self, workload):
        events, plan = _analyzed(workload)
        expected: Dict[str, float] = {}
        for pair in plan.candidates:
            site = pair.delay_location.site
            for obs in plan.candidates.observations(pair):
                if obs.gap_ms > expected.get(site, 0.0):
                    expected[site] = obs.gap_ms
        assert plan.delay_lengths == expected
        assert set(expected) <= plan.delay_sites

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_interference_matches_reference_scan(self, workload):
        events, plan = _analyzed(workload)
        window_ms = WaffleConfig().near_miss_window_ms
        expected = reference_interference(events, plan.candidates, window_ms)
        assert plan.interference == expected
        assert plan.stats.interference_pairs == len(expected)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_plan_round_trips_through_json(self, workload):
        _, plan = _analyzed(workload)
        payload = json.loads(json.dumps(plan.to_dict()))
        restored = InjectionPlan.from_dict(payload)
        assert restored.to_dict() == plan.to_dict()
        assert restored.delay_sites == plan.delay_sites
        assert restored.interference == plan.interference


if __name__ == "__main__":
    import pprint

    pprint.pprint(compute_golden())
