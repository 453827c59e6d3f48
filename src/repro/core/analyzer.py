"""Waffle's trace analyzer (Figure 3, middle box).

Consumes the preparation-run trace and produces the *injection plan*
used to bootstrap detection runs:

1. the candidate set S, built with near-miss tracking and pruned of
   pairs ordered by parent-child fork relationships (section 4.1);
2. per-location delay lengths, ``len(l1) = max |tau1 - tau2|`` over the
   pair gaps observed at ``l1`` (section 4.3);
3. the interference set I (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from .candidates import CandidateSet
from .config import WaffleConfig
from .interference import InterferencePair, build_interference_set
from .nearmiss import NearMissTracker, fork_ordered
from .trace import Trace


@dataclass
class AnalysisStats:
    """Census numbers reported alongside the plan (Tables 2, section 3.3)."""

    memorder_sites: int = 0
    tsv_sites: int = 0
    memorder_ops: int = 0
    candidate_pairs: int = 0
    injection_sites: int = 0
    pruned_parent_child: int = 0
    interference_pairs: int = 0
    init_instance_counts: List[int] = field(default_factory=list)

    @property
    def median_init_instances(self) -> float:
        counts = self.init_instance_counts
        if not counts:
            return 0.0
        mid = len(counts) // 2
        if len(counts) % 2:
            return float(counts[mid])
        return (counts[mid - 1] + counts[mid]) / 2.0


@dataclass
class InjectionPlan:
    """Everything a detection run needs, distilled from the preparation run."""

    candidates: CandidateSet
    delay_lengths: Dict[str, float]
    interference: Set[InterferencePair]
    stats: AnalysisStats

    @property
    def delay_sites(self) -> Set[str]:
        return {loc.site for loc in self.candidates.delay_locations}

    def to_dict(self) -> dict:
        stats = self.stats
        return {
            "candidates": self.candidates.to_dict(),
            "delay_lengths": dict(self.delay_lengths),
            # Sorted: frozenset iteration order follows PYTHONHASHSEED,
            # and this dict is what the plan cache stores.
            "interference": sorted(sorted(pair) for pair in self.interference),
            # Full census round-trip: a plan rehydrated from cache must
            # report the same table numbers as the cold analysis.
            "stats": {
                "memorder_sites": stats.memorder_sites,
                "tsv_sites": stats.tsv_sites,
                "memorder_ops": stats.memorder_ops,
                "candidate_pairs": stats.candidate_pairs,
                "injection_sites": stats.injection_sites,
                "pruned_parent_child": stats.pruned_parent_child,
                "interference_pairs": stats.interference_pairs,
                "init_instance_counts": list(stats.init_instance_counts),
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InjectionPlan":
        candidates = CandidateSet.from_dict(payload.get("candidates", {}))
        recorded = payload.get("stats")
        if recorded is not None:
            stats = AnalysisStats(
                memorder_sites=recorded.get("memorder_sites", 0),
                tsv_sites=recorded.get("tsv_sites", 0),
                memorder_ops=recorded.get("memorder_ops", 0),
                candidate_pairs=recorded.get("candidate_pairs", len(candidates)),
                injection_sites=recorded.get(
                    "injection_sites", len(candidates.delay_locations)
                ),
                pruned_parent_child=recorded.get("pruned_parent_child", 0),
                interference_pairs=recorded.get("interference_pairs", 0),
                init_instance_counts=list(recorded.get("init_instance_counts", ())),
            )
        else:
            # Legacy payloads (pre-stats serialization): reconstruct
            # what the candidate set alone can tell us.
            stats = AnalysisStats(
                candidate_pairs=len(candidates),
                injection_sites=len(candidates.delay_locations),
            )
        plan = cls(
            candidates=candidates,
            delay_lengths=dict(payload.get("delay_lengths", {})),
            interference={frozenset(pair) for pair in payload.get("interference", ())},
            stats=stats,
        )
        return plan


def analyze_trace(trace: Trace, config: WaffleConfig) -> InjectionPlan:
    """Build the injection plan from a preparation-run trace."""
    events = trace.sorted_events()

    order_filter = fork_ordered if config.parent_child_analysis else None
    tracker = NearMissTracker(
        window_ms=config.near_miss_window_ms,
        order_filter=order_filter,
    )
    memorder_events = [e for e in events if e.access_type.is_memorder]
    candidates = tracker.observe_all(memorder_events)

    delay_lengths: Dict[str, float] = {}
    for pair in candidates:
        site = pair.delay_location.site
        gap = candidates.max_gap(pair)
        if gap > delay_lengths.get(site, 0.0):
            delay_lengths[site] = gap

    if config.interference_control:
        interference = build_interference_set(
            memorder_events, candidates, config.near_miss_window_ms
        )
    else:
        interference = set()

    stats = AnalysisStats(
        memorder_sites=len(trace.static_sites(memorder=True)),
        tsv_sites=len(trace.static_sites(memorder=False)),
        memorder_ops=len(memorder_events),
        candidate_pairs=len(candidates),
        injection_sites=len(candidates.delay_locations),
        pruned_parent_child=candidates.pruned_parent_child,
        interference_pairs=len(interference),
        init_instance_counts=trace.init_instance_counts(),
    )
    return InjectionPlan(
        candidates=candidates,
        delay_lengths=delay_lengths,
        interference=interference,
        stats=stats,
    )
