"""MemOrder bug candidates and the candidate set S.

A candidate is an (ordered) pair of static locations {l1, l2} such that
delaying the operation at l1 may reverse its order with the operation at
l2 and expose a MemOrder bug (section 3.1):

* **use-before-initialization** -- l1 is an *initialization*, l2 is a
  *use* that followed it closely; delaying the initialization may push
  it after the use.
* **use-after-free** -- l1 is a *use*, l2 is a *disposal* that followed
  it closely; delaying the use may push it after the disposal.

In both cases l1 is the **delay location**.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, KeysView, List, Optional, Set, Tuple

from ..sim.instrument import AccessType, Location


class CandidateKind(enum.Enum):
    USE_BEFORE_INIT = "use_before_init"
    USE_AFTER_FREE = "use_after_free"
    #: Thread-safety violation candidates (the Tsvd baseline): two
    #: thread-unsafe API calls on the same object from different
    #: threads. Kept in the same container so Table 2's site counts are
    #: computed uniformly.
    THREAD_SAFETY = "thread_safety"

    @staticmethod
    def from_access_pair(first: AccessType, second: AccessType) -> Optional["CandidateKind"]:
        """Classify an (earlier, later) access pair, or None if it is not
        a MemOrder near-miss pattern."""
        if first is AccessType.INIT and second is AccessType.USE:
            return CandidateKind.USE_BEFORE_INIT
        if first is AccessType.USE and second is AccessType.DISPOSE:
            return CandidateKind.USE_AFTER_FREE
        return None


@dataclass(frozen=True)
class CandidatePair:
    """One entry of the candidate set S.

    ``delay_location`` is l1 (where delays are injected) and
    ``other_location`` is l2 (whose operation the delay tries to get
    reordered against). Pairs are deduplicated at static-location
    granularity; dynamic gap observations are aggregated separately.
    """

    kind: CandidateKind
    delay_location: Location
    other_location: Location

    def key(self) -> Tuple[str, str, str]:
        # ``_value_`` is the member's raw value; ``value`` is a property
        # and this runs several times per near-miss match.
        return (self.kind._value_, self.delay_location.site, self.other_location.site)

    def __str__(self) -> str:
        return "%s{delay@%s, vs %s}" % (
            self.kind.value,
            self.delay_location.site,
            self.other_location.site,
        )


@dataclass
class GapObservation:
    """One dynamic near-miss occurrence backing a candidate pair."""

    gap_ms: float
    timestamp_first: float
    timestamp_second: float
    object_id: int
    thread_first: int
    thread_second: int


#: Shared empty observation list for pairs recorded without gaps.
_NO_OBSERVATIONS: List[GapObservation] = []


class CandidateSet:
    """The mutable candidate set S with per-pair gap observations.

    Waffle builds it offline from the preparation trace; WaffleBasic and
    Tsvd mutate it online while the program runs. Both use the same
    container so the harness can report candidate/injection-site counts
    uniformly (Table 2).
    """

    def __init__(self) -> None:
        self._pairs: Dict[Tuple[str, str, str], CandidatePair] = {}
        self._gaps: Dict[Tuple[str, str, str], List[GapObservation]] = {}
        #: Running per-pair max gap, so the section 4.3 delay-length
        #: query is O(1) instead of a scan over every observation.
        self._max_gap: Dict[Tuple[str, str, str], float] = {}
        #: Site-keyed indices so the per-access hot path (is this
        #: location a delay location? which pairs watch it?) is a dict
        #: lookup instead of a scan over all of S.
        self._by_delay: Dict[str, Dict[Tuple[str, str, str], CandidatePair]] = {}
        self._by_other: Dict[str, Dict[Tuple[str, str, str], CandidatePair]] = {}
        #: Pairs removed by pruning/inference, kept for statistics.
        self.pruned_parent_child: int = 0
        self.pruned_hb_inference: int = 0
        #: Lifetime churn: pairs ever added/removed (telemetry; a pair
        #: re-added after removal counts again).
        self.added_total: int = 0
        self.removed_total: int = 0
        #: Removal provenance for the coverage observatory: one
        #: ``(pair_key, reason)`` per removal, in order. Reasons:
        #: ``retired`` (injection budget exhausted, the Tsvd rule),
        #: ``hb_inference`` (happens-before inference dropped the pair),
        #: or ``""`` for untagged removals.
        self.removal_log: List[Tuple[Tuple[str, str, str], str]] = []
        from .. import obs

        self._fr = obs.flightrec.recorder()

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[CandidatePair]:
        return iter(list(self._pairs.values()))

    def __contains__(self, pair: CandidatePair) -> bool:
        return pair.key() in self._pairs

    def add(self, pair: CandidatePair, observation: Optional[GapObservation] = None) -> bool:
        """Insert (or refresh) a pair; returns True if it was new."""
        key = pair.key()
        is_new = key not in self._pairs
        self._pairs[key] = pair
        if is_new:
            self._by_delay.setdefault(pair.delay_location.site, {})[key] = pair
            self._by_other.setdefault(pair.other_location.site, {})[key] = pair
            self.added_total += 1
        if observation is not None:
            self._record_gap(key, observation)
        return is_new

    def _record_gap(self, key: Tuple[str, str, str], observation: GapObservation) -> None:
        self._gaps.setdefault(key, []).append(observation)
        gap = observation.gap_ms
        if gap > self._max_gap.get(key, 0.0):
            self._max_gap[key] = gap

    def remove(self, pair: CandidatePair, reason: str = "") -> None:
        key = pair.key()
        removed = self._pairs.pop(key, None)
        self._gaps.pop(key, None)
        self._max_gap.pop(key, None)
        if removed is not None:
            self._unindex(removed, key)
            self.removed_total += 1
            self.removal_log.append((key, reason))
            if self._fr is not None:
                self._fr.record(
                    "pair_removed",
                    kind=key[0], delay_site=key[1], other_site=key[2],
                    reason=reason,
                )

    def _unindex(self, pair: CandidatePair, key: Tuple[str, str, str]) -> None:
        for index, site in (
            (self._by_delay, pair.delay_location.site),
            (self._by_other, pair.other_location.site),
        ):
            bucket = index.get(site)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del index[site]

    def remove_with_delay_location(
        self, location: Location, reason: str = "retired"
    ) -> List[CandidatePair]:
        """Drop every pair whose delay location is ``location`` (the
        Tsvd rule when a location's injection probability reaches 0)."""
        doomed = list(self._by_delay.get(location.site, {}).values())
        for pair in doomed:
            self.remove(pair, reason=reason)
        return doomed

    def has_delay_location(self, location: Location) -> bool:
        """O(1) hot-path check: is any pair injecting at ``location``?"""
        return location.site in self._by_delay

    @property
    def delay_sites(self) -> KeysView[str]:
        """Live view of the injection sites (the delay-site index's
        keys): hooks bind it once and test ``site in`` per operation."""
        return self._by_delay.keys()

    def pairs_for_delay_location(self, location: Location) -> List[CandidatePair]:
        bucket = self._by_delay.get(location.site)
        return list(bucket.values()) if bucket else []

    def pairs_between(self, delay_site: str, other_site: str) -> List[CandidatePair]:
        """Pairs delaying at ``delay_site`` against ``other_site``, in
        index order (one per candidate kind at most)."""
        bucket = self._by_delay.get(delay_site)
        if not bucket:
            return []
        return [pair for key, pair in bucket.items() if key[2] == other_site]

    def pairs_watching(self, location: Location) -> List[CandidatePair]:
        """Pairs whose *other* location is ``location``."""
        bucket = self._by_other.get(location.site)
        return list(bucket.values()) if bucket else []

    def observations(self, pair: CandidatePair) -> List[GapObservation]:
        return list(self._gaps.get(pair.key(), ()))

    def iter_gap_items(self) -> Iterator[Tuple[CandidatePair, List[GapObservation]]]:
        """(pair, observations) without defensive copies; read-only use.

        The batched interference pass iterates every observation of
        every pair -- copying each list first would dominate it.
        """
        gaps = self._gaps
        for key, pair in self._pairs.items():
            yield pair, gaps.get(key, _NO_OBSERVATIONS)

    def max_gap(self, pair: CandidatePair) -> float:
        """Largest observed |tau1 - tau2| for the pair (section 4.3)."""
        return self._max_gap.get(pair.key(), 0.0)

    @property
    def delay_locations(self) -> Set[Location]:
        """The injection sites: every pair's l1 (Table 2, "Injection Sites")."""
        return {Location(site) for site in self._by_delay}

    @property
    def locations(self) -> Set[Location]:
        out: Set[Location] = set()
        for pair in self._pairs.values():
            out.add(pair.delay_location)
            out.add(pair.other_location)
        return out

    def merge(self, other: "CandidateSet") -> None:
        for pair in other:
            self.add(pair)
            key = pair.key()
            for obs in other.observations(pair):
                self._record_gap(key, obs)

    def to_dict(self) -> dict:
        """JSON-serializable form (section 5: the analysis results are
        saved on disk and bootstrap future detection runs)."""
        return {
            "pairs": [
                {
                    "kind": pair.kind.value,
                    "delay_location": pair.delay_location.site,
                    "other_location": pair.other_location.site,
                    "gaps": [
                        {
                            "gap_ms": obs.gap_ms,
                            "t1": obs.timestamp_first,
                            "t2": obs.timestamp_second,
                            "object_id": obs.object_id,
                            "thread_first": obs.thread_first,
                            "thread_second": obs.thread_second,
                        }
                        for obs in self._gaps.get(pair.key(), ())
                    ],
                }
                for pair in self._pairs.values()
            ],
            "pruned_parent_child": self.pruned_parent_child,
            "pruned_hb_inference": self.pruned_hb_inference,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidateSet":
        out = cls()
        for entry in payload.get("pairs", ()):
            pair = CandidatePair(
                kind=CandidateKind(entry["kind"]),
                delay_location=Location(entry["delay_location"]),
                other_location=Location(entry["other_location"]),
            )
            out.add(pair)
            key = pair.key()
            for gap in entry.get("gaps", ()):
                out._record_gap(
                    key,
                    GapObservation(
                        gap_ms=gap["gap_ms"],
                        timestamp_first=gap["t1"],
                        timestamp_second=gap["t2"],
                        object_id=gap["object_id"],
                        thread_first=gap["thread_first"],
                        thread_second=gap["thread_second"],
                    ),
                )
        out.pruned_parent_child = payload.get("pruned_parent_child", 0)
        out.pruned_hb_inference = payload.get("pruned_hb_inference", 0)
        return out
