"""Delay-injection runtime hooks.

Two hooks implement the "Step 2: injecting delays at run time" half of
Figure 1:

* :class:`PlannedInjectionHook` -- Waffle's detection-run runtime,
  bootstrapped from the preparation run's :class:`InjectionPlan`
  (candidate set S, per-location delay lengths, interference set I).
* :class:`OnlineInjectionHook` -- the single-phase runtime shared by
  WaffleBasic, Tsvd and the no-preparation-run ablation: it identifies
  candidate locations with near-miss tracking *in the same run* it
  injects delays, optionally running happens-before inference,
  parent-child vector-clock pruning and online interference discovery.

Both share :class:`InjectionEngine`, the delay-or-not decision process:
probability decay -> random draw -> interference guard -> delay length.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, KeysView, List, Optional, Set, Tuple

from .. import obs
from ..sim.instrument import (
    AccessEvent,
    AccessType,
    InstrumentationHook,
    PendingAccess,
)
from .analyzer import InjectionPlan
from .candidates import CandidatePair, CandidateSet
from .config import WaffleConfig
from .delay_policy import (
    DecayState,
    DelayLengthPolicy,
    FixedDelayPolicy,
    ProportionalDelayPolicy,
)
from .interference import ActiveDelayLedger, DelayInterval, InterferenceIndex
from .nearmiss import NearMissTracker, TsvNearMissTracker, fork_ordered
from .vector_clock import TLS_KEY, ThreadVectorClock


@dataclass
class FailureContext:
    """Crash context captured by ``on_failure`` for report assembly."""

    error: BaseException
    thread_name: str
    fault_time_ms: float
    active_delays: List[DelayInterval]
    stacks: Dict[str, List[str]] = field(default_factory=dict)


class InjectionEngine:
    """The delay-or-not decision process shared by all runtimes."""

    def __init__(
        self,
        config: WaffleConfig,
        candidates: CandidateSet,
        decay: DecayState,
        delay_policy: DelayLengthPolicy,
        interference: Optional[InterferenceIndex],
        rng: random.Random,
    ):
        self.config = config
        self.candidates = candidates
        self.decay = decay
        self.delay_policy = delay_policy
        self.interference = interference
        self.rng = rng
        self.ledger = ActiveDelayLedger()
        #: Decision accounting, always on (plain int adds): every skip
        #: is attributed to exactly one reason tag so runs are
        #: explainable from emitted data (docs/OBSERVABILITY.md).
        self.considered: int = 0
        #: Delays whose injection was skipped by the interference guard.
        self.skipped_interference: int = 0
        #: Skips where the probability-decay draw failed.
        self.skipped_decay: int = 0
        #: Skips where the location's injection budget was exhausted
        #: (decayed to probability 0 and retired) or its length was 0.
        self.skipped_budget: int = 0
        self._obs = obs.session()
        self.obs_run_seq = self._obs.next_run_seq() if self._obs is not None else 0
        self._fr = obs.flightrec.recorder()

    @property
    def skipped_total(self) -> int:
        return self.skipped_decay + self.skipped_interference + self.skipped_budget

    def decide(self, pending: PendingAccess) -> float:
        """Return the delay to inject before ``pending`` (0 for none)."""
        site = pending.location.site
        if not self.candidates.has_delay_location(pending.location):
            return 0.0
        ses = self._obs
        self.considered += 1
        probability = self.decay.register(site)
        if probability <= 0.0:
            # Retired location: drop its pairs from S (Tsvd rule).
            self.candidates.remove_with_delay_location(pending.location)
            self.skipped_budget += 1
            if ses is not None:
                ses.decision(
                    self.obs_run_seq, site, pending.timestamp,
                    reason="budget", detail="retired",
                )
            if self._fr is not None:
                self._fr.record(
                    "skip", pending.timestamp, site=site,
                    reason="budget", detail="retired",
                )
            return 0.0
        if self.rng.random() >= probability:
            self.skipped_decay += 1
            if ses is not None:
                ses.decision(
                    self.obs_run_seq, site, pending.timestamp,
                    reason="decay", detail="p=%.3f" % probability,
                )
            if self._fr is not None:
                self._fr.record(
                    "skip", pending.timestamp, site=site,
                    reason="decay", p=round(probability, 4),
                )
            return 0.0
        now = pending.timestamp
        if self.interference is not None and self.config.interference_control:
            active = self.ledger.active_sites(now)
            if active and self.interference.conflicts_with_any(site, active):
                self.skipped_interference += 1
                if ses is not None:
                    ses.decision(
                        self.obs_run_seq, site, now,
                        reason="interference",
                        detail=",".join(sorted(set(active))),
                    )
                if self._fr is not None:
                    self._fr.record(
                        "skip", now, site=site, reason="interference",
                        active=sorted(set(active)),
                    )
                return 0.0
        length = self.delay_policy.length_for(site)
        if length <= 0.0:
            self.skipped_budget += 1
            if ses is not None:
                ses.decision(
                    self.obs_run_seq, site, now,
                    reason="budget", detail="zero_length",
                )
            if self._fr is not None:
                self._fr.record(
                    "skip", now, site=site, reason="budget", detail="zero_length",
                )
            return 0.0
        self.ledger.register(site, pending.thread_id, now, length)
        remaining = self.decay.decay(site)
        if remaining <= 0.0:
            self.candidates.remove_with_delay_location(pending.location)
        if ses is not None:
            ses.decision(self.obs_run_seq, site, now, length_ms=length, tid=pending.thread_id)
        if self._fr is not None:
            self._fr.record(
                "inject", now, site=site, tid=pending.thread_id,
                len_ms=round(length, 4), p=round(probability, 4),
            )
        return length


class _ScheduleCapture:
    """Engine decision plus (site, nth-occurrence) schedule capture."""

    __slots__ = ("engine", "schedule", "occurrences")

    def __init__(self, engine: InjectionEngine, schedule: List[Dict[str, object]]):
        self.engine = engine
        self.schedule = schedule
        self.occurrences: Dict[str, int] = {}

    def decide(self, pending: PendingAccess) -> float:
        occurrences = self.occurrences
        site = pending.location.site
        nth = occurrences.get(site, 0)
        occurrences[site] = nth + 1
        length = self.engine.decide(pending)
        if length > 0.0:
            self.schedule.append(
                {
                    "site": site,
                    "nth": nth,
                    "len_ms": round(length, 6),
                    "t_ms": round(pending.timestamp, 4),
                    "thread_id": pending.thread_id,
                }
            )
        return length


class _PairSink:
    """The online tracker's ``on_pair``: what a (re)discovered pair
    changes in the engine. Its own object, like :class:`_ScheduleCapture`,
    so the tracker the hook owns does not refer back to the hook."""

    __slots__ = ("engine", "variable_policy", "thread_recent", "window_ms")

    def __init__(
        self,
        engine: InjectionEngine,
        variable_policy: Optional[ProportionalDelayPolicy],
        thread_recent: Optional[Dict[int, Deque[Tuple[float, str]]]],
        window_ms: float,
    ):
        self.engine = engine
        self.variable_policy = variable_policy
        #: The hook's per-thread recent-operation windows when online
        #: interference discovery is on, else None.
        self.thread_recent = thread_recent
        self.window_ms = window_ms

    def on_pair(self, pair: CandidatePair, is_new: bool) -> None:
        engine = self.engine
        # Rediscovered pairs are fresh: no tombstones, probability
        # resets to 1 (see delay_policy.DecayState.register).
        engine.decay.register(pair.delay_location.site, reset=is_new)
        if self.variable_policy is not None:
            gap = engine.candidates.max_gap(pair)
            self.variable_policy.update(pair.delay_location.site, gap)
        if self.thread_recent is not None and engine.interference is not None and is_new:
            self._discover_interference(pair)

    def _discover_interference(self, pair: CandidatePair) -> None:
        """Scan l2's thread-recent window for interfering delay sites."""
        engine = self.engine
        candidates = engine.candidates
        observations = candidates.observations(pair)
        if not observations:
            return
        obs = observations[-1]
        recent = self.thread_recent.get(obs.thread_second, ())
        delay_sites = candidates.delay_sites
        window_start = obs.timestamp_first - self.window_ms
        for ts, site in recent:
            if ts < window_start or ts > obs.timestamp_second:
                continue
            if site in delay_sites:
                if ts == obs.timestamp_second and site == pair.other_location.site:
                    continue
                engine.interference.add(frozenset((pair.delay_location.site, site)))


class _BaseInjectionHook(InstrumentationHook):
    """Shared scaffolding: engine wiring, stats, failure capture."""

    def __init__(self, config: WaffleConfig, capture_schedule: bool = False):
        self.config = config
        self.per_op_overhead_ms = config.inject_overhead_ms
        self.failure: Optional[FailureContext] = None
        self._threads: Dict[int, object] = {}
        self.engine: Optional[InjectionEngine] = None
        #: Injection schedule keyed by per-site dynamic occurrence, only
        #: maintained under ``capture_schedule``: the tool driver asks
        #: for it when it will assemble a dossier, whose builder replays
        #: it deterministically.
        self.injection_schedule: List[Dict[str, object]] = []
        self._capture_schedule = capture_schedule
        #: Site gate ahead of the engine: the candidate set's live
        #: delay-site index, or None while a schedule capture must see
        #: every MemOrder access (it counts each site's occurrences).
        self._delay_sites: Optional[KeysView[str]] = None

    #: Whether the site gate may stay up while the schedule is captured:
    #: true only for hooks whose candidate set gains no delay site
    #: during a run, so every site that can still be delayed has had
    #: each of its accesses counted.
    _gate_while_capturing = False

    def _bind_decide(self):
        """The per-operation decision, chosen once the engine exists:
        the bare engine behind the site gate, or one that also captures
        the schedule, gated only under ``_gate_while_capturing``.
        Neither refers back to the hook: a bound method of
        the hook stored on the hook would be a reference cycle, keeping
        every finished run's hook alive until the cycle collector runs."""
        if not self._capture_schedule or self._gate_while_capturing:
            self._delay_sites = self.engine.candidates.delay_sites
        if not self._capture_schedule:
            return self.engine.decide
        return _ScheduleCapture(self.engine, self.injection_schedule).decide

    # -- Stats accessors used by the harness ---------------------------

    @property
    def delays_injected(self) -> int:
        return self.engine.ledger.count if self.engine else 0

    @property
    def total_delay_ms(self) -> float:
        return self.engine.ledger.total_delay_ms if self.engine else 0.0

    @property
    def delay_intervals(self) -> List[DelayInterval]:
        return list(self.engine.ledger.history) if self.engine else []

    def overlap_ratio(self) -> float:
        return self.engine.ledger.overlap_ratio() if self.engine else 0.0

    # -- Hook callbacks -------------------------------------------------

    def on_thread_start(self, thread) -> None:
        self._threads[thread.tid] = thread

    def on_failure(self, thread, error: BaseException) -> None:
        if self.failure is not None:
            return
        now = thread.end_time if thread.end_time is not None else 0.0
        stacks = {
            t.name: t.snapshot_stack() for t in self._threads.values() if t.is_alive or t is thread
        }
        self.failure = FailureContext(
            error=error,
            thread_name=thread.name,
            fault_time_ms=now,
            active_delays=self.engine.ledger.active_intervals(now) if self.engine else [],
            stacks=stacks,
        )

    def matched_pairs_for(self, error: BaseException) -> List[CandidatePair]:
        """Candidate pairs that involve the faulting location."""
        location = getattr(error, "location", None)
        if location is None or self.engine is None:
            return []
        matched = self.engine.candidates.pairs_for_delay_location(location)
        matched += self.engine.candidates.pairs_watching(location)
        # Deduplicate while preserving order.
        seen: Set[Tuple[str, str, str]] = set()
        unique: List[CandidatePair] = []
        for pair in matched:
            if pair.key() not in seen:
                seen.add(pair.key())
                unique.append(pair)
        return unique


class PlannedInjectionHook(_BaseInjectionHook):
    """Waffle's detection-run runtime (sections 4.3-4.4).

    The plan's candidate set, delay lengths and interference set come
    from the preparation run; the decay state persists across detection
    runs. The hook performs no identification work of its own, which is
    why its per-operation overhead is the low proxy-dispatch cost.
    """

    run_kind = "detect"

    # The plan's candidate set only shrinks within a run.
    _gate_while_capturing = True

    def __init__(
        self,
        plan: InjectionPlan,
        config: WaffleConfig,
        decay: DecayState,
        seed: int = 0,
        capture_schedule: bool = False,
    ):
        super().__init__(config, capture_schedule)
        self.plan = plan
        if config.custom_delay_length:
            policy: DelayLengthPolicy = ProportionalDelayPolicy(
                plan.delay_lengths, config.alpha, config.min_delay_ms
            )
        else:
            policy = FixedDelayPolicy(config.fixed_delay_ms)
        interference = (
            InterferenceIndex(plan.interference) if config.interference_control else None
        )
        self.engine = InjectionEngine(
            config=config,
            candidates=plan.candidates,
            decay=decay,
            delay_policy=policy,
            interference=interference,
            rng=random.Random(seed),
        )
        self._decide = self._bind_decide()

    def before_access(self, pending: PendingAccess) -> float:
        if not pending.access_type.is_memorder:
            return 0.0
        delay_sites = self._delay_sites
        if delay_sites is not None and pending.location.site not in delay_sites:
            return 0.0
        return self._decide(pending)


class OnlineInjectionHook(_BaseInjectionHook):
    """Single-phase runtime: identify candidates and inject in one run.

    Configuration degrees of freedom (all combinations are meaningful):

    * ``tsv_mode`` -- track thread-unsafe API calls instead of MemOrder
      operations (the Tsvd baseline).
    * ``variable_delays`` -- learn per-location delay lengths from the
      gaps observed online (the no-preparation-run Waffle ablation);
      otherwise use the fixed length (WaffleBasic/Tsvd).
    * ``hb_inference`` -- Tsvd's happens-before inference: a candidate
      pair is dropped when a delay at l1 is followed by l2 executing
      just after the delay ends without having executed during it.
    * ``parent_child`` -- maintain TLS vector clocks online and refuse
      pairs whose operations are fork-ordered.
    * ``online_interference`` -- build the interference index on the
      fly from per-thread recent-operation windows.

    State that persists across runs (S, probabilities, learned delay
    lengths) is carried by the objects passed in, so a tool driver can
    thread them through successive runs.
    """

    run_kind = "online"

    def __init__(
        self,
        config: WaffleConfig,
        decay: DecayState,
        candidates: Optional[CandidateSet] = None,
        seed: int = 0,
        tsv_mode: bool = False,
        variable_delays: bool = False,
        hb_inference: bool = True,
        parent_child: bool = False,
        online_interference: bool = False,
        shared_policy: Optional[ProportionalDelayPolicy] = None,
        capture_schedule: bool = False,
    ):
        super().__init__(config, capture_schedule)
        self.tsv_mode = tsv_mode
        self.hb_inference = hb_inference
        self.parent_child = parent_child
        self.online_interference = online_interference

        candidate_set = candidates if candidates is not None else CandidateSet()
        if variable_delays:
            policy: DelayLengthPolicy = shared_policy or ProportionalDelayPolicy(
                {}, config.alpha, config.min_delay_ms
            )
        else:
            policy = FixedDelayPolicy(config.fixed_delay_ms)
        self._variable_policy = policy if variable_delays else None

        interference = InterferenceIndex() if online_interference else None
        self.engine = InjectionEngine(
            config=config,
            candidates=candidate_set,
            decay=decay,
            delay_policy=policy,
            interference=interference,
            rng=random.Random(seed),
        )

        #: Per-thread recent memorder operations, for online
        #: interference discovery: deque of (timestamp, site).
        self._thread_recent: Dict[int, Deque[Tuple[float, str]]] = {}
        #: HB-inference: open delay windows per delay site:
        #: site -> (start, end, thread_id, sites_seen_during).
        self._windows: Dict[str, Tuple[float, float, int, Set[str]]] = {}

        on_pair = _PairSink(
            self.engine,
            self._variable_policy,
            self._thread_recent if online_interference else None,
            config.near_miss_window_ms,
        ).on_pair
        if tsv_mode:
            self._tracker = TsvNearMissTracker(
                config.near_miss_window_ms,
                candidates=candidate_set,
                on_pair=on_pair,
            )
        else:
            self._tracker = NearMissTracker(
                config.near_miss_window_ms,
                candidates=candidate_set,
                order_filter=fork_ordered if parent_child else None,
                on_pair=on_pair,
            )
        self._observe = self._tracker.observe
        self._decide = self._bind_decide()

    # -- Hook callbacks -------------------------------------------------

    def on_thread_start(self, thread) -> None:
        super().on_thread_start(thread)
        if self.parent_child and TLS_KEY not in thread.itls:
            thread.itls.set(TLS_KEY, ThreadVectorClock(thread.tid))

    def before_access(self, pending: PendingAccess) -> float:
        if self.tsv_mode:
            if pending.access_type is not AccessType.UNSAFE_CALL:
                return 0.0
        elif not pending.access_type.is_memorder:
            return 0.0
        delay_sites = self._delay_sites
        if delay_sites is not None and pending.location.site not in delay_sites:
            return 0.0
        return self._decide(pending)

    def after_access(self, event: AccessEvent) -> None:
        if self.parent_child:
            thread = self._threads.get(event.thread_id)
            if thread is not None:
                clock = thread.itls.get(TLS_KEY)
                if clock is not None:
                    event.vc_snapshot = clock.snapshot()
        if self._windows:
            # Windows open only under hb_inference.
            self._hb_observe(event)
        if self.online_interference and event.access_type.is_memorder:
            recent = self._thread_recent.setdefault(event.thread_id, deque())
            recent.append((event.timestamp, event.location.site))
            horizon = event.timestamp - 2 * self.config.near_miss_window_ms
            while recent and recent[0][0] < horizon:
                recent.popleft()
        if event.injected_delay > 0 and self.hb_inference:
            # Open an inference window for the delay that just elapsed:
            # the delay occupied [ts - delay, ts).
            self._windows[event.location.site] = (
                event.timestamp - event.injected_delay,
                event.timestamp,
                event.thread_id,
                set(),
            )
        self._observe(event)

    def _hb_observe(self, event: AccessEvent) -> None:
        """Happens-before inference (section 2, 'removing from S').

        If location l2 of a pair {l1, l2} executes within the grace
        window right after a delay at l1 ends -- and never executed
        *during* the delay -- the delay propagated: l1 happens-before
        l2, so the pair is removed. Note the deliberate fragility the
        paper highlights (section 4.1): a concurrent delay in l2's own
        thread produces the same timing signature, so dense injection
        makes this heuristic unreliable.
        """
        ts = event.timestamp
        thread_id = event.thread_id
        site = event.location.site
        grace = self.config.hb_inference_grace_ms
        stale: List[str] = []
        for l1_site, (start, end, tid, seen_during) in self._windows.items():
            if ts > end + grace:
                stale.append(l1_site)
                continue
            if thread_id == tid:
                continue
            if start <= ts < end:
                seen_during.add(site)
            elif end <= ts and site not in seen_during:
                engine = self.engine
                candidates = engine.candidates
                for pair in candidates.pairs_between(l1_site, site):
                    candidates.remove(pair, reason="hb_inference")
                    candidates.pruned_hb_inference += 1
                    if engine._fr is not None:
                        engine._fr.record(
                            "prune_hb", ts,
                            delay_site=l1_site,
                            other_site=site,
                            window=[round(start, 4), round(end, 4)],
                        )
        for l1_site in stale:
            self._windows.pop(l1_site, None)

    # -- Exposed for tests ----------------------------------------------

    @property
    def candidates(self) -> CandidateSet:
        return self.engine.candidates
