"""Tsvd: thread-safety-violation detection (paper section 2).

Reimplemented on the simulator for the Table 2 instrumentation-density
comparison and the section 3.3 delay-overlap contrast. Tsvd instruments
only thread-unsafe API call sites, identifies candidate pairs online
via near-miss tracking, injects fixed-length delays with probability
decay, and prunes pairs with happens-before inference.

A thread-safety violation manifests when the execution windows of two
thread-unsafe calls on the same object overlap; the simulator records
these as :class:`~repro.sim.unsafe_api.TsvOccurrence` values, which are
Tsvd's bug oracle (rather than the NULL-reference oracle of the
MemOrder tools).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..sim.unsafe_api import TsvOccurrence
from ..core.candidates import CandidateSet
from ..core.delay_policy import DecayState
from ..core.detector import DetectionOutcome, ToolDriver, Workload
from ..core.runtime import OnlineInjectionHook


@dataclass
class TsvdOutcome(DetectionOutcome):
    """Detection outcome extended with the TSV-specific oracle."""

    violations: List[TsvOccurrence] = field(default_factory=list)

    @property
    def tsv_found(self) -> bool:
        return bool(self.violations)


class Tsvd(ToolDriver):
    """Thread-safety-violation detector with delay injection."""

    name = "tsvd"

    def _detect(
        self, workload: Workload, budget: int, dossiers: bool, flight
    ) -> TsvdOutcome:
        """``dossiers`` and ``flight`` are accepted for the driver
        interface only: a thread-safety violation yields no
        ``BugReport``, so Tsvd assembles no dossier and its hooks capture
        no schedule."""
        config = self.config
        outcome = TsvdOutcome(tool=self.name, workload=workload.name)

        candidates = CandidateSet()
        decay = DecayState(config.decay_lambda)
        site_injections: Dict[str, int] = {}

        for attempt in range(1, budget + 1):
            sim_seed = config.seed + attempt
            hook = OnlineInjectionHook(
                config,
                decay,
                candidates=candidates,
                seed=config.seed * 7919 + attempt,
                tsv_mode=True,
                variable_delays=False,
                hb_inference=True,
                parent_child=False,
                online_interference=False,
            )
            result = self._simulate(workload, hook, seed=sim_seed)
            # Tsvd's oracle: call-window overlaps caused while delays
            # were being injected.
            new_violations = [
                v for v in result.tsv_occurrences if hook.delays_injected > 0
            ]
            found = bool(new_violations)
            self._count_site_injections(hook, site_injections)
            outcome.runs.append(
                self._record("detect", attempt, result, hook, bug_found=found)
            )
            if found:
                outcome.violations.extend(new_violations)
                if config.stop_at_first_bug:
                    break
        self._finish_coverage(outcome, candidates, decay, site_injections)
        return outcome
