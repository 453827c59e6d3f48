"""WaffleBasic: the straight Tsvd adaptation (paper section 3).

WaffleBasic operates on MemOrder instrumentation sites but keeps every
other Tsvd design decision:

* candidate identification and delay injection happen *in the same run*
  (online near-miss tracking plus happens-before inference);
* delays have a fixed length (100 ms by default);
* probability decay, multiple threads may be blocked in parallel, and
  there is **no** interference control and **no** parent-child pruning.

Candidate set and decay probabilities persist across runs (the tool is
bootstrapped from the previous run's state, like Tsvd's iterative
mode), which is what lets single-dynamic-instance locations -- object
initializations, typically -- receive delays in later runs at all.
"""

from __future__ import annotations

from typing import Dict

from ..core.candidates import CandidateSet
from ..core.delay_policy import DecayState
from ..core.detector import DetectionOutcome, ToolDriver, Workload
from ..core.runtime import OnlineInjectionHook


class WaffleBasic(ToolDriver):
    """Single-phase MemOrder detector with Tsvd's design decisions."""

    name = "wafflebasic"

    def _detect(
        self, workload: Workload, budget: int, dossiers: bool, flight
    ) -> DetectionOutcome:
        config = self.config
        outcome = DetectionOutcome(tool=self.name, workload=workload.name)

        # State persisted across runs (saved/bootstrapped, section 5).
        candidates = CandidateSet()
        decay = DecayState(config.decay_lambda)
        site_injections: Dict[str, int] = {}

        for attempt in range(1, budget + 1):
            sim_seed = config.seed + attempt
            if flight is not None:
                flight.begin_run(kind="online", test=workload.name, seed=sim_seed)
            hook = OnlineInjectionHook(
                config,
                decay,
                candidates=candidates,
                seed=config.seed * 7919 + attempt,
                tsv_mode=False,
                variable_delays=False,
                hb_inference=True,
                parent_child=False,
                online_interference=False,
                capture_schedule=dossiers,
            )
            result = self._simulate(workload, hook, seed=sim_seed)
            report = self._harvest(workload, hook, result, attempt)
            self._count_site_injections(hook, site_injections)
            outcome.runs.append(
                self._record("detect", attempt, result, hook, bug_found=report is not None)
            )
            if report is not None:
                outcome.reports.append(report)
                if dossiers:
                    outcome.dossiers.append(
                        self._assemble_dossier(workload, report, hook, sim_seed, flight)
                    )
                if config.stop_at_first_bug:
                    break
        self._finish_coverage(outcome, candidates, decay, site_injections)
        return outcome
