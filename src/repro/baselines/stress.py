"""Delay-free stress baseline.

Section 6.2's control experiment: "none of these 18 bugs can manifest
themselves without delay injection, even when we execute the
corresponding bug-triggering inputs repeatedly 50 times." The stress
driver re-runs a workload with no instrumentation hook attached (only
scheduling-seed variation) and records whether anything ever crashes.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.instrument import NoopHook
from ..core.detector import DetectionOutcome, RunRecord, ToolDriver, as_workload


class StressRunner(ToolDriver):
    """Repeated uninstrumented executions under varying seeds."""

    name = "stress"

    def detect(
        self,
        workload: Any,
        max_detection_runs: Optional[int] = None,
        dossiers: bool = False,
    ) -> DetectionOutcome:
        """``dossiers`` is accepted for the driver interface only: runs
        inject no delay, so no crash is claimed and no dossier built."""
        workload = as_workload(workload)
        budget = (
            max_detection_runs
            if max_detection_runs is not None
            else self.config.max_detection_runs
        )
        outcome = DetectionOutcome(tool=self.name, workload=workload.name)
        for attempt in range(1, budget + 1):
            result = self._simulate(workload, NoopHook(), seed=self.config.seed + attempt)
            error = self._memorder_failure(result)
            outcome.runs.append(
                RunRecord(
                    kind="detect",
                    index=attempt,
                    virtual_time_ms=result.virtual_time,
                    op_count=result.op_count,
                    crashed=result.crashed,
                    timed_out=result.timed_out,
                    bug_found=error is not None,
                )
            )
            # Spontaneous manifestations are recorded (they would mean a
            # benchmark whose bug does not actually require rare timing)
            # but never reported as tool findings.
        return outcome

    def spontaneous_manifestations(self, outcome: DetectionOutcome) -> int:
        return sum(1 for record in outcome.runs if record.bug_found)


def baseline_time_ms(workload: Any, seed: int = 0, config=None) -> float:
    """Virtual execution time of one delay-free stress run: the
    slowdown denominator of the ``related`` extension table. Tables 4
    and 5 take theirs from :func:`repro.harness.runner.baseline_run`."""
    from ..core.config import DEFAULT_CONFIG

    runner = StressRunner(config if config is not None else DEFAULT_CONFIG.with_seed(seed))
    outcome = runner.detect(workload, max_detection_runs=1)
    return outcome.runs[0].virtual_time_ms
