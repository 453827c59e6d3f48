"""Machine-checkable ground truth for generated workloads.

:func:`evaluate_spec` runs the *real* :class:`~repro.core.detector.Waffle`
detector against one generated workload and checks it against the
spec's planted-bug oracle:

* **recall** -- every planted *detectable* bug is found within the
  per-session run budget. Waffle stops at the first manifested bug per
  session (``stop_at_first_bug``), so the loop defuses each found bug
  (substituting its properly-synchronized variant, same sites and
  traffic) and re-runs until a session finds nothing;
* **soundness** -- every reported fault site belongs to a planted,
  still-armed bug. The detector's zero-false-positive harvest plus the
  crash-proof benign motifs make any other site a generator bug;
* **detectability model** -- a planted *undetectable* bug (gap beyond
  the near-miss window) must never be found;
* **replay** (optional) -- every detection's dossier reproduces the
  same error at the same site. The detector is asked for dossiers
  directly: their schedule comes from the injection hook, so no flight
  recorder is needed (under an obs session the detector records one
  for their provenance). Each dossier is verified by one replay of its
  full captured schedule, with or without an obs session, and none is
  minimized (``repro replay --minimize`` does that on demand). A
  ``verified`` dossier counts as reproduced, an unverified one does
  not.

The result carries only deterministic fields (virtual times, run
counts, sites), so a fuzz row is a pure function of
``(seed, config, budget)`` -- the bit-identity the fuzz CLI digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..core.config import WaffleConfig
from ..core.detector import Waffle
from .builder import build_workload, bug_sites, planted_oracle
from .spec import WorkloadSpec

#: Sessions beyond the number of detectable bugs: one confirming
#: session that must come back empty.
_EXTRA_SESSIONS = 1


@dataclass
class OracleResult:
    """The verdict of one spec's oracle evaluation."""

    seed: int
    topology: str
    planted: List[dict] = field(default_factory=list)
    #: bug_id -> {"session": int, "runs_to_expose": int}
    found: Dict[str, dict] = field(default_factory=dict)
    sessions: int = 0
    total_runs: int = 0
    virtual_ms: float = 0.0
    #: Invariant violations, each a human-readable string. Empty == ok.
    violations: List[str] = field(default_factory=list)
    #: Dossier replay verdicts (bug_id -> reproduced), when checked.
    replays: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def detectable_planted(self) -> int:
        return sum(1 for p in self.planted if p["detectable"])

    @property
    def recall(self) -> float:
        planted = self.detectable_planted
        if not planted:
            return 1.0
        return len([b for b in self.found if b in self._detectable_ids()]) / planted

    def _detectable_ids(self) -> Set[str]:
        return {p["bug_id"] for p in self.planted if p["detectable"]}

    def to_row(self) -> dict:
        """The deterministic fuzz-table row for this workload."""
        return {
            "seed": self.seed,
            "topology": self.topology,
            "planted": len(self.planted),
            "detectable": self.detectable_planted,
            "found": sorted(self.found),
            "sessions": self.sessions,
            "runs": self.total_runs,
            "virtual_ms": round(self.virtual_ms, 2),
            "violations": list(self.violations),
            "replays": {k: self.replays[k] for k in sorted(self.replays)},
            "ok": self.ok,
        }


def evaluate_spec(
    spec: WorkloadSpec,
    config: WaffleConfig,
    budget: int = 8,
    check_replay: bool = False,
) -> OracleResult:
    """Run the defuse-and-rerun oracle loop for one spec."""
    oracle = planted_oracle(spec, config.near_miss_window_ms)
    result = OracleResult(seed=spec.seed, topology=spec.topology, planted=oracle)
    by_fault_site = {entry["fault_site"]: entry for entry in oracle}
    detectable_ids = {entry["bug_id"] for entry in oracle if entry["detectable"]}

    defused: Set[str] = set()
    max_sessions = len(detectable_ids) + _EXTRA_SESSIONS
    for session_index in range(1, max_sessions + 1):
        test = build_workload(spec, frozenset(defused))
        outcome = Waffle(config).detect(
            test, max_detection_runs=budget, dossiers=check_replay
        )
        result.sessions = session_index
        result.total_runs += len(outcome.runs)
        result.virtual_ms += outcome.total_time_ms
        if not outcome.bug_found:
            break
        report = outcome.reports[0]
        entry = by_fault_site.get(report.fault_site)
        if entry is None:
            result.violations.append(
                "soundness: fault at unplanted site %s (session %d)"
                % (report.fault_site, session_index)
            )
            break
        bug_id = entry["bug_id"]
        if bug_id in defused:
            result.violations.append(
                "soundness: defused bug %s manifested again at %s (session %d)"
                % (bug_id, report.fault_site, session_index)
            )
            break
        if not entry["detectable"]:
            result.violations.append(
                "detectability: undetectable bug %s (gap %.1f ms) was found (session %d)"
                % (bug_id, entry["gap_ms"], session_index)
            )
        result.found[bug_id] = {
            "session": session_index,
            "runs_to_expose": outcome.runs_to_expose,
            "fault_site": report.fault_site,
        }
        if check_replay:
            _check_replay(result, outcome, bug_id)
        defused.add(bug_id)
    missed = sorted(detectable_ids - set(result.found))
    for bug_id in missed:
        entry = next(e for e in oracle if e["bug_id"] == bug_id)
        result.violations.append(
            "recall: detectable bug %s (%s, gap %.1f ms) not found within %d run(s)/session"
            % (bug_id, entry["kind"], entry["gap_ms"], budget)
        )
    return result


def _check_replay(result: OracleResult, outcome, bug_id: str) -> None:
    """Check that every dossier the session assembled reproduces; record
    the verdict. Assembly has already replayed each dossier's full
    captured schedule once and set ``verified`` from the outcome. Replays
    are deterministic, so an unverified dossier would miss again: the
    oracle reads ``verified`` alone and replays nothing."""
    if not outcome.dossiers:
        result.violations.append("replay: no dossier assembled for %s" % bug_id)
        result.replays[bug_id] = False
        return
    reproduced = all(built.verified for built in outcome.dossiers)
    result.replays[bug_id] = reproduced
    if not reproduced:
        result.violations.append("replay: dossier for %s did not reproduce" % bug_id)


def expected_fault_sites(spec: WorkloadSpec) -> Set[str]:
    """All sites at which an armed planted bug may legally fault."""
    return {bug_sites(spec, bug)["use"] for bug in spec.bugs}
