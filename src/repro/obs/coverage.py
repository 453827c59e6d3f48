"""Coverage observatory: which candidate pairs were actually exercised.

Near-miss tracking proposes pairs, pruning removes them, decay retires
their delay sites, interference skips their injections -- so "Waffle
ran N detection runs" says little about which pairs were ever *tested*
(had a delay injected at their delay location). This module accounts
for exactly that, per session and across sessions:

* ``delayed`` -- at least one delay was injected at the pair's delay
  location during the session;
* ``pruned``  -- the pair was removed from S (happens-before
  inference, or its site's injection budget retired) before any delay
  landed;
* ``planned`` -- the pair survived in S but never had a delay injected
  (decay draws failed, the interference guard skipped it, or its site
  simply never executed again).

Every count reconciles exactly with the engine's internal counters
(same invariant style as ``tests/obs/test_skip_accounting.py``):
statuses partition the pair universe, and ``injected_total`` equals
both the per-site injection sum and the per-run ledger counts.

Like :mod:`repro.obs.dossier`, this module imports ``core`` types and
is therefore imported directly, never via ``repro.obs.__init__``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Pair coverage statuses, in priority order: a pair that was both
#: delayed and later pruned counts as delayed (it *was* tested).
STATUSES = ("delayed", "pruned", "planned")

RECORD_TYPE = "coverage"


def build_coverage(
    tool: str,
    test: str,
    candidates,
    decay,
    runs: Iterable,
    site_injections: Mapping[str, int],
    bug_found: bool,
) -> dict:
    """Assemble one session's coverage record (JSON-safe).

    ``candidates`` is the session's final CandidateSet (survivors plus
    ``removal_log`` provenance), ``decay`` its DecayState, ``runs`` the
    session's RunRecords, ``site_injections`` the per-delay-site
    injection counts accumulated from each run's ledger history.
    """
    site_injections = dict(site_injections)

    # Universe = surviving pairs + every pair ever removed. A pair
    # removed and re-added appears once, with its surviving identity.
    surviving: Dict[Tuple[str, str, str], Tuple[str, str, str]] = {}
    for pair in candidates:
        surviving[pair.key()] = pair.key()
    removal_reasons: Dict[Tuple[str, str, str], List[str]] = {}
    removal_events: Counter = Counter()
    for key, reason in candidates.removal_log:
        key = tuple(key)
        removal_reasons.setdefault(key, []).append(reason or "untagged")
        removal_events[reason or "untagged"] += 1
    universe = dict.fromkeys(list(surviving) + list(removal_reasons))

    pairs: List[dict] = []
    status_counts = Counter()
    for key in universe:
        kind, delay_site, other_site = key
        delayed_count = site_injections.get(delay_site, 0)
        in_set = key in surviving
        if delayed_count > 0:
            status = "delayed"
        elif not in_set:
            status = "pruned"
        else:
            status = "planned"
        status_counts[status] += 1
        entry = {
            "kind": kind,
            "delay_site": delay_site,
            "other_site": other_site,
            "status": status,
            "in_candidate_set": in_set,
            "delayed_count": delayed_count,
            "removal_reasons": removal_reasons.get(key, []),
            "final_p": round(decay.probability(delay_site), 4),
        }
        pairs.append(entry)

    # Gap provenance only exists for survivors (removal drops it).
    gaps_by_key = {
        pair.key(): (
            len(candidates.observations(pair)),
            round(candidates.max_gap(pair), 4),
        )
        for pair in candidates
    }
    for entry in pairs:
        key = (entry["kind"], entry["delay_site"], entry["other_site"])
        count, max_gap = gaps_by_key.get(key, (0, 0.0))
        entry["gap_count"] = count
        entry["max_gap_ms"] = max_gap

    run_rows = []
    injected_total = 0
    skipped = Counter()
    for record in runs:
        injected_total += record.delays_injected
        skipped["decay"] += record.skipped_decay
        skipped["interference"] += record.skipped_interference
        skipped["budget"] += record.skipped_budget
        run_rows.append(
            {
                "kind": record.kind,
                "index": record.index,
                "delays_injected": record.delays_injected,
                "skipped_decay": record.skipped_decay,
                "skipped_interference": record.skipped_interference,
                "skipped_budget": record.skipped_budget,
                "crashed": record.crashed,
                "bug_found": record.bug_found,
            }
        )

    retired = [site for site in decay.known_sites() if decay.retired(site)]
    return {
        "type": RECORD_TYPE,
        "tool": tool,
        "test": test,
        "bug_found": bug_found,
        "runs": run_rows,
        "pairs": pairs,
        "pairs_total": len(pairs),
        "pairs_delayed": status_counts["delayed"],
        "pairs_pruned": status_counts["pruned"],
        "pairs_planned": status_counts["planned"],
        "pruned_reasons": dict(removal_events),
        "pruned_parent_child": candidates.pruned_parent_child,
        "site_injections": site_injections,
        "injected_total": injected_total,
        "skipped_decay": skipped["decay"],
        "skipped_interference": skipped["interference"],
        "skipped_budget": skipped["budget"],
        "decay": {
            "sites": len(decay.known_sites()),
            "retired": sorted(retired),
            "probabilities": {
                site: round(decay.probability(site), 4)
                for site in sorted(decay.known_sites())
            },
        },
    }


def reconcile_coverage(record: dict) -> List[str]:
    """Exact-consistency checks over one coverage record.

    Returns human-readable problems (empty = reconciled). These are the
    invariants the acceptance test asserts: statuses partition the pair
    universe, and injections reconcile between the per-site map, the
    per-run ledger counts, and the per-pair delayed flags.
    """
    problems: List[str] = []
    pairs = record.get("pairs", [])
    counted = Counter(entry["status"] for entry in pairs)
    for status in STATUSES:
        declared = record.get("pairs_%s" % status, 0)
        if counted.get(status, 0) != declared:
            problems.append(
                "pairs_%s=%d but %d pairs carry that status"
                % (status, declared, counted.get(status, 0))
            )
    if sum(counted.values()) != record.get("pairs_total", 0):
        problems.append(
            "pairs_total=%d but %d pairs listed"
            % (record.get("pairs_total", 0), sum(counted.values()))
        )
    site_sum = sum(record.get("site_injections", {}).values())
    if site_sum != record.get("injected_total", 0):
        problems.append(
            "injected_total=%d but site_injections sum to %d"
            % (record.get("injected_total", 0), site_sum)
        )
    run_sum = sum(row["delays_injected"] for row in record.get("runs", []))
    if run_sum != record.get("injected_total", 0):
        problems.append(
            "injected_total=%d but run ledgers sum to %d"
            % (record.get("injected_total", 0), run_sum)
        )
    for skip in ("decay", "interference", "budget"):
        run_skips = sum(row["skipped_%s" % skip] for row in record.get("runs", []))
        if run_skips != record.get("skipped_%s" % skip, 0):
            problems.append(
                "skipped_%s=%d but runs sum to %d"
                % (skip, record.get("skipped_%s" % skip, 0), run_skips)
            )
    site_injections = record.get("site_injections", {})
    for entry in pairs:
        injected_here = site_injections.get(entry["delay_site"], 0)
        if (entry["status"] == "delayed") != (injected_here > 0):
            problems.append(
                "pair %s/%s status %r disagrees with %d injections at its site"
                % (
                    entry["delay_site"],
                    entry["other_site"],
                    entry["status"],
                    injected_here,
                )
            )
        if entry["status"] == "pruned" and not entry["removal_reasons"]:
            problems.append(
                "pair %s/%s pruned without a removal-log entry"
                % (entry["delay_site"], entry["other_site"])
            )
    return problems


def merge_coverage(records: Iterable[dict]) -> dict:
    """Cross-session aggregate of coverage records.

    Pair statuses merge by priority (delayed > pruned > planned): a pair
    tested in *any* session counts as covered.
    """
    merged_pairs: Dict[Tuple[str, str, str], dict] = {}
    site_injections: Counter = Counter()
    pruned_reasons: Counter = Counter()
    skipped = Counter()
    sessions = 0
    bugs = 0
    injected_total = 0
    pruned_parent_child = 0
    tools = set()
    tests = set()
    for record in records:
        sessions += 1
        tools.add(record.get("tool", "?"))
        tests.add(record.get("test", "?"))
        bugs += 1 if record.get("bug_found") else 0
        injected_total += record.get("injected_total", 0)
        pruned_parent_child += record.get("pruned_parent_child", 0)
        site_injections.update(record.get("site_injections", {}))
        pruned_reasons.update(record.get("pruned_reasons", {}))
        for skip in ("decay", "interference", "budget"):
            skipped[skip] += record.get("skipped_%s" % skip, 0)
        for entry in record.get("pairs", []):
            key = (entry["kind"], entry["delay_site"], entry["other_site"])
            current = merged_pairs.get(key)
            if current is None:
                merged_pairs[key] = dict(entry)
                merged_pairs[key]["sessions"] = 1
                continue
            current["sessions"] += 1
            current["delayed_count"] += entry["delayed_count"]
            current["max_gap_ms"] = max(current["max_gap_ms"], entry["max_gap_ms"])
            if STATUSES.index(entry["status"]) < STATUSES.index(current["status"]):
                current["status"] = entry["status"]
    status_counts = Counter(entry["status"] for entry in merged_pairs.values())
    return {
        "type": "coverage_merged",
        "sessions": sessions,
        "tools": sorted(tools),
        "tests": sorted(tests),
        "bugs_found": bugs,
        "pairs": [merged_pairs[key] for key in sorted(merged_pairs)],
        "pairs_total": len(merged_pairs),
        "pairs_delayed": status_counts["delayed"],
        "pairs_pruned": status_counts["pruned"],
        "pairs_planned": status_counts["planned"],
        "pruned_reasons": dict(pruned_reasons),
        "pruned_parent_child": pruned_parent_child,
        "site_injections": dict(site_injections),
        "injected_total": injected_total,
        "skipped_decay": skipped["decay"],
        "skipped_interference": skipped["interference"],
        "skipped_budget": skipped["budget"],
    }


def render_coverage(merged: dict, per_session: Optional[List[dict]] = None) -> str:
    """Human-readable coverage digest (``repro obs coverage``)."""
    out: List[str] = []
    out.append("=" * 72)
    out.append("CANDIDATE-PAIR COVERAGE")
    out.append("=" * 72)
    if merged.get("type") == "coverage_merged":
        out.append(
            "sessions: %d  tools: %s  tests: %s  bugs found: %d"
            % (
                merged["sessions"],
                ", ".join(merged["tools"]),
                ", ".join(merged["tests"]),
                merged["bugs_found"],
            )
        )
    else:
        out.append(
            "session: %s :: %s  bug found: %s"
            % (merged.get("tool"), merged.get("test"), merged.get("bug_found"))
        )
    total = merged.get("pairs_total", 0) or 1
    out.append(
        "pairs: %d total | %d delayed (%.0f%%) | %d pruned | %d planned-but-untested"
        % (
            merged.get("pairs_total", 0),
            merged.get("pairs_delayed", 0),
            100.0 * merged.get("pairs_delayed", 0) / total,
            merged.get("pairs_pruned", 0),
            merged.get("pairs_planned", 0),
        )
    )
    out.append(
        "injections: %d total across %d sites; skips: %d decay, %d interference, %d budget"
        % (
            merged.get("injected_total", 0),
            len(merged.get("site_injections", {})),
            merged.get("skipped_decay", 0),
            merged.get("skipped_interference", 0),
            merged.get("skipped_budget", 0),
        )
    )
    reasons = merged.get("pruned_reasons", {})
    if reasons or merged.get("pruned_parent_child"):
        out.append(
            "pruning: %s; parent-child (never entered S): %d"
            % (
                ", ".join("%s=%d" % (k, v) for k, v in sorted(reasons.items()))
                or "none",
                merged.get("pruned_parent_child", 0),
            )
        )
    out.append("")
    out.append(
        "  %-10s %-6s %-34s %-34s %s"
        % ("status", "inj", "delay site", "other site", "kind")
    )
    for entry in sorted(
        merged.get("pairs", []),
        key=lambda e: (STATUSES.index(e["status"]), e["delay_site"]),
    ):
        out.append(
            "  %-10s %-6d %-34s %-34s %s"
            % (
                entry["status"],
                entry["delayed_count"],
                entry["delay_site"],
                entry["other_site"],
                entry["kind"],
            )
        )
    decay = merged.get("decay")
    if decay:
        out.append("")
        out.append(
            "decay: %d known sites, %d retired%s"
            % (
                decay.get("sites", 0),
                len(decay.get("retired", [])),
                (
                    " (%s)" % ", ".join(decay["retired"])
                    if decay.get("retired")
                    else ""
                ),
            )
        )
    if per_session:
        out.append("")
        out.append("per session:")
        for record in per_session:
            out.append(
                "  %-12s %-28s pairs %3d (%d delayed) inj %4d bug=%s"
                % (
                    record.get("tool", "?"),
                    record.get("test", "?"),
                    record.get("pairs_total", 0),
                    record.get("pairs_delayed", 0),
                    record.get("injected_total", 0),
                    record.get("bug_found", False),
                )
            )
    return "\n".join(out)
