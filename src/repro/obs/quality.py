"""Detection-quality joins: sensitivity curves and budget attribution.

The generator (:mod:`repro.gen`) plants bugs with analytically known
happens-before gaps -- detectable ones far inside the near-miss window,
undetectable ones far beyond it -- which makes the detector's
*sensitivity curve* (detection rate vs. planted gap) measurable against
ground truth instead of estimated. This module performs the joins:

* :func:`workload_records` -- one record per planted bug, joining a
  fuzz row (or ``fuzz_workload`` event) against the oracle regenerated
  from its seed (``generate_spec`` is a pure function of the seed; the
  recorded spec-hash prefix guards against generator drift);
* :func:`sensitivity_curve` -- detection rate per gap bin, overall and
  per topology / per bug kind, plus the detectable/undetectable band
  rollup the acceptance gate pins;
* :func:`load_run_ledger` -- the runs and decision events of an obs
  directory's telemetry streams, deduplicated by deterministic run
  identity (the same convention :mod:`repro.obs.campaign` applies
  to work-product events) so chaos-retried and resumed campaigns
  attribute identically to clean ones;
* :func:`site_attribution` -- which sites consumed delay budget and
  which skips were *counterfactual*: a skipped site that appears in a
  bug dossier's candidate pair (or a planted bug's racing pair) is a
  skip that could have cost or delayed a detection.

Everything here is pure observation over rows, events and streams
already parsed (:func:`repro.obs.report.load_obs_dir`); nothing feeds
back into the simulation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Gap-bin upper edges (virtual ms) for the sensitivity curve. The
#: generator's bands -- detectable [4, 40] (racy publication down to 2),
#: undetectable [140, 240] -- fall on bin boundaries; the empty middle
#: bins are where a planted gap would straddle the near-miss window.
GAP_BIN_EDGES: Tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0, 140.0, 180.0, 240.0)

#: Default near-miss window (mirrors ``WaffleConfig.near_miss_window_ms``;
#: importing core config here would pull the simulator into a pure
#: analysis module).
DEFAULT_WINDOW_MS = 100.0


# ----------------------------------------------------------------------
# Ground-truth joins (sensitivity)
# ----------------------------------------------------------------------


def rows_from_view(view: Any) -> List[dict]:
    """Fuzz rows out of a folded :class:`~repro.obs.campaign.CampaignView`.

    The view's ``fuzz_workload`` events carry the found *count*, not the
    found bug ids; :func:`workload_records` reconstructs the id set from
    the oracle invariants when the workload passed. Rows sort by seed so
    every downstream artifact is independent of event arrival order.
    """
    return sorted(
        (dict(event) for event in view.fuzz.values()),
        key=lambda row: int(row.get("seed", 0)),
    )


def resolvable_fuzz_events(events: Iterable[dict]) -> Tuple[int, int]:
    """``(resolvable, mismatched)`` counts: an event is resolvable when
    ``generate_spec(seed)`` still hashes to its recorded spec prefix."""
    from ..gen.spec import generate_spec, spec_hash

    resolvable = mismatched = 0
    for event in events:
        claimed = str(event.get("spec") or event.get("spec_hash") or "")
        try:
            regenerated = spec_hash(generate_spec(int(event.get("seed", 0))))
        except Exception:  # a hostile/corrupt seed field must not raise
            mismatched += 1
            continue
        if claimed and not regenerated.startswith(claimed):
            mismatched += 1
        else:
            resolvable += 1
    return resolvable, mismatched


def workload_records(
    rows: Sequence[dict],
    near_miss_window_ms: float = DEFAULT_WINDOW_MS,
) -> Tuple[List[dict], List[str]]:
    """One record per planted bug: ground truth joined with the verdict.

    ``rows`` are fuzz-table rows (``found`` is the bug-id list) or
    ``fuzz_workload`` events (``found`` is a count). For events the id
    set is recovered from the oracle invariants: an ``ok`` row means the
    found set equals the detectable set *exactly* (recall + soundness +
    detectability all held), so the join loses nothing; a failing event
    row is reported as unresolvable rather than guessed at.
    """
    from ..gen.builder import planted_oracle
    from ..gen.spec import generate_spec, spec_hash

    records: List[dict] = []
    problems: List[str] = []
    for row in rows:
        try:
            seed = int(row["seed"])
        except (KeyError, TypeError, ValueError):
            problems.append("row without a usable seed: %r" % (row,))
            continue
        spec = generate_spec(seed)
        claimed = str(row.get("spec") or row.get("spec_hash") or "")
        if claimed and not spec_hash(spec).startswith(claimed):
            problems.append(
                "seed %d: recorded spec %s does not match the regenerated "
                "spec (generator drift); excluded from the curve" % (seed, claimed)
            )
            continue
        truth = planted_oracle(spec, near_miss_window_ms)
        found = row.get("found")
        if isinstance(found, (list, tuple, set, frozenset)):
            found_ids = set(str(b) for b in found)
        elif row.get("ok", True):
            # Oracle invariants held, so found == detectable exactly.
            found_ids = {e["bug_id"] for e in truth if e["detectable"]}
        else:
            problems.append(
                "seed %d: failing workload without a found-id list; its "
                "bugs are excluded from the curve" % seed
            )
            continue
        for entry in truth:
            records.append(
                {
                    "seed": seed,
                    "bug_id": entry["bug_id"],
                    "kind": entry["kind"],
                    "topology": spec.topology,
                    "gap_ms": float(entry["gap_ms"]),
                    "detectable": bool(entry["detectable"]),
                    "found": entry["bug_id"] in found_ids,
                    "pair": list(entry["pair"]),
                    "fault_site": entry["fault_site"],
                }
            )
    return records, problems


def _bin_rows(records: Sequence[dict], edges: Sequence[float]) -> List[dict]:
    bounds = list(edges) + [float("inf")]
    bins = [
        {"lo": (0.0 if index == 0 else bounds[index - 1]), "hi": hi,
         "planted": 0, "found": 0}
        for index, hi in enumerate(bounds)
    ]
    for record in records:
        gap = record["gap_ms"]
        for row in bins:
            if gap <= row["hi"]:
                row["planted"] += 1
                row["found"] += 1 if record["found"] else 0
                break
    out = []
    for row in bins:
        if not row["planted"]:
            continue
        row["rate"] = round(row["found"] / row["planted"], 4)
        out.append(row)
    return out


def _band(records: Sequence[dict], detectable: bool) -> dict:
    member = [r for r in records if r["detectable"] is detectable]
    found = sum(1 for r in member if r["found"])
    return {
        "planted": len(member),
        "found": found,
        "rate": round(found / len(member), 4) if member else None,
    }


def sensitivity_curve(
    records: Sequence[dict], edges: Sequence[float] = GAP_BIN_EDGES
) -> dict:
    """Detection rate vs. planted gap: overall, per topology, per kind.

    Returns only JSON-plain, deterministically ordered data: bins are in
    gap order, group keys sorted, rates rounded -- so rendering it (or
    hashing it) is reproducible across jobs/engine/chaos variants.
    """
    by_topology: Dict[str, List[dict]] = {}
    by_kind: Dict[str, List[dict]] = {}
    for record in records:
        by_topology.setdefault(record["topology"], []).append(record)
        by_kind.setdefault(record["kind"], []).append(record)
    return {
        "records": len(records),
        "found": sum(1 for r in records if r["found"]),
        "bins": _bin_rows(records, edges),
        "by_topology": {
            name: _bin_rows(group, edges) for name, group in sorted(by_topology.items())
        },
        "by_kind": {
            name: _bin_rows(group, edges) for name, group in sorted(by_kind.items())
        },
        "bands": {
            "detectable": _band(records, True),
            "undetectable": _band(records, False),
        },
    }


# ----------------------------------------------------------------------
# Delay-budget attribution (telemetry side)
# ----------------------------------------------------------------------


def load_run_ledger(streams: Sequence[Any]) -> dict:
    """Deduplicated (run, decisions) ledger out of telemetry streams.

    Raw telemetry double-counts under chaos: a retried cell re-runs the
    same pure function in another worker and appends an identical run
    record (plus identical decision events) to *its* file. Dedup key:
    every deterministic run field (``wall_ms`` and the process-local
    ``run_seq`` excluded) plus the run's decision-event tuple -- the
    same whole-value identity convention the campaign view applies to
    work-product events, so a clean, a chaos-retried, and a resumed
    campaign produce the same ledger.
    """
    duplicates = 0
    seen: Set[Tuple] = set()
    entries: List[Tuple[Tuple, dict, List[dict]]] = []
    for stream in streams:
        runs_in_file: List[dict] = []
        decisions_by_seq: Dict[int, List[dict]] = {}
        for record in stream.events:
            kind = record.get("type")
            if kind == "run":
                runs_in_file.append(record)
            elif kind == "inject":
                decisions_by_seq.setdefault(int(record.get("run", 0)), []).append(record)
        for run in runs_in_file:
            decisions = decisions_by_seq.get(int(run.get("run_seq", 0)), [])
            identity = _run_identity(run, decisions)
            if identity in seen:
                duplicates += 1
                continue
            seen.add(identity)
            entries.append((identity, run, decisions))
    entries.sort(key=lambda item: item[0])
    return {
        "runs": len(entries),
        "duplicates": duplicates,
        "decisions": sum(len(d) for _i, _r, d in entries),
        "recovered_lines": sum(stream.recovered for stream in streams),
        # (run dict, [decision dicts]) in identity order
        "entries": [(run, decisions) for _identity, run, decisions in entries],
    }


def _run_identity(run: dict, decisions: Sequence[dict]) -> Tuple:
    """Deterministic identity of one run and its decision events."""
    run_key = tuple(
        sorted(
            (k, str(v))
            for k, v in run.items()
            if k not in ("wall_ms", "run_seq", "type")
        )
    )
    decision_key = tuple(
        sorted(
            tuple(sorted((k, str(v)) for k, v in d.items() if k not in ("run", "type")))
            for d in decisions
        )
    )
    return (run_key, decision_key)


def dossier_pair_sites(dossiers: Sequence[dict]) -> Set[str]:
    """Every site participating in a dossier's candidate-pair provenance
    (both sides of each near-miss pair, plus the fault site)."""
    sites: Set[str] = set()
    for item in dossiers:
        payload = item.get("dossier", item) or {}
        for entry in payload.get("provenance", ()) or ():
            for key in ("delay_site", "other_site"):
                value = entry.get(key)
                if value:
                    sites.add(str(value))
        report = payload.get("report", {}) or {}
        fault = report.get("fault_location")
        if fault:
            sites.add(str(fault))
    return sites


def site_attribution(
    ledger: dict,
    dossiers: Sequence[dict] = (),
    records: Sequence[dict] = (),
) -> List[dict]:
    """Per-site delay-budget attribution over the deduplicated ledger.

    One row per site that ever saw an injection decision: delay budget
    consumed (injections and total delay ms) and skips by reason. The
    ``counterfactual`` flag marks a site with skips that appears in a
    bug's pair -- a dossier's provenance pair or a planted bug's racing
    pair -- i.e. a skip that may have cost or delayed a detection.
    """
    pair_sites = dossier_pair_sites(dossiers)
    for record in records:
        for site in record.get("pair", ()):
            pair_sites.add(str(site))
    sites: Dict[str, dict] = {}
    for _run, decisions in ledger.get("entries", ()):
        for decision in decisions:
            site = str(decision.get("site", "?"))
            row = sites.get(site)
            if row is None:
                row = sites[site] = {
                    "site": site,
                    "considered": 0,
                    "injected": 0,
                    "delay_ms": 0.0,
                    "skips": {"decay": 0, "interference": 0, "budget": 0},
                }
            row["considered"] += 1
            if decision.get("action") == "inject":
                row["injected"] += 1
                row["delay_ms"] += float(decision.get("len_ms", 0.0))
            else:
                reason = str(decision.get("reason", "decay"))
                row["skips"][reason] = row["skips"].get(reason, 0) + 1
    out = []
    for site in sorted(sites):
        row = sites[site]
        row["delay_ms"] = round(row["delay_ms"], 4)
        row["skipped"] = sum(row["skips"].values())
        row["counterfactual"] = bool(row["skipped"]) and site in pair_sites
        out.append(row)
    out.sort(key=lambda r: (-r["delay_ms"], -r["injected"], r["site"]))
    return out


def skip_rollup(attribution: Sequence[dict]) -> dict:
    """Campaign-wide skip taxonomy out of the per-site attribution."""
    rollup = {
        "considered": 0,
        "injected": 0,
        "delay_ms": 0.0,
        "decay": 0,
        "interference": 0,
        "budget": 0,
        "counterfactual_sites": 0,
    }
    for row in attribution:
        rollup["considered"] += row["considered"]
        rollup["injected"] += row["injected"]
        rollup["delay_ms"] += row["delay_ms"]
        for reason in ("decay", "interference", "budget"):
            rollup[reason] += row["skips"].get(reason, 0)
        if row["counterfactual"]:
            rollup["counterfactual_sites"] += 1
    rollup["delay_ms"] = round(rollup["delay_ms"], 4)
    rollup["skipped"] = rollup["decay"] + rollup["interference"] + rollup["budget"]
    return rollup


# ----------------------------------------------------------------------
# Convenience: a quality bundle from heterogeneous sources
# ----------------------------------------------------------------------


def build_quality(
    obs_data: Any,
    rows: Optional[Sequence[dict]] = None,
    near_miss_window_ms: float = DEFAULT_WINDOW_MS,
) -> dict:
    """Assemble the full quality picture of a loaded obs directory.

    ``rows`` (fuzz-table rows, id-carrying) win over the directory's
    campaign-view events; the attribution comes from its run ledger
    and dossiers. Every component may be empty -- the dashboard renders
    its headings with empty sections rather than hiding them, so a
    census of what's absent is part of the artifact.
    """
    view = obs_data.view
    source_rows = list(rows) if rows is not None else (
        rows_from_view(view) if view is not None else []
    )
    records, problems = workload_records(source_rows, near_miss_window_ms)
    attribution = site_attribution(
        obs_data.ledger, dossiers=obs_data.dossiers, records=records
    )
    return {
        "records": records,
        "curve": sensitivity_curve(records) if records else None,
        "attribution": attribution,
        "rollup": skip_rollup(attribution) if attribution else None,
        "problems": problems,
    }
