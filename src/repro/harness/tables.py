"""Render experiment results as paper-style text tables."""

from __future__ import annotations

from typing import List, Optional, Sequence

from .experiments import (
    DynamicInstanceRow,
    Figure2Point,
    OverlapRow,
    StressRow,
    Table2Row,
    Table4Row,
    Table5Row,
    Table6Row,
    Table7Row,
)


def _fmt(value: Optional[float], pattern: str = "%.1f", missing: str = "-") -> str:
    return missing if value is None else pattern % value


def _grid(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(header), sep] + [line(r) for r in rows])


#: Table 1: the qualitative design-decision matrix (static).
TABLE1_HEADER = ["Design decision", "RaceFuzzer", "CTrigger", "RaceMob", "DataCollider", "Tsvd",
                 "Waffle"]
TABLE1_ROWS = [
    ["Synchronization analysis?", "yes", "yes", "yes", "no", "no", "partial"],
    ["Synchronization inference?", "no", "no", "no", "no", "yes", "yes"],
    ["Identify during injection runs?", "no", "no", "no", "no", "yes", "no"],
    ["Fixed-length delay?", "yes", "yes", "no", "yes", "yes", "no"],
    ["Avoid delay interference?", "n/a", "n/a", "n/a", "n/a", "no", "yes"],
    ["Inject at sampled locations?", "yes", "yes", "yes", "yes", "no", "no"],
    ["Probabilistic injection?", "no", "no", "yes", "yes", "yes", "yes"],
]


def design_matrix() -> str:
    """Table 1, rendered."""
    return ("Table 1: design decisions of active delay-injection tools\n"
            + _grid(TABLE1_HEADER, TABLE1_ROWS))


def render_table2(rows: List[Table2Row]) -> str:
    header = ["App", "TSV instr", "MO instr", "TSV inject", "MO inject", "MO/TSV instr"]
    body = [
        [
            r.app,
            "%.1f" % r.tsv_instr_sites,
            "%.1f" % r.mo_instr_sites,
            "%.1f" % r.tsv_injection_sites,
            "%.1f" % r.mo_injection_sites,
            "%.1fx" % (r.mo_instr_sites / r.tsv_instr_sites) if r.tsv_instr_sites else "-",
        ]
        for r in rows
    ]
    return (
        "Table 2: average unique static instrumentation and injection sites per test\n"
        + _grid(header, body)
    )


def render_figure2(points: List[Figure2Point]) -> str:
    header = ["delay (ms)", "TSV exposed", "MemOrder exposed"]
    body = [
        ["%.0f" % p.delay_ms, "yes" if p.tsv_exposed else "no", "yes" if p.memorder_exposed else "no"]
        for p in points
    ]
    return (
        "Figure 2: timing conditions -- a TSV needs a delay within a bounded\n"
        "range; a MemOrder bug needs a delay longer than the whole gap\n"
        + _grid(header, body)
    )


def render_overlap(rows: List[OverlapRow]) -> str:
    header = ["App", "Tsvd overlap", "WaffleBasic overlap"]
    body = [
        [r.app, "%.1f%%" % (100 * r.tsvd_overlap), "%.1f%%" % (100 * r.wafflebasic_overlap)]
        for r in rows
    ]
    return "Section 3.3: average delay-overlap ratio per application\n" + _grid(header, body)


def render_dynamic_instances(rows: List[DynamicInstanceRow], overall: Optional[float]) -> str:
    header = ["App", "init sites", "median dynamic instances"]
    body = [[r.app, str(r.init_sites), "%.1f" % r.median_init_instances] for r in rows]
    return (
        "Section 3.3: dynamic instances of initialization sites "
        "(overall median: %s)\n" % _fmt(overall) + _grid(header, body)
    )


def render_table4(rows: List[Table4Row]) -> str:
    header = [
        "Bug", "App", "Issue", "Known", "Base(ms)",
        "runs Basic", "runs Waffle", "slowdn Basic", "slowdn Waffle",
        "paper Basic", "paper Waffle",
    ]
    body = []
    for r in rows:
        bug = r.bug
        body.append(
            [
                bug.bug_id,
                bug.app,
                bug.issue_id,
                "yes" if bug.previously_known else "no",
                "%.0f" % r.baseline_ms,
                _fmt(r.basic_runs, "%d"),
                _fmt(r.waffle_runs, "%d"),
                _fmt(r.basic_slowdown, "%.1fx"),
                _fmt(r.waffle_slowdown, "%.1fx"),
                _fmt(bug.paper_runs_basic, "%d"),
                _fmt(bug.paper_runs_waffle, "%d"),
            ]
        )
    return "Table 4: detection results (\"-\" = not exposed within budget)\n" + _grid(header, body)


def render_table5(rows: List[Table5Row]) -> str:
    header = ["App", "Base(ms)", "Basic R#1", "Basic R#2", "Waffle R#1", "Waffle R#2"]
    body = []
    for r in rows:
        if r.basic_timed_out:
            basic1 = basic2 = "TimeOut"
        else:
            basic1 = _fmt(r.basic_run1_pct, "%.0f%%")
            basic2 = _fmt(r.basic_run2_pct, "%.0f%%")
        body.append(
            [
                r.app,
                "%.0f" % r.baseline_ms,
                basic1,
                basic2,
                _fmt(r.waffle_run1_pct, "%.0f%%"),
                _fmt(r.waffle_run2_pct, "%.0f%%"),
            ]
        )
    return "Table 5: average overhead on all test inputs\n" + _grid(header, body)


def render_table6(rows: List[Table6Row]) -> str:
    header = ["App", "Basic #delays", "Basic dur(ms)", "Waffle #delays", "Waffle dur(ms)"]
    body = []
    for r in rows:
        if r.basic_timed_out:
            basic_n, basic_d = "TimeOut", "TimeOut"
        else:
            basic_n, basic_d = str(r.basic_delays), "%.0f" % r.basic_duration_ms
        body.append(
            [r.app, basic_n, basic_d, str(r.waffle_delays), "%.0f" % r.waffle_duration_ms]
        )
    return (
        "Table 6: cumulative delays injected across all test inputs "
        "(one detection run each)\n" + _grid(header, body)
    )


def render_table7(rows: List[Table7Row]) -> str:
    header = ["Alternative design", "# bugs missed", "slowdown over Waffle"]
    body = [[r.label, str(r.bugs_missed), "%.2fx" % r.slowdown_over_waffle] for r in rows]
    return "Table 7: single-design-point ablations\n" + _grid(header, body)


def render_stress(rows: List[StressRow]) -> str:
    header = ["Bug", "delay-free runs", "spontaneous manifestations"]
    body = [[r.bug_id, str(r.runs), str(r.spontaneous_manifestations)] for r in rows]
    return (
        "Section 6.2 control: no bug manifests without delay injection\n"
        + _grid(header, body)
    )


def render_related_tools(rows) -> str:
    tools = ["waffle", "racefuzzer", "ctrigger", "racemob", "datacollider"]
    header = ["Bug", "App"] + tools
    body = []
    for r in rows:
        body.append(
            [r.bug_id, r.app]
            + [("-" if r.runs.get(t) is None else str(r.runs[t])) for t in tools]
        )
    return (
        "Extension: runs to expose each bug across the Table 1 design space\n"
        "(simplified models of prior tools; '-' = not exposed within budget)\n"
        + _grid(header, body)
    )


def render_figure5(points) -> str:
    header = ["interferer at (ms)", "delay overlaps window", "bug exposed"]
    body = [
        [
            "%.0f" % p.interferer_at_ms,
            "yes" if p.interferer_delay_overlaps_window else "no",
            "yes" if p.bug_exposed else "no (canceled)",
        ]
        for p in points
    ]
    return (
        "Figure 5: the interference window -- a concurrent delay on the\n"
        "disposer's thread cancels the reordering delay; an early one is\n"
        "absorbed by slack and interferes with nothing\n" + _grid(header, body)
    )
