"""Self-contained campaign dashboard (single HTML file, inline SVG).

``render_dashboard`` turns one obs directory (:class:`repro.obs.report.ObsData`:
its deduplicated campaign view and :func:`repro.obs.report.funnel`) and the ground-truth quality joins
(:mod:`repro.obs.quality`) into one HTML document with **no external assets**:
styles inline, charts as inline SVG, data tables beside every chart so
nothing is color-alone. Sections render their headings even when their
data source is absent -- an empty section is a census of what the
campaign did not produce, and the stable structure is what the CI smoke
test greps for.

Determinism is a feature, not an accident: the document carries no
timestamps, hostnames, or source paths; every iteration is over sorted
keys; all numbers come from deduplicated or ground-truth-reconciled
sources. Re-rendering the same campaign -- across ``--jobs`` fan-out or
happens-before engines -- yields a byte-identical file (a golden test
pins this).

Palette (validated categorical/sequential/status sets): series colors
follow the entity in fixed slot order, magnitude uses a single-hue
ramp, status colors ship with an icon + label.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Validated categorical slots (fixed assignment order, never cycled):
# slot 1 blue, slot 2 orange, slot 3 aqua, slot 4 yellow.
CATEGORICAL_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100")
CATEGORICAL_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500")

#: Single-hue sequential ramp (blue, steps 100 -> 700) for magnitude.
SEQUENTIAL = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: Status colors -- reserved for state, always icon + label beside them.
STATUS = {"good": "#0ca30c", "warning": "#fab219",
          "serious": "#ec835a", "critical": "#d03b3b"}

#: Fixed topology -> categorical slot assignment (identity follows the
#: entity: a filtered chart never repaints survivors).
TOPOLOGY_SLOTS = ("fanout", "pool", "pipeline", "diamond")

_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink2: #52514e; --line: #e4e3e0;
  --cat1: #2a78d6; --cat2: #eb6834; --cat3: #1baf7a; --cat4: #eda100;
  --good: #0ca30c; --warn: #fab219; --serious: #ec835a; --crit: #d03b3b;
  --band-detectable: #cde2fb; --band-undetectable: #efeeec;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #f2f1ef; --ink2: #a5a49f; --line: #3a3938;
    --cat1: #3987e5; --cat2: #d95926; --cat3: #199e70; --cat4: #c98500;
    --band-detectable: #1c2e4a; --band-undetectable: #262523;
  }
}
body { background: var(--surface); color: var(--ink); margin: 2rem auto;
  max-width: 1060px; padding: 0 1rem;
  font: 14px/1.5 system-ui, -apple-system, sans-serif; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2.2rem; }
h1, h2 { letter-spacing: -0.01em; }
table { border-collapse: collapse; margin: 0.6rem 0;
  font: 12px/1.5 ui-monospace, monospace; }
th, td { border: 1px solid var(--line); padding: 3px 9px; text-align: right; }
th { color: var(--ink2); font-weight: 600; }
td.l, th.l { text-align: left; }
.muted { color: var(--ink2); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 1rem 0; }
.tile { border: 1px solid var(--line); border-radius: 8px;
  padding: 10px 16px; min-width: 150px; }
.tile .v { font-size: 1.7rem; font-weight: 650; font-variant-numeric: tabular-nums; }
.tile .k { color: var(--ink2); font-size: 0.8rem; }
.status { font-weight: 600; }
svg { display: block; margin: 0.6rem 0; }
svg text { font: 11px ui-monospace, monospace; fill: var(--ink2); }
svg text.lbl { fill: var(--ink); }
svg .grid { stroke: var(--line); stroke-width: 1; }
.s1 { stroke: var(--cat1); } .s2 { stroke: var(--cat2); }
.s3 { stroke: var(--cat3); } .s4 { stroke: var(--cat4); }
.f1 { fill: var(--cat1); } .f2 { fill: var(--cat2); }
.f3 { fill: var(--cat3); } .f4 { fill: var(--cat4); }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--ink2); }
.legend span::before { content: "■ "; }
.legend .l1::before { color: var(--cat1); } .legend .l2::before { color: var(--cat2); }
.legend .l3::before { color: var(--cat3); } .legend .l4::before { color: var(--cat4); }
details { margin: 0.4rem 0; } summary { color: var(--ink2); cursor: pointer; }
pre { font: 12px/1.5 ui-monospace, monospace; }
"""


def _e(value: Any) -> str:
    return _html.escape(str(value), quote=True)


def _num(value: Any) -> str:
    if value is None:
        return "-"
    number = float(value)
    if number.is_integer():
        return "{:,}".format(int(number))
    return "%.4g" % number


def _rate(value: Optional[float]) -> str:
    return "-" if value is None else "%.0f%%" % (100.0 * value)


# ----------------------------------------------------------------------
# SVG pieces
# ----------------------------------------------------------------------


def _svg_funnel(stages: Sequence[Tuple[str, int]]) -> str:
    """Horizontal funnel: thin bars, 4px rounded data ends, direct
    labels (count + conversion from the previous stage)."""
    width, bar_h, gap, label_w = 960, 22, 12, 190
    top = max((count for _n, count in stages), default=0) or 1
    height = len(stages) * (bar_h + gap) + gap
    parts = ['<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img" '
             'aria-label="detection funnel">' % (width, height, width, height)]
    prev = None
    for index, (name, count) in enumerate(stages):
        y = gap + index * (bar_h + gap)
        span = max(2.0, (width - label_w - 140) * (count / top)) if count else 2.0
        conv = "" if prev in (None, 0) else "  (%s of prior)" % _rate(count / prev)
        parts.append('<text x="%d" y="%.0f" text-anchor="end" class="lbl">%s</text>'
                     % (label_w - 10, y + bar_h - 6, _e(name)))
        parts.append(
            '<rect x="%d" y="%d" width="%.1f" height="%d" rx="4" class="f1">'
            '<title>%s: %s%s</title></rect>'
            % (label_w, y, span, bar_h, _e(name), _num(count), _e(conv))
        )
        parts.append('<text x="%.1f" y="%.0f">%s%s</text>'
                     % (label_w + span + 8, y + bar_h - 6, _num(count), _e(conv)))
        prev = count
    parts.append("</svg>")
    return "".join(parts)


def _curve_domain(groups: Dict[str, List[dict]]) -> List[float]:
    edges: List[float] = []
    for bins in groups.values():
        for row in bins:
            if row["hi"] not in edges:
                edges.append(row["hi"])
    return sorted(edges)


def _svg_curves(groups: Dict[str, List[dict]], slots: Sequence[str],
                aria: str) -> str:
    """Detection rate vs. planted-gap bin, one polyline per group.

    Slot order fixes each group's color; the generator's ground-truth
    bands are shaded under the data (with text labels -- shading is
    never the only encoding).
    """
    width, height, pad_l, pad_r, pad_t, pad_b = 960, 240, 60, 20, 16, 36
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    domain = _curve_domain(groups)
    parts = ['<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img" '
             'aria-label="%s">' % (width, height, width, height, _e(aria))]

    def x_of(index: int) -> float:
        if len(domain) <= 1:
            return pad_l + plot_w / 2.0
        return pad_l + plot_w * index / (len(domain) - 1)

    def y_of(rate: float) -> float:
        return pad_t + plot_h * (1.0 - rate)

    if domain:
        half = (plot_w / max(1, len(domain) - 1)) / 2.0
        detectable = [i for i, hi in enumerate(domain) if hi <= 40.0]
        undetectable = [i for i, hi in enumerate(domain) if hi > 140.0]
        for indices, css, label in (
            (detectable, "var(--band-detectable)", "detectable band (gap ≤ 40ms)"),
            (undetectable, "var(--band-undetectable)", "undetectable band (gap ≥ 140ms)"),
        ):
            if not indices:
                continue
            x0 = max(pad_l, x_of(indices[0]) - half)
            x1 = min(pad_l + plot_w, x_of(indices[-1]) + half)
            parts.append('<rect x="%.1f" y="%d" width="%.1f" height="%d" '
                         'fill="%s"><title>%s</title></rect>'
                         % (x0, pad_t, x1 - x0, plot_h, css, _e(label)))
            parts.append('<text x="%.1f" y="%d">%s</text>'
                         % (x0 + 4, pad_t + 12, _e(label)))
    for rate in (0.0, 0.5, 1.0):
        y = y_of(rate)
        parts.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" class="grid"/>'
                     % (pad_l, y, pad_l + plot_w, y))
        parts.append('<text x="%d" y="%.1f" text-anchor="end">%d%%</text>'
                     % (pad_l - 8, y + 4, int(rate * 100)))
    for index, hi in enumerate(domain):
        label = "&gt;%s" % _num(domain[index - 1]) if hi == float("inf") else "≤%s" % _num(hi)
        parts.append('<text x="%.1f" y="%d" text-anchor="middle">%s</text>'
                     % (x_of(index), height - pad_b + 16, label))
    parts.append('<text x="%d" y="%d" text-anchor="middle">planted gap (virtual ms)</text>'
                 % (pad_l + plot_w // 2, height - 4))

    slot_order = [name for name in slots if name in groups]
    slot_order += [name for name in sorted(groups) if name not in slot_order]
    for slot, name in enumerate(slot_order[:4], start=1):
        points = []
        for row in groups[name]:
            points.append((x_of(domain.index(row["hi"])), y_of(row["rate"]), row))
        if len(points) > 1:
            path = " ".join("%.1f,%.1f" % (x, y) for x, y, _r in points)
            parts.append('<polyline points="%s" fill="none" class="s%d" '
                         'stroke-width="2"/>' % (path, slot))
        for x, y, row in points:
            parts.append(
                '<circle cx="%.1f" cy="%.1f" r="4" class="f%d" stroke="var(--surface)"'
                ' stroke-width="2"><title>%s, gap ≤ %s ms: %s of %s found (%s)'
                '</title></circle>'
                % (x, y, slot, _e(name), _num(row["hi"]), _num(row["found"]),
                   _num(row["planted"]), _rate(row["rate"]))
            )
        if points:
            x, y, _row = points[-1]
            parts.append('<text x="%.1f" y="%.1f" class="lbl">%s</text>'
                         % (min(x + 8, width - pad_r - 4), y - 8, _e(name)))
    parts.append("</svg>")
    legend = "".join('<span class="l%d">%s</span>' % (slot, _e(name))
                     for slot, name in enumerate(slot_order[:4], start=1))
    if len(slot_order) > 1:
        parts.append('<div class="legend">%s</div>' % legend)
    return "".join(parts)


def _bins_table(groups: Dict[str, List[dict]], slots: Sequence[str]) -> str:
    slot_order = [name for name in slots if name in groups]
    slot_order += [name for name in sorted(groups) if name not in slot_order]
    rows = ['<table><tr><th class="l">series</th><th>gap bin (ms)</th>'
            '<th>planted</th><th>found</th><th>rate</th></tr>']
    for name in slot_order:
        for row in groups[name]:
            hi = "&gt;%s" % _num(row["lo"]) if row["hi"] == float("inf") else "≤%s" % _num(row["hi"])
            rows.append('<tr><td class="l">%s</td><td>%s</td><td>%s</td>'
                        '<td>%s</td><td>%s</td></tr>'
                        % (_e(name), hi, _num(row["planted"]),
                           _num(row["found"]), _rate(row["rate"])))
    rows.append("</table>")
    return "".join(rows)


def _heat_cell(value: float, top: float) -> str:
    if top <= 0 or value <= 0:
        return '<td>%s</td>' % _num(value)
    index = min(len(SEQUENTIAL) - 1, int(value / top * (len(SEQUENTIAL) - 1)))
    index = max(3, index)  # ordinal floor: stay readable on light surface
    ink = "#0b0b0b" if index < 7 else "#fcfcfb"
    return ('<td style="background:%s;color:%s">%s</td>'
            % (SEQUENTIAL[index], ink, _num(value)))


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _section_tiles(view, stages, quality: Optional[dict]) -> str:
    curve = (quality or {}).get("curve") or {}
    bands = curve.get("bands", {})
    detectable = bands.get("detectable") or {}
    tiles = [
        ("bugs detected", dict(stages).get("detected", 0)),
        ("detectable-band rate",
         _rate(detectable.get("rate")) if detectable else "-"),
        ("planted bugs", curve.get("records", 0)),
        ("cells done", "%s / %s" % (_num(view.cells_done), _num(view.cells_total))
         if view is not None else "-"),
    ]
    body = "".join('<div class="tile"><div class="v">%s</div>'
                   '<div class="k">%s</div></div>'
                   % (_e(v if isinstance(v, str) else _num(v)), _e(k))
                   for k, v in tiles)
    return '<div class="tiles">%s</div>' % body


def _section_funnel(stages) -> str:
    out = ["<h2>Detection funnel</h2>"]
    if not stages:
        out.append('<p class="muted">no obs directory loaded</p>')
        return "".join(out)
    out.append(_svg_funnel(stages))
    out.append('<details><summary>funnel as a table</summary><table>'
               '<tr><th class="l">stage</th><th>count</th></tr>')
    for label, count in stages:
        out.append('<tr><td class="l">%s</td><td>%s</td></tr>' % (_e(label), _num(count)))
    out.append("</table></details>")
    return "".join(out)


def _section_sensitivity(quality: Optional[dict]) -> str:
    out = ["<h2>Sensitivity curves</h2>",
           '<p class="muted">detection rate vs. planted happens-before gap, '
           'reconciled against generator ground truth</p>']
    curve = (quality or {}).get("curve")
    if not curve:
        out.append('<p class="muted">no fuzz workloads with resolvable '
                   'oracles; run <code>repro fuzz --dashboard</code></p>')
        return "".join(out)
    out.append("<h3>by topology</h3>")
    out.append(_svg_curves(curve["by_topology"], TOPOLOGY_SLOTS,
                           "sensitivity by topology"))
    out.append('<details><summary>topology curve as a table</summary>%s</details>'
               % _bins_table(curve["by_topology"], TOPOLOGY_SLOTS))
    out.append("<h3>by bug class</h3>")
    kinds = sorted(curve["by_kind"])
    out.append(_svg_curves(curve["by_kind"], kinds, "sensitivity by bug class"))
    out.append('<details><summary>bug-class curve as a table</summary>%s</details>'
               % _bins_table(curve["by_kind"], kinds))
    bands = curve["bands"]
    out.append('<table><tr><th class="l">ground-truth band</th><th>planted</th>'
               '<th>found</th><th>rate</th></tr>')
    for band in ("detectable", "undetectable"):
        stats = bands[band]
        out.append('<tr><td class="l">%s</td><td>%s</td><td>%s</td><td>%s</td></tr>'
                   % (_e(band), _num(stats["planted"]), _num(stats["found"]),
                      _rate(stats["rate"])))
    out.append("</table>")
    for problem in (quality or {}).get("problems", ()):
        out.append('<p class="status" style="color:var(--warn)">&#9888; %s</p>'
                   % _e(problem))
    return "".join(out)


def _section_attribution(quality: Optional[dict]) -> str:
    out = ["<h2>Delay-budget attribution</h2>",
           '<p class="muted">which sites consumed injection budget; a '
           '&#9888; counterfactual site had skips while sitting on a '
           'bug&#8217;s racing pair</p>']
    attribution = (quality or {}).get("attribution") or []
    if not attribution:
        out.append('<p class="muted">no per-site telemetry loaded '
                   '(run with <code>--obs-dir</code>)</p>')
        return "".join(out)
    top_delay = max(row["delay_ms"] for row in attribution)
    top_skip = float(max(row["skipped"] for row in attribution))
    out.append('<table><tr><th class="l">site</th><th>considered</th>'
               '<th>injected</th><th>delay ms</th><th>decay</th>'
               '<th>interference</th><th>budget</th><th class="l">flag</th></tr>')
    shown = attribution[:40]
    for row in shown:
        flag = ('<span class="status" style="color:var(--warn)">&#9888; '
                'counterfactual</span>' if row["counterfactual"] else "")
        out.append(
            '<tr><td class="l">%s</td><td>%s</td><td>%s</td>%s%s%s%s'
            '<td class="l">%s</td></tr>'
            % (_e(row["site"]), _num(row["considered"]), _num(row["injected"]),
               _heat_cell(row["delay_ms"], top_delay),
               _heat_cell(row["skips"].get("decay", 0), top_skip),
               _heat_cell(row["skips"].get("interference", 0), top_skip),
               _heat_cell(row["skips"].get("budget", 0), top_skip),
               flag)
        )
    out.append("</table>")
    if len(attribution) > len(shown):
        out.append('<p class="muted">%d further site(s) not shown (sorted by '
                   'delay consumed)</p>' % (len(attribution) - len(shown)))
    rollup = (quality or {}).get("rollup")
    out.append("<h3>skip taxonomy</h3>")
    if rollup:
        out.append('<table><tr><th>considered</th><th>injected</th>'
                   '<th>skipped</th><th>decay</th><th>interference</th>'
                   '<th>budget</th><th>counterfactual sites</th></tr>'
                   '<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td>'
                   '<td>%s</td><td>%s</td><td>%s</td></tr></table>'
                   % (_num(rollup["considered"]), _num(rollup["injected"]),
                      _num(rollup["skipped"]), _num(rollup["decay"]),
                      _num(rollup["interference"]), _num(rollup["budget"]),
                      _num(rollup["counterfactual_sites"])))
    else:
        out.append('<p class="muted">no injection decisions recorded</p>')
    return "".join(out)


def _section_census(view) -> str:
    out = ["<h2>Fault &amp; chaos census</h2>"]
    if view is None:
        out.append('<p class="muted">no campaign events loaded</p>')
        return "".join(out)
    out.append('<table><tr><th>retries</th><th>resumed</th>'
               '<th>watchdog kills</th><th>chaos fires</th>'
               '<th>checkpoints</th><th>cache hits</th><th>cache misses</th></tr>'
               '<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td>'
               '<td>%s</td><td>%s</td></tr></table>'
               % (_num(view.retries), _num(view.resumed),
                  _num(view.watchdog_kills), _num(view.chaos_fires),
                  _num(view.checkpoints), _num(view.cache_hits),
                  _num(view.cache_misses)))
    if view.faults:
        top = max(view.faults.values())
        out.append('<table><tr><th class="l">fault kind</th><th>fired</th></tr>')
        for kind in sorted(view.faults):
            out.append('<tr><td class="l">%s</td>%s</tr>'
                       % (_e(kind), _heat_cell(view.faults[kind], top)))
        out.append("</table>")
    else:
        out.append('<p class="muted">no injected faults</p>')
    return "".join(out)


def _section_fuzz(view) -> str:
    """The report's generated-workloads digest (:func:`repro.obs.report.fuzz_lines`)."""
    from .report import fuzz_lines

    lines = fuzz_lines(view) if view is not None else []
    if not lines:
        return ('<h2>Generated workloads</h2>'
                '<p class="muted">no fuzz workloads in this campaign</p>')
    return "<h2>Generated workloads</h2><pre>%s</pre>" % _e("\n".join(lines[1:]))


def render_dashboard(
    data=None,
    quality: Optional[dict] = None,
    title: str = "WAFFLE detection-quality dashboard",
) -> str:
    """The whole document for one loaded obs directory (``data``, an
    :class:`~repro.obs.report.ObsData`). Every argument optional; every
    section's heading renders regardless (empty data is reported, not
    hidden)."""
    from .report import funnel

    view = data.view if data is not None else None
    stages = funnel(data) if data is not None else []
    body = [
        "<h1>%s</h1>" % _e(title),
        '<p class="muted">active delay injection: near-miss pairs &#8594; '
        'candidate pairs &#8594; injected delays &#8594; detections, '
        'reconciled against generator ground truth</p>',
        _section_tiles(view, stages, quality),
        _section_funnel(stages),
        _section_sensitivity(quality),
        _section_attribution(quality),
        _section_fuzz(view),
        _section_census(view),
    ]
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n"
        "<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n%s\n</body>\n</html>\n"
        % (_e(title), _CSS, "\n".join(body))
    )
