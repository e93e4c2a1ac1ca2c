"""Self-contained HTML dashboard over a report, a metrics snapshot, a trace.

``atm-repro dashboard`` writes **one** HTML file with zero external
references — no scripts, stylesheets, fonts or images are fetched from
anywhere (CI greps the output for ``http``/``https`` URLs to keep it
that way), so the file can be archived next to ``report.json`` and
opened years later, offline, exactly as rendered.  Charts are inline
SVG generated directly from the structured data:

* per-experiment **execution-time curves** (log-scale modelled seconds
  against fleet size, one polyline per platform, the half-second
  deadline drawn across);
* the **deadline-margin chart**: worst remaining period budget per
  platform per fleet size, read from the ``atm_deadline_margin_seconds``
  histogram family of the metrics snapshot — the knee where a platform
  dips below the zero line is the paper's §6.2 verdict, visible;
* a **span flamegraph** of the trace collector (modelled seconds wide,
  call-stack deep), when a collector is given;
* **counter panels** for every counter/gauge family in the snapshot.

Everything degrades gracefully: a report without sweeps still renders
its tables, a snapshot without misses still draws the margin chart, no
collector simply omits the flamegraph.
"""

from __future__ import annotations

import html
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .collector import Collector

__all__ = ["render_dashboard", "write_dashboard"]

#: Platform-family colours (keyed by name prefix before the ``:``).
FAMILY_COLORS = {
    "cuda": "#2f9e44",
    "ap": "#e8590c",
    "simd": "#1971c2",
    "mimd": "#e03131",
    "vector": "#9c36b5",
}
_FALLBACK_COLOR = "#495057"

#: Shade variants so sibling platforms of one family stay tellable.
_SHADES = ("", "aa", "77")

_CSS = """
body { font-family: sans-serif; margin: 1.5em; background: #fcfcfc;
       color: #212529; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 1.6em; }
.meta { color: #666; font-size: 0.9em; }
.panel { background: #fff; border: 1px solid #dee2e6; border-radius: 6px;
         padding: 0.8em 1em; margin: 0.8em 0; }
table { border-collapse: collapse; font-size: 0.85em; }
th, td { border: 1px solid #dee2e6; padding: 0.25em 0.6em; text-align: right; }
th { background: #f1f3f5; } td.l, th.l { text-align: left; }
.miss { color: #e03131; font-weight: bold; }
.ok { color: #2f9e44; }
svg text { font-family: sans-serif; }
.legend span { display: inline-block; margin-right: 1em; font-size: 0.85em; }
.swatch { display: inline-block; width: 0.8em; height: 0.8em;
          border-radius: 2px; margin-right: 0.3em; vertical-align: middle; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _color_for(platform: str, index: int) -> str:
    family = platform.split(":", 1)[0]
    base = FAMILY_COLORS.get(family, _FALLBACK_COLOR)
    return base + _SHADES[index % len(_SHADES)]


def _fmt_seconds(seconds: float) -> str:
    if seconds == 0:
        return "0"
    if abs(seconds) < 1e-3:
        return f"{seconds * 1e6:.3g}µs"
    if abs(seconds) < 1.0:
        return f"{seconds * 1e3:.3g}ms"
    return f"{seconds:.3g}s"


# ---------------------------------------------------------------------------
# chart primitives (inline SVG, no external anything)
# ---------------------------------------------------------------------------


def _log10(value: float) -> float:
    import math

    return math.log10(value)


def _line_chart(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 640,
    height: int = 300,
    log_y: bool = False,
    y_label: str = "",
    hline: Optional[Tuple[float, str]] = None,
) -> str:
    """One SVG line chart: ``{name: [(x, y), ...]}`` with a legend.

    ``hline`` draws a labeled horizontal rule (the deadline, the zero
    margin).  With ``log_y`` non-positive values are clamped to the
    smallest positive sample.
    """
    pad_l, pad_r, pad_t, pad_b = 64, 16, 14, 34
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    points = [p for pts in series.values() for p in pts]
    if not points:
        return "<p>(no data)</p>"
    xs = sorted({x for x, _ in points})
    ys = [y for _, y in points]
    if hline is not None:
        ys.append(hline[0])
    if log_y:
        floor = min((y for y in ys if y > 0), default=1e-9)
        ys = [y if y > 0 else floor for y in ys]
        lo, hi = _log10(min(ys)), _log10(max(ys))
    else:
        lo, hi = min(ys), max(ys)
    if hi <= lo:
        hi = lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return pad_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        if log_y:
            y = _log10(y) if y > 0 else lo
        return pad_t + (hi - y) / (hi - lo) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">',
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}"'
        ' fill="#fff" stroke="#ced4da"/>',
    ]
    # y-axis ticks: 4 evenly spaced in the (possibly log) domain.
    for i in range(5):
        frac = i / 4
        domain_y = lo + (hi - lo) * frac
        value = 10 ** domain_y if log_y else domain_y
        y = pad_t + (1 - frac) * plot_h
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{pad_l + plot_w}" '
            f'y2="{y:.1f}" stroke="#f1f3f5"/>'
        )
        parts.append(
            f'<text x="{pad_l - 6}" y="{y + 3:.1f}" font-size="10"'
            f' text-anchor="end">{_esc(_fmt_seconds(value))}</text>'
        )
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - pad_b + 14}" font-size="10"'
            f' text-anchor="middle">{int(x)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="4" y="{pad_t - 2}" font-size="10">{_esc(y_label)}</text>'
        )
    if hline is not None:
        y = py(hline[0])
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{pad_l + plot_w}" '
            f'y2="{y:.1f}" stroke="#868e96" stroke-dasharray="5,4"/>'
        )
        parts.append(
            f'<text x="{pad_l + plot_w - 4}" y="{y - 4:.1f}" font-size="10"'
            f' text-anchor="end" fill="#868e96">{_esc(hline[1])}</text>'
        )
    family_seen: Dict[str, int] = {}
    legend: List[str] = []
    for name in sorted(series):
        pts = sorted(series[name])
        family = name.split(":", 1)[0]
        color = _color_for(name, family_seen.get(family, 0))
        family_seen[family] = family_seen.get(family, 0) + 1
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}"'
            f' stroke-width="1.8"><title>{_esc(name)}</title></polyline>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.4"'
                f' fill="{color}"><title>{_esc(name)} @ {int(x)}: '
                f"{_esc(_fmt_seconds(y))}</title></circle>"
            )
        legend.append(
            f'<span><span class="swatch" style="background:{color}"></span>'
            f"{_esc(name)}</span>"
        )
    parts.append("</svg>")
    parts.append('<div class="legend">' + "".join(legend) + "</div>")
    return "".join(parts)


def _flamegraph(collector: Collector, *, width: int = 960, max_rects: int = 1500) -> str:
    """A modelled-time flamegraph of the collector's span tree.

    Siblings sharing a name are folded (the trace summary does the
    same), widths are proportional to summed modelled seconds, and each
    rect carries a ``<title>`` tooltip, so hover works with zero script.
    """
    by_parent: Dict[Optional[int], List[Any]] = {}
    for s in collector.spans:
        by_parent.setdefault(s.parent_id, []).append(s)

    row_h, gap = 18, 1

    # Widths use *inclusive* modelled time (self + descendants): harness
    # roots typically carry no modelled seconds of their own, yet their
    # task subtrees hold all of it.
    inclusive: Dict[int, float] = {}

    def _inclusive(s: Any) -> float:
        cached = inclusive.get(s.span_id)
        if cached is None:
            cached = inclusive[s.span_id] = s.modelled_s + sum(
                _inclusive(c) for c in by_parent.get(s.span_id, [])
            )
        return cached

    def fold(siblings: List[Any]) -> List[Tuple[str, float, List[Any]]]:
        groups: Dict[str, List[Any]] = {}
        for s in siblings:
            groups.setdefault(s.name, []).append(s)
        out = []
        for name, group in groups.items():
            modelled = sum(_inclusive(s) for s in group)
            children = [
                c for s in group for c in by_parent.get(s.span_id, [])
            ]
            out.append((name, modelled, children))
        return out

    roots = fold(by_parent.get(None, []))
    total = sum(m for _, m, _ in roots)
    if total <= 0:
        return "<p>(no modelled time in the trace)</p>"

    rects: List[str] = []
    max_depth = 0

    def layout(groups, x0: float, x1: float, depth: int, budget: float) -> None:
        nonlocal max_depth
        if len(rects) >= max_rects:
            return
        max_depth = max(max_depth, depth)
        if budget <= 0:
            return
        x = x0
        for name, modelled, children in sorted(
            groups, key=lambda g: -g[1]
        ):
            w = (x1 - x0) * (modelled / budget)
            if w < 1.0:
                x += w
                continue
            y = depth * (row_h + gap)
            palette = ("#e8590c", "#f08c00", "#fab005", "#ffd43b", "#ffe066")
            color = palette[depth % len(palette)]
            rects.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(w - 0.5, 0.5):.1f}"'
                f' height="{row_h}" fill="{color}" stroke="#fff"'
                f' stroke-width="0.5"><title>{_esc(name)} — '
                f"{_esc(_fmt_seconds(modelled))} modelled "
                f"({100 * modelled / total:.1f}%)</title></rect>"
            )
            if w > 60:
                rects.append(
                    f'<text x="{x + 3:.1f}" y="{y + row_h - 5}" font-size="10"'
                    f' clip-path="inset(0)">{_esc(name)[: int(w / 6.5)]}</text>'
                )
            if children:
                # The parent's inclusive time is the budget, so a span's
                # self time shows as the unfilled remainder of its rect.
                layout(fold(children), x, x + w, depth + 1, modelled)
            x += w

    layout(roots, 0.0, float(width), 0, total)
    height = (max_depth + 1) * (row_h + gap)
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">' + "".join(rects) + "</svg>"
        f'<p class="meta">{_esc(_fmt_seconds(total))} modelled seconds total; '
        "hover a block for its share.</p>"
    )


# ---------------------------------------------------------------------------
# panels
# ---------------------------------------------------------------------------


def _experiment_curves(report: Mapping[str, Any]) -> str:
    out: List[str] = []
    for exp_id, entry in sorted(report.get("experiments", {}).items()):
        data = entry.get("data", {})
        ns = data.get("ns")
        if not ns:
            continue
        if "series" in data:
            series = {
                name: list(zip(map(float, ns), map(float, ys)))
                for name, ys in data["series"].items()
            }
        elif "seconds" in data:
            series = {
                str(data.get("platform", exp_id)): list(
                    zip(map(float, ns), map(float, data["seconds"]))
                )
            }
        else:
            continue
        title = data.get("title", exp_id)
        out.append(
            f'<div class="panel"><h2>{_esc(exp_id)} — {_esc(title)}</h2>'
            + _line_chart(
                series,
                log_y=True,
                y_label="modelled s (log)",
                hline=(0.5, "0.5 s period"),
            )
            + "</div>"
        )
    return "".join(out)


def _margin_chart(snapshot: Mapping[str, Any]) -> str:
    family = snapshot.get("families", {}).get("atm_deadline_margin_seconds")
    if not family:
        return ""
    worst: Dict[Tuple[str, float], float] = {}
    for entry in family.get("series", []):
        labels = entry["labels"]
        low = entry.get("min")
        if low is None:
            continue
        try:
            key = (labels["platform"], float(labels["n_aircraft"]))
        except (KeyError, ValueError):
            continue
        worst[key] = min(worst.get(key, float("inf")), float(low))
    if not worst:
        return ""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for (platform, n), margin in sorted(worst.items()):
        series.setdefault(platform, []).append((n, margin))
    chart = _line_chart(
        series,
        log_y=False,
        y_label="worst margin s",
        hline=(0.0, "deadline"),
    )
    return (
        '<div class="panel"><h2>Deadline margin vs fleet size</h2>'
        '<p class="meta">Worst remaining period budget per platform, from '
        "the <code>atm_deadline_margin_seconds</code> histograms; below the "
        "dashed line a deadline was missed.</p>" + chart + "</div>"
    )


def _verdict_table(snapshot: Mapping[str, Any]) -> str:
    from ..analysis.deadlines import deadline_verdicts

    verdicts = deadline_verdicts(snapshot)
    if not verdicts:
        return ""
    rows = []
    for platform, v in verdicts.items():
        klass = "ok" if v["never_misses"] else "miss"
        verdict = (
            "never misses"
            if v["never_misses"]
            else f"first miss at n={v['first_miss_n']}"
        )
        rows.append(
            f'<tr><td class="l">{_esc(platform)}</td>'
            f"<td>{v['total_misses']}</td><td>{v['total_periods']}</td>"
            f'<td class="l {klass}">{_esc(verdict)}</td></tr>'
        )
    return (
        '<div class="panel"><h2>Deadline verdicts (from the snapshot)</h2>'
        '<table><tr><th class="l">platform</th><th>misses</th>'
        "<th>periods</th><th class=\"l\">verdict</th></tr>"
        + "".join(rows)
        + "</table></div>"
    )


def _service_latency_panel(snapshot: Mapping[str, Any]) -> str:
    """Service request latency quantiles (docs/service.md).

    Renders the ``atm_service_request_seconds`` histogram family — both
    the server-side series and the load generator's ``endpoint=client``
    series — as a p50/p95/p99 table.  These are wall-clock service
    latencies, never the paper's modelled architecture times.
    """
    family = snapshot.get("families", {}).get("atm_service_request_seconds")
    if not family:
        return ""
    rows = []
    for entry in family.get("series", []):
        if not entry.get("count"):
            continue
        labels = ", ".join(
            f"{k}={v}" for k, v in sorted(entry["labels"].items())
        )
        cells = "".join(
            f"<td>{_fmt_seconds(float(entry[q]))}</td>"
            for q in ("p50", "p95", "p99", "max")
        )
        rows.append(
            f'<tr><td class="l">{_esc(labels)}</td>'
            f"<td>{int(entry['count'])}</td>{cells}</tr>"
        )
    if not rows:
        return ""
    return (
        '<div class="panel"><h2>Service request latency</h2>'
        '<p class="meta">Wall-clock quantiles from the '
        "<code>atm_service_request_seconds</code> histograms "
        "(server-side per outcome; <code>endpoint=client</code> rows are "
        "the load generator's view). Not modelled time.</p>"
        '<table><tr><th class="l">labels</th><th>count</th><th>p50</th>'
        "<th>p95</th><th>p99</th><th>max</th></tr>"
        + "".join(rows)
        + "</table></div>"
    )


def _search_panel(search: Mapping[str, Any]) -> str:
    """Archgym-style best-fitness trajectory of one search result.

    ``search`` is the ``atm-repro search --out`` result document: the
    curve plots best-so-far fitness against evaluation index, with
    budget-rejected candidates visible as flat segments.
    """
    curve = search.get("best_fitness_curve") or []
    spec = search.get("spec", {})
    points = [
        (float(i + 1), float(f))
        for i, f in enumerate(curve)
        if isinstance(f, (int, float)) and math.isfinite(f) and f < 1e29
    ]
    label = (
        f"{spec.get('searcher', '?')} / {spec.get('objective', '?')}"
        f" over {spec.get('space', {}).get('family', '?')}"
    )
    if not points:
        chart = "<p>(no finite full-fidelity evaluations)</p>"
    else:
        chart = _line_chart(
            {label: points},
            log_y=all(f > 0 for _, f in points),
            y_label="best fitness",
        )
    best = search.get("best") or {}
    params = (best.get("point") or {}).get("params", {})
    meta = (
        f"{search.get('evaluated', 0)} evaluated, "
        f"{search.get('rejected', 0)} budget-rejected, "
        f"{search.get('rounds', 0)} round(s)"
    )
    if best:
        meta += (
            f"; best {_esc(best.get('key', '?'))}: "
            + ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        )
    return (
        '<div class="panel"><h2>Design-space search trajectory</h2>'
        f'<p class="meta">{meta}</p>' + chart + "</div>"
    )


def _counter_panels(snapshot: Mapping[str, Any]) -> str:
    tables: List[str] = []
    for name, family in sorted(snapshot.get("families", {}).items()):
        if family.get("kind") not in ("counter", "gauge"):
            continue
        series = family.get("series", [])
        if not series:
            continue
        rows = []
        for entry in series:
            labels = ", ".join(
                f"{k}={v}" for k, v in sorted(entry["labels"].items())
            )
            value = entry["value"]
            shown = int(value) if float(value).is_integer() else value
            rows.append(
                f'<tr><td class="l">{_esc(labels) or "(none)"}</td>'
                f"<td>{_esc(shown)}</td></tr>"
            )
        tables.append(
            f"<h3>{_esc(name)}</h3>"
            f'<p class="meta">{_esc(family.get("help", ""))}</p>'
            f'<table><tr><th class="l">labels</th><th>value</th></tr>'
            + "".join(rows)
            + "</table>"
        )
    if not tables:
        return ""
    return (
        '<div class="panel"><h2>Metric counters</h2>' + "".join(tables) + "</div>"
    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def render_dashboard(
    report: Mapping[str, Any],
    snapshot: Optional[Mapping[str, Any]] = None,
    collector: Optional[Collector] = None,
    search: Optional[Mapping[str, Any]] = None,
) -> str:
    """The dashboard HTML for a report document (see the module docstring).

    ``snapshot`` defaults to the report's embedded deterministic metrics;
    pass a full :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` for
    the operational families too.  ``collector`` adds the flamegraph.
    ``search`` is an ``atm-repro search`` result document to chart as a
    best-fitness trajectory panel.
    """
    if snapshot is None:
        snapshot = report.get("metrics", {}) or {}
    title = "ATM reproduction dashboard"
    head = (
        f"<h1>{_esc(title)}</h1>"
        f'<p class="meta">{_esc(report.get("paper", ""))}<br>'
        f'library {_esc(report.get("library_version", "?"))}, '
        f'profile {_esc(report.get("profile", "?"))}, '
        f'seed {_esc(report.get("seed", "?"))}, '
        f'python {_esc(report.get("python", "?"))}</p>'
    )
    body = [
        head,
        _margin_chart(snapshot),
        _verdict_table(snapshot),
        _service_latency_panel(snapshot),
        _experiment_curves(report),
    ]
    if search is not None:
        body.append(_search_panel(search))
    if collector is not None and collector.spans:
        body.append(
            '<div class="panel"><h2>Span flamegraph (modelled time)</h2>'
            + _flamegraph(collector)
            + "</div>"
        )
    body.append(_counter_panels(snapshot))
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        "<body>" + "".join(body) + "</body></html>"
    )


def write_dashboard(
    path: str,
    report: Mapping[str, Any],
    snapshot: Optional[Mapping[str, Any]] = None,
    collector: Optional[Collector] = None,
    search: Optional[Mapping[str, Any]] = None,
) -> str:
    """Render and write the dashboard; returns ``path``."""
    text = render_dashboard(
        report, snapshot=snapshot, collector=collector, search=search
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
