"""Human-readable summaries: the span tree, coverage and counter table.

``render_span_tree`` prints wall and modelled time side by side per
span, nested.  ``modelled_coverage`` answers the question the profiler
exists for: *of the modelled seconds charged to task spans, how much is
attributed to finer-grained sub-spans?*  A backend whose cost model is
fully threaded through the tracer scores 1.0.  ``render_counters``
lists the counter and gauge series of a metrics-registry snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from .collector import Collector, SpanRecord

__all__ = [
    "MANDATORY_TASK_SPANS",
    "render_span_tree",
    "modelled_coverage",
    "render_counters",
]

#: Span names every backend must emit once per task invocation
#: (asserted by tests/obs/test_backend_spans.py for the whole registry).
MANDATORY_TASK_SPANS = ("task1", "task23")


def _format_seconds(seconds: float) -> str:
    if seconds <= 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"


def render_span_tree(collector: Collector, *, max_spans: int = 400) -> str:
    """Indented span tree with wall and modelled durations.

    Sibling spans sharing a name are folded into one line with a
    ``xN`` multiplier and summed durations, which keeps sweep traces
    (hundreds of identical task invocations) readable.
    """
    by_parent: Dict[Optional[int], List[SpanRecord]] = {}
    for s in collector.spans:
        by_parent.setdefault(s.parent_id, []).append(s)

    lines = [
        f"{'span':<44} {'calls':>6} {'wall':>12} {'modelled':>12}",
        "-" * 78,
    ]
    emitted = 0
    omitted = 0

    def group_children(group: List[SpanRecord]) -> List[SpanRecord]:
        children: List[SpanRecord] = []
        for s in group:
            children.extend(by_parent.get(s.span_id, []))
        return children

    def count_groups(siblings: List[SpanRecord]) -> int:
        """How many tree lines ``siblings`` would render, recursively."""
        groups: Dict[str, List[SpanRecord]] = {}
        for s in siblings:
            groups.setdefault(s.name, []).append(s)
        total = len(groups)
        for group in groups.values():
            total += count_groups(group_children(group))
        return total

    def walk(siblings: List[SpanRecord], depth: int) -> None:
        nonlocal emitted, omitted
        groups: Dict[str, List[SpanRecord]] = {}
        for s in siblings:
            groups.setdefault(s.name, []).append(s)
        for name, group in groups.items():
            children = group_children(group)
            if emitted >= max_spans:
                # This group — and every subtree under it — is dropped;
                # count all of them so the footer reports the real loss
                # (the early-return of the old code silently swallowed
                # sibling subtrees at shallower depths).
                omitted += 1 + count_groups(children)
                continue
            wall = sum(s.wall_dur_s for s in group)
            modelled = sum(s.modelled_s for s in group)
            label = "  " * depth + name
            lines.append(
                f"{label:<44} {len(group):>6} {_format_seconds(wall):>12} "
                f"{_format_seconds(modelled):>12}"
            )
            emitted += 1
            if children:
                walk(children, depth + 1)

    walk(by_parent.get(None, []), 0)
    if omitted:
        lines.append(
            f"... (truncated at {max_spans} lines; {omitted} span groups"
            " omitted)"
        )
    return "\n".join(lines)


def modelled_coverage(collector: Collector, *, cat: str = "task") -> float:
    """Fraction of task-span modelled time attributed to child spans.

    For every span of category ``cat``, sum its direct children's
    modelled seconds (capped at the parent's own) and divide by the
    total modelled seconds of the ``cat`` spans.  Returns 1.0 when
    there are no ``cat`` spans (nothing to attribute).
    """
    tasks = [s for s in collector.spans if s.cat == cat]
    total = sum(s.modelled_s for s in tasks)
    if total <= 0.0:
        return 1.0
    attributed = 0.0
    for t in tasks:
        child_sum = sum(
            c.modelled_s for c in collector.spans if c.parent_id == t.span_id
        )
        attributed += min(child_sum, t.modelled_s)
    return attributed / total


def render_counters(snapshot: Mapping[str, Any]) -> str:
    """Sorted ``name{labels}  value`` lines for every counter and gauge
    series of a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`."""
    rows = []
    for name, family in snapshot.get("families", {}).items():
        if family["kind"] not in ("counter", "gauge"):
            continue
        for entry in family["series"]:
            labels = ",".join(
                f'{k}="{v}"' for k, v in sorted(entry["labels"].items())
            )
            value = float(entry["value"])
            shown = int(value) if value.is_integer() else value
            rows.append((f"{name}{{{labels}}}" if labels else name, shown))
    if not rows:
        return "(no counters)"
    width = max(len(series) for series, _ in rows)
    return "\n".join(
        f"{series.ljust(width)}  {shown}" for series, shown in sorted(rows)
    )
