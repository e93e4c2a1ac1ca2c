"""Fold raw span traces into per-(platform, category, span) statistics.

A sweep trace holds one span per task invocation — thousands of spans
for a paper-scale run.  The profiling comparisons the paper makes
(which kernel dominates on which card, how the AP's instruction classes
split, where the MIMD model spends its sync waits) need the *aggregate*
shape instead: per platform, per category, per span name — how many
calls, how much wall and modelled time, and how the modelled durations
distribute.  :func:`aggregate_spans` computes exactly that, attributing
every span to the platform of its nearest ``platform``-labeled ancestor
(task spans carry the label themselves; kernel/instruction-class spans
inherit it; harness spans inherit the shard's).

Aggregates are **mergeable**: :meth:`SpanAggregate.merge` folds shard
aggregates into a parent losslessly (counts and sums add, histogram
buckets add), so a ``--jobs N`` sweep aggregates identically to serial.
The determinism boundary is explicit: :meth:`SpanAggregate.to_dict`
with ``deterministic_only=True`` drops wall-clock fields and the
harness/core categories (whose span *count* legitimately depends
on scheduling — e.g. trace memo hits differ between serial and pool
composition), leaving only modelled quantities, which are byte-identical
for any worker count.  The equivalence tests assert that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.canonical import canonical_json, canonicalize
from .collector import Collector, SpanRecord
from .metrics import MODELLED_SECONDS_BUCKETS, Histogram

__all__ = [
    "NONDETERMINISTIC_CATS",
    "UNATTRIBUTED",
    "SpanStats",
    "SpanAggregate",
    "aggregate_spans",
]

#: Categories whose span population depends on scheduling/caching (how
#: many shards, how traces were obtained), so they are excluded from the
#: deterministic projection.  ``core`` is here because the functional
#: simulation runs *wherever the scheduler put it*: once per fleet size
#: in the parent on a serial run; on a pool run in a trace worker, whose
#: spans are not collected, or — for a cell streaming its own pass —
#: inside the measuring worker, whose spans ``_emit_shard`` adopts; and
#: nowhere at all on a warm trace store.
NONDETERMINISTIC_CATS = frozenset({"harness", "core"})

#: Label for spans with no ``platform`` attribute anywhere above them.
UNATTRIBUTED = "(unattributed)"


@dataclass
class SpanStats:
    """Aggregate of every span sharing one (platform, cat, name) key."""

    calls: int = 0
    wall_s: float = 0.0
    modelled_s: float = 0.0
    digest: Histogram = field(
        default_factory=lambda: Histogram(MODELLED_SECONDS_BUCKETS)
    )

    def add(self, span: SpanRecord) -> None:
        self.calls += 1
        self.wall_s += span.wall_dur_s
        self.modelled_s += span.modelled_s
        self.digest.observe(span.modelled_s)

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.wall_s += other.wall_s
        self.modelled_s += other.modelled_s
        self.digest.merge(other.digest)

    def to_dict(self, *, deterministic_only: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "calls": self.calls,
            "modelled_s": self.modelled_s,
            "modelled_digest": self.digest.to_dict(),
        }
        if not deterministic_only:
            out["wall_s"] = self.wall_s
        return out


class SpanAggregate:
    """Per-(platform, category, span name) statistics of one trace.

    Build with :func:`aggregate_spans`; fold shard aggregates together
    with :meth:`merge`.  ``coverage`` keeps per-platform
    ``[attributed, total]`` modelled-second pairs for the task spans, so
    modelled-coverage ratios stay exact under merging (a ratio alone
    would not merge).
    """

    def __init__(self) -> None:
        #: (platform, cat, name) -> stats
        self.stats: Dict[Tuple[str, str, str], SpanStats] = {}
        #: platform -> [attributed modelled seconds, total modelled seconds]
        self.coverage: Dict[str, List[float]] = {}

    # -- building -------------------------------------------------------

    def add_collector(self, collector: Collector, *, task_cat: str = "task") -> None:
        by_id: Dict[int, SpanRecord] = {s.span_id: s for s in collector.spans}
        child_modelled: Dict[int, float] = {}
        for s in collector.spans:
            if s.parent_id is not None:
                child_modelled[s.parent_id] = (
                    child_modelled.get(s.parent_id, 0.0) + s.modelled_s
                )
        platform_memo: Dict[int, str] = {}

        def platform_of(span: SpanRecord) -> str:
            cached = platform_memo.get(span.span_id)
            if cached is not None:
                return cached
            chain: List[int] = []
            cur: Optional[SpanRecord] = span
            platform = UNATTRIBUTED
            while cur is not None:
                known = platform_memo.get(cur.span_id)
                if known is not None:
                    platform = known
                    break
                chain.append(cur.span_id)
                p = cur.attrs.get("platform")
                if p is not None:
                    platform = str(p)
                    break
                cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
            for span_id in chain:
                platform_memo[span_id] = platform
            return platform

        for span in collector.spans:
            platform = platform_of(span)
            key = (platform, span.cat, span.name)
            stats = self.stats.get(key)
            if stats is None:
                stats = self.stats[key] = SpanStats()
            stats.add(span)
            if span.cat == task_cat:
                child_sum = child_modelled.get(span.span_id, 0.0)
                pair = self.coverage.setdefault(platform, [0.0, 0.0])
                pair[0] += min(child_sum, span.modelled_s)
                pair[1] += span.modelled_s

    # -- composition ----------------------------------------------------

    def merge(self, other: "SpanAggregate") -> "SpanAggregate":
        for key, stats in other.stats.items():
            mine = self.stats.get(key)
            if mine is None:
                mine = self.stats[key] = SpanStats()
            mine.merge(stats)
        for platform, (attributed, total) in other.coverage.items():
            pair = self.coverage.setdefault(platform, [0.0, 0.0])
            pair[0] += attributed
            pair[1] += total
        return self

    # -- readouts -------------------------------------------------------

    def platforms(self) -> List[str]:
        return sorted({platform for platform, _, _ in self.stats})

    def modelled_coverage(self, platform: str) -> float:
        """Fraction of ``platform``'s task modelled time in child spans."""
        attributed, total = self.coverage.get(platform, (0.0, 0.0))
        return attributed / total if total > 0.0 else 1.0

    def to_dict(self, *, deterministic_only: bool = False) -> Dict[str, Any]:
        """Sorted, canonical JSON-able form.

        With ``deterministic_only`` the harness/core categories and
        all wall-clock fields are dropped: what remains is a pure function
        of the measured cells, byte-identical between ``--jobs 1`` and
        ``--jobs N`` (asserted by the aggregation-determinism tests).
        """
        spans: Dict[str, Any] = {}
        for platform, cat, name in sorted(self.stats):
            if deterministic_only and cat in NONDETERMINISTIC_CATS:
                continue
            stats = self.stats[(platform, cat, name)]
            spans.setdefault(platform, {})[f"{cat}:{name}" if cat else name] = (
                stats.to_dict(deterministic_only=deterministic_only)
            )
        coverage = {
            platform: {
                "attributed_modelled_s": pair[0],
                "total_modelled_s": pair[1],
                "coverage": self.modelled_coverage(platform),
            }
            for platform, pair in sorted(self.coverage.items())
        }
        return canonicalize(
            {
                "deterministic_only": deterministic_only,
                "spans": spans,
                "coverage": coverage,
            }
        )

    def to_canonical_json(self, *, deterministic_only: bool = False) -> str:
        return canonical_json(self.to_dict(deterministic_only=deterministic_only))


def aggregate_spans(
    collector: Collector, *, task_cat: str = "task"
) -> SpanAggregate:
    """Aggregate one collector's spans (see the module docstring)."""
    agg = SpanAggregate()
    agg.add_collector(collector, task_cat=task_cat)
    return agg
