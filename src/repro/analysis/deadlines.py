"""Deadline analysis over schedule results (the paper's §6.2 claims).

Besides the :class:`DeadlineReport` tables, this module is the **SLO
monitor** of the metrics layer (docs/observability.md): every measured
cell and every scheduled period funnels through
:func:`record_cell_metrics` / :func:`record_schedule_metrics`, which
record the remaining period budget into the
``atm_deadline_margin_seconds`` histogram and the miss/period counters
— always, including explicit zeros, so the paper's never-miss claim is
a readable fact of the snapshot rather than an absence of data.
:func:`deadline_verdicts` reconstructs the §6.2 miss/no-miss table from
a snapshot alone.

The same margin arithmetic also runs *before* work is accepted: the
:class:`AdmissionController` turns the deadline machinery into
admission control for the sweep service (docs/service.md).  Instead of
judging a period after its tasks ran, it judges a request before any
cell is dispatched — estimated completion time against the request's
deadline budget — and rejects with a structured
:class:`AdmissionVerdict` whenever the margin is negative or the queue
is full, mirroring COOK-style arbitrated access: uncontrolled sharing
breaks deadline guarantees, arbitrated admission preserves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core import constants as C
from ..core.scheduler import ScheduleResult
from ..obs import event as obs_event
from ..obs import is_active as obs_is_active
from ..obs.metrics import metric_inc, metric_observe, metrics_active

__all__ = [
    "DeadlineRow",
    "DeadlineReport",
    "AdmissionVerdict",
    "AdmissionController",
    "record_cell_metrics",
    "record_schedule_metrics",
    "deadline_verdicts",
]


# ---------------------------------------------------------------------------
# the SLO monitor: margins and misses as first-class metrics
# ---------------------------------------------------------------------------


def _record_margin(
    margin_s: float,
    *,
    platform: str,
    n_aircraft: int,
    period: str,
    source: str,
    missed: bool,
    events: bool,
) -> None:
    metric_observe(
        "atm_deadline_margin_seconds",
        margin_s,
        platform=platform,
        n_aircraft=n_aircraft,
        period=period,
        source=source,
    )
    if missed and events:
        obs_event(
            "deadline.miss",
            cat="slo",
            platform=platform,
            n_aircraft=n_aircraft,
            period=period,
            source=source,
            margin_s=margin_s,
        )


def record_cell_metrics(
    platform: str,
    n_aircraft: int,
    task1_seconds: Sequence[float],
    task23_s: float,
    *,
    source: str = "sweep",
    events: bool = True,
) -> None:
    """Record deadline metrics for one measured sweep cell.

    The cell's tracking periods each budget Task 1 alone against the
    half-second deadline; the final period is the collision period of
    the major cycle, budgeting Task 1 plus the fused Task 2+3.  Margins
    (and the miss/period counters, recorded even when zero) are pure
    functions of the modelled timings, so the deterministic snapshot is
    byte-identical no matter which execution path produced the
    measurement.  ``events=False`` suppresses the ``deadline.miss``
    trace events (used when adopting a pool worker's trace, which
    already carries them).
    """
    if not metrics_active() and not obs_is_active():
        return
    misses = 0
    periods = 0
    for t1 in task1_seconds[:-1]:
        margin = C.PERIOD_SECONDS - float(t1)
        missed = margin < 0.0
        misses += missed
        periods += 1
        _record_margin(
            margin,
            platform=platform,
            n_aircraft=n_aircraft,
            period="tracking",
            source=source,
            missed=missed,
            events=events,
        )
    if task1_seconds:
        margin = C.PERIOD_SECONDS - (float(task1_seconds[-1]) + float(task23_s))
        missed = margin < 0.0
        misses += missed
        periods += 1
        _record_margin(
            margin,
            platform=platform,
            n_aircraft=n_aircraft,
            period="collision",
            source=source,
            missed=missed,
            events=events,
        )
    metric_inc(
        "atm_deadline_misses",
        float(misses),
        platform=platform,
        n_aircraft=n_aircraft,
        source=source,
    )
    metric_inc(
        "atm_deadline_periods",
        float(periods),
        platform=platform,
        n_aircraft=n_aircraft,
        source=source,
    )


def record_schedule_metrics(
    result: ScheduleResult, *, source: str = "schedule", events: bool = True
) -> None:
    """Record deadline metrics for every period of a schedule run.

    Every run of a task table — the paper's (``run_schedule``) and the
    complete system's (``run_extended_schedule``) — yields the same
    :class:`~repro.core.scheduler.PeriodRecord` shape.  A period in
    which Task 2+3 ran or was skipped is labelled
    ``period="collision"``; every other period ``period="tracking"``.
    """
    if not metrics_active() and not obs_is_active():
        return
    misses = 0
    for p in result.periods:
        margin = C.PERIOD_SECONDS - float(p.time_used)
        missed = bool(p.deadline_missed)
        misses += missed
        collision_period = p.task23 is not None or p.task23_skipped
        _record_margin(
            margin,
            platform=result.platform,
            n_aircraft=result.n_aircraft,
            period="collision" if collision_period else "tracking",
            source=source,
            missed=missed,
            events=events,
        )
    metric_inc(
        "atm_deadline_misses",
        float(misses),
        platform=result.platform,
        n_aircraft=result.n_aircraft,
        source=source,
    )
    metric_inc(
        "atm_deadline_periods",
        float(len(result.periods)),
        platform=result.platform,
        n_aircraft=result.n_aircraft,
        source=source,
    )


def deadline_verdicts(snapshot: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The §6.2 miss/no-miss table, reconstructed from a metrics snapshot.

    Reads only the ``atm_deadline_misses`` / ``atm_deadline_periods``
    families of a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
    Returns per platform: total misses, total periods, per-fleet-size
    miss counts, the smallest fleet size with a miss (or None), and the
    paper's verdict flag ``never_misses``.
    """
    families = snapshot.get("families", {})
    verdicts: Dict[str, Dict[str, Any]] = {}
    for family, field_name in (
        ("atm_deadline_misses", "misses"),
        ("atm_deadline_periods", "periods"),
    ):
        for entry in families.get(family, {}).get("series", []):
            labels = entry["labels"]
            platform = labels["platform"]
            n = int(labels["n_aircraft"])
            v = verdicts.setdefault(
                platform, {"misses_by_n": {}, "periods_by_n": {}}
            )
            by_n = v[f"{field_name}_by_n"]
            by_n[n] = by_n.get(n, 0) + int(entry["value"])
    out: Dict[str, Dict[str, Any]] = {}
    for platform, v in sorted(verdicts.items()):
        missing_ns = sorted(n for n, m in v["misses_by_n"].items() if m > 0)
        out[platform] = {
            "total_misses": sum(v["misses_by_n"].values()),
            "total_periods": sum(v["periods_by_n"].values()),
            "misses_by_n": dict(sorted(v["misses_by_n"].items())),
            "first_miss_n": missing_ns[0] if missing_ns else None,
            "never_misses": not missing_ns,
        }
    return out


# ---------------------------------------------------------------------------
# admission control: the deadline machinery run *before* work is accepted
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionVerdict:
    """One admission decision, in the vocabulary of the deadline tables.

    ``margin_s`` is the estimated slack between the request's deadline
    budget and the controller's completion estimate — the admission-time
    analogue of the per-period deadline margin — and is negative exactly
    when the request is rejected for deadline reasons.  Rejected
    requests carry this verdict back to the client as the response
    body, so a 429/503 is never an opaque failure.
    """

    admitted: bool
    #: "admitted" | "rejected_deadline" | "rejected_backpressure"
    #: | "rejected_draining"
    outcome: str
    #: cells the request would add to the dispatch queue.
    cells: int
    #: cells already queued when the decision was made.
    queue_depth: int
    #: the request's wall-clock budget, seconds.
    deadline_s: float
    #: estimated seconds until this request would complete.
    estimated_s: float
    #: deadline_s - estimated_s (negative = cannot be served in budget).
    margin_s: float
    #: per-cell service-time estimate the prediction used, seconds.
    cell_estimate_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "admitted": self.admitted,
            "outcome": self.outcome,
            "cells": int(self.cells),
            "queue_depth": int(self.queue_depth),
            "deadline_s": float(self.deadline_s),
            "estimated_s": float(self.estimated_s),
            "margin_s": float(self.margin_s),
            "cell_estimate_s": float(self.cell_estimate_s),
        }


class AdmissionController:
    """Deadline-margin admission control for the sweep service.

    The controller models the service as a single batch-dispatch queue:
    a request for ``cells`` new measurement cells, arriving with
    ``queue_depth`` cells already waiting, is estimated to complete in
    ``dispatch_overhead_s + (queue_depth + cells) * cell_estimate_s``
    seconds, where ``cell_estimate_s`` is an exponentially-weighted
    moving average of observed per-cell service time (seeded with a
    prior so a cold service is not blindly optimistic).  The request is
    **rejected with a deadline verdict** when that estimate exceeds its
    deadline budget, and **rejected for backpressure** when admitting
    its cells would exceed ``max_queue_cells`` — the two rejection
    modes the service maps to HTTP 429 and 503 (docs/service.md).
    During graceful shutdown (:meth:`set_draining`) any request adding
    new cells is **rejected as draining** instead — also 503, with a
    ``Retry-After`` pointing clients at the replacement instance.

    Every decision records the ``atm_service_admission_margin_seconds``
    histogram (by outcome) plus an ``admission.reject`` obs event on
    rejection, so the arbitration itself is observable the same way the
    after-the-fact deadline verdicts are.
    """

    def __init__(
        self,
        *,
        max_queue_cells: int = 1024,
        default_deadline_s: float = 30.0,
        cell_prior_s: float = 0.05,
        dispatch_overhead_s: float = 0.05,
        ewma_alpha: float = 0.2,
    ) -> None:
        if max_queue_cells < 1:
            raise ValueError("max_queue_cells must be >= 1")
        if default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.max_queue_cells = int(max_queue_cells)
        self.default_deadline_s = float(default_deadline_s)
        self.dispatch_overhead_s = float(dispatch_overhead_s)
        self.ewma_alpha = float(ewma_alpha)
        self._cell_estimate_s = float(cell_prior_s)
        self._observed_cells = 0
        self._draining = False

    @property
    def cell_estimate_s(self) -> float:
        """Current per-cell service-time estimate, seconds."""
        return self._cell_estimate_s

    @property
    def draining(self) -> bool:
        """True while the service is shutting down gracefully."""
        return self._draining

    def set_draining(self, draining: bool = True) -> None:
        """Enter (or leave) drain mode: new work is rejected with a
        ``rejected_draining`` verdict (HTTP 503 + ``Retry-After``), but
        zero-cell requests — fully cached or coalescible — still pass,
        so in-flight work keeps its coalescers until the flush ends.
        """
        self._draining = bool(draining)

    def observe_cell_seconds(self, seconds: float, cells: int = 1) -> None:
        """Fold an observed dispatch (``cells`` served in ``seconds``) in."""
        if cells < 1 or seconds < 0:
            return
        per_cell = float(seconds) / float(cells)
        self._cell_estimate_s += self.ewma_alpha * (
            per_cell - self._cell_estimate_s
        )
        self._observed_cells += int(cells)

    def estimate_s(self, cells: int, queue_depth: int) -> float:
        """Predicted completion time of a ``cells``-cell request."""
        return self.dispatch_overhead_s + (
            max(0, int(queue_depth)) + max(0, int(cells))
        ) * self._cell_estimate_s

    def assess(
        self,
        cells: int,
        *,
        queue_depth: int,
        deadline_s: Optional[float] = None,
    ) -> AdmissionVerdict:
        """Admit or reject one request; records metrics either way.

        ``cells`` counts only the cells the request would *add* — cells
        served by the result cache or coalesced onto an in-flight
        request cost nothing and should be excluded by the caller.
        A request adding zero cells is always admitted (it cannot miss
        its own deadline by queueing nothing).
        """
        cells = max(0, int(cells))
        queue_depth = max(0, int(queue_depth))
        budget = self.default_deadline_s if deadline_s is None else float(deadline_s)
        estimated = self.estimate_s(cells, queue_depth) if cells else 0.0
        margin = budget - estimated
        if cells and self._draining:
            outcome = "rejected_draining"
        elif cells and queue_depth + cells > self.max_queue_cells:
            outcome = "rejected_backpressure"
        elif cells and margin < 0.0:
            outcome = "rejected_deadline"
        else:
            outcome = "admitted"
        verdict = AdmissionVerdict(
            admitted=outcome == "admitted",
            outcome=outcome,
            cells=cells,
            queue_depth=queue_depth,
            deadline_s=budget,
            estimated_s=estimated,
            margin_s=margin,
            cell_estimate_s=self._cell_estimate_s,
        )
        metric_observe(
            "atm_service_admission_margin_seconds", margin, outcome=outcome
        )
        if not verdict.admitted:
            obs_event(
                "admission.reject",
                cat="slo",
                outcome=outcome,
                cells=cells,
                queue_depth=queue_depth,
                margin_s=margin,
            )
        return verdict


@dataclass(frozen=True)
class DeadlineRow:
    """Deadline behaviour of one platform at one fleet size."""

    platform: str
    n_aircraft: int
    periods: int
    missed: int
    skipped: int
    miss_rate: float
    worst_period_ms: float
    mean_utilization: float

    @property
    def never_misses(self) -> bool:
        return self.missed == 0

    @classmethod
    def from_schedule(cls, result: ScheduleResult) -> "DeadlineRow":
        return cls(
            platform=result.platform,
            n_aircraft=result.n_aircraft,
            periods=result.total_periods,
            missed=result.missed_deadlines,
            skipped=result.skipped_tasks,
            miss_rate=result.miss_rate,
            worst_period_ms=result.worst_period_seconds * 1e3,
            mean_utilization=result.mean_utilization,
        )


@dataclass
class DeadlineReport:
    """All deadline rows of one experiment, with the paper's verdicts."""

    rows: List[DeadlineRow]

    def by_platform(self) -> Dict[str, List[DeadlineRow]]:
        out: Dict[str, List[DeadlineRow]] = {}
        for row in self.rows:
            out.setdefault(row.platform, []).append(row)
        return out

    def platforms_never_missing(self) -> List[str]:
        """Platforms with zero misses at every tested fleet size."""
        return sorted(
            p
            for p, rows in self.by_platform().items()
            if all(r.never_misses for r in rows)
        )

    def platforms_missing(self) -> List[str]:
        return sorted(
            p
            for p, rows in self.by_platform().items()
            if any(not r.never_misses for r in rows)
        )

    def first_miss_n(self, platform: str) -> int | None:
        """Smallest tested fleet size at which ``platform`` missed."""
        sizes = [
            r.n_aircraft
            for r in self.by_platform().get(platform, [])
            if not r.never_misses
        ]
        return min(sizes) if sizes else None

    def headroom(self, platform: str) -> float:
        """Smallest remaining period slack across rows, in ms.

        Positive: the platform never came within this many ms of the
        deadline; negative: it blew past it.
        """
        rows = self.by_platform().get(platform, [])
        if not rows:
            raise KeyError(f"no rows for platform {platform!r}")
        budget_ms = C.PERIOD_SECONDS * 1e3
        return min(budget_ms - r.worst_period_ms for r in rows)

    def summary_lines(self) -> List[str]:
        lines = []
        for platform, rows in sorted(self.by_platform().items()):
            missed = sum(r.missed for r in rows)
            total = sum(r.periods for r in rows)
            worst = max(r.worst_period_ms for r in rows)
            lines.append(
                f"{platform}: {missed}/{total} deadlines missed, "
                f"worst period {worst:.2f} ms (budget "
                f"{C.PERIOD_SECONDS * 1e3:.0f} ms)"
            )
        return lines
