"""The major cycle: 16 half-second periods with hard deadlines (Section 4.2).

Every half second Task 1 must run; in the 16th period the fused Task 2+3
runs after Task 1.  Whatever modelled time the platform needs is charged
against the 0.5 s period budget:

* a task whose predecessors already exhausted the period is **skipped**
  ("remaining tasks that may not have time to complete their execution
  before the end of the period must be skipped");
* a period whose scheduled work exceeds 0.5 s, or that skipped a task,
  is a **missed deadline**;
* leftover time is idle waiting — "whatever time is left, we wait that
  long before executing the next period" — recorded as slack.

These rules are written once, in :func:`run_task_table`, which runs a
*task table*: rows of (name, periods of the cycle the row is due in,
how to run it), executed in table order.  :func:`run_schedule` runs the
paper's two-row table (:func:`paper_task_table`); the complete system
of :mod:`repro.extended` runs a six-row table through the same loop.

Radar generation runs *before* each period starts and is not part of the
ATM budget (the paper: "this activity can occur prior to the start of
each half-second time interval").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Container, List, Optional, Sequence, Tuple

import numpy as np

from . import constants as C
from .collision import DetectionMode
from .radar import generate_radar_frame
from .types import FleetState, RadarFrame, TaskTiming

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.base import Backend

__all__ = [
    "TaskRow", "PeriodRecord", "ScheduleResult",
    "paper_task_table", "run_task_table", "run_schedule",
]


@dataclass(frozen=True)
class TaskRow:
    """One row of a task table."""

    name: str
    #: periods of the major cycle (0..15) the row is due in.
    periods: Container[int]
    #: runs the task on ``(fleet, frame, cycle)`` and returns its timing.
    run: Callable[[FleetState, RadarFrame, int], TaskTiming]


@dataclass
class PeriodRecord:
    """Outcome of one half-second period."""

    major_cycle: int
    period: int  # 0..15 within the major cycle
    #: every task that ran this period, in execution order.
    tasks: List[TaskTiming]
    #: total modelled task time charged to this period, seconds.
    time_used: float
    #: unused time the system waits out before the next period.
    slack: float
    deadline_missed: bool
    #: names of tasks that were due but skipped for lack of budget.
    skipped: List[str] = field(default_factory=list)

    def timing(self, task: str) -> Optional[TaskTiming]:
        """The timing of ``task`` if it ran this period, else None."""
        return next((t for t in self.tasks if t.task == task), None)

    @property
    def task1(self) -> Optional[TaskTiming]:
        return self.timing("task1")

    @property
    def task23(self) -> Optional[TaskTiming]:
        return self.timing("task23")

    @property
    def task23_skipped(self) -> bool:
        """Task 2+3 was due this period but skipped for lack of budget."""
        return "task23" in self.skipped


@dataclass
class ScheduleResult:
    """Aggregate of a multi-major-cycle run on one platform."""

    platform: str
    n_aircraft: int
    #: the task table's row names, in execution order.
    task_names: Tuple[str, ...]
    periods: List[PeriodRecord] = field(default_factory=list)

    @property
    def total_periods(self) -> int:
        return len(self.periods)

    @property
    def missed_deadlines(self) -> int:
        return sum(1 for p in self.periods if p.deadline_missed)

    @property
    def skipped_tasks(self) -> int:
        return sum(len(p.skipped) for p in self.periods)

    @property
    def miss_rate(self) -> float:
        return self.missed_deadlines / self.total_periods if self.periods else 0.0

    def task_times(self, task: str) -> np.ndarray:
        """Every modelled time of ``task``, in execution order."""
        return np.array(
            [t.seconds for p in self.periods for t in p.tasks if t.task == task]
        )

    def task1_times(self) -> np.ndarray:
        return self.task_times("task1")

    def task23_times(self) -> np.ndarray:
        return self.task_times("task23")

    @property
    def worst_period_seconds(self) -> float:
        return max((p.time_used for p in self.periods), default=0.0)

    @property
    def mean_utilization(self) -> float:
        """Mean fraction of each period spent computing (vs waiting)."""
        if not self.periods:
            return 0.0
        used = np.array([min(p.time_used, C.PERIOD_SECONDS) for p in self.periods])
        return float(used.mean() / C.PERIOD_SECONDS)

    def summary(self) -> dict:
        """Counts, each row's mean and max time (0.0 if it never ran)."""
        out = {
            "platform": self.platform,
            "n_aircraft": self.n_aircraft,
            "periods": self.total_periods,
            "missed_deadlines": self.missed_deadlines,
            "skipped_tasks": self.skipped_tasks,
            "miss_rate": self.miss_rate,
        }
        for task in self.task_names:
            times = self.task_times(task)
            out[f"{task}_mean_s"] = float(times.mean()) if times.size else 0.0
            out[f"{task}_max_s"] = float(times.max()) if times.size else 0.0
        out["worst_period_s"] = self.worst_period_seconds
        out["mean_utilization"] = self.mean_utilization
        return out


def run_task_table(
    platform: str,
    fleet: FleetState,
    table: Sequence[TaskRow],
    *,
    major_cycles: int,
    seed: int,
    radar_dropout: float,
    radar_clutter: int,
    first_period: int = 0,
) -> ScheduleResult:
    """Run ``major_cycles`` cycles of ``table`` from global period
    ``first_period`` on: the radar frame, then the rows due, in table
    order, under the budget rules.  The cycle and the period within it
    follow from the global index, so the façades, which keep the
    clock, continue a run where the previous one stopped.
    """
    if major_cycles < 1:
        raise ValueError("need at least one major cycle")

    result = ScheduleResult(platform, fleet.n, tuple(row.name for row in table))
    last = first_period + major_cycles * C.PERIODS_PER_MAJOR_CYCLE
    for global_period in range(first_period, last):
        cycle, period = divmod(global_period, C.PERIODS_PER_MAJOR_CYCLE)
        frame = generate_radar_frame(
            fleet, seed, global_period, dropout=radar_dropout, clutter=radar_clutter,
        )
        tasks: List[TaskTiming] = []
        skipped: List[str] = []
        time_used = 0.0
        for row in table:
            if period not in row.periods:
                continue
            if time_used >= C.PERIOD_SECONDS:
                skipped.append(row.name)
                continue
            timing = row.run(fleet, frame, cycle)
            tasks.append(timing)
            time_used += timing.seconds
        result.periods.append(
            PeriodRecord(
                major_cycle=cycle,
                period=period,
                tasks=tasks,
                time_used=time_used,
                slack=max(C.PERIOD_SECONDS - time_used, 0.0),
                deadline_missed=time_used > C.PERIOD_SECONDS or bool(skipped),
                skipped=skipped,
            )
        )
    return result


def paper_task_table(backend: "Backend", mode: DetectionMode) -> Tuple[TaskRow, ...]:
    """The paper's table: Task 1 every period, Tasks 2+3 in the 16th."""

    def task1(fleet, frame, cycle):
        return backend.track_and_correlate(fleet, frame)

    def task23(fleet, frame, cycle):
        return backend.detect_and_resolve(fleet, mode=mode)

    return (
        TaskRow("task1", range(C.PERIODS_PER_MAJOR_CYCLE), task1),
        TaskRow("task23", (C.COLLISION_PERIOD_INDEX,), task23),
    )


def run_schedule(
    backend: "Backend",
    fleet: FleetState,
    *,
    major_cycles: int = 1,
    seed: int = 2018,
    mode: DetectionMode = DetectionMode.SIGNED,
    radar_dropout: float = 0.0,
    radar_clutter: int = 0,
) -> ScheduleResult:
    """Drive ``major_cycles`` 8-second cycles of the ATM schedule.

    The fleet is mutated in place (it keeps flying between cycles).
    Timing comes entirely from the backend's architecture model; this
    function only applies the period budget rules.
    """
    return run_task_table(
        backend.name,
        fleet,
        paper_task_table(backend, mode),
        major_cycles=major_cycles,
        seed=seed,
        radar_dropout=radar_dropout,
        radar_clutter=radar_clutter,
    )
