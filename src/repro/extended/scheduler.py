"""The complete-ATM-system schedule (the paper's §7.1 future work).

The paper's evaluation runs the three compute-intensive tasks; its
stated next step is "to implement all basic ATM tasks and create a more
complete ATM system that can be tested on NVIDIA-CUDA machines to
determine if it is still viable and will not miss deadlines or change
the curves of the execution graph significantly."  This scheduler does
exactly that: the full task table, modelled after the Goodyear STARAN
ATC software's periodic structure [13], still under the hard
half-second budget.

Task table (one 16-period major cycle):

| period(s) | task |
|---|---|
| every     | Task 1 — tracking & correlation |
| 0         | voice-advisory channel service (speaks last cycle's queue) |
| 1, 9      | display processing (4-second period) |
| 3, 11     | final approach sequencing (4-second period) |
| 7         | terrain avoidance (8-second period, offset from CD/CR) |
| 15        | Tasks 2+3 — collision detection & resolution |

The core scheduler's one loop (:func:`~repro.core.scheduler.run_task_table`)
runs it under the paper's deadline rules, rows in the order above: on
MIMD the extended cost adapters draw from the backend's jitter generator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backends.base import Backend
from ..core.collision import DetectionMode
from ..core.scheduler import ScheduleResult, TaskRow, paper_task_table, run_task_table
from ..core.types import FleetState
from .advisory import Advisory, AdvisoryChannel, AdvisoryKind
from .approach import Runway, sequence_approach
from .costs import advisory_timing, approach_timing, display_timing, terrain_timing
from .display import ScopeConfig, build_display
from .terrain import TerrainGrid
from .terrain_avoidance import check_terrain

__all__ = [
    "APPROACH_PERIODS",
    "TERRAIN_PERIOD",
    "ADVISORY_PERIOD",
    "DISPLAY_PERIODS",
    "extended_task_table",
    "run_extended_schedule",
]

APPROACH_PERIODS = (3, 11)
TERRAIN_PERIOD = 7
ADVISORY_PERIOD = 0
DISPLAY_PERIODS = (1, 9)


def extended_task_table(
    backend: Backend,
    *,
    terrain: TerrainGrid,
    runway: Runway,
    channel: AdvisoryChannel,
    scope: ScopeConfig,
    mode: DetectionMode,
) -> Tuple[TaskRow, ...]:
    """The paper's table plus four rows (see the module docstring);
    Task 2+3 also queues an advisory per unresolved conflict."""
    task1, paper_task23 = paper_task_table(backend, mode)

    def advise(kind, targets, cycle):
        channel.submit_many(Advisory(kind, i, payload, cycle) for i, payload in targets)

    def advisory(fleet, frame, cycle):
        return advisory_timing(backend, fleet.n, channel.service_cycle(cycle))

    def display(fleet, frame, cycle):
        return display_timing(backend, fleet.n, build_display(fleet, scope))

    def approach(fleet, frame, cycle):
        stats = sequence_approach(fleet, runway)
        timing = approach_timing(backend, fleet.n, stats)
        advise(AdvisoryKind.APPROACH, stats.advisory_targets, cycle)
        return timing

    def terrain_check(fleet, frame, cycle):
        stats = check_terrain(fleet, terrain)
        timing = terrain_timing(backend, fleet.n, stats)
        advise(AdvisoryKind.TERRAIN, stats.advisory_targets, cycle)
        return timing

    def task23(fleet, frame, cycle):
        timing = paper_task23.run(fleet, frame, cycle)
        unresolved = np.nonzero(fleet.col == 1)[0]
        targets = ((int(i), float(fleet.time_till[i])) for i in unresolved)
        advise(AdvisoryKind.COLLISION, targets, cycle)
        return timing

    return (
        task1,
        TaskRow("advisory", (ADVISORY_PERIOD,), advisory),
        TaskRow("display", DISPLAY_PERIODS, display),
        TaskRow("approach", APPROACH_PERIODS, approach),
        TaskRow("terrain", (TERRAIN_PERIOD,), terrain_check),
        TaskRow("task23", paper_task23.periods, task23),
    )


def run_extended_schedule(
    backend: Backend,
    fleet: FleetState,
    *,
    terrain: Optional[TerrainGrid] = None,
    runway: Optional[Runway] = None,
    channel: Optional[AdvisoryChannel] = None,
    scope: Optional[ScopeConfig] = None,
    major_cycles: int = 1,
    seed: int = 2018,
    mode: DetectionMode = DetectionMode.SIGNED,
    radar_dropout: float = 0.0,
    radar_clutter: int = 0,
) -> ScheduleResult:
    """Drive the complete ATM system for ``major_cycles`` cycles."""
    table = extended_task_table(
        backend,
        terrain=terrain if terrain is not None else TerrainGrid.generate(seed),
        runway=runway if runway is not None else Runway(),
        channel=channel if channel is not None else AdvisoryChannel(),
        scope=scope if scope is not None else ScopeConfig(),
        mode=mode,
    )
    return run_task_table(
        backend.name,
        fleet,
        table,
        major_cycles=major_cycles,
        seed=seed,
        radar_dropout=radar_dropout,
        radar_clutter=radar_clutter,
    )
