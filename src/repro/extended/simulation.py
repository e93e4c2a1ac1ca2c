"""Façade for the complete ATM system (mirrors ``repro.core.Simulation``).

::

    from repro.extended import FullAtmSimulation
    sim = FullAtmSimulation(960, backend="cuda:titan-x-pascal")
    result = sim.run(major_cycles=4)
    print(result.summary())
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.collision import DetectionMode
from ..core.scheduler import ScheduleResult, run_task_table
from ..core.setup import setup_flight
from ..core.types import FleetState
from .advisory import AdvisoryChannel
from .approach import Runway
from .display import ScopeConfig
from .scheduler import extended_task_table
from .terrain import TerrainGrid

__all__ = ["FullAtmSimulation"]


class FullAtmSimulation:
    """A fleet plus the full task table on one architecture backend.

    Parameters mirror :class:`repro.core.Simulation`, with the extra
    substrate objects (terrain, runway, scope, advisory channel) either
    supplied or generated from the seed.
    """

    def __init__(
        self,
        n_aircraft: int,
        backend: Union[str, "object", None] = None,
        *,
        seed: int = 2018,
        mode: DetectionMode = DetectionMode.SIGNED,
        terrain: Optional[TerrainGrid] = None,
        runway: Optional[Runway] = None,
        scope: Optional[ScopeConfig] = None,
        channel: Optional[AdvisoryChannel] = None,
        radar_dropout: float = 0.0,
        radar_clutter: int = 0,
        fleet: Optional[FleetState] = None,
    ) -> None:
        from ..backends.registry import resolve_backend

        self.seed = seed
        self.mode = mode
        self.backend = resolve_backend(backend)
        self.terrain = terrain if terrain is not None else TerrainGrid.generate(seed)
        self.runway = runway if runway is not None else Runway()
        self.scope = scope if scope is not None else ScopeConfig()
        self.channel = channel if channel is not None else AdvisoryChannel()
        self.radar_dropout = radar_dropout
        self.radar_clutter = radar_clutter
        if fleet is not None:
            if fleet.n != n_aircraft:
                raise ValueError(
                    f"supplied fleet has {fleet.n} aircraft, expected {n_aircraft}"
                )
            self.fleet = fleet
        else:
            self.fleet = setup_flight(n_aircraft, seed)
        self._global_period = 0

    @property
    def n_aircraft(self) -> int:
        return self.fleet.n

    def run(self, major_cycles: int = 1) -> ScheduleResult:
        """Run the full task table for ``major_cycles`` 8-second cycles,
        continuing from where the previous run stopped."""
        table = extended_task_table(
            self.backend, terrain=self.terrain, runway=self.runway,
            channel=self.channel, scope=self.scope, mode=self.mode,
        )
        result = run_task_table(
            self.backend.name,
            self.fleet,
            table,
            major_cycles=major_cycles,
            seed=self.seed,
            radar_dropout=self.radar_dropout,
            radar_clutter=self.radar_clutter,
            first_period=self._global_period,
        )
        self._global_period += result.total_periods
        return result

    def advisory_backlog(self) -> int:
        """Messages still waiting on the voice channel."""
        return self.channel.backlog

    def terrain_clearance_ft(self) -> np.ndarray:
        """Current height of each aircraft above the terrain below it."""
        return self.fleet.alt - self.terrain.elevation_at(self.fleet.x, self.fleet.y)
