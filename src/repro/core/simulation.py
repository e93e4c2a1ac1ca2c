"""High-level façade: an airfield full of moving aircraft plus a platform.

:class:`Simulation` wires together the pieces a downstream user needs —
SetupFlight, the per-period radar feed, the three ATM tasks on a chosen
architecture backend, and the hard-deadline major cycle — behind a small
API::

    from repro import Simulation
    sim = Simulation(n_aircraft=960, backend="cuda:titan-x-pascal")
    result = sim.run(major_cycles=4)
    print(result.summary())
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import constants as C
from .collision import DetectionMode
from .radar import generate_radar_frame
from .scheduler import ScheduleResult, paper_task_table, run_task_table
from .setup import setup_flight
from .types import FleetState, RadarFrame, TaskTiming

__all__ = ["Simulation"]


class Simulation:
    """An ATM simulation bound to one architecture backend.

    Parameters
    ----------
    n_aircraft:
        Fleet size; the paper sweeps this as the independent variable.
    backend:
        A backend instance, a registry name ("reference",
        "cuda:titan-x-pascal", "simd:clearspeed-csx600", "ap:staran",
        "mimd:xeon-16"), or None for the NumPy reference.
    seed:
        Master seed for the airfield and radar noise.
    mode:
        Collision-equation form; see :class:`DetectionMode`.
    """

    def __init__(
        self,
        n_aircraft: int,
        backend: Union[str, "object", None] = None,
        *,
        seed: int = 2018,
        mode: DetectionMode = DetectionMode.SIGNED,
        radar_dropout: float = 0.0,
        radar_clutter: int = 0,
    ) -> None:
        from ..backends.registry import resolve_backend

        self.seed = seed
        self.mode = mode
        self.radar_dropout = radar_dropout
        self.radar_clutter = radar_clutter
        self.backend = resolve_backend(backend)
        self.fleet: FleetState = setup_flight(n_aircraft, seed)
        self._global_period = 0

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    @property
    def n_aircraft(self) -> int:
        return self.fleet.n

    @property
    def current_period(self) -> int:
        """Global half-second period counter since the simulation started."""
        return self._global_period

    def next_radar_frame(self) -> RadarFrame:
        """Generate (but do not consume) the next period's radar frame."""
        return generate_radar_frame(
            self.fleet,
            self.seed,
            self._global_period,
            dropout=self.radar_dropout,
            clutter=self.radar_clutter,
        )

    def step_period(self) -> TaskTiming:
        """Run one half-second period's Task 1 and advance the clock.

        Collision work is *not* run here; use :meth:`step_major_cycle` or
        :meth:`run` for the full schedule, or call
        :meth:`run_collision_tasks` explicitly.
        """
        frame = self.next_radar_frame()
        timing = self.backend.track_and_correlate(self.fleet, frame)
        self._global_period += 1
        return timing

    def run_collision_tasks(self) -> TaskTiming:
        """Run the fused Task 2+3 once on the current fleet."""
        return self.backend.detect_and_resolve(self.fleet, mode=self.mode)

    def step_major_cycle(self) -> ScheduleResult:
        """Run one full 8-second major cycle (16 periods + collisions)."""
        return self.run(major_cycles=1)

    def run(self, major_cycles: int = 1) -> ScheduleResult:
        """Run the hard-deadline schedule for ``major_cycles`` cycles,
        continuing from :attr:`current_period`."""
        result = run_task_table(
            self.backend.name,
            self.fleet,
            paper_task_table(self.backend, self.mode),
            major_cycles=major_cycles,
            seed=self.seed,
            radar_dropout=self.radar_dropout,
            radar_clutter=self.radar_clutter,
            first_period=self._global_period,
        )
        self._global_period += result.total_periods
        return result

    # ------------------------------------------------------------------
    # inspection helpers (used by examples)
    # ------------------------------------------------------------------

    def positions(self) -> np.ndarray:
        """Current (n, 2) aircraft positions in nm."""
        return np.column_stack([self.fleet.x, self.fleet.y])

    def headings_deg(self) -> np.ndarray:
        """Current headings in degrees, measured from the +x axis."""
        return np.degrees(np.arctan2(self.fleet.dy, self.fleet.dx))

    def conflicts_now(self) -> int:
        """Number of aircraft currently flagged as on a collision course."""
        return int(np.count_nonzero(self.fleet.col))

    def density_per_1000nm2(self) -> float:
        """Traffic density — aircraft per 1000 square nm."""
        area = C.AIRFIELD_SIZE_NM**2
        return self.fleet.n / area * 1000.0
