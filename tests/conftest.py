"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.radar import generate_radar_frame
from repro.core.setup import setup_flight
from repro.core.types import FleetState

SEED = 2018


@pytest.fixture
def seed() -> int:
    return SEED


@pytest.fixture
def small_fleet() -> FleetState:
    """A 64-aircraft fleet, freshly initialised."""
    return setup_flight(64, SEED)


@pytest.fixture
def medium_fleet() -> FleetState:
    """A 192-aircraft fleet (spans two 96-thread blocks / PE stripes)."""
    return setup_flight(192, SEED)


@pytest.fixture
def radar_for():
    """Factory: a radar frame for a fleet at a given period."""

    def _make(fleet: FleetState, period: int = 0, **kwargs):
        return generate_radar_frame(fleet, SEED, period, **kwargs)

    return _make


def schedule_view(results) -> list:
    """Every period of a sequence of schedule results, as comparable
    plain data: clock, timings (``to_dict``), skips and time used."""
    return [
        (p.major_cycle, p.period, [t.to_dict() for t in p.tasks], p.skipped,
         p.time_used)
        for r in results
        for p in r.periods
    ]


def make_two_aircraft(
    x0=0.0, y0=0.0, dx0=0.01, dy0=0.0,
    x1=10.0, y1=0.0, dx1=-0.01, dy1=0.0,
    alt0=10_000.0, alt1=10_000.0,
) -> FleetState:
    """Hand-built two-aircraft fleet for crafted collision scenarios."""
    fleet = FleetState.empty(2)
    fleet.x[:] = [x0, x1]
    fleet.y[:] = [y0, y1]
    fleet.dx[:] = [dx0, dx1]
    fleet.dy[:] = [dy0, dy1]
    fleet.alt[:] = [alt0, alt1]
    fleet.batdx[:] = fleet.dx
    fleet.batdy[:] = fleet.dy
    return fleet


def place_grid_fleet(n: int, spacing_nm: float = 8.0) -> FleetState:
    """A fleet parked on a well-separated grid, all flying east slowly.

    Useful for tracking tests: expected positions are far apart, so each
    radar can only ever gate with its own aircraft.
    """
    side = int(np.ceil(np.sqrt(n)))
    if (side - 1) * spacing_nm > C.AIRFIELD_SIZE_NM:
        raise ValueError("grid does not fit the airfield")
    fleet = FleetState.empty(n)
    idx = np.arange(n)
    fleet.x[:] = -C.GRID_HALF_NM + spacing_nm / 2 + (idx % side) * spacing_nm
    fleet.y[:] = -C.GRID_HALF_NM + spacing_nm / 2 + (idx // side) * spacing_nm
    fleet.dx[:] = 0.01
    fleet.dy[:] = 0.0
    # Separate altitudes so the grid fleet is collision-free too.
    fleet.alt[:] = 1000.0 + (idx % 30) * 1200.0
    fleet.batdx[:] = fleet.dx
    fleet.batdy[:] = fleet.dy
    return fleet
