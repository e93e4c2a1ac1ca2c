"""Hypothesis property tests on the core data structures and math."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import constants as C
from repro.core.collision import (
    DetectionMode,
    axis_interval_paper_abs,
    axis_interval_signed,
    detect,
)
from repro.core.geometry import rotate_velocity, wraparound
from repro.core.radar import fourth_reversal_permutation, generate_radar_frame
from repro.core.rng import Stream, random_unit
from repro.core.setup import setup_flight
from repro.core.tracking import correlate
from repro.core.types import FleetState

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
angle = st.floats(min_value=-360.0, max_value=360.0, allow_nan=False)


class TestGeometryProperties:
    @given(finite, finite, angle)
    def test_rotation_preserves_speed(self, dx, dy, theta):
        rx, ry = rotate_velocity(dx, dy, theta)
        assert np.isclose(np.hypot(rx, ry), np.hypot(dx, dy), atol=1e-6)

    @given(finite, finite, angle)
    def test_rotation_invertible(self, dx, dy, theta):
        rx, ry = rotate_velocity(*rotate_velocity(dx, dy, theta), -theta)
        assert np.isclose(rx, dx, atol=1e-6 * max(1, abs(dx)))
        assert np.isclose(ry, dy, atol=1e-6 * max(1, abs(dy)))

    @given(
        st.floats(min_value=-500, max_value=500, allow_nan=False),
        st.floats(min_value=-500, max_value=500, allow_nan=False),
    )
    def test_wraparound_lands_in_bounds(self, x, y):
        nx, ny = wraparound(np.array([x]), np.array([y]))
        assert abs(nx[0]) <= C.GRID_HALF_NM
        assert abs(ny[0]) <= C.GRID_HALF_NM

    @given(
        st.floats(min_value=-C.GRID_HALF_NM, max_value=C.GRID_HALF_NM),
        st.floats(min_value=-C.GRID_HALF_NM, max_value=C.GRID_HALF_NM),
    )
    def test_wraparound_identity_inside(self, x, y):
        nx, ny = wraparound(np.array([x]), np.array([y]))
        assert nx[0] == x and ny[0] == y


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(0, 2**31))
    def test_unit_interval(self, seed, element):
        u = random_unit(seed, np.array([element]), Stream.SETUP_X)[0]
        assert 0.0 <= u < 1.0

    @given(st.integers(min_value=0, max_value=2**32))
    def test_batch_equals_individual(self, seed):
        ids = np.arange(16)
        batch = random_unit(seed, ids, Stream.SETUP_SPEED)
        singles = np.array(
            [random_unit(seed, np.array([i]), Stream.SETUP_SPEED)[0] for i in ids]
        )
        assert np.array_equal(batch, singles)


class TestShuffleProperties:
    @given(st.integers(min_value=0, max_value=2000))
    def test_permutation(self, n):
        perm = fourth_reversal_permutation(n)
        assert np.array_equal(np.sort(perm), np.arange(n))

    @given(st.integers(min_value=0, max_value=2000))
    def test_involution(self, n):
        perm = fourth_reversal_permutation(n)
        assert np.array_equal(perm[perm], np.arange(n))


band = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
gap = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
vel = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
times = st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False)


class TestIntervalProperties:
    @given(gap, vel, band, times)
    def test_signed_window_membership(self, g, v, b, t):
        lo, hi = axis_interval_signed(g, v, b)
        inside = abs(g + v * t) < b
        in_window = lo < t < hi
        # Strict inequalities may disagree exactly on the boundary.
        if abs(abs(g + v * t) - b) > 1e-9:
            assert inside == in_window

    @given(gap, vel, band)
    def test_signed_window_ordering(self, g, v, b):
        lo, hi = axis_interval_signed(g, v, b)
        # Either a well-formed window or an empty marker.
        assert lo <= hi or (lo > hi)

    @given(gap, vel, band)
    def test_paper_abs_window_nonnegative(self, g, v, b):
        lo, hi = axis_interval_paper_abs(g, v, b)
        if lo <= hi:  # non-empty
            assert lo >= 0.0

    @given(gap, vel, band)
    def test_paper_abs_symmetric_in_gap_sign(self, g, v, b):
        a = axis_interval_paper_abs(g, v, b)
        c = axis_interval_paper_abs(-g, v, b)
        assert a == c


@st.composite
def small_fleet_arrays(draw, n=8):
    x = draw(arrays(np.float64, n, elements=st.floats(-100, 100)))
    y = draw(arrays(np.float64, n, elements=st.floats(-100, 100)))
    dx = draw(arrays(np.float64, n, elements=st.floats(-0.08, 0.08)))
    dy = draw(arrays(np.float64, n, elements=st.floats(-0.08, 0.08)))
    alt = draw(arrays(np.float64, n, elements=st.floats(1000, 40000)))
    return x, y, dx, dy, alt


def build_fleet(x, y, dx, dy, alt) -> FleetState:
    f = FleetState.empty(x.shape[0])
    f.x[:], f.y[:], f.dx[:], f.dy[:], f.alt[:] = x, y, dx, dy, alt
    f.batdx[:], f.batdy[:] = dx, dy
    return f


class TestDetectionProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_fleet_arrays())
    def test_detection_symmetric(self, cols):
        """col/time_till are pairwise-symmetric: if i's earliest critical
        partner list includes j, then j is flagged too."""
        fleet = build_fleet(*cols)
        detect(fleet)
        flagged = np.nonzero(fleet.col == 1)[0]
        for i in flagged:
            j = fleet.col_with[i]
            assert fleet.col[j] == 1

    @settings(max_examples=40, deadline=None)
    @given(small_fleet_arrays())
    def test_detection_deterministic(self, cols):
        a = build_fleet(*cols)
        b = build_fleet(*cols)
        detect(a)
        detect(b)
        assert a.state_equal(b)

    @settings(max_examples=40, deadline=None)
    @given(small_fleet_arrays())
    def test_time_till_bounded(self, cols):
        fleet = build_fleet(*cols)
        detect(fleet)
        assert np.all(fleet.time_till >= 0.0)
        assert np.all(fleet.time_till <= C.TIME_TILL_SAFE_PERIODS)

    @settings(max_examples=25, deadline=None)
    @given(small_fleet_arrays())
    def test_paper_abs_flags_superset(self, cols):
        """The abs form can only flag *more* pairs than the signed form
        (it maps receding geometry onto approaching geometry)."""
        a = build_fleet(*cols)
        b = build_fleet(*cols)
        sa = detect(a, DetectionMode.SIGNED)
        sb = detect(b, DetectionMode.PAPER_ABS)
        assert sb.conflicts >= sa.conflicts


class TestCorrelationProperties:
    """Task 1's commit step takes an aircraft's radar position on one
    test, ``r_match == MATCHED_ONCE``; it relies on this invariant."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from((96, 480, 960, 1920)),
        seed=st.sampled_from((2018, 2019, 7)),
        noise=st.sampled_from(((0.0, 0), (0.1, 20), (0.3, 200))),
        periods=st.integers(min_value=1, max_value=3),
    )
    def test_a_held_radar_is_its_aircrafts_matched_radar(
        self, n, seed, noise, periods
    ):
        dropout, clutter = noise
        fleet = setup_flight(n, seed)
        for period in range(periods):
            frame = generate_radar_frame(
                fleet, seed, period, dropout=dropout, clutter=clutter
            )
            correlate(fleet, frame)
            held = np.flatnonzero(frame.match_with >= 0)
            assert held.size > 0
            assert np.array_equal(
                fleet.matched_radar[frame.match_with[held]], held
            )
