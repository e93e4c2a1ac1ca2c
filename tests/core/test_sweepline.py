"""Differential wall for the functional pass's candidate selection.

The contract under test is absolute: the in-place gated passes
(``detect``, ``resolve``, ``correlate``) and the sweepline pruners
(``detect_pruned``, ``resolve_pruned``, ``correlate(pruned=True)``) must
be **bit-identical** to the dense all-pairs reference in
``dense_reference.py`` — every float compared through its uint64 bit
pattern, every stats field equal, on realistic fleets and on
hypothesis-generated adversarial ones whose altitudes sit one ulp from
the 1000 ft gate and whose radar reports sit one ulp from a gate or
grid-cell edge.  See docs/performance.md ("Large-n regime").
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core import tracking
from repro.core.collision import (
    DetectionMode,
    conflict_row,
    detect,
    detect_chunk_rows,
)
from repro.core.radar import generate_radar_frame
from repro.core.resolution import detect_and_resolve, resolve
from repro.core.setup import setup_flight
from repro.core.sweepline import (
    PRUNE_MIN_N,
    AltitudeBandIndex,
    PruningPolicy,
    detect_and_resolve_pruned,
    detect_pruned,
    resolve_pruned,
    resolve_pruning,
)
from repro.core.tracking import correlate
from repro.core.types import FleetState, RadarFrame

from . import dense_reference as dense

MODES = (DetectionMode.SIGNED, DetectionMode.PAPER_ABS)

#: The two implementations of each task that every differential test
#: compares with the dense reference: the in-place gated pass, then the
#: sweepline pruner.
DETECT = (detect, detect_pruned)
RESOLVE = ((detect, resolve), (detect_pruned, resolve_pruned))
FUSED = (detect_and_resolve, detect_and_resolve_pruned)
CORRELATE = (correlate, lambda fleet, frame: correlate(fleet, frame, pruned=True))


def bits(a: np.ndarray) -> np.ndarray:
    """Float arrays as uint64 bit patterns (NaN-safe exact equality)."""
    a = np.asarray(a)
    if a.dtype == np.float64:
        return a.view(np.uint64)
    return a


def snapshot(fleet: FleetState) -> dict:
    return {
        name: getattr(fleet, name).copy()
        for name in (
            "x", "y", "dx", "dy", "alt", "batdx", "batdy", "col",
            "time_till", "col_with", "r_match", "matched_radar",
            "expected_x", "expected_y",
        )
    }


def assert_fleet_bits_equal(a: dict, b: dict) -> None:
    for name in a:
        assert np.array_equal(bits(a[name]), bits(b[name])), name


def assert_detection_stats_equal(sa, sb) -> None:
    assert sa.pairs_checked == sb.pairs_checked
    assert sa.pairs_in_altitude_band == sb.pairs_in_altitude_band
    assert sa.conflicts == sb.conflicts
    assert sa.critical_conflicts == sb.critical_conflicts
    assert sa.flagged_aircraft == sb.flagged_aircraft
    assert np.array_equal(sa.critical_per_aircraft, sb.critical_per_aircraft)


def assert_tracking_stats_equal(sa, sb) -> None:
    assert sa.rounds_executed == sb.rounds_executed
    assert sa.candidate_pairs == sb.candidate_pairs
    assert sa.matched == sb.matched
    assert sa.discarded_radars == sb.discarded_radars
    assert sa.dropped_aircraft == sb.dropped_aircraft
    assert sa.committed == sb.committed
    assert sa.coasted == sb.coasted
    assert sa.round_active_planes == sb.round_active_planes
    assert len(sa.round_radar_ids) == len(sb.round_radar_ids)
    for ra, rb in zip(sa.round_radar_ids, sb.round_radar_ids):
        assert np.array_equal(ra, rb)
    for ca, cb in zip(
        sa.round_candidates_per_radar, sb.round_candidates_per_radar
    ):
        assert np.array_equal(ca, cb)


def assert_resolution_stats_equal(sa, sb) -> None:
    assert sa.needed_resolution == sb.needed_resolution
    assert sa.already_clear == sb.already_clear
    assert sa.resolved == sb.resolved
    assert sa.unresolved == sb.unresolved
    assert sa.trials_evaluated == sb.trials_evaluated
    assert sa.trials_histogram == sb.trials_histogram
    assert np.array_equal(sa.attempts, sb.attempts)


class TestPolicy:
    def test_auto_threshold(self):
        assert not resolve_pruning("auto", PRUNE_MIN_N - 1)
        assert resolve_pruning("auto", PRUNE_MIN_N)
        assert not resolve_pruning(None, 64)

    def test_forced(self):
        assert resolve_pruning("on", 1)
        assert not resolve_pruning("off", 10**7)
        assert resolve_pruning(PruningPolicy.ON, 2)
        assert not resolve_pruning(PruningPolicy.OFF, 10**7)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            resolve_pruning("sometimes", 100)


class TestAltitudeBandIndex:
    @pytest.mark.parametrize("n", [1, 7, 193, 960])
    def test_windows_match_brute_force_gate(self, n):
        fleet = setup_flight(n, 2018)
        index = AltitudeBandIndex(fleet)
        alt = fleet.alt
        sep = C.ALTITUDE_SEPARATION_FT
        # Window [begin, end) in sorted order == the brute-force gate
        # |fl(alt_j - alt_i)| < sep, evaluated per ordered pair.
        in_band = np.abs(alt[:, None] - alt[None, :]) < sep
        for i in range(n):
            window = set(index.order[index.begin[i]:index.end[i]])
            assert window == set(np.nonzero(in_band[i])[0]), i
        assert index.band_pairs == int(in_band.sum()) - n  # minus self-pairs


class TestDetectDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,seed", [(1, 2018), (64, 7), (193, 2018), (960, 2018)])
    def test_bit_identical_to_detect(self, mode, n, seed):
        ref = setup_flight(n, seed)
        sa = dense.detect(ref, mode)
        assert sa.pairs_checked == n * (n - 1)
        for run in DETECT:
            got = setup_flight(n, seed)
            sb = run(got, mode)
            assert_fleet_bits_equal(snapshot(ref), snapshot(got))
            assert_detection_stats_equal(sa, sb)

    @pytest.mark.parametrize("mode", MODES)
    def test_tiny_blocks_do_not_change_results(self, mode):
        ref = setup_flight(193, 2018)
        pruned = setup_flight(193, 2018)
        sa = dense.detect(ref, mode)
        sb = detect_pruned(pruned, mode, block_cells=1)
        assert_fleet_bits_equal(snapshot(ref), snapshot(pruned))
        assert_detection_stats_equal(sa, sb)


class TestResolveDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,seed", [(64, 2018), (960, 2018), (960, 7)])
    def test_bit_identical_to_resolve(self, mode, n, seed):
        ref = setup_flight(n, seed)
        dense.detect(ref, mode)
        sa = dense.resolve(ref, mode)
        for run_detect, run_resolve in RESOLVE:
            got = setup_flight(n, seed)
            run_detect(got, mode)
            sb = run_resolve(got, mode)
            assert_fleet_bits_equal(snapshot(ref), snapshot(got))
            assert_resolution_stats_equal(sa, sb)

    @pytest.mark.parametrize("mode", MODES)
    def test_fused_pass_matches(self, mode):
        ref = setup_flight(480, 2018)
        da, ra = dense.detect_and_resolve(ref, mode)
        for run in FUSED:
            got = setup_flight(480, 2018)
            db, rb = run(got, mode)
            assert_fleet_bits_equal(snapshot(ref), snapshot(got))
            assert_detection_stats_equal(da, db)
            assert_resolution_stats_equal(ra, rb)


class TestTrackingDifferential:
    @pytest.mark.parametrize("n,seed", [(64, 2018), (480, 7), (960, 2018)])
    def test_grid_hash_bit_identical(self, n, seed):
        fa = setup_flight(n, seed)
        ra = generate_radar_frame(fa, seed, 0)
        sa = dense.correlate(fa, ra)
        for run in CORRELATE:
            fb = setup_flight(n, seed)
            rb = generate_radar_frame(fb, seed, 0)
            sb = run(fb, rb)
            assert_fleet_bits_equal(snapshot(fa), snapshot(fb))
            assert np.array_equal(ra.match_with, rb.match_with)
            assert_tracking_stats_equal(sa, sb)

    def test_with_dropout_and_clutter(self):
        for run in CORRELATE:
            fa = setup_flight(480, 2018)
            fb = setup_flight(480, 2018)
            for period in range(2):
                ra = generate_radar_frame(fa, 2018, period, dropout=0.1, clutter=32)
                rb = generate_radar_frame(fb, 2018, period, dropout=0.1, clutter=32)
                sa = dense.correlate(fa, ra)
                sb = run(fb, rb)
                assert_fleet_bits_equal(snapshot(fa), snapshot(fb))
                assert_tracking_stats_equal(sa, sb)


class TestMultiPeriodDifferential:
    """The passes stay bit-identical when their outputs feed the next
    period — errors would compound, so none may exist.  The loop mirrors
    :func:`repro.core.trace.stream_trace`'s measurement protocol."""

    @pytest.mark.parametrize("mode", MODES)
    def test_three_periods_then_collision(self, mode):
        for run_correlate, run_fused in zip(CORRELATE, FUSED):
            fa = setup_flight(480, 2018)
            fb = setup_flight(480, 2018)
            for period in range(3):
                dense.correlate(fa, generate_radar_frame(fa, 2018, period))
                run_correlate(fb, generate_radar_frame(fb, 2018, period))
                assert_fleet_bits_equal(snapshot(fa), snapshot(fb))
            dense.detect_and_resolve(fa, mode)
            run_fused(fb, mode)
            assert_fleet_bits_equal(snapshot(fa), snapshot(fb))


def adversarial_fleet(alts, coords):
    """A fleet whose altitudes/positions are chosen by hypothesis."""
    n = len(alts)
    fleet = FleetState.empty(n)
    fleet.alt[:] = alts
    for i, (x, y, dx, dy) in enumerate(coords):
        fleet.x[i] = x
        fleet.y[i] = y
        fleet.dx[i] = dx
        fleet.dy[i] = dy
    return fleet


# Altitudes cluster around two flight levels exactly ALTITUDE_SEPARATION
# apart, displaced by 0..3 ulps — the boundary where |fl(a-b)| < 1000.0
# flips, which is precisely where an unsound pruner would diverge.
_base = st.sampled_from([4000.0, 17000.0, 29000.5])
_ulps = st.integers(min_value=-3, max_value=3)


def nudge(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable doubles up (or down)."""
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return float(value)


@st.composite
def boundary_altitude(draw):
    level = draw(_base) + draw(st.sampled_from([0.0, C.ALTITUDE_SEPARATION_FT]))
    return nudge(level, draw(_ulps))


@st.composite
def gate_scene(draw):
    """Expected positions and radar reports 0..3 ulps either side of a
    gate edge (expected +- g) or a grid-cell edge (k * 2g) — where a
    grid hash that missed a neighbour cell, or tested the gate on other
    operands than the dense scan, would lose or gain a pair."""
    g = draw(st.sampled_from([0.5, 1.0, 2.0]))
    edge = st.integers(min_value=-32, max_value=32).map(lambda k: k * 2.0 * g)
    free = st.floats(min_value=-130.0, max_value=130.0, allow_nan=False)

    def expected_coord():
        return nudge(draw(st.one_of(edge, free)), draw(_ulps))

    n_planes = draw(st.integers(min_value=1, max_value=8))
    ex = [expected_coord() for _ in range(n_planes)]
    ey = [expected_coord() for _ in range(n_planes)]

    def report_coord(around: float) -> float:
        offset = draw(st.sampled_from([-g, 0.0, g]))
        return nudge(draw(st.one_of(st.just(around + offset), edge)), draw(_ulps))

    n_radars = draw(st.integers(min_value=1, max_value=10))
    targets = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_planes - 1),
            min_size=n_radars,
            max_size=n_radars,
        )
    )
    fleet = FleetState.empty(n_planes)
    fleet.expected_x[:] = ex
    fleet.expected_y[:] = ey
    frame = RadarFrame.empty(n_radars)
    frame.rx[:] = [report_coord(ex[t]) for t in targets]
    frame.ry[:] = [report_coord(ey[t]) for t in targets]
    plane_mask = np.array(
        draw(st.lists(st.booleans(), min_size=n_planes, max_size=n_planes))
    )
    radar_ids = np.array(
        sorted(draw(st.sets(st.integers(min_value=0, max_value=n_radars - 1)))),
        dtype=np.int64,
    )
    return radar_ids, frame, fleet, plane_mask, g


_coord = st.tuples(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
)


class TestAdversarialProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(boundary_altitude(), min_size=2, max_size=12),
        st.data(),
        st.sampled_from(MODES),
    )
    def test_detect_bit_identical_on_ulp_boundaries(self, alts, data, mode):
        coords = data.draw(
            st.lists(_coord, min_size=len(alts), max_size=len(alts))
        )
        ref = adversarial_fleet(alts, coords)
        sa = dense.detect(ref, mode)
        for run in DETECT:
            got = adversarial_fleet(alts, coords)
            sb = run(got, mode)
            assert_fleet_bits_equal(snapshot(ref), snapshot(got))
            assert_detection_stats_equal(sa, sb)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(boundary_altitude(), min_size=2, max_size=8),
        st.data(),
        st.sampled_from(MODES),
    )
    def test_resolve_bit_identical_on_ulp_boundaries(self, alts, data, mode):
        coords = data.draw(
            st.lists(_coord, min_size=len(alts), max_size=len(alts))
        )
        ref = adversarial_fleet(alts, coords)
        dense.detect(ref, mode)
        sa = dense.resolve(ref, mode)
        for run_detect, run_resolve in RESOLVE:
            got = adversarial_fleet(alts, coords)
            run_detect(got, mode)
            sb = run_resolve(got, mode)
            assert_fleet_bits_equal(snapshot(ref), snapshot(got))
            assert_resolution_stats_equal(sa, sb)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(boundary_altitude(), min_size=2, max_size=12),
        st.data(),
        st.sampled_from(MODES),
    )
    def test_conflict_row_matches_dense_on_ulp_boundaries(self, alts, data, mode):
        coords = data.draw(
            st.lists(_coord, min_size=len(alts), max_size=len(alts))
        )
        _, _, trial_dx, trial_dy = data.draw(_coord)
        fleet = adversarial_fleet(alts, coords)
        for i in range(fleet.n):
            for dxi, dyi in ((fleet.dx[i], fleet.dy[i]), (trial_dx, trial_dy)):
                want, want_t = dense.conflict_row(fleet, i, dxi, dyi, mode)
                got, got_t = conflict_row(fleet, i, dxi, dyi, mode)
                assert np.array_equal(want, got)
                # t_eff is the dense value inside the band, +inf outside.
                band = np.abs(fleet.alt - fleet.alt[i]) < C.ALTITUDE_SEPARATION_FT
                band[i] = False
                assert np.array_equal(bits(want_t[band]), bits(got_t[band]))
                assert np.all(got_t[~band] == np.inf)

    @settings(max_examples=200, deadline=None)
    @given(gate_scene())
    def test_grid_hash_pairs_on_ulp_boundaries(self, scene):
        want_r, want_p = dense._candidate_pairs(*scene)
        got_r, got_p = tracking._candidate_pairs(*scene)
        assert np.array_equal(want_r, got_r)
        assert np.array_equal(want_p, got_p)


class TestAdaptiveChunk:
    def test_chunk_rows_bounds(self):
        assert detect_chunk_rows(1) == 1
        assert detect_chunk_rows(960) == 960  # small fleets: one block
        big = detect_chunk_rows(1_000_000)
        assert 1 <= big < 1_000_000  # budget-limited at continental scale
        assert detect_chunk_rows(960, 96 * 960 * 10) == 10

    @pytest.mark.parametrize("mode", MODES)
    def test_adaptive_chunk_matches_fixed(self, mode):
        a = setup_flight(960, 2018)
        b = setup_flight(960, 2018)
        sa = detect(a, mode)  # adaptive default
        sb = detect(b, mode, chunk=512)  # the historical fixed chunk
        assert_fleet_bits_equal(snapshot(a), snapshot(b))
        assert_detection_stats_equal(sa, sb)
