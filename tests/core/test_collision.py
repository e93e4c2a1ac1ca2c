"""Unit tests for Task 2 (Batcher collision detection)."""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.collision import (
    DetectionMode,
    axis_interval_paper_abs,
    axis_interval_signed,
    conflict_row,
    detect,
    earliest_critical,
    pair_interval,
)
from repro.core.types import FleetState

from ..conftest import make_two_aircraft


class TestAxisIntervalSigned:
    def test_approaching_pair(self):
        # gap 10 closing at 0.1/period with band 3: window [70, 130].
        lo, hi = axis_interval_signed(10.0, -0.1, 3.0)
        assert lo == pytest.approx(70.0)
        assert hi == pytest.approx(130.0)

    def test_receding_pair_window_in_past(self):
        lo, hi = axis_interval_signed(10.0, 0.1, 3.0)
        assert hi < 0  # overlap was in the past only

    def test_static_inside_band(self):
        lo, hi = axis_interval_signed(1.0, 0.0, 3.0)
        assert lo == -np.inf and hi == np.inf

    def test_static_outside_band(self):
        lo, hi = axis_interval_signed(5.0, 0.0, 3.0)
        assert lo > hi  # empty window

    def test_membership_property(self):
        """t in [lo, hi] <=> |gap + v t| <= band (sampled check)."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            gap = rng.uniform(-20, 20)
            v = rng.uniform(-0.5, 0.5)
            lo, hi = axis_interval_signed(gap, v, 3.0)
            for t in rng.uniform(-300, 300, 8):
                inside = abs(gap + v * t) < 3.0
                in_window = lo < t < hi
                assert inside == in_window, (gap, v, t, lo, hi)


class TestAxisIntervalPaperAbs:
    def test_formula_literal(self):
        # min = (|gap|-3)/|v|, max = (|gap|+3)/|v|
        lo, hi = axis_interval_paper_abs(10.0, -0.1, 3.0)
        assert lo == pytest.approx(70.0)
        assert hi == pytest.approx(130.0)

    def test_receding_pair_reads_positive(self):
        """The paper's abs form maps past overlaps to positive times."""
        lo, hi = axis_interval_paper_abs(10.0, 0.1, 3.0)
        assert lo == pytest.approx(70.0) and hi == pytest.approx(130.0)

    def test_negative_numerator_clamps_to_zero(self):
        lo, _ = axis_interval_paper_abs(1.0, 0.2, 3.0)
        assert lo == 0.0

    def test_static_cases(self):
        lo, hi = axis_interval_paper_abs(1.0, 0.0, 3.0)
        assert lo == 0.0 and hi == np.inf
        lo, hi = axis_interval_paper_abs(9.0, 0.0, 3.0)
        assert lo > hi


class TestPairInterval:
    def test_combines_axes_with_max_min(self):
        # x window [70, 130]; y window [20, 80] -> [70, 80].
        lo, hi = pair_interval(10.0, 5.0, -0.1, -0.1, DetectionMode.SIGNED)
        assert lo == pytest.approx(70.0)
        assert hi == pytest.approx(80.0)

    def test_disjoint_axis_windows_mean_no_collision(self):
        # x window [70, 130]; y window [470, 530] -> empty.
        lo, hi = pair_interval(10.0, 50.0, -0.1, -0.1, DetectionMode.SIGNED)
        assert lo > hi


class TestDetect:
    def test_head_on_collision_flagged(self):
        fleet = make_two_aircraft(
            x0=0.0, dx0=0.05, x1=20.0, dx1=-0.05, y0=0.0, y1=0.0, dy0=0.0, dy1=0.0
        )
        stats = detect(fleet)
        assert stats.flagged_aircraft == 2
        assert fleet.col.tolist() == [1, 1]
        assert fleet.col_with.tolist() == [1, 0]
        # Gap 20 closing at 0.1/period, band 3 -> first overlap at t=170.
        assert fleet.time_till[0] == pytest.approx(170.0)
        assert fleet.time_till[1] == pytest.approx(170.0)

    def test_altitude_gate_suppresses_conflict(self):
        fleet = make_two_aircraft(alt0=10_000.0, alt1=12_000.0)
        stats = detect(fleet)
        assert stats.flagged_aircraft == 0
        assert stats.pairs_in_altitude_band == 0

    def test_altitude_gate_boundary(self):
        fleet = make_two_aircraft(alt0=10_000.0, alt1=10_999.0)
        assert detect(fleet).pairs_in_altitude_band == 2  # ordered pairs

    def test_receding_not_flagged_in_signed_mode(self):
        fleet = make_two_aircraft(
            x0=0.0, dx0=-0.05, x1=20.0, dx1=0.05  # flying apart
        )
        stats = detect(fleet, DetectionMode.SIGNED)
        assert stats.flagged_aircraft == 0

    def test_receding_flagged_in_paper_abs_mode(self):
        """The literal Eqs. (1)-(6) flag the receding pair too."""
        fleet = make_two_aircraft(x0=0.0, dx0=-0.05, x1=20.0, dx1=0.05)
        stats = detect(fleet, DetectionMode.PAPER_ABS)
        assert stats.flagged_aircraft == 2

    def test_distant_conflict_not_critical(self):
        # Gap 100 closing at 0.1/period -> overlap at t=970 > 300: a
        # conflict within the 20-minute horizon but not critical.
        fleet = make_two_aircraft(x0=0.0, dx0=0.05, x1=100.0, dx1=-0.05)
        stats = detect(fleet)
        assert stats.conflicts == 2
        assert stats.critical_conflicts == 0
        assert fleet.col.tolist() == [0, 0]
        assert np.all(fleet.time_till == C.TIME_TILL_SAFE_PERIODS)

    def test_beyond_horizon_not_a_conflict(self):
        # Gap 250 closing at 0.1/period -> t=2470 > 2400-period horizon.
        fleet = make_two_aircraft(x0=-125.0, dx0=0.05, x1=125.0, dx1=-0.05)
        stats = detect(fleet)
        assert stats.conflicts == 0

    def test_currently_overlapping_pair_is_time_zero(self):
        fleet = make_two_aircraft(x0=0.0, x1=1.0, dx0=0.01, dx1=0.01)
        detect(fleet)
        assert fleet.time_till[0] == 0.0
        assert fleet.col[0] == 1

    @pytest.mark.parametrize("mode", list(DetectionMode))
    def test_equal_times_pick_the_smallest_partner_id(self, mode):
        # Three aircraft already inside one another's bands: every
        # partner is at t_eff = 0, so each takes its smallest-id partner.
        fleet = FleetState.empty(3)
        fleet.x[:] = [0.0, 1.0, -1.0]
        fleet.dx[:] = 0.01
        fleet.alt[:] = 10_000.0
        detect(fleet, mode)
        assert fleet.col_with.tolist() == [1, 0, 0]
        assert fleet.time_till.tolist() == [0.0, 0.0, 0.0]

    def test_symmetric(self):
        fleet = make_two_aircraft(x0=0.0, dx0=0.05, x1=20.0, dx1=-0.05)
        detect(fleet)
        assert fleet.col[0] == fleet.col[1]
        assert fleet.time_till[0] == fleet.time_till[1]

    def test_detect_is_idempotent(self):
        fleet = make_two_aircraft()
        detect(fleet)
        first = fleet.copy()
        detect(fleet)
        assert fleet.state_equal(first)

    def test_chunking_invariance(self):
        from repro.core.setup import setup_flight

        a = setup_flight(300, 2018)
        b = a.copy()
        sa = detect(a, chunk=512)
        sb = detect(b, chunk=7)
        assert a.state_equal(b)
        assert sa.conflicts == sb.conflicts
        assert sa.critical_conflicts == sb.critical_conflicts

    def test_pairs_checked_count(self):
        fleet = make_two_aircraft()
        assert detect(fleet).pairs_checked == 2
        from repro.core.setup import setup_flight

        f = setup_flight(10, 1)
        assert detect(f).pairs_checked == 90

    def test_critical_per_aircraft_sums(self):
        from repro.core.setup import setup_flight

        f = setup_flight(200, 2018)
        stats = detect(f)
        assert stats.critical_per_aircraft.sum() == stats.critical_conflicts


class TestConflictRow:
    def test_matches_detect(self):
        from repro.core.setup import setup_flight

        fleet = setup_flight(100, 2018)
        detect(fleet)
        for i in (0, 13, 99):
            conflict, t_eff = conflict_row(
                fleet, i, float(fleet.dx[i]), float(fleet.dy[i])
            )
            critical = conflict & (t_eff < C.TIME_TILL_SAFE_PERIODS)
            assert bool(critical.any()) == bool(fleet.col[i])

    def test_self_excluded(self):
        fleet = make_two_aircraft()
        conflict, _ = conflict_row(fleet, 0, 0.01, 0.0)
        assert not conflict[0]


class TestEarliestCritical:
    def test_returns_partner_and_time(self):
        fleet = make_two_aircraft(x0=0.0, dx0=0.05, x1=20.0, dx1=-0.05)
        hit = earliest_critical(fleet, 0, 0.05, 0.0)
        assert hit is not None
        partner, t = hit
        assert partner == 1
        assert t == pytest.approx(170.0)

    def test_none_when_clear(self):
        fleet = make_two_aircraft(x0=0.0, dx0=-0.05, x1=20.0, dx1=0.05)
        assert earliest_critical(fleet, 0, -0.05, 0.0) is None

    def test_trial_velocity_changes_answer(self):
        fleet = make_two_aircraft(x0=0.0, dx0=0.05, x1=20.0, dx1=-0.05)
        assert earliest_critical(fleet, 0, 0.05, 0.0) is not None
        # Flying away instead: clear.
        assert earliest_critical(fleet, 0, -0.05, 0.0) is None
