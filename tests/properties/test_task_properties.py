"""Hypothesis property tests on the ATM tasks end-to-end."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core.collision import detect
from repro.core.radar import generate_radar_frame
from repro.core.resolution import resolve
from repro.core.setup import setup_flight
from repro.core.tracking import correlate

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=80)


class TestTrackingProperties:
    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes)
    def test_correlation_bookkeeping_invariants(self, seed, n):
        fleet = setup_flight(n, seed)
        frame = generate_radar_frame(fleet, seed, 0)
        stats = correlate(fleet, frame)

        # 1. Every radar ends in exactly one of three states.
        assert np.all(
            (frame.match_with >= 0)
            | (frame.match_with == C.NO_MATCH)
            | (frame.match_with == C.DISCARDED)
        )
        # 2. Commit accounting covers the fleet.
        assert stats.committed + stats.coasted == n
        # 3. No two surviving radars point at the same aircraft.
        planes = frame.match_with[frame.match_with >= 0]
        ok = planes[fleet.r_match[planes] == C.MATCHED_ONCE]
        assert np.unique(ok).size == ok.size
        # 4. Fleet stays inside the airfield.
        fleet.validate()

    @settings(max_examples=25, deadline=None)
    @given(seeds, sizes)
    def test_correlation_deterministic(self, seed, n):
        a, b = setup_flight(n, seed), setup_flight(n, seed)
        fa = generate_radar_frame(a, seed, 0)
        fb = generate_radar_frame(b, seed, 0)
        correlate(a, fa)
        correlate(b, fb)
        assert a.state_equal(b)
        assert np.array_equal(fa.match_with, fb.match_with)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_committed_positions_come_from_radar(self, seed):
        fleet = setup_flight(60, seed)
        frame = generate_radar_frame(fleet, seed, 0)
        correlate(fleet, frame)
        committed = fleet.matched_radar >= 0
        good = committed & (fleet.r_match == C.MATCHED_ONCE)
        radars = fleet.matched_radar[good]
        mine = frame.match_with[radars] == np.nonzero(good)[0]
        # Aircraft whose radar still points back took its exact position
        # (modulo the boundary wraparound mirror).
        xs = fleet.x[good][mine]
        rxs = frame.rx[radars][mine]
        same_magnitude = np.abs(np.abs(xs) - np.abs(rxs)) < 1e-12
        clipped_at_edge = (np.abs(rxs) > C.GRID_HALF_NM) & (
            np.abs(np.abs(xs) - C.GRID_HALF_NM) < 1e-12
        )
        assert np.all(same_magnitude | clipped_at_edge)


class TestResolutionProperties:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_resolution_invariants(self, seed):
        fleet = setup_flight(64, seed)
        detect(fleet)
        speeds = fleet.speeds_per_period().copy()
        stats = resolve(fleet)

        # Speeds conserved by every manoeuvre.
        assert np.allclose(fleet.speeds_per_period(), speeds)
        # Accounting closes.
        assert stats.resolved + stats.unresolved == stats.needed_resolution
        assert stats.trials_evaluated == stats.attempts.sum()
        assert np.all(stats.attempts <= C.RESOLUTION_MAX_TRIALS)
        # Cleared aircraft have clean collision state.
        clear = fleet.col == 0
        assert np.all(fleet.time_till[clear] == C.TIME_TILL_SAFE_PERIODS)
        assert np.all(fleet.col_with[clear] == C.NO_MATCH)

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_resolved_aircraft_clear_at_commit(self, seed):
        """Every aircraft that committed a turn was critically clear
        against the state in which it committed; unresolved ones keep
        their original velocity."""
        fleet = setup_flight(64, seed)
        detect(fleet)
        before_dx = fleet.dx.copy()
        stats = resolve(fleet)
        turned = (stats.attempts > 0) & (fleet.col == 0)
        kept = stats.attempts == C.RESOLUTION_MAX_TRIALS
        unresolved_kept = kept & (fleet.col == 1)
        assert np.all(fleet.dx[unresolved_kept] == before_dx[unresolved_kept])
        # Turned aircraft actually changed heading.
        if np.any(turned):
            assert np.any(fleet.dx[turned] != before_dx[turned])


class TestScheduleProperties:
    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_major_cycle_accounting(self, seed):
        from repro.backends.reference import ReferenceBackend
        from repro.core.scheduler import run_schedule

        fleet = setup_flight(48, seed)
        result = run_schedule(ReferenceBackend(), fleet, major_cycles=1, seed=seed)
        assert result.total_periods == 16
        for p in result.periods:
            assert p.time_used >= 0
            assert p.slack >= 0
            assert p.time_used + p.slack >= C.PERIOD_SECONDS - 1e-12
            if not p.deadline_missed:
                assert p.time_used <= C.PERIOD_SECONDS
