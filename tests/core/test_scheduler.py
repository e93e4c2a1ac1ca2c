"""Unit tests for the hard-deadline major-cycle scheduler."""

import numpy as np
import pytest

from repro.backends.base import Backend
from repro.core import constants as C
from repro.core.collision import DetectionMode
from repro.core.scheduler import run_schedule
from repro.core.setup import setup_flight
from repro.core.types import FleetState, RadarFrame, TaskTiming


class FakeBackend(Backend):
    """Backend with scripted task durations (does trivial real work)."""

    name = "fake"

    def __init__(self, task1_s: float, task23_s: float):
        self.task1_s = task1_s
        self.task23_s = task23_s
        self.task1_calls = 0
        self.task23_calls = 0

    def track_and_correlate(self, fleet: FleetState, frame: RadarFrame) -> TaskTiming:
        self.task1_calls += 1
        return TaskTiming("task1", self.name, fleet.n, self.task1_s)

    def detect_and_resolve(self, fleet, mode=DetectionMode.SIGNED) -> TaskTiming:
        self.task23_calls += 1
        return TaskTiming("task23", self.name, fleet.n, self.task23_s)


class ScriptedBackend(FakeBackend):
    """FakeBackend whose Task 2+3 takes the next scripted time per cycle."""

    def __init__(self, task1_s: float, task23_s: list):
        super().__init__(task1_s, 0.0)
        self.script = iter(task23_s)

    def detect_and_resolve(self, fleet, mode=DetectionMode.SIGNED) -> TaskTiming:
        self.task23_s = next(self.script)
        return super().detect_and_resolve(fleet, mode)


@pytest.fixture
def fleet():
    return setup_flight(32, 2018)


class TestScheduleStructure:
    def test_sixteen_periods_per_cycle(self, fleet):
        backend = FakeBackend(0.001, 0.001)
        result = run_schedule(backend, fleet, major_cycles=1)
        assert result.total_periods == 16
        assert backend.task1_calls == 16
        assert backend.task23_calls == 1

    def test_collision_runs_only_in_last_period(self, fleet):
        backend = FakeBackend(0.001, 0.001)
        result = run_schedule(backend, fleet, major_cycles=2)
        for p in result.periods:
            if p.period == C.COLLISION_PERIOD_INDEX:
                assert p.task23 is not None
            else:
                assert p.task23 is None

    def test_multiple_cycles(self, fleet):
        backend = FakeBackend(0.001, 0.001)
        result = run_schedule(backend, fleet, major_cycles=3)
        assert result.total_periods == 48
        assert backend.task23_calls == 3

    def test_rejects_zero_cycles(self, fleet):
        with pytest.raises(ValueError):
            run_schedule(FakeBackend(0.001, 0.001), fleet, major_cycles=0)


class TestDeadlineAccounting:
    def test_all_meet(self, fleet):
        result = run_schedule(FakeBackend(0.01, 0.01), fleet)
        assert result.missed_deadlines == 0
        assert result.miss_rate == 0.0
        assert all(p.slack > 0 for p in result.periods)

    def test_task1_overrun_misses_every_period(self, fleet):
        result = run_schedule(FakeBackend(0.6, 0.01), fleet)
        assert result.missed_deadlines == 16
        assert result.miss_rate == 1.0

    def test_task23_overrun_misses_only_collision_period(self, fleet):
        result = run_schedule(FakeBackend(0.01, 0.6), fleet)
        assert result.missed_deadlines == 1
        missed = [p for p in result.periods if p.deadline_missed]
        assert missed[0].period == C.COLLISION_PERIOD_INDEX
        assert not missed[0].task23_skipped  # it ran, just overran

    def test_task23_skipped_when_task1_fills_period(self, fleet):
        result = run_schedule(FakeBackend(0.55, 0.01), fleet)
        collision_periods = [
            p for p in result.periods if p.period == C.COLLISION_PERIOD_INDEX
        ]
        assert all(p.task23_skipped for p in collision_periods)
        assert all(p.task23 is None for p in collision_periods)
        assert result.skipped_tasks == 1

    def test_overrun_clamps_slack_and_utilization(self, fleet):
        # Every period runs 0.05 s over: no negative slack, and a period
        # can be at most fully used.
        result = run_schedule(FakeBackend(0.55, 0.01), fleet)
        assert [p.slack for p in result.periods] == [0.0] * 16
        assert result.mean_utilization == 1.0

    def test_combined_overrun(self, fleet):
        # 0.3 + 0.3 > 0.5 only in the collision period.
        result = run_schedule(FakeBackend(0.3, 0.3), fleet)
        assert result.missed_deadlines == 1
        assert result.skipped_tasks == 0

    def test_exact_budget_meets(self, fleet):
        result = run_schedule(FakeBackend(C.PERIOD_SECONDS, 0.0), fleet)
        # time_used == budget is not a miss in non-collision periods, but
        # the collision period skips task23 (no time left).
        misses = [p for p in result.periods if p.deadline_missed]
        assert [p.period for p in misses] == [C.COLLISION_PERIOD_INDEX]
        assert misses[0].task23_skipped and misses[0].task23 is None
        assert result.skipped_tasks == 1


class TestSummary:
    def test_summary_fields(self, fleet):
        result = run_schedule(FakeBackend(0.01, 0.02), fleet)
        s = result.summary()
        assert s["periods"] == 16
        assert s["missed_deadlines"] == 0
        assert s["task1_mean_s"] == pytest.approx(0.01)
        assert s["task23_mean_s"] == pytest.approx(0.02)
        assert s["worst_period_s"] == pytest.approx(0.03)
        assert 0 < s["mean_utilization"] < 1

    def test_task23_max_is_the_slowest_cycle(self, fleet):
        backend = ScriptedBackend(0.01, [0.02, 0.04])
        s = run_schedule(backend, fleet, major_cycles=2).summary()
        assert s["task23_max_s"] == 0.04
        assert s["task23_mean_s"] == pytest.approx(0.03)

    def test_task_time_arrays(self, fleet):
        result = run_schedule(FakeBackend(0.01, 0.02), fleet)
        assert result.task1_times().shape == (16,)
        assert result.task23_times().shape == (1,)


class TestWorldEvolution:
    def test_fleet_actually_flies(self, fleet):
        before = fleet.copy()
        run_schedule(FakeBackend(0.001, 0.001), fleet, major_cycles=1)
        # FakeBackend does no tracking commits, so positions are frozen —
        # use the reference backend to confirm the world moves.
        from repro.backends.reference import ReferenceBackend

        fleet2 = setup_flight(32, 2018)
        start = fleet2.copy()
        run_schedule(ReferenceBackend(), fleet2, major_cycles=1)
        assert not np.array_equal(fleet2.x, start.x)
