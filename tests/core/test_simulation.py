"""Unit tests for the Simulation façade."""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.simulation import Simulation

from ..conftest import schedule_view


class TestConstruction:
    def test_default_backend_is_reference(self):
        sim = Simulation(32)
        assert sim.backend.name == "reference"

    def test_backend_by_name(self):
        sim = Simulation(32, backend="cuda:titan-x-pascal")
        assert sim.backend.name == "cuda:titan-x-pascal"

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            Simulation(32, backend="cuda:imaginary")

    def test_fleet_size(self):
        assert Simulation(48).n_aircraft == 48


class TestStepping:
    def test_step_period_advances_clock(self):
        sim = Simulation(32)
        assert sim.current_period == 0
        sim.step_period()
        assert sim.current_period == 1

    def test_step_period_returns_timing(self):
        timing = Simulation(32).step_period()
        assert timing.task == "task1"
        assert timing.seconds > 0

    def test_run_counts_periods(self):
        sim = Simulation(32)
        result = sim.run(major_cycles=2)
        assert result.total_periods == 32
        assert sim.current_period == 32

    def test_run_collision_tasks(self):
        timing = Simulation(32).run_collision_tasks()
        assert timing.task == "task23"

    def test_step_major_cycle(self):
        result = Simulation(32).step_major_cycle()
        assert result.total_periods == C.PERIODS_PER_MAJOR_CYCLE

    @pytest.mark.parametrize("platform", ["cuda:titan-x-pascal", "mimd:xeon-16"])
    def test_split_runs_equal_one_run(self, platform):
        """Three one-cycle runs continue the clock: they generate radar
        for periods 0-47 and equal one three-cycle run."""
        whole = Simulation(64, backend=platform)
        split = Simulation(64, backend=platform)
        one_run = [whole.run(major_cycles=3)]
        three_runs = [split.step_major_cycle() for _ in range(3)]
        assert split.current_period == whole.current_period == 48
        assert split.fleet.state_equal(whole.fleet)
        assert schedule_view(three_runs) == schedule_view(one_run)
        assert [p.major_cycle for r in three_runs for p in r.periods] == [
            c for c in range(3) for _ in range(16)
        ]

    def test_deterministic_runs(self):
        a = Simulation(64, seed=7)
        b = Simulation(64, seed=7)
        a.run()
        b.run()
        assert a.fleet.state_equal(b.fleet)


class TestInspection:
    def test_positions_shape(self):
        sim = Simulation(20)
        assert sim.positions().shape == (20, 2)

    def test_headings_range(self):
        h = Simulation(100).headings_deg()
        assert np.all(h >= -180.0) and np.all(h <= 180.0)

    def test_conflicts_now_after_collision_pass(self):
        sim = Simulation(64)
        assert sim.conflicts_now() == 0
        sim.run_collision_tasks()
        assert sim.conflicts_now() >= 0  # whatever remains unresolved

    def test_density(self):
        sim = Simulation(656)  # ~10 per 1000 nm^2 over 65536 nm^2
        assert sim.density_per_1000nm2() == pytest.approx(10.0, rel=0.01)
