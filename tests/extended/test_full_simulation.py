"""Unit tests for the FullAtmSimulation façade."""

import numpy as np
import pytest

from repro.extended import AdvisoryChannel, FullAtmSimulation, Runway, TerrainGrid
from repro.harness.workloads import crossing_streams, terminal_area

from ..conftest import schedule_view


class TestConstruction:
    def test_defaults(self):
        sim = FullAtmSimulation(64)
        assert sim.n_aircraft == 64
        assert sim.backend.name == "reference"
        assert sim.terrain.seed == 2018

    def test_custom_fleet(self):
        fleet = terminal_area(40, 4)
        sim = FullAtmSimulation(44, fleet=fleet)
        assert sim.fleet is fleet

    def test_fleet_size_mismatch(self):
        fleet = terminal_area(40, 4)
        with pytest.raises(ValueError, match="expected"):
            FullAtmSimulation(99, fleet=fleet)

    def test_substrates_shared(self):
        grid = TerrainGrid.generate(7)
        runway = Runway(x=10.0)
        sim = FullAtmSimulation(32, terrain=grid, runway=runway)
        assert sim.terrain is grid
        assert sim.runway is runway


class TestRunning:
    def test_run_full_table(self):
        sim = FullAtmSimulation(96, backend="cuda:gtx-880m")
        result = sim.run(major_cycles=2)
        assert result.total_periods == 32
        assert result.missed_deadlines == 0
        for task in ("task1", "task23", "terrain", "approach", "display"):
            assert result.task_times(task).size > 0

    @pytest.mark.parametrize("platform", ["cuda:titan-x-pascal", "mimd:xeon-16"])
    def test_split_runs_equal_one_run(self, platform):
        """Four one-cycle runs continue the façade's clock, so they
        equal one four-cycle run: advisories queued by an earlier run
        age and go stale."""
        grid = TerrainGrid.generate(2018, resolution_nm=4.0)

        def make():
            fleet = crossing_streams(24)  # dense: the voice channel backs up
            return FullAtmSimulation(
                fleet.n,
                backend=platform,
                terrain=grid,
                channel=AdvisoryChannel(slots_per_cycle=1, max_age_cycles=1),
                fleet=fleet,
            )

        whole, split = make(), make()
        one_run = [whole.run(major_cycles=4)]
        four_runs = [split.run(major_cycles=1) for _ in range(4)]
        assert split.fleet.state_equal(whole.fleet)
        assert schedule_view(four_runs) == schedule_view(one_run)
        assert [p.major_cycle for r in four_runs for p in r.periods] == [
            c for c in range(4) for _ in range(16)
        ]
        assert split.advisory_backlog() == whole.advisory_backlog()

        def stale_drops(results):
            return sum(
                p.timing("advisory").stats["dropped_stale"]
                for r in results
                for p in r.periods
                if p.timing("advisory") is not None
            )

        assert stale_drops(four_runs) == stale_drops(one_run) > 0

    def test_terrain_clearance(self):
        sim = FullAtmSimulation(128)
        clearance = sim.terrain_clearance_ft()
        assert clearance.shape == (128,)
        # setup_flight floors altitude at 1000 ft and the terrain tops
        # out below its peak: clearance can be negative only where an
        # aircraft spawned under a ridge — check the field is sane.
        assert np.all(np.isfinite(clearance))

    def test_deterministic_across_instances(self):
        a = FullAtmSimulation(96, backend="ap:staran", seed=5)
        b = FullAtmSimulation(96, backend="ap:staran", seed=5)
        ra = a.run()
        rb = b.run()
        assert a.fleet.state_equal(b.fleet)
        assert ra.summary() == rb.summary()

    def test_clutter_and_dropout_accepted(self):
        sim = FullAtmSimulation(64, radar_clutter=16, radar_dropout=0.1)
        result = sim.run()
        assert result.total_periods == 16
