"""Unit tests for display processing (scope projection + label placement)."""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.setup import setup_flight
from repro.core.types import FleetState
from repro.extended.display import DisplayStats, ScopeConfig, build_display


def fleet_at(points):
    f = FleetState.empty(len(points))
    for i, (x, y) in enumerate(points):
        f.x[i] = x
        f.y[i] = y
    f.alt[:] = 10_000.0
    return f


class TestScopeConfig:
    def test_projection_corners(self):
        scope = ScopeConfig(cells=64)
        cx, cy = scope.project(-C.GRID_HALF_NM, -C.GRID_HALF_NM)
        assert (cx, cy) == (0, 0)
        cx, cy = scope.project(C.GRID_HALF_NM, C.GRID_HALF_NM)
        assert (cx, cy) == (63, 63)  # clamped to the raster

    def test_projection_centre(self):
        scope = ScopeConfig(cells=64)
        cx, cy = scope.project(0.0, 0.0)
        assert (cx, cy) == (32, 32)

    def test_cell_size(self):
        scope = ScopeConfig(cells=64)  # 4 nm per cell
        a = scope.project(0.0, 0.0)
        b = scope.project(3.9, 0.0)
        assert a == b  # same 4 nm cell

    def test_validation(self):
        with pytest.raises(ValueError):
            ScopeConfig(cells=4)


class TestBuildDisplay:
    def test_sparse_fleet_all_first_choice(self):
        # Aircraft 20 nm apart: no cell sharing, every label fits east.
        fleet = fleet_at([(-60.0, 0.0), (-20.0, 0.0), (20.0, 0.0), (60.0, 0.0)])
        stats = build_display(fleet)
        assert stats.first_choice_labels == 4
        assert stats.moved_labels == 0
        assert stats.overlapping_labels == 0
        assert stats.crowded_targets == 0
        assert stats.occupied_cells == 4

    def test_labels_one_per_aircraft(self):
        fleet = setup_flight(200, 2018)
        stats = build_display(fleet)
        assert len(stats.label_cells) == 200
        assert (
            stats.first_choice_labels
            + stats.moved_labels
            + stats.overlapping_labels
            == 200
        )

    def test_close_pair_second_label_moves(self):
        # Two aircraft in adjacent cells along x: the west one's east
        # label cell is the east target's cell -> it must move.
        scope = ScopeConfig(cells=64)  # 4 nm cells
        fleet = fleet_at([(0.0, 0.0), (4.5, 0.0)])
        stats = build_display(fleet, scope)
        assert stats.moved_labels >= 1
        assert stats.overlapping_labels == 0

    def test_crowded_cell_detected(self):
        fleet = fleet_at([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])  # same 4nm cell
        stats = build_display(fleet)
        assert stats.occupied_cells == 1
        assert stats.crowded_targets == 3

    def test_dense_cluster_overlaps(self):
        # Nine aircraft in one cell: targets + four offsets can't host
        # nine labels without overlap.
        pts = [(0.1 * i, 0.1 * j) for i in range(3) for j in range(3)]
        stats = build_display(fleet_at(pts))
        assert stats.overlapping_labels > 0

    def test_deterministic(self):
        fleet = setup_flight(100, 2018)
        a = build_display(fleet)
        b = build_display(fleet)
        assert a.label_cells == b.label_cells

    def test_does_not_mutate_fleet(self):
        fleet = setup_flight(64, 2018)
        before = fleet.copy()
        build_display(fleet)
        assert fleet.state_equal(before)

    def test_labels_stay_on_scope(self):
        scope = ScopeConfig(cells=32)
        fleet = fleet_at([(C.GRID_HALF_NM, C.GRID_HALF_NM)])  # corner
        stats = build_display(fleet, scope)
        (cx, cy) = stats.label_cells[0]
        assert 0 <= cx < 32 and 0 <= cy < 32


class TestDisplayTiming:
    @pytest.mark.parametrize(
        "name",
        [
            "reference",
            "cuda:gtx-880m",
            "ap:staran",
            "simd:clearspeed-csx600",
            "mimd:xeon-16",
            "vector:xeon-phi-7250",
        ],
    )
    def test_positive_on_every_platform(self, name):
        from repro.backends.registry import resolve_backend
        from repro.extended.costs import display_timing

        fleet = setup_flight(192, 2018)
        stats = build_display(fleet)
        t = display_timing(resolve_backend(name), fleet.n, stats)
        assert t.seconds > 0
        assert t.task == "display"

    def test_overlap_pressure_costs_more(self):
        from repro.backends.registry import resolve_backend
        from repro.extended.costs import display_timing

        backend = resolve_backend("ap:staran")
        easy = DisplayStats(aircraft=100, first_choice_labels=100)
        hard = DisplayStats(aircraft=100, overlapping_labels=100)
        assert (
            display_timing(backend, 100, hard).seconds
            > display_timing(backend, 100, easy).seconds
        )


def _frozen_build_display(fleet, scope=ScopeConfig()):
    """``build_display`` as it was with two scalar ``np.clip`` calls per
    candidate label cell: the oracle its array-clamped form must match."""
    stats = DisplayStats(aircraft=fleet.n)
    cx, cy = scope.project(fleet.x, fleet.y)

    target_of_cell = {}
    crowded = 0
    for i in range(fleet.n):
        cell = (int(cx[i]), int(cy[i]))
        if cell in target_of_cell:
            crowded += 1
            if target_of_cell[cell] >= 0:
                crowded += 1
                target_of_cell[cell] = -1
        else:
            target_of_cell[cell] = i
    stats.occupied_cells = len(target_of_cell)
    stats.crowded_targets = crowded

    taken = set(target_of_cell)
    for i in range(fleet.n):
        placed = False
        for k, (ox, oy) in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1))):
            cell = (
                int(np.clip(cx[i] + ox, 0, scope.cells - 1)),
                int(np.clip(cy[i] + oy, 0, scope.cells - 1)),
            )
            if cell not in taken:
                taken.add(cell)
                stats.label_cells.append(cell)
                if k == 0:
                    stats.first_choice_labels += 1
                else:
                    stats.moved_labels += 1
                placed = True
                break
        if not placed:
            cell = (
                int(np.clip(cx[i] + 1, 0, scope.cells - 1)),
                int(np.clip(cy[i], 0, scope.cells - 1)),
            )
            stats.label_cells.append(cell)
            stats.overlapping_labels += 1
    return stats


class TestMatchesFrozenReference:
    @pytest.mark.parametrize("seed", [2018, 2019])
    @pytest.mark.parametrize("n", [96, 480, 960])
    def test_paper_fleets(self, n, seed):
        fleet = setup_flight(n, seed=seed)
        assert build_display(fleet) == _frozen_build_display(fleet)

    @pytest.mark.parametrize("cells", [16, 24, 32])
    def test_crowded_scope_overlaps_labels(self, cells):
        """A coarse raster crowds the label slots, so first-choice,
        moved and overlapping labels and the edge clamps all run."""
        fleet = setup_flight(480, seed=2018)
        scope = ScopeConfig(cells=cells)
        stats = build_display(fleet, scope)
        assert stats.first_choice_labels and stats.moved_labels
        assert stats.overlapping_labels
        assert stats == _frozen_build_display(fleet, scope)

    def test_raster_edges(self):
        """Targets on the raster's edges clamp their outward candidates."""
        half = C.GRID_HALF_NM
        fleet = fleet_at([(-half, -half), (half, half), (-half, half), (0.0, -half)])
        assert build_display(fleet) == _frozen_build_display(fleet)
