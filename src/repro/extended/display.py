"""Display processing: the controller's scope picture.

The Goodyear ATC software also regenerated the controllers' displays
every cycle — projecting each track onto scope coordinates, building its
data block (callsign, altitude, speed) and placing the blocks so they do
not overlap.  Projection and block building are embarrassingly parallel;
label *deconfliction* is the interesting part: a naive pairwise check is
O(N^2), so this implementation buckets blocks on a scope grid and only
compares within a neighbourhood — the structure the cost adapters
charge.

A label that cannot be placed in any of its candidate offsets is drawn
overlapping (real scopes do this too); the stats record how many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core import constants as C
from ..core.types import FleetState

__all__ = ["ScopeConfig", "DisplayStats", "build_display"]

#: Candidate label anchor offsets around a target, in scope cells
#: (E, N, W, S — the four cardinal placements controllers expect).
_OFFSETS: Tuple[Tuple[int, int], ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class ScopeConfig:
    """A controller scope: a square raster over the airfield."""

    #: scope raster resolution (cells per axis).
    cells: int = 64

    def __post_init__(self) -> None:
        if self.cells < 8:
            raise ValueError("scope needs at least 8x8 cells")

    def project(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        """Airfield nm -> integer scope cells (clamped to the raster)."""
        scale = self.cells / C.AIRFIELD_SIZE_NM
        cx = np.floor((np.asarray(x) + C.GRID_HALF_NM) * scale).astype(np.int64)
        cy = np.floor((np.asarray(y) + C.GRID_HALF_NM) * scale).astype(np.int64)
        return (
            np.clip(cx, 0, self.cells - 1),
            np.clip(cy, 0, self.cells - 1),
        )


@dataclass
class DisplayStats:
    """Dynamic counts from one display-processing pass."""

    aircraft: int = 0
    #: scope cells occupied by at least one target.
    occupied_cells: int = 0
    #: targets sharing a cell with another target.
    crowded_targets: int = 0
    #: labels placed at the first-choice offset.
    first_choice_labels: int = 0
    #: labels that needed an alternate offset.
    moved_labels: int = 0
    #: labels left overlapping (no free offset).
    overlapping_labels: int = 0
    #: label cell of each aircraft, for tests.
    label_cells: List[Tuple[int, int]] = field(default_factory=list)


def build_display(fleet: FleetState, scope: ScopeConfig = ScopeConfig()) -> DisplayStats:
    """Project the fleet onto the scope and place all data blocks.

    Deterministic: targets are processed in aircraft-id order and take
    the first free candidate offset; a taken label cell is "free" again
    only for the target that owns it.  Does not mutate the fleet.
    """
    stats = DisplayStats(aircraft=fleet.n)
    cx, cy = scope.project(fleet.x, fleet.y)

    target_of_cell: Dict[Tuple[int, int], int] = {}
    crowded = 0
    for i in range(fleet.n):
        cell = (int(cx[i]), int(cy[i]))
        if cell in target_of_cell:
            crowded += 1
            if target_of_cell[cell] >= 0:
                crowded += 1
                target_of_cell[cell] = -1  # already counted the first
        else:
            target_of_cell[cell] = i
    stats.occupied_cells = len(target_of_cell)
    stats.crowded_targets = crowded

    # Every aircraft's candidate label cells, clamped to the raster at once.
    offsets = np.asarray(_OFFSETS)
    label_x = np.clip(cx[:, None] + offsets[:, 0], 0, scope.cells - 1).tolist()
    label_y = np.clip(cy[:, None] + offsets[:, 1], 0, scope.cells - 1).tolist()
    taken: set = set(target_of_cell)  # targets themselves block labels
    for i in range(fleet.n):
        candidates = list(zip(label_x[i], label_y[i]))
        for k, cell in enumerate(candidates):
            if cell not in taken:
                taken.add(cell)
                stats.label_cells.append(cell)
                if k == 0:
                    stats.first_choice_labels += 1
                else:
                    stats.moved_labels += 1
                break
        else:
            # Draw overlapping at the first-choice position.
            stats.label_cells.append(candidates[0])
            stats.overlapping_labels += 1
    return stats
