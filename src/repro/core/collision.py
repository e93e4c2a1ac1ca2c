"""Task 2 — Collision Detection via Batcher's algorithm (Section 5.2).

The time-x / time-y band construction (paper Fig. 3): each aircraft drags
an error band of +-1.5 nm around its track line, so two aircraft are "in
conflict" on an axis while the gap between their positions is below the
combined 3 nm band.  Solving for the time window on each axis and
intersecting gives ``[time_min, time_max]``; the pair is on a collision
course when ``time_min < time_max`` and the window touches the 20-minute
projection horizon.  A conflict is *critical* when its first moment is
closer than ``time_till`` (initialised to 300 periods).

Two detection modes are provided:

``SIGNED`` (default)
    The mathematically exact band intersection on the signed relative
    motion, as in Batcher's construction and the AP implementation of
    Yuan/Baker [12, 13].  Receding aircraft (whose bands only overlapped
    in the past) are not flagged.

``PAPER_ABS``
    The literal Eqs. (1)-(6) of the paper, which take absolute values of
    both the positional gap and the relative velocity.  This form maps
    past overlaps onto positive times (a known simplification in the
    paper's presentation); it is provided for fidelity experiments.
    DESIGN.md deviation #7.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import constants as C
from .types import FleetState

__all__ = [
    "DetectionMode",
    "DetectionStats",
    "axis_interval_signed",
    "axis_interval_paper_abs",
    "pair_interval",
    "detect",
    "detect_chunk_rows",
]

_INF = np.inf
_F64 = np.float64

#: Bytes per pair cell that size one detect() chunk: the all-pairs
#: kernel kept about 12 float64 temporaries live per cell (gaps,
#: relative velocities, the two window bounds, t_eff, masks, the
#: where/min scratch).  The altitude-gated chunk needs only about 17 B
#: per cell (the float64 altitude difference, its absolute value and
#: the bool gate) plus its gathered in-band cells, but the constant
#: stays: it fixes how many chunks, and so how many ``pair_interval``
#: calls, a pass makes.
DETECT_PAIR_ROW_BYTES = 96

#: default working-set budget for one detect() chunk.  At the paper's
#: largest fleet (n = 16000) this yields 131 rows; at n = 10^6 it keeps
#: the chunk at 2 rows instead of 512 * 10^6 cells.
DETECT_CHUNK_BUDGET_BYTES = 192 << 20


def detect_chunk_rows(n: int, budget_bytes: Optional[int] = None) -> int:
    """Rows per detection chunk that fit ``budget_bytes`` of temporaries.

    Each chunk spans ``rows x n`` pair cells, budgeted at
    :data:`DETECT_PAIR_ROW_BYTES` per cell.  Results are chunk-invariant
    (every row's outputs depend only on that row), so this only trades
    memory against vectorization width.
    """
    budget = DETECT_CHUNK_BUDGET_BYTES if budget_bytes is None else int(budget_bytes)
    if n <= 0:
        return 1
    return max(1, min(int(n), budget // max(1, DETECT_PAIR_ROW_BYTES * int(n))))


class DetectionMode(str, enum.Enum):
    """Which form of the band-overlap equations to use."""

    SIGNED = "signed"
    PAPER_ABS = "paper-abs"


@dataclass
class DetectionStats:
    """Dynamic counts from one Task-2 pass (feeds timing models)."""

    #: ordered pairs examined (i != j, after no filtering).
    pairs_checked: int = 0
    #: ordered pairs surviving the 1000 ft altitude gate.
    pairs_in_altitude_band: int = 0
    #: ordered pairs whose bands overlap within the 20-minute horizon.
    conflicts: int = 0
    #: ordered pairs whose overlap starts within the critical window.
    critical_conflicts: int = 0
    #: aircraft flagged for resolution (col == 1).
    flagged_aircraft: int = 0
    #: per-aircraft count of critical partners (length n); warp/PE-level
    #: timing models charge conflict bookkeeping where it happened.
    critical_per_aircraft: "np.ndarray" = None  # set by detect()


def axis_interval_signed(gap, rel_v, band: float) -> Tuple[np.ndarray, np.ndarray]:
    """Time window during which ``|gap + rel_v * t| < band`` (one axis).

    Returns (t_lo, t_hi); empty windows come back with t_lo > t_hi.
    ``rel_v == 0`` yields (-inf, +inf) when already inside the band and
    an empty window otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _signed(np.asarray(gap, _F64), np.asarray(rel_v, _F64), band)


def axis_interval_paper_abs(gap, rel_v, band: float) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's Eqs. (1)-(4): absolute gap and absolute relative speed.

    ``min = (|gap| - band) / |rel_v|`` (clamped at 0),
    ``max = (|gap| + band) / |rel_v|``.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _paper_abs(np.asarray(gap, _F64), np.asarray(rel_v, _F64), band)


def _signed(gap, rel_v, band: float):
    neg = -gap
    t1 = (neg - band) / rel_v
    t2 = (neg + band) / rel_v
    del neg  # one operand-sized array fewer live at the peak below
    return _static(np.minimum(t1, t2), np.maximum(t1, t2), gap, rel_v, band, -_INF)


def _paper_abs(gap, rel_v, band: float):
    agap = np.abs(gap)
    av = np.abs(rel_v)
    lo = np.maximum(agap - band, 0.0) / av
    hi = (agap + band) / av
    return _static(lo, hi, agap, av, band, 0.0)


def _static(lo, hi, gap, rel_v, band: float, lo_inside: float):
    """Windows of the pairs with no relative motion on this axis: from
    ``lo_inside`` to +inf when already inside the band, empty otherwise.
    When no relative velocity is exactly zero this changes nothing, so
    it is skipped."""
    if rel_v.all():
        return lo, hi
    static = rel_v == 0.0
    inside = np.abs(gap) < band
    lo = np.where(static, np.where(inside, lo_inside, _INF), lo)
    hi = np.where(static, np.where(inside, _INF, -_INF), hi)
    return lo, hi


def pair_interval(
    gap_x,
    gap_y,
    rel_vx,
    rel_vy,
    mode: DetectionMode = DetectionMode.SIGNED,
    band: float = C.COLLISION_BAND_TOTAL_NM,
) -> Tuple[np.ndarray, np.ndarray]:
    """Combined (time_min, time_max) window per Eqs. (5)-(6)."""
    axis = _signed if mode is DetectionMode.SIGNED else _paper_abs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_lo, x_hi = axis(np.asarray(gap_x, _F64), np.asarray(rel_vx, _F64), band)
        y_lo, y_hi = axis(np.asarray(gap_y, _F64), np.asarray(rel_vy, _F64), band)
    return np.maximum(x_lo, y_lo), np.minimum(x_hi, y_hi)


def _window(t_lo, t_hi, mode: DetectionMode) -> Tuple[np.ndarray, np.ndarray]:
    """``(t_eff, open_window)`` of a pair window: when the overlap starts,
    counted from now, and whether it is still ahead."""
    if mode is DetectionMode.SIGNED:
        t_eff = np.maximum(t_lo, 0.0)
        open_window = (t_lo < t_hi) & (t_hi > 0.0)
    else:
        t_eff = t_lo
        open_window = t_lo < t_hi
    return t_eff, open_window


def _any_critical(gap_x, gap_y, rel_vx, rel_vy, mode: DetectionMode) -> bool:
    """Whether any of these pairs is a critical conflict: its window is
    still open and starts within ``TIME_TILL_SAFE_PERIODS`` (which lies
    inside the projection horizon, so the horizon test is implied).

    The one question Task 3 asks of an aircraft at a trial velocity;
    the operands are its gathered partners' gaps and relative
    velocities.  Always exactly one :func:`pair_interval` call.
    """
    t_lo, t_hi = pair_interval(gap_x, gap_y, rel_vx, rel_vy, mode)
    t_eff, open_window = _window(t_lo, t_hi, mode)
    return bool(np.any(open_window & (t_eff < C.TIME_TILL_SAFE_PERIODS)))


def detect(
    fleet: FleetState,
    mode: DetectionMode = DetectionMode.SIGNED,
    *,
    chunk: Optional[int] = None,
) -> DetectionStats:
    """Full Task-2 pass: every aircraft against every other.

    Mutates ``col``, ``time_till`` and ``col_with`` exactly as the
    paper's kernel does: ``time_till`` becomes the earliest critical
    overlap time (if below the 300-period safe value), ``col_with`` the
    partner achieving it (the smallest id among equal times), ``col``
    flags aircraft needing resolution.

    Each chunk of rows gates its cells on the 1000 ft altitude band
    first and runs the pair mathematics only on the in-band cells,
    gathered in row-major order — the cells the all-pairs kernel would
    have masked out are never evaluated.  ``chunk`` (rows per pass)
    defaults to whatever fits :data:`DETECT_CHUNK_BUDGET_BYTES` via
    :func:`detect_chunk_rows`; outputs are identical for any chunk.
    """
    stats = DetectionStats()
    fleet.reset_collision()
    n = fleet.n
    stats.pairs_checked = n * (n - 1)
    stats.critical_per_aircraft = np.zeros(n, dtype=np.int64)
    if chunk is None:
        chunk = detect_chunk_rows(n)
    x, y, dx, dy, alt = fleet.x, fleet.y, fleet.dx, fleet.dy, fleet.alt

    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        near_alt = (
            np.abs(alt[None, :] - alt[lo:hi, None]) < C.ALTITUDE_SEPARATION_FT
        )
        near_alt[np.arange(hi - lo), np.arange(lo, hi)] = False  # i == j
        r, c = np.nonzero(near_alt)
        stats.pairs_in_altitude_band += int(r.shape[0])
        i = r + lo
        t_lo, t_hi = pair_interval(
            x[c] - x[i], y[c] - y[i], dx[c] - dx[i], dy[c] - dy[i], mode
        )
        t_eff, open_window = _window(t_lo, t_hi, mode)
        conflict = open_window & (t_eff < C.PROJECTION_HORIZON_PERIODS)
        stats.conflicts += int(np.count_nonzero(conflict))

        critical = conflict & (t_eff < C.TIME_TILL_SAFE_PERIODS)
        r, c, t = r[critical], c[critical], t_eff[critical]
        stats.critical_conflicts += int(r.shape[0])
        stats.critical_per_aircraft[lo:hi] = np.bincount(r, minlength=hi - lo)

        # Each row's earliest critical partner, smallest id among equal
        # times: the first cell per row ordered by (row, t_eff, column).
        # t_eff is never -0.0, so equal times are equal bits.
        order = np.lexsort((c, t, r))
        r, c, t = r[order], c[order], t[order]
        first = np.flatnonzero(np.diff(r, prepend=-1))
        idx = r[first] + lo
        fleet.time_till[idx] = t[first]
        fleet.col_with[idx] = c[first]
        fleet.col[idx] = 1

    stats.flagged_aircraft = int(np.count_nonzero(fleet.col))
    return stats
