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
    "conflict_row",
    "detect",
    "detect_chunk_rows",
]

_INF = np.inf

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
    gap = np.asarray(gap, dtype=np.float64)
    rel_v = np.asarray(rel_v, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (-gap - band) / rel_v
        t2 = (-gap + band) / rel_v
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    static = rel_v == 0.0
    inside = np.abs(gap) < band
    lo = np.where(static, np.where(inside, -_INF, _INF), lo)
    hi = np.where(static, np.where(inside, _INF, -_INF), hi)
    return lo, hi


def axis_interval_paper_abs(gap, rel_v, band: float) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's Eqs. (1)-(4): absolute gap and absolute relative speed.

    ``min = (|gap| - band) / |rel_v|`` (clamped at 0),
    ``max = (|gap| + band) / |rel_v|``.
    """
    agap = np.abs(np.asarray(gap, dtype=np.float64))
    av = np.abs(np.asarray(rel_v, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo = np.maximum(agap - band, 0.0) / av
        hi = (agap + band) / av
    static = av == 0.0
    inside = agap < band
    lo = np.where(static, np.where(inside, 0.0, _INF), lo)
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
    axis = (
        axis_interval_signed if mode is DetectionMode.SIGNED else axis_interval_paper_abs
    )
    x_lo, x_hi = axis(gap_x, rel_vx, band)
    y_lo, y_hi = axis(gap_y, rel_vy, band)
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


def conflict_row(
    fleet: FleetState,
    i: int,
    dxi: float,
    dyi: float,
    mode: DetectionMode = DetectionMode.SIGNED,
    *,
    horizon: float = C.PROJECTION_HORIZON_PERIODS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Conflict test of aircraft ``i`` (with trial velocity) vs everyone.

    Used both by detection (with the committed velocity) and by Task 3
    (with a rotated trial velocity).  Returns ``(conflict, t_eff)`` over
    all aircraft: ``conflict`` is the boolean mask (False at j == i and
    outside the altitude band) and ``t_eff`` the effective first-overlap
    time (clamped >= 0 in SIGNED mode, as defined by the paper's time
    axis starting "now").  The pair mathematics runs only on ``i``'s
    in-band partners, gathered first; every other entry of ``t_eff``
    is ``+inf``.
    """
    near_alt = np.abs(fleet.alt - fleet.alt[i]) < C.ALTITUDE_SEPARATION_FT
    near_alt[i] = False
    j = np.flatnonzero(near_alt)
    t_lo, t_hi = pair_interval(
        fleet.x[j] - fleet.x[i],
        fleet.y[j] - fleet.y[i],
        fleet.dx[j] - dxi,
        fleet.dy[j] - dyi,
        mode,
    )
    t_band, open_window = _window(t_lo, t_hi, mode)

    conflict = np.zeros(fleet.n, dtype=bool)
    conflict[j] = open_window & (t_band < horizon)
    t_eff = np.full(fleet.n, _INF)
    t_eff[j] = t_band
    return conflict, t_eff


def earliest_critical(
    fleet: FleetState,
    i: int,
    dxi: float,
    dyi: float,
    mode: DetectionMode = DetectionMode.SIGNED,
    *,
    threshold: float = C.TIME_TILL_SAFE_PERIODS,
) -> Optional[Tuple[int, float]]:
    """Earliest critical conflict of aircraft ``i`` at a given velocity.

    Returns ``(partner_id, t_eff)`` of the soonest conflict with
    ``t_eff < threshold``, ties broken toward the smaller partner id, or
    ``None`` when the path is critically clear.
    """
    conflict, t_eff = conflict_row(fleet, i, dxi, dyi, mode)
    critical = conflict & (t_eff < threshold)
    if not np.any(critical):
        return None
    t = np.where(critical, t_eff, _INF)
    j = int(np.argmin(t))  # argmin returns the first (smallest id) minimum
    return j, float(t[j])


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
