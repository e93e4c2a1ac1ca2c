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

#: float64 temporaries live per pair cell inside one detect() chunk
#: (gaps, relative velocities, the two window bounds, t_eff, masks, the
#: where/min scratch) — about 12 arrays of 8 bytes.
DETECT_PAIR_ROW_BYTES = 96

#: default working-set budget for one detect() chunk.  At the paper's
#: largest fleet (n = 16000) this yields 131 rows; at n = 10^6 it keeps
#: the chunk at 2 rows instead of 512 * 10^6 cells.
DETECT_CHUNK_BUDGET_BYTES = 192 << 20


def detect_chunk_rows(n: int, budget_bytes: Optional[int] = None) -> int:
    """Rows per detection chunk that fit ``budget_bytes`` of temporaries.

    Each chunk materializes ``rows x n`` pair cells at roughly
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
    (with a rotated trial velocity).  Returns ``(conflict, t_eff)`` —
    boolean mask over all aircraft (False at j == i and outside the
    altitude band) and the effective first-overlap time (clamped >= 0 in
    SIGNED mode, as defined by the paper's time axis starting "now").
    """
    gap_x = fleet.x - fleet.x[i]
    gap_y = fleet.y - fleet.y[i]
    rel_vx = fleet.dx - dxi
    rel_vy = fleet.dy - dyi

    t_lo, t_hi = pair_interval(gap_x, gap_y, rel_vx, rel_vy, mode)
    if mode is DetectionMode.SIGNED:
        t_eff = np.maximum(t_lo, 0.0)
        open_window = (t_lo < t_hi) & (t_hi > 0.0)
    else:
        t_eff = t_lo
        open_window = t_lo < t_hi

    near_alt = np.abs(fleet.alt - fleet.alt[i]) < C.ALTITUDE_SEPARATION_FT
    conflict = open_window & (t_eff < horizon) & near_alt
    conflict[i] = False
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
    partner achieving it, ``col`` flags aircraft needing resolution.

    ``chunk`` (rows per pass) defaults to whatever fits
    :data:`DETECT_CHUNK_BUDGET_BYTES` via :func:`detect_chunk_rows`;
    outputs are identical for any chunk.
    """
    stats = DetectionStats()
    fleet.reset_collision()
    n = fleet.n
    stats.pairs_checked = n * (n - 1)
    stats.critical_per_aircraft = np.zeros(n, dtype=np.int64)
    if chunk is None:
        chunk = detect_chunk_rows(n)

    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        rows = slice(lo, hi)
        gap_x = fleet.x[None, :] - fleet.x[rows, None]
        gap_y = fleet.y[None, :] - fleet.y[rows, None]
        rel_vx = fleet.dx[None, :] - fleet.dx[rows, None]
        rel_vy = fleet.dy[None, :] - fleet.dy[rows, None]

        t_lo, t_hi = pair_interval(gap_x, gap_y, rel_vx, rel_vy, mode)
        if mode is DetectionMode.SIGNED:
            t_eff = np.maximum(t_lo, 0.0)
            open_window = (t_lo < t_hi) & (t_hi > 0.0)
        else:
            t_eff = t_lo
            open_window = t_lo < t_hi

        near_alt = (
            np.abs(fleet.alt[None, :] - fleet.alt[rows, None])
            < C.ALTITUDE_SEPARATION_FT
        )
        # Mask the diagonal (i == j).
        diag = np.arange(lo, hi)
        self_mask = np.ones_like(open_window)
        self_mask[np.arange(hi - lo), diag] = False

        stats.pairs_in_altitude_band += int(np.count_nonzero(near_alt & self_mask))
        conflict = (
            open_window
            & (t_eff < C.PROJECTION_HORIZON_PERIODS)
            & near_alt
            & self_mask
        )
        stats.conflicts += int(np.count_nonzero(conflict))

        critical = conflict & (t_eff < C.TIME_TILL_SAFE_PERIODS)
        stats.critical_conflicts += int(np.count_nonzero(critical))
        stats.critical_per_aircraft[lo:hi] = np.count_nonzero(critical, axis=1)

        t = np.where(critical, t_eff, _INF)
        row_min = t.min(axis=1)
        hit = row_min < C.TIME_TILL_SAFE_PERIODS
        partners = np.argmin(t, axis=1)
        idx = np.arange(lo, hi)[hit]
        fleet.time_till[idx] = row_min[hit]
        fleet.col_with[idx] = partners[hit]
        fleet.col[idx] = 1

    stats.flagged_aircraft = int(np.count_nonzero(fleet.col))
    return stats
