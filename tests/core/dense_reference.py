"""Dense reference passes: the test oracle for Tasks 1-3.

These are the all-pairs kernels the library shipped before its
functional pass learned to skip the cells its own masks discard:
:func:`_candidate_pairs` scans every (radar, aircraft) cell,
:func:`detect` evaluates the pair mathematics on every ordered pair of
a chunk before masking, and :func:`conflict_row` evaluates it against
every aircraft.  The bodies are kept verbatim, so the in-place gated
passes (``repro.core.tracking`` / ``repro.core.collision``) and the
sweepline pruners (``repro.core.sweepline``) are compared against an
implementation that shares none of their candidate selection.

:func:`resolve` and :func:`correlate` reuse the library's state
machines — only the existence oracle and the candidate generator are
swapped for the dense ones.
"""

from __future__ import annotations

from typing import Optional, Tuple
from unittest import mock

import numpy as np

from repro.core import constants as C
from repro.core import tracking
from repro.core.collision import (
    DetectionMode,
    DetectionStats,
    detect_chunk_rows,
    pair_interval,
)
from repro.core.resolution import resolve as _resolve
from repro.core.types import FleetState, RadarFrame

_INF = np.inf

#: Radar rows are compared against aircraft in chunks of this many radars
#: to bound the gate-matrix working set (chunk x n bools).
_CHUNK = 2048


def _candidate_pairs(
    radar_ids: np.ndarray,
    frame: RadarFrame,
    fleet: FleetState,
    plane_mask: np.ndarray,
    gate_half: float,
) -> tuple[np.ndarray, np.ndarray]:
    """All (radar, aircraft) index pairs whose gate test passes.

    Returned sorted by radar index then aircraft index — exactly the
    order the serialized state machine visits them.
    """
    pair_r: list[np.ndarray] = []
    pair_p: list[np.ndarray] = []
    ex, ey = fleet.expected_x, fleet.expected_y
    for lo in range(0, radar_ids.shape[0], _CHUNK):
        rid = radar_ids[lo : lo + _CHUNK]
        rx = frame.rx[rid][:, None]
        ry = frame.ry[rid][:, None]
        hit = (
            (np.abs(rx - ex[None, :]) < gate_half)
            & (np.abs(ry - ey[None, :]) < gate_half)
            & plane_mask[None, :]
        )
        rows, cols = np.nonzero(hit)
        pair_r.append(rid[rows])
        pair_p.append(cols.astype(np.int64))
    if not pair_r:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(pair_r), np.concatenate(pair_p)


def correlate(fleet: FleetState, frame: RadarFrame) -> tracking.TrackingStats:
    """Task 1 with the dense generator in place of the grid hash."""

    def dense(radar_ids, frame, fleet, plane_mask, gate_half, *, pruned=False):
        return _candidate_pairs(radar_ids, frame, fleet, plane_mask, gate_half)

    with mock.patch.object(tracking, "_candidate_pairs", dense):
        return tracking.correlate(fleet, frame)


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


def resolve(fleet: FleetState, mode: DetectionMode = DetectionMode.SIGNED):
    """Task 3 answering every existence check with a dense conflict row."""

    def critical_exists(i: int, dxi: float, dyi: float) -> bool:
        conflict, t_eff = conflict_row(fleet, i, dxi, dyi, mode)
        return bool(np.any(conflict & (t_eff < C.TIME_TILL_SAFE_PERIODS)))

    return _resolve(fleet, mode, critical_exists=critical_exists)


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


def detect_and_resolve(
    fleet: FleetState, mode: DetectionMode = DetectionMode.SIGNED
) -> Tuple[DetectionStats, object]:
    """The fused Task 2 + Task 3 over the dense reference kernels."""
    det = detect(fleet, mode)
    return det, resolve(fleet, mode)
