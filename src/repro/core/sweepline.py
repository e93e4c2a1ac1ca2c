"""Sort-sweep candidate pruning for the functional pass.

The in-place Task-2 kernel (:func:`repro.core.collision.detect`) runs
the pair mathematics only on the cells inside the altitude band, but it
still evaluates that gate on all ``n * (n - 1)`` ordered pairs, and
every Task-3 existence check (:func:`~repro.core.collision.conflict_row`)
scans all ``n`` altitudes; the functional simulation therefore costs
O(n^2) even though the *cost ledgers* are what actually charge the
paper's algorithms.  At continental fleet sizes (n = 10^6) that is
infeasible, so this module prunes the candidate set before any per-pair
work runs — **without changing a single output bit**:

* **Altitude-band gate** (the sweep line).  Every conflict requires
  ``|fl(alt_j - alt_i)| < 1000 ft``.  Because IEEE-754 negation is exact
  (``fl(a - b) == -fl(b - a)``), the partner set of aircraft ``i`` is
  exactly the aircraft whose altitude falls in the closed float interval
  computed by :func:`repro.core.bands.band_bounds` — the same
  total-order bisection machinery the warp/vector cost models use.  On
  the altitude-sorted fleet each partner set is one contiguous window,
  located by ``searchsorted`` with **no epsilon and no float
  recomputation**: the in-band mask is purely positional.  The empirical
  window is ~5% of the fleet (1000 ft band over a 1000..40000 ft uniform
  altitude layer), so the detection pass evaluates ~5% of the pairs, on
  exactly the same float operands as the in-place kernel.

* **Per-axis time-window sort-sweep** for the resolution re-checks.
  Task 3 only consumes the *existence* of a critical conflict
  (:func:`~repro.core.resolution.resolve` None-checks
  ``earliest_critical``), and a critical conflict must start within 300
  periods, so a partner must sit within
  ``band + (s_i + s_max) * 300`` nm on **each** axis (a conservative
  bound with a 1e-9 relative slack that dwarfs the ~1e-15 accumulated
  float rounding; the 20-minute horizon itself prunes nothing — maximum
  reach over 2400 periods is 200 nm on a 256 nm airfield).  Candidates
  surviving the altitude window plus the per-axis boxes are then tested
  with the exact :func:`~repro.core.collision.pair_interval` math, so
  the existence answer is bit-for-bit the in-place one.

Task 1 needs no pruner here: its grid-hash candidate generator
(:mod:`repro.core.tracking`) runs at every fleet size, and under pruning
it only reports its probes as a ``core.prune`` span.

The pruned implementations are differential- and property-tested
(``tests/core/test_sweepline.py``) to be bit-identical to the dense
all-pairs reference (``tests/core/dense_reference.py``) on SIGNED and
PAPER_ABS modes, including ulp-adversarial coordinates.  The cost
ledgers are untouched: ``pairs_checked`` stays the closed-form
``n * (n - 1)`` and every other statistic is reproduced exactly, so
each backend still charges what *its* algorithm (all-pairs, bitonic,
associative scan) would do.  See docs/performance.md,
"Large-n regime".
"""

from __future__ import annotations

import enum
import math
from typing import Any, Optional, Tuple

import numpy as np

from . import constants as C
from .bands import band_bounds
from .collision import DetectionMode, DetectionStats, _window, pair_interval
from .types import FleetState

__all__ = [
    "PruningPolicy",
    "PRUNE_MIN_N",
    "resolve_pruning",
    "AltitudeBandIndex",
    "detect_pruned",
    "resolve_pruned",
    "detect_and_resolve_pruned",
]

_INF = np.inf

#: ``auto`` enables pruning from this fleet size on.  Above every paper
#: axis (the paper stops at 5760/16000), so default reproduction runs
#: take the in-place gated pass (the bytes are the same either way).
PRUNE_MIN_N = 8192

#: Pair cells evaluated per dense block of the pruned detection pass
#: (bounds the working set: ~10 float64 temporaries of this many cells).
#: 250k cells keeps the ~20 MB of temporaries L2/L3-resident, which
#: measures ~1.5x faster at n=1e5 than multi-megacell blocks.
_BLOCK_CELLS = 250_000

#: Members scanned per chunk of a resolution existence query; small
#: enough that a positive query exits early, large enough to stay
#: vectorized.
_QUERY_CHUNK = 16384

#: Relative inflation of the conservative per-axis resolution windows.
#: The exact requirement is ~5 rounding errors (~1e-15 relative); 1e-9
#: leaves six orders of magnitude of margin while still pruning ~88% of
#: each altitude window.
_WINDOW_SLACK = 1e-9


class PruningPolicy(str, enum.Enum):
    """Whether trace generation may prune candidate pairs.

    ``AUTO`` (default) turns pruning on from :data:`PRUNE_MIN_N`
    aircraft; ``ON``/``OFF`` force it.  Either way the functional
    results are bit-identical — the policy only selects which
    (equivalent) implementation computes them.
    """

    AUTO = "auto"
    ON = "on"
    OFF = "off"


def resolve_pruning(policy: Any, n: int) -> bool:
    """Resolve a policy (enum or string) to an effective on/off at ``n``."""
    p = PruningPolicy(str(getattr(policy, "value", policy) or "auto"))
    if p is PruningPolicy.ON:
        return True
    if p is PruningPolicy.OFF:
        return False
    return int(n) >= PRUNE_MIN_N


def _prune_span(task: str, n: int, brute: int, candidates: int) -> None:
    """One ``core.prune`` marker span + counter per pruned pass."""
    from ..obs import span as obs_span
    from ..obs.metrics import metric_inc

    with obs_span(
        "core.prune",
        cat="core",
        task=task,
        n_aircraft=int(n),
        brute_pairs=int(brute),
        candidates=int(candidates),
    ):
        pass
    metric_inc("atm_prune_candidates", float(candidates), task=task)


class AltitudeBandIndex:
    """Alt-sorted order plus exact per-aircraft altitude-band windows.

    ``order`` sorts the fleet by altitude; aircraft ``i``'s altitude-band
    partners (including itself) occupy the contiguous sorted positions
    ``[begin[i], end[i])`` — exactly the set
    ``{j : |fl(alt_j - alt_i)| < ALTITUDE_SEPARATION_FT}``, by the
    :func:`~repro.core.bands.band_bounds` total-order bisection.  Also
    snapshots positions in sorted order (static during a collision pass;
    velocities are *not* static under resolution commits, so those are
    gathered live) and the fleet's maximum speed for the conservative
    resolution windows.
    """

    def __init__(self, fleet: FleetState) -> None:
        alt = fleet.alt
        self.n = int(alt.shape[0])
        self.order = np.argsort(alt, kind="stable")
        self.sorted_alt = alt[self.order]
        lo, hi = band_bounds(alt, C.ALTITUDE_SEPARATION_FT)
        self.begin = np.searchsorted(self.sorted_alt, lo, side="left")
        self.end = np.searchsorted(self.sorted_alt, hi, side="right")
        self.x_sorted = fleet.x[self.order]
        self.y_sorted = fleet.y[self.order]
        if self.n:
            self.max_speed = float(np.hypot(fleet.dx, fleet.dy).max())
        else:
            self.max_speed = 0.0

    @property
    def band_pairs(self) -> int:
        """Ordered pairs surviving the altitude gate (excl. self-pairs)."""
        if not self.n:
            return 0
        return int((self.end - self.begin - 1).sum())


def detect_pruned(
    fleet: FleetState,
    mode: DetectionMode = DetectionMode.SIGNED,
    *,
    index: Optional[AltitudeBandIndex] = None,
    block_cells: int = _BLOCK_CELLS,
) -> DetectionStats:
    """Task-2 pass over the altitude-banded candidate pairs only.

    Bit-identical to :func:`repro.core.collision.detect` — same
    ``DetectionStats`` (``pairs_checked`` stays the closed-form
    ``n * (n - 1)`` the paper's kernels charge) and the same ``col`` /
    ``time_till`` / ``col_with`` mutations, including ``detect``'s
    smallest-partner-id tie-break — but evaluates the pair mathematics
    only on pairs inside the exact altitude band (~5% of all pairs).
    """
    stats = DetectionStats()
    fleet.reset_collision()
    n = fleet.n
    stats.pairs_checked = n * (n - 1)
    stats.critical_per_aircraft = np.zeros(n, dtype=np.int64)
    if index is None:
        index = AltitudeBandIndex(fleet)
    stats.pairs_in_altitude_band = index.band_pairs
    if n == 0:
        stats.flagged_aircraft = 0
        return stats

    order = index.order
    # Per *sorted position*: that row's altitude-band window bounds.
    begin_s = index.begin[order]
    end_s = index.end[order]
    x, y, dx, dy = fleet.x, fleet.y, fleet.dx, fleet.dy

    # A block of r adjacent (alt-sorted) rows unions to a column span of
    # roughly r + widest-window positions, so the dense block holds
    # r * (r + widest) cells — size r from that quadratic, not from the
    # window alone, or small-window fleets degenerate to r^2 ~ brute.
    widest = int((end_s - begin_s).max())
    rows_per = int((math.isqrt(widest * widest + 4 * int(block_cells)) - widest) // 2)
    rows_per = max(1, rows_per)
    for s in range(0, n, rows_per):
        e = min(s + rows_per, n)
        cb = int(begin_s[s:e].min())
        ce = int(end_s[s:e].max())
        rows = order[s:e]  # original aircraft ids of this row block
        cols = order[cb:ce]  # original ids of the union column window

        # Exactly the operand layout of detect()'s chunk: column value
        # minus row value, elementwise float64 — identical results.
        gap_x = x[cols][None, :] - x[rows][:, None]
        gap_y = y[cols][None, :] - y[rows][:, None]
        rel_vx = dx[cols][None, :] - dx[rows][:, None]
        rel_vy = dy[cols][None, :] - dy[rows][:, None]

        t_lo, t_hi = pair_interval(gap_x, gap_y, rel_vx, rel_vy, mode)
        t_eff, open_window = _window(t_lo, t_hi, mode)

        # Positional altitude mask (no float recomputation) + self mask.
        pos = np.arange(cb, ce, dtype=np.int64)[None, :]
        cand = (
            (pos >= begin_s[s:e, None])
            & (pos < end_s[s:e, None])
            & (cols[None, :] != rows[:, None])
        )

        conflict = (
            open_window & (t_eff < C.PROJECTION_HORIZON_PERIODS) & cand
        )
        stats.conflicts += int(np.count_nonzero(conflict))

        critical = conflict & (t_eff < C.TIME_TILL_SAFE_PERIODS)
        stats.critical_conflicts += int(np.count_nonzero(critical))
        stats.critical_per_aircraft[rows] = np.count_nonzero(critical, axis=1)

        t = np.where(critical, t_eff, _INF)
        row_min = t.min(axis=1)
        hit = row_min < C.TIME_TILL_SAFE_PERIODS
        if np.any(hit):
            # detect() takes argmin over the *original* index order; in
            # the alt-sorted layout that is the smallest original id
            # among the columns achieving the (bitwise equal) minimum.
            partner = np.where(t == row_min[:, None], cols[None, :], n).min(
                axis=1
            )
            idx = rows[hit]
            fleet.time_till[idx] = row_min[hit]
            fleet.col_with[idx] = partner[hit]
            fleet.col[idx] = 1

    stats.flagged_aircraft = int(np.count_nonzero(fleet.col))
    _prune_span("detect", n, stats.pairs_checked, stats.pairs_in_altitude_band)
    return stats


def _has_critical(
    fleet: FleetState,
    index: AltitudeBandIndex,
    i: int,
    dxi: float,
    dyi: float,
    mode: DetectionMode,
    threshold: float = C.TIME_TILL_SAFE_PERIODS,
) -> Tuple[bool, int]:
    """Pruned existence test: does ``i`` (at the given velocity) have a
    critical conflict?  Returns ``(answer, candidates_tested)``.

    Equivalent to ``earliest_critical(...) is not None``: the altitude
    window is exact; the per-axis boxes are conservative (a critical
    conflict needs ``|gap| <~ band + |rel_v| * threshold`` per axis, and
    ``|rel_v| <= s_i + s_max``); survivors get the exact pair test on
    the same float operands as ``conflict_row``.
    """
    assert threshold <= C.PROJECTION_HORIZON_PERIODS
    s, e = int(index.begin[i]), int(index.end[i])
    xi = float(fleet.x[i])
    yi = float(fleet.y[i])
    speed_i = float(np.hypot(dxi, dyi))
    w = (
        C.COLLISION_BAND_TOTAL_NM + (speed_i + index.max_speed) * threshold
    ) * (1.0 + _WINDOW_SLACK)
    order = index.order
    tested = 0
    for cs in range(s, e, _QUERY_CHUNK):
        ce = min(cs + _QUERY_CHUNK, e)
        box = (np.abs(index.x_sorted[cs:ce] - xi) < w) & (
            np.abs(index.y_sorted[cs:ce] - yi) < w
        )
        if not box.any():
            continue
        cand = order[cs:ce][box]
        cand = cand[cand != i]
        if cand.size == 0:
            continue
        tested += int(cand.size)
        gap_x = fleet.x[cand] - xi
        gap_y = fleet.y[cand] - yi
        rel_vx = fleet.dx[cand] - dxi
        rel_vy = fleet.dy[cand] - dyi
        t_lo, t_hi = pair_interval(gap_x, gap_y, rel_vx, rel_vy, mode)
        t_eff, open_window = _window(t_lo, t_hi, mode)
        # threshold <= horizon, so (t_eff < threshold) subsumes the
        # horizon test; the altitude gate is the window membership.
        if np.any(open_window & (t_eff < threshold)):
            return True, tested
    return False, tested


def resolve_pruned(
    fleet: FleetState,
    mode: DetectionMode = DetectionMode.SIGNED,
    *,
    index: Optional[AltitudeBandIndex] = None,
):
    """Task-3 pass with pruned conflict re-verification.

    Runs the exact :func:`repro.core.resolution.resolve` state machine
    (same trial order, same commits, same stats) but answers each
    "does a critical conflict exist?" re-check through the altitude
    window + per-axis boxes instead of a full ``conflict_row`` sweep.
    """
    from .resolution import resolve

    if index is None:
        index = AltitudeBandIndex(fleet)
    flagged = int(np.count_nonzero(fleet.col == 1))
    counters = {"queries": 0, "tested": 0}

    def critical_exists(i: int, dxi: float, dyi: float) -> bool:
        answer, tested = _has_critical(fleet, index, i, dxi, dyi, mode)
        counters["queries"] += 1
        counters["tested"] += tested
        return answer

    stats = resolve(fleet, mode, critical_exists=critical_exists)
    _prune_span(
        "resolve",
        fleet.n,
        counters["queries"] * max(0, fleet.n - 1),
        counters["tested"],
    )
    del flagged
    return stats


def detect_and_resolve_pruned(
    fleet: FleetState,
    mode: DetectionMode = DetectionMode.SIGNED,
):
    """The fused ``CheckCollisionPath`` over pruned candidates.

    One :class:`AltitudeBandIndex` serves both passes: altitudes and
    positions are never mutated by Tasks 2/3, and the index's speed
    bound tolerates resolution's heading commits (rotations preserve
    speed to a few ulps, far inside the window slack).
    """
    index = AltitudeBandIndex(fleet)
    det = detect_pruned(fleet, mode, index=index)
    res = resolve_pruned(fleet, mode, index=index)
    return det, res
