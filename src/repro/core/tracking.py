"""Task 1 — Tracking & Correlation (paper Section 5.1, Algorithm 1).

Reference semantics
-------------------
The paper's CUDA kernel runs one thread per radar report, each scanning
all aircraft; the shared ``rMatch``/``rMatchWith`` state makes the kernel
racy.  DESIGN.md deviation #2 fixes a deterministic serialization that is
one of the legal outcomes of that kernel and that **every** backend in
this repository implements identically: radars are processed in index
order, and each radar scans aircraft in index order.

State machine (per correlation round, gate half-width ``g``):

* a radar report *matches* an aircraft when the report falls strictly
  inside the ``2g x 2g`` box centred on the aircraft's expected position;
* an aircraft seen by a second radar is dropped (``r_match = -1``) and
  keeps its expected position this period;
* a radar that sees a second (still unmatched) aircraft is discarded
  (``match_with = -2``) and stops scanning;
* round 2 and 3 double the gate and retry only unmatched radars against
  aircraft still unmatched at the start of the round;
* finally, every aircraft matched by exactly one surviving radar takes
  the radar position as its new (x, y); everyone else advances to its
  expected position.

Candidate generation
--------------------
The state machine visits only the (radar, aircraft) pairs whose gate
test passes.  At every fleet size they come from a grid hash of the
expected positions (:func:`_candidate_pairs`): each radar probes the
3x3 neighbourhood of its ``2g`` grid cell and the exact gate predicate
filters the probes, which yields the same pairs in the same order as
testing every (radar, aircraft) cell — the scan that
``tests/core/dense_reference.py`` keeps as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import constants as C
from .geometry import wraparound
from .types import FleetState, RadarFrame

__all__ = ["TrackingStats", "compute_expected", "run_correlation_round", "correlate"]


@dataclass
class TrackingStats:
    """Dynamic counts from one Task-1 execution (feeds timing models)."""

    #: number of rounds actually executed (1..3).
    rounds_executed: int = 0
    #: radar-aircraft candidate pairs examined, per round.
    candidate_pairs: List[int] = field(default_factory=list)
    #: new radar-aircraft matches made, per round.
    matched: List[int] = field(default_factory=list)
    #: radars discarded for seeing multiple aircraft (total).
    discarded_radars: int = 0
    #: aircraft dropped for being seen by multiple radars (total).
    dropped_aircraft: int = 0
    #: aircraft whose position was committed from a radar report.
    committed: int = 0
    #: aircraft that fell back to their expected position.
    coasted: int = 0
    #: radar indices still unmatched at the start of each round; the
    #: architecture timing models use these to charge only the warps/PEs
    #: that still have work in rounds 2 and 3.
    round_radar_ids: List[np.ndarray] = field(default_factory=list)
    #: number of aircraft still unmatched at the start of each round.
    round_active_planes: List[int] = field(default_factory=list)
    #: per-round, per-radar candidate counts (``bincount`` over the gate
    #: hits); lets warp-level timing models charge match bookkeeping to
    #: the warps that actually did it.
    round_candidates_per_radar: List[np.ndarray] = field(default_factory=list)

    @property
    def total_candidate_pairs(self) -> int:
        return int(sum(self.candidate_pairs))


def compute_expected(fleet: FleetState) -> None:
    """Fill ``expected_x/expected_y`` with this period's dead-reckoning."""
    np.add(fleet.x, fleet.dx, out=fleet.expected_x)
    np.add(fleet.y, fleet.dy, out=fleet.expected_y)


def _candidate_pairs(
    radar_ids: np.ndarray,
    frame: RadarFrame,
    fleet: FleetState,
    plane_mask: np.ndarray,
    gate_half: float,
    *,
    pruned: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """All (radar, aircraft) index pairs whose gate test passes.

    Returned sorted by radar index then aircraft index — exactly the
    order the serialized state machine visits them.  ``pruned`` only
    reports the pass as pruned (one ``core.prune`` span and its
    ``atm_prune_candidates`` count); the pairs are the same either way.

    Expected positions are bucketed on a grid of cell size
    ``2 * gate_half``; each radar probes its own cell plus the 3x3
    neighbourhood, and survivors are re-filtered with the *exact* gate
    predicate on the same float operands as a scan of every
    (radar, aircraft) cell — so the result is provably that scan's pair
    set, in (radar, plane) order, for O(n log n) instead of O(n^2).

    Coverage argument: the gate half-widths are powers of two, so the
    grid quotients ``pos / cell`` are computed exactly; a gate hit means
    the radar and expected quotients differ by < 0.5 per axis, hence
    their floors (cell indices) differ by at most 1 — the 3x3 probe is a
    superset of all hits.  Distinct probe offsets land in distinct cells
    (the shifted keys are injective over the padded grid), so no pair is
    generated twice.
    """
    from .sweepline import _prune_span

    planes = np.nonzero(plane_mask)[0].astype(np.int64)
    empty = np.empty(0, np.int64)
    brute = int(radar_ids.shape[0]) * int(planes.shape[0])
    if radar_ids.shape[0] == 0 or planes.shape[0] == 0:
        if pruned:
            _prune_span("track", planes.shape[0], brute, 0)
        return empty, empty

    cell = 2.0 * gate_half
    ex = fleet.expected_x[planes]
    ey = fleet.expected_y[planes]
    pcx = np.floor(ex / cell).astype(np.int64)
    pcy = np.floor(ey / cell).astype(np.int64)
    rx = frame.rx[radar_ids]
    ry = frame.ry[radar_ids]
    rcx = np.floor(rx / cell).astype(np.int64)
    rcy = np.floor(ry / cell).astype(np.int64)

    # Shifted non-negative keys, padded one cell so radar probes at
    # offset -1/+1 stay in range; row stride ky keeps them injective.
    x0 = int(min(pcx.min(), rcx.min())) - 1
    y0 = int(min(pcy.min(), rcy.min())) - 1
    ky = int(max(pcy.max(), rcy.max())) + 2 - y0
    pkey = (pcx - x0) * ky + (pcy - y0)
    order = np.argsort(pkey, kind="stable")
    skey = pkey[order]
    rbase = (rcx - x0) * ky + (rcy - y0)

    pair_r: list[np.ndarray] = []
    pair_p: list[np.ndarray] = []
    nr = radar_ids.shape[0]
    probed = 0
    for off_x in (-1, 0, 1):
        for off_y in (-1, 0, 1):
            probe = rbase + off_x * ky + off_y
            begin = np.searchsorted(skey, probe, side="left")
            end = np.searchsorted(skey, probe, side="right")
            count = end - begin
            total = int(count.sum())
            probed += total
            if not total:
                continue
            # Expand each radar's [begin, end) run into flat positions.
            ri = np.repeat(np.arange(nr, dtype=np.int64), count)
            run_start = np.cumsum(count) - count
            offs = np.arange(total, dtype=np.int64) - np.repeat(run_start, count)
            cand = planes[order[np.repeat(begin, count) + offs]]
            rr = radar_ids[ri]
            hit = (np.abs(frame.rx[rr] - fleet.expected_x[cand]) < gate_half) & (
                np.abs(frame.ry[rr] - fleet.expected_y[cand]) < gate_half
            )
            pair_r.append(rr[hit])
            pair_p.append(cand[hit])

    if pruned:
        _prune_span("track", planes.shape[0], brute, probed)
    if not pair_r:
        return empty, empty
    pr = np.concatenate(pair_r)
    pp = np.concatenate(pair_p)
    o = np.lexsort((pp, pr))
    return pr[o], pp[o]


def run_correlation_round(
    fleet: FleetState,
    frame: RadarFrame,
    gate_half: float,
    stats: TrackingStats,
    *,
    pruned: bool = False,
) -> None:
    """Execute one correlation round with the given gate half-width.

    ``pruned`` reports the candidate generation as a pruned pass (see
    :func:`_candidate_pairs`); the round's results do not depend on it.
    """
    radar_ids = np.nonzero(frame.match_with == C.NO_MATCH)[0].astype(np.int64)
    plane_mask = fleet.r_match == C.UNMATCHED
    pr, pp = _candidate_pairs(
        radar_ids, frame, fleet, plane_mask, gate_half, pruned=pruned
    )

    stats.rounds_executed += 1
    stats.candidate_pairs.append(int(pr.shape[0]))
    stats.round_radar_ids.append(radar_ids)
    stats.round_active_planes.append(int(np.count_nonzero(plane_mask)))
    stats.round_candidates_per_radar.append(np.bincount(pr, minlength=frame.n))

    matched_this_round = 0
    r_match = fleet.r_match
    matched_radar = fleet.matched_radar
    match_with = frame.match_with

    # Walk the candidate list grouped by radar, in (radar, plane) order.
    # The run boundaries of the radar column are found vectorized (a
    # run starts wherever the value changes); only the inherently
    # sequential per-run state machine below stays in Python.
    total = pr.shape[0]
    if total:
        starts = np.flatnonzero(np.concatenate(([True], pr[1:] != pr[:-1])))
        ends = np.append(starts[1:], total)
    else:
        starts = ends = np.empty(0, dtype=np.int64)
    for idx, end in zip(starts, ends):
        i = pr[idx]
        for k in range(idx, end):
            p = pp[k]
            state = r_match[p]
            if state == C.MULTI_MATCHED:
                continue
            if state == C.MATCHED_ONCE:
                # Second radar sees an already-correlated aircraft: drop it.
                r_match[p] = C.MULTI_MATCHED
                stats.dropped_aircraft += 1
                continue
            # state == UNMATCHED
            if match_with[i] == C.NO_MATCH:
                match_with[i] = p
                r_match[p] = C.MATCHED_ONCE
                matched_radar[p] = i
                matched_this_round += 1
            else:
                # Radar already holds an aircraft and sees a second one:
                # discard the radar and stop its scan.
                match_with[i] = C.DISCARDED
                stats.discarded_radars += 1
                break

    stats.matched.append(matched_this_round)


def _commit(fleet: FleetState, frame: RadarFrame, stats: TrackingStats) -> None:
    """Apply correlation results: radar position or expected position."""
    take_radar = np.zeros(fleet.n, dtype=bool)
    radar_of = np.full(fleet.n, -1, dtype=np.int64)

    valid = frame.match_with >= 0
    radars = np.nonzero(valid)[0]
    planes = frame.match_with[radars]
    good = fleet.r_match[planes] == C.MATCHED_ONCE
    take_radar[planes[good]] = True
    radar_of[planes[good]] = radars[good]

    new_x = fleet.expected_x.copy()
    new_y = fleet.expected_y.copy()
    src = radar_of[take_radar]
    new_x[take_radar] = frame.rx[src]
    new_y[take_radar] = frame.ry[src]

    fleet.x[:], fleet.y[:] = wraparound(new_x, new_y)
    stats.committed = int(np.count_nonzero(take_radar))
    stats.coasted = fleet.n - stats.committed


def correlate(
    fleet: FleetState,
    frame: RadarFrame,
    *,
    pruned: bool = False,
) -> TrackingStats:
    """Run the full Task 1 on a fleet and a radar frame (both mutated).

    Returns the dynamic statistics used by the architecture timing
    models (candidate counts per round, rounds executed, ...).
    Candidates come from the grid hash at every fleet size; ``pruned``
    only records each round as a pruned pass (``core.prune`` span,
    ``atm_prune_candidates{task="track"}``), so stats and state
    mutations are bit-identical either way.
    """
    stats = TrackingStats()
    fleet.reset_correlation()
    frame.reset_matches()
    compute_expected(fleet)

    gate = C.TRACK_GATE_HALF_NM
    for round_no in range(C.TRACK_TOTAL_ROUNDS):
        if round_no > 0:
            if not np.any(frame.match_with == C.NO_MATCH):
                break  # every radar resolved; no extra rounds needed
            gate *= 2.0
        run_correlation_round(fleet, frame, gate, stats, pruned=pruned)

    _commit(fleet, frame, stats)
    return stats
