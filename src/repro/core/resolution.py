"""Task 3 — Collision Resolution (paper Section 5.3, Algorithm 2).

Aircraft flagged by detection are handled one at a time, in index order
(the paper's kernel guards against two threads manipulating the same
aircraft; the deterministic serialization of DESIGN.md deviation #2 makes
that ordering explicit).  For each flagged aircraft:

1. re-verify the conflict against the *current* fleet state — an earlier
   resolution this pass may already have cleared it;
2. try trial headings rotated +-5, -+10, ... up to +-30 degrees from the
   original velocity (the paper's ``batx``/``baty`` trial path — our
   ``batdx``/``batdy``, see DESIGN.md deviation #6: the trial path is the
   current position flown with a rotated velocity);
3. each trial re-runs the Batcher check of this aircraft against every
   other aircraft; the first critically-clear heading is committed;
4. if no heading within 30 degrees clears the conflict the aircraft keeps
   its path — the paper notes such leftovers would be resolved by an
   altitude change in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import constants as C
from .collision import DetectionMode, DetectionStats, detect, earliest_critical
from .geometry import rotate_velocity, trial_angle_deg
from .types import FleetState

__all__ = ["ResolutionStats", "resolve", "detect_and_resolve"]


@dataclass
class ResolutionStats:
    """Dynamic counts from one Task-3 pass (feeds timing models)."""

    #: aircraft that entered resolution with a live critical conflict.
    needed_resolution: int = 0
    #: aircraft whose conflict had already evaporated at re-verification.
    already_clear: int = 0
    #: aircraft that committed a new heading.
    resolved: int = 0
    #: aircraft that exhausted all 12 trial headings.
    unresolved: int = 0
    #: total trial headings evaluated (each costs a detection sweep).
    trials_evaluated: int = 0
    #: histogram: trials needed (1..12) -> number of aircraft.
    trials_histogram: Dict[int, int] = field(default_factory=dict)
    #: per-aircraft trial count (length n; 0 for aircraft that needed no
    #: resolution).  Architecture timing models use this to charge each
    #: thread/PE its data-dependent re-detection sweeps.
    attempts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def resolve(
    fleet: FleetState,
    mode: DetectionMode = DetectionMode.SIGNED,
    *,
    critical_exists: Optional[Callable[[int, float, float], bool]] = None,
) -> ResolutionStats:
    """Run Task 3 over every aircraft flagged by the preceding Task 2.

    The state machine only ever consumes the *existence* of a critical
    conflict (``earliest_critical(...) is None`` checks), never the
    partner or time.  ``critical_exists(i, dxi, dyi)`` lets a caller
    substitute an equivalent existence oracle — the pruned sort-sweep in
    :mod:`repro.core.sweepline` uses this so both implementations share
    one trial loop and cannot drift apart.
    """
    stats = ResolutionStats()
    stats.attempts = np.zeros(fleet.n, dtype=np.int64)
    flagged = np.nonzero(fleet.col == 1)[0]

    if critical_exists is None:
        def critical_exists(i: int, dxi: float, dyi: float) -> bool:
            return earliest_critical(fleet, i, dxi, dyi, mode) is not None

    for i in flagged:
        i = int(i)
        if not critical_exists(i, float(fleet.dx[i]), float(fleet.dy[i])):
            # Partner already turned away; clear the stale flag.
            stats.already_clear += 1
            fleet.col[i] = 0
            fleet.time_till[i] = C.TIME_TILL_SAFE_PERIODS
            fleet.col_with[i] = C.NO_MATCH
            continue

        stats.needed_resolution += 1
        base_dx, base_dy = float(fleet.dx[i]), float(fleet.dy[i])
        committed = False
        for attempt in range(C.RESOLUTION_MAX_TRIALS):
            angle = trial_angle_deg(attempt)
            trial_dx, trial_dy = rotate_velocity(base_dx, base_dy, angle)
            fleet.batdx[i], fleet.batdy[i] = trial_dx, trial_dy
            stats.trials_evaluated += 1
            stats.attempts[i] += 1
            if not critical_exists(i, float(trial_dx), float(trial_dy)):
                fleet.dx[i], fleet.dy[i] = trial_dx, trial_dy
                fleet.col[i] = 0
                fleet.time_till[i] = C.TIME_TILL_SAFE_PERIODS
                fleet.col_with[i] = C.NO_MATCH
                stats.resolved += 1
                used = attempt + 1
                stats.trials_histogram[used] = stats.trials_histogram.get(used, 0) + 1
                committed = True
                break
        if not committed:
            # Keep the original path; in practice an altitude change
            # would separate the pair (paper Section 5.3).
            stats.unresolved += 1

    return stats


def detect_and_resolve(
    fleet: FleetState,
    mode: DetectionMode = DetectionMode.SIGNED,
) -> Tuple[DetectionStats, ResolutionStats]:
    """The paper's fused ``CheckCollisionPath``: Task 2 then Task 3."""
    det = detect(fleet, mode)
    res = resolve(fleet, mode)
    return det, res
