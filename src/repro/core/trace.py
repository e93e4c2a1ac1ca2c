"""The functional-trace artifact: one functional pass, N cost replays.

Every backend in this repository computes **bit-identical functional
results** (DESIGN.md deviation #2) and then charges a platform-specific
cost ledger from the run's *dynamic statistics*.  The ledgers never look
at the algorithmic intermediates — only at a small, well-defined set of
artifacts:

* Task 1 — the :class:`~repro.core.tracking.TrackingStats` (per-round
  radar-id groups, candidate counts, active-plane counts) plus the
  post-correlation match columns the CUDA commit-phase model reads
  (``frame.match_with``, ``fleet.r_match``, ``fleet.matched_radar``);
* Tasks 2+3 — the :class:`~repro.core.collision.DetectionStats` and
  :class:`~repro.core.resolution.ResolutionStats` plus the altitude
  column (it is never mutated by the tasks).

A :class:`FunctionalTrace` captures exactly that set for one
``(n, seed, periods, mode, dropout, clutter)`` cell, so the expensive
functional simulation runs **once** and all backends replay their cost
models from the shared trace.  The cost-replay contract is documented in
``docs/performance.md``; the equivalence tests assert byte-identical
:class:`~repro.core.types.TaskTiming` output between the two paths.

Traces serialize to JSON exactly (ints stay ints; floats survive via
shortest-repr) so :class:`~repro.harness.cache.TraceStore` can keep an
on-disk tier keyed by :func:`trace_key`, and so traces can cross the
process boundary to sweep workers as plain dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .collision import DetectionMode, DetectionStats
from .radar import generate_radar_frame
from .resolution import ResolutionStats, detect_and_resolve
from .setup import setup_flight
from .tracking import TrackingStats, correlate

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "FleetView",
    "FrameView",
    "TracePeriod",
    "CollisionRecord",
    "FunctionalTrace",
    "TraceBudget",
    "DEFAULT_TRACE_BUDGET",
    "period_nbytes",
    "collision_nbytes",
    "trace_nbytes",
    "estimate_trace_bytes",
    "stream_trace",
    "compute_trace",
    "trace_key",
]

#: Bump when the trace payload shape changes; part of the store key, so
#: a schema change starts a fresh on-disk subtree instead of misreading.
#: v2 added the effective ``pruning`` parameter to the params block.
TRACE_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# duck-typed stand-ins for FleetState / RadarFrame
# ---------------------------------------------------------------------------


@dataclass
class FleetView:
    """The slice of :class:`~repro.core.types.FleetState` cost models read.

    Timing models access fleet state through attributes only, so a view
    with the recorded columns substitutes for the live fleet during
    replay.  Columns a given model does not read are ``None``.
    """

    n: int
    r_match: Optional[np.ndarray] = None
    matched_radar: Optional[np.ndarray] = None
    alt: Optional[np.ndarray] = None


@dataclass
class FrameView:
    """The slice of :class:`~repro.core.types.RadarFrame` cost models read."""

    n: int
    match_with: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# exact (de)serialization of the stats dataclasses
# ---------------------------------------------------------------------------


def _int_list(arr) -> List[int]:
    return [int(v) for v in arr]


def _tracking_stats_to_dict(stats: TrackingStats) -> Dict[str, Any]:
    return {
        "rounds_executed": int(stats.rounds_executed),
        "candidate_pairs": _int_list(stats.candidate_pairs),
        "matched": _int_list(stats.matched),
        "discarded_radars": int(stats.discarded_radars),
        "dropped_aircraft": int(stats.dropped_aircraft),
        "committed": int(stats.committed),
        "coasted": int(stats.coasted),
        "round_radar_ids": [_int_list(ids) for ids in stats.round_radar_ids],
        "round_active_planes": _int_list(stats.round_active_planes),
        "round_candidates_per_radar": [
            _int_list(c) for c in stats.round_candidates_per_radar
        ],
    }


def _tracking_stats_from_dict(data: Dict[str, Any]) -> TrackingStats:
    return TrackingStats(
        rounds_executed=int(data["rounds_executed"]),
        candidate_pairs=[int(v) for v in data["candidate_pairs"]],
        matched=[int(v) for v in data["matched"]],
        discarded_radars=int(data["discarded_radars"]),
        dropped_aircraft=int(data["dropped_aircraft"]),
        committed=int(data["committed"]),
        coasted=int(data["coasted"]),
        round_radar_ids=[
            np.asarray(ids, dtype=np.int64) for ids in data["round_radar_ids"]
        ],
        round_active_planes=[int(v) for v in data["round_active_planes"]],
        round_candidates_per_radar=[
            np.asarray(c, dtype=np.int64) for c in data["round_candidates_per_radar"]
        ],
    )


def _detection_stats_to_dict(det: DetectionStats) -> Dict[str, Any]:
    crit = det.critical_per_aircraft
    return {
        "pairs_checked": int(det.pairs_checked),
        "pairs_in_altitude_band": int(det.pairs_in_altitude_band),
        "conflicts": int(det.conflicts),
        "critical_conflicts": int(det.critical_conflicts),
        "flagged_aircraft": int(det.flagged_aircraft),
        "critical_per_aircraft": None if crit is None else _int_list(crit),
    }


def _detection_stats_from_dict(data: Dict[str, Any]) -> DetectionStats:
    crit = data["critical_per_aircraft"]
    return DetectionStats(
        pairs_checked=int(data["pairs_checked"]),
        pairs_in_altitude_band=int(data["pairs_in_altitude_band"]),
        conflicts=int(data["conflicts"]),
        critical_conflicts=int(data["critical_conflicts"]),
        flagged_aircraft=int(data["flagged_aircraft"]),
        critical_per_aircraft=(
            None if crit is None else np.asarray(crit, dtype=np.int64)
        ),
    )


def _resolution_stats_to_dict(res: ResolutionStats) -> Dict[str, Any]:
    return {
        "needed_resolution": int(res.needed_resolution),
        "already_clear": int(res.already_clear),
        "resolved": int(res.resolved),
        "unresolved": int(res.unresolved),
        "trials_evaluated": int(res.trials_evaluated),
        "trials_histogram": {str(k): int(v) for k, v in res.trials_histogram.items()},
        "attempts": _int_list(res.attempts),
    }


def _resolution_stats_from_dict(data: Dict[str, Any]) -> ResolutionStats:
    return ResolutionStats(
        needed_resolution=int(data["needed_resolution"]),
        already_clear=int(data["already_clear"]),
        resolved=int(data["resolved"]),
        unresolved=int(data["unresolved"]),
        trials_evaluated=int(data["trials_evaluated"]),
        trials_histogram={
            int(k): int(v) for k, v in data["trials_histogram"].items()
        },
        attempts=np.asarray(data["attempts"], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# the trace records
# ---------------------------------------------------------------------------


@dataclass
class TracePeriod:
    """Everything a Task-1 cost ledger consumes for one tracking period."""

    n_aircraft: int
    frame_n: int
    stats: TrackingStats
    #: post-correlation ``frame.match_with`` (length ``frame_n``).
    match_with: np.ndarray
    #: post-correlation ``fleet.r_match`` (length ``n_aircraft``).
    r_match: np.ndarray
    #: post-correlation ``fleet.matched_radar`` (length ``n_aircraft``).
    matched_radar: np.ndarray

    def fleet_view(self) -> FleetView:
        return FleetView(
            n=self.n_aircraft,
            r_match=self.r_match,
            matched_radar=self.matched_radar,
        )

    def frame_view(self) -> FrameView:
        return FrameView(n=self.frame_n, match_with=self.match_with)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_aircraft": int(self.n_aircraft),
            "frame_n": int(self.frame_n),
            "stats": _tracking_stats_to_dict(self.stats),
            "match_with": _int_list(self.match_with),
            "r_match": _int_list(self.r_match),
            "matched_radar": _int_list(self.matched_radar),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TracePeriod":
        return cls(
            n_aircraft=int(data["n_aircraft"]),
            frame_n=int(data["frame_n"]),
            stats=_tracking_stats_from_dict(data["stats"]),
            match_with=np.asarray(data["match_with"], dtype=np.int64),
            r_match=np.asarray(data["r_match"], dtype=np.int8),
            matched_radar=np.asarray(data["matched_radar"], dtype=np.int64),
        )


@dataclass
class CollisionRecord:
    """Everything a Task-2+3 cost ledger consumes for the collision pass."""

    n_aircraft: int
    #: the altitude column (never mutated by any task).
    alt: np.ndarray
    det: DetectionStats
    res: ResolutionStats

    def fleet_view(self) -> FleetView:
        return FleetView(n=self.n_aircraft, alt=self.alt)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_aircraft": int(self.n_aircraft),
            "alt": [float(v) for v in self.alt],
            "det": _detection_stats_to_dict(self.det),
            "res": _resolution_stats_to_dict(self.res),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CollisionRecord":
        return cls(
            n_aircraft=int(data["n_aircraft"]),
            alt=np.asarray(data["alt"], dtype=np.float64),
            det=_detection_stats_from_dict(data["det"]),
            res=_resolution_stats_from_dict(data["res"]),
        )


@dataclass(frozen=True)
class TraceBudget:
    """Memory envelope for trace materialization and shipping.

    ``max_resident_bytes`` bounds what one fully-materialized trace may
    occupy in this process — above it the harness replays the stream
    record-by-record instead of memoizing the trace.
    ``max_payload_bytes`` bounds what may be serialized to the on-disk
    trace store or shipped to pool workers; above it workers recompute
    their own (pruned) trace rather than receive a multi-GB payload.
    """

    max_resident_bytes: int = 1 << 30
    max_payload_bytes: int = 64 << 20

    def allows_resident(self, nbytes: int) -> bool:
        return int(nbytes) <= self.max_resident_bytes

    def allows_payload(self, nbytes: int) -> bool:
        return int(nbytes) <= self.max_payload_bytes


DEFAULT_TRACE_BUDGET = TraceBudget()

#: fixed per-record overhead allowance (dataclass + scalar stats).
_RECORD_OVERHEAD = 256


def period_nbytes(rec: "TracePeriod") -> int:
    """Actual array bytes held by one period record."""
    return int(
        rec.match_with.nbytes
        + rec.r_match.nbytes
        + rec.matched_radar.nbytes
        + sum(np.asarray(i).nbytes for i in rec.stats.round_radar_ids)
        + sum(np.asarray(c).nbytes for c in rec.stats.round_candidates_per_radar)
        + _RECORD_OVERHEAD
    )


def collision_nbytes(rec: "CollisionRecord") -> int:
    """Actual array bytes held by the collision record."""
    crit = rec.det.critical_per_aircraft
    return int(
        rec.alt.nbytes
        + (0 if crit is None else np.asarray(crit).nbytes)
        + np.asarray(rec.res.attempts).nbytes
        + _RECORD_OVERHEAD
    )


def trace_nbytes(trace: "FunctionalTrace") -> int:
    """Actual array bytes held by a materialized trace."""
    total = sum(period_nbytes(p) for p in trace.period_records)
    if trace.collision is not None:
        total += collision_nbytes(trace.collision)
    return int(total) + 2 * _RECORD_OVERHEAD


def estimate_trace_bytes(n: int, periods: int) -> int:
    """Conservative a-priori size of a ``(n, periods)`` trace in memory.

    Each period carries ~17n bytes of match columns plus up to 8n per
    executed round of radar-id/candidate arrays (3 rounds worst case);
    the collision record carries three length-n int64/float64 columns.
    Used by the harness to decide memoization vs streaming *before*
    computing anything.
    """
    return int(periods) * 56 * int(n) + 32 * int(n) + 4096


@dataclass
class FunctionalTrace:
    """The shared functional pass of one measurement cell.

    Computed once per ``(n, seed, periods, mode, dropout, clutter)`` and
    replayed by every backend's cost model; see
    :meth:`~repro.backends.base.Backend.track_timing_from_trace`.

    ``pruning`` records the *effective* candidate-pruning setting
    ("on"/"off") the functional pass ran under.  The payload is
    bit-identical either way (that is the :mod:`repro.core.sweepline`
    contract), but the fingerprint carries it so a pruned artifact is
    never silently substituted where an unpruned one was requested.
    """

    n_aircraft: int
    seed: int
    periods: int
    mode: DetectionMode
    dropout: float = 0.0
    clutter: int = 0
    pruning: str = "off"
    period_records: List[TracePeriod] = field(default_factory=list)
    collision: CollisionRecord = None

    def key(self) -> str:
        """The trace's canonical fingerprint (storage key)."""
        return trace_key(
            n=self.n_aircraft,
            seed=self.seed,
            periods=self.periods,
            mode=self.mode,
            dropout=self.dropout,
            clutter=self.clutter,
            pruning=self.pruning,
        )

    def matches(self, *, n: int, seed: int, periods: int, mode: DetectionMode) -> bool:
        """Whether this trace covers the given measurement parameters."""
        return (
            self.n_aircraft == int(n)
            and self.seed == int(seed)
            and self.periods == int(periods)
            and str(getattr(self.mode, "value", self.mode))
            == str(getattr(mode, "value", mode))
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; exact inverse of :meth:`from_dict`."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "params": {
                "n": int(self.n_aircraft),
                "seed": int(self.seed),
                "periods": int(self.periods),
                "mode": str(self.mode.value),
                "dropout": float(self.dropout),
                "clutter": int(self.clutter),
                "pruning": str(self.pruning),
            },
            "periods": [p.to_dict() for p in self.period_records],
            "collision": self.collision.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionalTrace":
        if int(data.get("schema", -1)) != TRACE_SCHEMA_VERSION:
            raise ValueError(f"unsupported trace schema {data.get('schema')!r}")
        params = data["params"]
        return cls(
            n_aircraft=int(params["n"]),
            seed=int(params["seed"]),
            periods=int(params["periods"]),
            mode=DetectionMode(params["mode"]),
            dropout=float(params["dropout"]),
            clutter=int(params["clutter"]),
            pruning=str(params.get("pruning", "off")),
            period_records=[TracePeriod.from_dict(p) for p in data["periods"]],
            collision=CollisionRecord.from_dict(data["collision"]),
        )


def trace_key(
    *,
    n: int,
    seed: int,
    periods: int,
    mode: Any,
    dropout: float = 0.0,
    clutter: int = 0,
    pruning: str = "off",
) -> str:
    """Canonical fingerprint of one functional-trace cell.

    Uses the same machinery as the result cache
    (:func:`repro.core.canonical.fingerprint_of`); the library version is
    included because a release may change the functional algorithms.
    ``pruning`` is the *effective* setting ("on"/"off", never "auto") so
    an ``auto`` policy below the threshold shares artifacts with an
    explicit ``off``.
    """
    from .. import __version__
    from .canonical import fingerprint_of

    return fingerprint_of(
        {
            "kind": "functional-trace",
            "schema": TRACE_SCHEMA_VERSION,
            "library_version": __version__,
            "task": {
                "n": int(n),
                "seed": int(seed),
                "periods": int(periods),
                "mode": str(getattr(mode, "value", mode)),
                "dropout": float(dropout),
                "clutter": int(clutter),
                "pruning": str(pruning),
            },
        }
    )


def stream_trace(
    n: int,
    *,
    seed: int = 2018,
    periods: int = 3,
    mode: DetectionMode = DetectionMode.SIGNED,
    dropout: float = 0.0,
    clutter: int = 0,
    pruning: Any = "off",
):
    """Run the functional simulation, yielding records as they complete.

    A generator over ``periods`` :class:`TracePeriod` records followed
    by the final :class:`CollisionRecord` — the streaming core both
    :func:`compute_trace` (materialize) and the harness's private
    per-cell pass (consume-and-discard) are built on.  Each yielded record
    is independent; a consumer that drops records after use holds at
    most one period of trace state plus the live fleet.

    ``pruning`` is a :class:`~repro.core.sweepline.PruningPolicy` (or
    its string value) resolved at ``n``; the functional outputs are
    bit-identical either way.  Emits one ``atm_trace_bytes`` increment
    per record.
    """
    from ..obs import span as obs_span
    from ..obs.metrics import metric_inc
    from .sweepline import detect_and_resolve_pruned, resolve_pruning

    if periods < 1:
        raise ValueError("need at least one tracking period")
    effective = resolve_pruning(pruning, n)
    fleet = setup_flight(n, seed)
    for period in range(periods):
        frame = generate_radar_frame(
            fleet, seed, period, dropout=dropout, clutter=clutter
        )
        with obs_span("core.correlate", cat="core"):
            stats = correlate(fleet, frame, pruned=effective)
        record = TracePeriod(
            n_aircraft=fleet.n,
            frame_n=frame.n,
            stats=stats,
            match_with=frame.match_with.copy(),
            r_match=fleet.r_match.copy(),
            matched_radar=fleet.matched_radar.copy(),
        )
        metric_inc("atm_trace_bytes", float(period_nbytes(record)), record="period")
        yield record
    with obs_span("core.detect_and_resolve", cat="core"):
        if effective:
            det, res = detect_and_resolve_pruned(fleet, mode)
        else:
            det, res = detect_and_resolve(fleet, mode)
    collision = CollisionRecord(
        n_aircraft=fleet.n, alt=fleet.alt.copy(), det=det, res=res
    )
    metric_inc(
        "atm_trace_bytes", float(collision_nbytes(collision)), record="collision"
    )
    yield collision


def compute_trace(
    n: int,
    *,
    seed: int = 2018,
    periods: int = 3,
    mode: DetectionMode = DetectionMode.SIGNED,
    dropout: float = 0.0,
    clutter: int = 0,
    pruning: Any = "off",
) -> FunctionalTrace:
    """Run the functional simulation once and record the trace.

    Mirrors the measurement protocol of
    :func:`repro.harness.sweep.measure_platform` exactly: ``periods``
    tracking periods on an evolving fleet, then one collision pass, all
    through the shared :mod:`repro.core` algorithms.  Materializes the
    :func:`stream_trace` record stream and reports the resident size via
    the ``atm_trace_peak_bytes`` gauge (``path="materialized"``).
    """
    from ..obs.metrics import metric_set
    from .sweepline import resolve_pruning

    records: List[TracePeriod] = []
    collision: Optional[CollisionRecord] = None
    resident = 0
    for record in stream_trace(
        n,
        seed=seed,
        periods=periods,
        mode=mode,
        dropout=dropout,
        clutter=clutter,
        pruning=pruning,
    ):
        if isinstance(record, CollisionRecord):
            collision = record
            resident += collision_nbytes(record)
        else:
            records.append(record)
            resident += period_nbytes(record)
    metric_set("atm_trace_peak_bytes", float(resident), path="materialized")
    return FunctionalTrace(
        n_aircraft=n,
        seed=seed,
        periods=periods,
        mode=mode,
        dropout=dropout,
        clutter=clutter,
        pruning="on" if resolve_pruning(pruning, n) else "off",
        period_records=records,
        collision=collision,
    )
