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

A trace encodes to one checksummed array buffer
(:meth:`FunctionalTrace.to_bytes`): a short JSON header, then the
arrays' raw bytes, with every dtype kept exactly.  The same bytes are
what :class:`~repro.harness.cache.TraceStore` keeps on disk under
:func:`trace_key` and what crosses the process boundary to sweep
workers.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
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
    "TRACE_MAGIC",
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


# ---------------------------------------------------------------------------
# the array buffer: how a trace is stored on disk and shipped to workers
# ---------------------------------------------------------------------------

#: First bytes of an encoded trace (see :meth:`FunctionalTrace.to_bytes`).
TRACE_MAGIC = b"ATMTRACE"
_DIGEST_END = len(TRACE_MAGIC) + hashlib.sha256().digest_size
_HEAD_LEN = struct.Struct("<I")
_PREFIX_LEN = _DIGEST_END + _HEAD_LEN.size

#: The buffer's array dtypes, little-endian on every host.
_I8, _I1, _F8 = "<i8", "|i1", "<f8"


class _BodyWriter:
    """Collects a buffer's arrays and their table, in write order."""

    def __init__(self) -> None:
        self.table: List[List[Any]] = []
        self.chunks: List[bytes] = []
        self.size = 0

    def put(self, name: str, values: Any, dtype: str) -> None:
        arr = np.ascontiguousarray(values, dtype=dtype)
        self.table.append([name, arr.dtype.str, list(arr.shape), self.size])
        self.chunks.append(arr.tobytes())
        self.size += arr.nbytes


class _BodyReader:
    """Reads a buffer's arrays back in the order they were written,
    checking each one's name and dtype against what the reader expects."""

    def __init__(self, table: List[List[Any]], body: memoryview) -> None:
        self._table = iter(table)
        self._body = body

    def take(self, name: str, dtype: str) -> np.ndarray:
        got, got_dtype, shape, offset = next(self._table, (None, None, (), 0))
        if (got, got_dtype) != (name, dtype):
            raise ValueError(
                f"array {got!r} ({got_dtype}) where {name!r} ({dtype}) belongs"
            )
        arr = np.frombuffer(self._body, dtype, math.prod(shape), offset)
        return arr.reshape(shape).copy()

    def finish(self) -> None:
        if next(self._table, None) is not None:
            raise ValueError("trace buffer holds arrays no record reads")


def _ints(values: Any) -> List[int]:
    return [int(v) for v in values]


def _put_period(rec: TracePeriod, name: str, body: _BodyWriter) -> Dict[str, Any]:
    stats = rec.stats
    body.put(f"{name}.match_with", rec.match_with, _I8)
    body.put(f"{name}.r_match", rec.r_match, _I1)
    body.put(f"{name}.matched_radar", rec.matched_radar, _I8)
    for r, ids in enumerate(stats.round_radar_ids):
        body.put(f"{name}.round_radar_ids.{r}", ids, _I8)
    for r, counts in enumerate(stats.round_candidates_per_radar):
        body.put(f"{name}.round_candidates_per_radar.{r}", counts, _I8)
    return {
        "n_aircraft": int(rec.n_aircraft),
        "frame_n": int(rec.frame_n),
        "rounds_executed": int(stats.rounds_executed),
        "candidate_pairs": _ints(stats.candidate_pairs),
        "matched": _ints(stats.matched),
        "discarded_radars": int(stats.discarded_radars),
        "dropped_aircraft": int(stats.dropped_aircraft),
        "committed": int(stats.committed),
        "coasted": int(stats.coasted),
        "round_active_planes": _ints(stats.round_active_planes),
        "round_radar_ids": len(stats.round_radar_ids),
        "round_candidates_per_radar": len(stats.round_candidates_per_radar),
    }


def _take_period(head: Dict[str, Any], name: str, body: _BodyReader) -> TracePeriod:
    match_with = body.take(f"{name}.match_with", _I8)
    r_match = body.take(f"{name}.r_match", _I1)
    matched_radar = body.take(f"{name}.matched_radar", _I8)
    stats = TrackingStats(
        rounds_executed=head["rounds_executed"],
        candidate_pairs=head["candidate_pairs"],
        matched=head["matched"],
        discarded_radars=head["discarded_radars"],
        dropped_aircraft=head["dropped_aircraft"],
        committed=head["committed"],
        coasted=head["coasted"],
        round_radar_ids=[
            body.take(f"{name}.round_radar_ids.{r}", _I8)
            for r in range(head["round_radar_ids"])
        ],
        round_active_planes=head["round_active_planes"],
        round_candidates_per_radar=[
            body.take(f"{name}.round_candidates_per_radar.{r}", _I8)
            for r in range(head["round_candidates_per_radar"])
        ],
    )
    return TracePeriod(
        n_aircraft=head["n_aircraft"],
        frame_n=head["frame_n"],
        stats=stats,
        match_with=match_with,
        r_match=r_match,
        matched_radar=matched_radar,
    )


def _put_collision(rec: CollisionRecord, body: _BodyWriter) -> Dict[str, Any]:
    det, res = rec.det, rec.res
    body.put("collision.alt", rec.alt, _F8)
    if det.critical_per_aircraft is not None:
        body.put("collision.critical_per_aircraft", det.critical_per_aircraft, _I8)
    body.put("collision.attempts", res.attempts, _I8)
    return {
        "n_aircraft": int(rec.n_aircraft),
        "pairs_checked": int(det.pairs_checked),
        "pairs_in_altitude_band": int(det.pairs_in_altitude_band),
        "conflicts": int(det.conflicts),
        "critical_conflicts": int(det.critical_conflicts),
        "flagged_aircraft": int(det.flagged_aircraft),
        "has_critical_per_aircraft": det.critical_per_aircraft is not None,
        "needed_resolution": int(res.needed_resolution),
        "already_clear": int(res.already_clear),
        "resolved": int(res.resolved),
        "unresolved": int(res.unresolved),
        "trials_evaluated": int(res.trials_evaluated),
        # [trials, aircraft] pairs: JSON object keys would be strings.
        "trials_histogram": [[int(k), int(v)] for k, v in res.trials_histogram.items()],
    }


def _take_collision(head: Dict[str, Any], body: _BodyReader) -> CollisionRecord:
    alt = body.take("collision.alt", _F8)
    critical = (
        body.take("collision.critical_per_aircraft", _I8)
        if head["has_critical_per_aircraft"]
        else None
    )
    det = DetectionStats(
        pairs_checked=head["pairs_checked"],
        pairs_in_altitude_band=head["pairs_in_altitude_band"],
        conflicts=head["conflicts"],
        critical_conflicts=head["critical_conflicts"],
        flagged_aircraft=head["flagged_aircraft"],
        critical_per_aircraft=critical,
    )
    res = ResolutionStats(
        needed_resolution=head["needed_resolution"],
        already_clear=head["already_clear"],
        resolved=head["resolved"],
        unresolved=head["unresolved"],
        trials_evaluated=head["trials_evaluated"],
        trials_histogram={k: v for k, v in head["trials_histogram"]},
        attempts=body.take("collision.attempts", _I8),
    )
    return CollisionRecord(n_aircraft=head["n_aircraft"], alt=alt, det=det, res=res)


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

    def to_bytes(self) -> bytes:
        """The trace as one checksummed buffer; :meth:`from_bytes` inverts
        it exactly.

        Layout: :data:`TRACE_MAGIC`, the SHA-256 of everything after the
        digest, the header's length (``<u4``), a JSON header, then the
        arrays' raw bytes.  The header holds the schema and params, each
        record's scalar stats and short per-round int lists, and the
        array table: each array's name, dtype, shape and byte offset into
        the body.  Arrays are stored little-endian with fixed dtypes.
        """
        body = _BodyWriter()
        header = {
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
            "periods": [
                _put_period(rec, f"periods.{i}", body)
                for i, rec in enumerate(self.period_records)
            ],
            "collision": _put_collision(self.collision, body),
            "arrays": body.table,
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        pieces = [_HEAD_LEN.pack(len(head)), head, *body.chunks]
        digest = hashlib.sha256()
        for piece in pieces:
            digest.update(piece)
        return b"".join([TRACE_MAGIC, digest.digest(), *pieces])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FunctionalTrace":
        """Decode :meth:`to_bytes` output.

        Raises ``ValueError`` unless the magic, the digest, the schema
        and the array table all check out.
        """
        view = memoryview(raw)
        if len(view) < _PREFIX_LEN or bytes(view[: len(TRACE_MAGIC)]) != TRACE_MAGIC:
            raise ValueError("not a trace buffer")
        digest = bytes(view[len(TRACE_MAGIC) : _DIGEST_END])
        if hashlib.sha256(view[_DIGEST_END:]).digest() != digest:
            raise ValueError("trace buffer digest mismatch")
        (head_len,) = _HEAD_LEN.unpack_from(view, _DIGEST_END)
        header = json.loads(bytes(view[_PREFIX_LEN : _PREFIX_LEN + head_len]))
        if not isinstance(header, dict):
            raise ValueError("trace header is not a JSON object")
        if header.get("schema") != TRACE_SCHEMA_VERSION:
            raise ValueError(f"unsupported trace schema {header.get('schema')!r}")
        body = _BodyReader(header["arrays"], view[_PREFIX_LEN + head_len :])
        params = header["params"]
        trace = cls(
            n_aircraft=params["n"],
            seed=params["seed"],
            periods=params["periods"],
            mode=DetectionMode(params["mode"]),
            dropout=params["dropout"],
            clutter=params["clutter"],
            pruning=params["pruning"],
            period_records=[
                _take_period(rec, f"periods.{i}", body)
                for i, rec in enumerate(header["periods"])
            ],
            collision=_take_collision(header["collision"], body),
        )
        body.finish()
        return trace


def trace_key(
    *,
    n: int,
    seed: int,
    periods: int,
    mode: Any,
    dropout: float = 0.0,
    clutter: int = 0,
    pruning: Any = "off",
) -> str:
    """Canonical fingerprint of one functional-trace cell.

    Uses the same machinery as the result cache
    (:func:`repro.core.canonical.fingerprint_of`); the library version is
    included because a release may change the functional algorithms.
    ``pruning`` is a candidate-pruning policy; the key holds its
    *effective* setting at ``n``, so an ``auto`` policy below the
    threshold shares artifacts with an explicit ``off``.
    """
    from .. import __version__
    from .canonical import fingerprint_of
    from .sweepline import resolve_pruning

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
                "pruning": "on" if resolve_pruning(pruning, n) else "off",
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
