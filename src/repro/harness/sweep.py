"""Measurement sweeps: run the ATM tasks across fleet sizes and platforms.

The measurement protocol follows the paper's Section 6.1: for each fleet
size the tasks are individually timed and reported as the average over
the executed iterations (Task 1 runs every period; Task 2+3 once per
major cycle).  All platforms measure against bit-identical fleet
evolutions, so their curves are directly comparable.

Each (backend, fleet-size) cell is a *pure function* of the registry
name and the task parameters: ``measure_platform`` resolves a fresh
backend instance per call, so cells are order-independent and can be
cached (:mod:`repro.harness.cache`) or sharded across worker processes
(:mod:`repro.harness.parallel`) without changing a single output bit.
``sweep(..., jobs=N)`` — or an ambient
:func:`~repro.harness.parallel.sweep_options` block — turns both on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..backends.base import Backend
from ..backends.registry import resolve_backend
from ..core.canonical import canonical_json
from ..core.collision import DetectionMode
from ..core.trace import (
    DEFAULT_TRACE_BUDGET,
    CollisionRecord,
    FunctionalTrace,
    collision_nbytes,
    compute_trace,
    estimate_trace_bytes,
    period_nbytes,
    stream_trace,
    trace_key,
    trace_nbytes,
)
from ..core.types import TaskTiming
from ..analysis.deadlines import record_cell_metrics
from ..obs import span as obs_span
from ..obs.metrics import metric_inc, metric_set
from .cache import CellStore
from .parallel import _probe_stores, current_options, measure_cells

__all__ = [
    "DEFAULT_NS_ALL_PLATFORMS",
    "DEFAULT_NS_NVIDIA",
    "PlatformMeasurement",
    "SweepData",
    "measure_platform",
    "sweep",
]

#: Fleet sizes for the all-platform figures (multiples of the 96-PE /
#: 96-thread unit, as in the paper's block-setup rule).
DEFAULT_NS_ALL_PLATFORMS: tuple = (96, 480, 960, 1440, 1920, 2880, 3840)

#: Fleet sizes for the NVIDIA-only figures (the cards scale further).
DEFAULT_NS_NVIDIA: tuple = (96, 480, 960, 1920, 2880, 3840, 5760)


@dataclass
class PlatformMeasurement:
    """Averaged task timings of one platform at one fleet size."""

    platform: str
    n_aircraft: int
    task1_seconds: List[float]
    task23: TaskTiming

    @property
    def task1_mean_s(self) -> float:
        return float(np.mean(self.task1_seconds))

    @property
    def task1_max_s(self) -> float:
        return float(np.max(self.task1_seconds))

    @property
    def task23_s(self) -> float:
        return self.task23.seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; exact inverse of :meth:`from_dict`."""
        return {
            "platform": self.platform,
            "n_aircraft": int(self.n_aircraft),
            "task1_seconds": [float(s) for s in self.task1_seconds],
            "task23": self.task23.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlatformMeasurement":
        return cls(
            platform=data["platform"],
            n_aircraft=int(data["n_aircraft"]),
            task1_seconds=[float(s) for s in data["task1_seconds"]],
            task23=TaskTiming.from_dict(data["task23"]),
        )


# ---------------------------------------------------------------------------
# the shared functional-trace tier (see docs/performance.md)
# ---------------------------------------------------------------------------

#: In-process memo of recent traces, keyed by ``trace_key``.  Small and
#: bounded: a sweep touches each fleet size once per backend, so holding
#: the last few cells lets all backends share one functional pass.
_TRACE_MEMO: "OrderedDict[str, FunctionalTrace]" = OrderedDict()
_TRACE_MEMO_CAPACITY = 16


def _remember_trace(trace: FunctionalTrace, traces: Any = None) -> None:
    """Admit ``trace`` to the memo (LRU) and the on-disk tier if given.

    ``DEFAULT_TRACE_BUDGET`` — this module's binding, the one budget the
    harness reads — gates both tiers: a trace above the resident bound
    is never memoized (the streaming replay path serves such cells), and
    one above the payload bound is never serialized to the store.  The
    store is written only when it has no entry file under the key, which
    a plain stat tells: no verified read, no counted miss.
    """
    nbytes = trace_nbytes(trace)
    key = trace.key()
    if (
        traces is not None
        and DEFAULT_TRACE_BUDGET.allows_payload(nbytes)
        and key not in traces
    ):
        traces.put(key, trace)
    if not DEFAULT_TRACE_BUDGET.allows_resident(nbytes):
        return
    _TRACE_MEMO[key] = trace
    _TRACE_MEMO.move_to_end(key)
    while len(_TRACE_MEMO) > _TRACE_MEMO_CAPACITY:
        _TRACE_MEMO.popitem(last=False)


def _lookup_trace(
    n: int,
    *,
    seed: int,
    periods: int,
    mode: Any,
    traces: Any,
    pruning: Any = "off",
) -> Optional[FunctionalTrace]:
    """Memo-then-store lookup of one cell's trace; None when absent.

    Hits emit a ``harness.trace`` span (source ``memo``/``store``) and
    count it in ``atm_trace_requests``; misses emit nothing — whoever
    computes the trace owns the ``compute``/``pool`` span.  A memo hit
    also writes the trace to ``traces`` when that store lacks it (it may
    have been computed before the store was in scope).  ``pruning`` may
    be a policy ("auto"); the key resolves it at ``n``.
    """
    key = trace_key(n=n, seed=seed, periods=periods, mode=mode, pruning=pruning)
    trace = _TRACE_MEMO.get(key)
    if trace is not None:
        _TRACE_MEMO.move_to_end(key)
        source = "memo"
        if traces is not None:
            _remember_trace(trace, traces)
    elif traces is not None:
        trace = traces.get(key)
        if trace is None:
            return None
        source = "store"
        _remember_trace(trace)
    else:
        return None
    with obs_span("harness.trace", cat="harness", n_aircraft=n, source=source):
        pass
    metric_inc("atm_trace_requests", source=source)
    return trace


def _compute_trace(
    n: int, *, seed: int, periods: int, mode: Any, traces: Any, pruning: Any = "off"
) -> FunctionalTrace:
    """A fresh functional pass of the cell, remembered in memo and store.

    The one ``compute`` step, under its ``harness.trace`` span and its
    ``atm_trace_requests`` count: a cell whose lookup missed and a trace
    prefetch the pool gave up on both end here, without probing again.
    """
    with obs_span("harness.trace", cat="harness", n_aircraft=n, source="compute"):
        trace = compute_trace(n, seed=seed, periods=periods, mode=mode, pruning=pruning)
    metric_inc("atm_trace_requests", source="compute")
    _remember_trace(trace, traces)
    return trace


def _private_pass(
    n: int, *, seed: int, periods: int, mode: Any, pruning: Any
) -> Iterator[Any]:
    """A functional pass of the cell's own, one record at a time.

    The caller replays each record and drops it, so at most one period
    of trace plus the live fleet is resident — the records are the ones
    :func:`~repro.core.trace.compute_trace` would have materialized.
    """
    peak = 0
    with obs_span("harness.trace", cat="harness", n_aircraft=n, source="stream"):
        for record in stream_trace(
            n, seed=seed, periods=periods, mode=mode, pruning=pruning
        ):
            if isinstance(record, CollisionRecord):
                peak = max(peak, collision_nbytes(record))
            else:
                peak = max(peak, period_nbytes(record))
            yield record
    metric_inc("atm_trace_requests", source="stream")
    metric_set("atm_trace_peak_bytes", float(peak), path="streamed")


def _cell_records(
    n: int, *, seed: int, periods: int, mode: Any, trace: Any, pruning: Any
) -> Iterable[Any]:
    """The functional records one cell's cost replay consumes, in order:
    ``periods`` :class:`~repro.core.trace.TracePeriod` records, then the
    :class:`~repro.core.trace.CollisionRecord`.

    A given :class:`~repro.core.trace.FunctionalTrace` is replayed as
    is.  Otherwise (``trace`` is None) one rule picks the records: the
    trace shared by every backend at this fleet size (memo, then the
    ambient ``TraceStore``, then ``compute_trace``) when it fits the
    resident budget, else a private streamed pass.
    """
    if trace is None:
        if not DEFAULT_TRACE_BUDGET.allows_resident(estimate_trace_bytes(n, periods)):
            return _private_pass(
                n, seed=seed, periods=periods, mode=mode, pruning=pruning
            )
        cell = dict(
            seed=seed, periods=periods, mode=mode,
            traces=current_options().traces, pruning=pruning,
        )
        trace = _lookup_trace(n, **cell)
        if trace is None:
            trace = _compute_trace(n, **cell)
    elif not isinstance(trace, FunctionalTrace):
        raise TypeError(f"trace must be a FunctionalTrace, got {type(trace)!r}")
    elif not trace.matches(n=n, seed=seed, periods=periods, mode=mode):
        raise ValueError(
            "trace does not cover the requested measurement cell "
            f"(trace: n={trace.n_aircraft} seed={trace.seed} "
            f"periods={trace.periods} mode={trace.mode}; requested: "
            f"n={n} seed={seed} periods={periods} mode={mode})"
        )
    return [*trace.period_records, trace.collision]


def _replay(backend: Backend, n: int, records: Iterable[Any]) -> PlatformMeasurement:
    """Charge one cell's functional records to ``backend``'s cost ledgers.

    The one replay loop of every fresh cell, in :func:`measure_platform`
    and in a pool worker alike.  The deadline SLO monitor sees each
    freshly-measured cell here; cells served from a store tier or the
    pool record via ``_emit_shard``, so each returned measurement is
    recorded exactly once per process.
    """
    task1: List[float] = []
    t23 = None
    for record in records:
        if isinstance(record, CollisionRecord):
            t23 = backend.collision_timing_from_trace(record)
        else:
            task1.append(backend.track_timing_from_trace(record).seconds)
    record_cell_metrics(backend.name, n, task1, t23.seconds)
    return PlatformMeasurement(
        platform=backend.name,
        n_aircraft=n,
        task1_seconds=task1,
        task23=t23,
    )


def measure_platform(
    backend: Union[str, Backend],
    n: int,
    *,
    seed: int = 2018,
    periods: int = 3,
    mode: DetectionMode = DetectionMode.SIGNED,
    cache: Any = None,
    trace: Any = None,
    journal: Any = None,
    pruning: Any = None,
) -> PlatformMeasurement:
    """Run ``periods`` tracking periods plus one collision pass.

    The fleet flies and is tracked for ``periods`` half-seconds first, so
    the collision pass sees a realistically-evolved state rather than the
    pristine initial layout.  Every cell is measured one way: the
    functional records of that run (see :func:`_cell_records`) are
    charged to the backend's cost ledgers in one replay loop.

    ``cache`` is a :class:`~repro.harness.cache.ResultCache` to memoize
    through, ``None`` to use the ambient
    :func:`~repro.harness.parallel.sweep_options` cache, or ``False`` to
    force a fresh measurement.  The cache and the journal (below) are
    the tiers of one :class:`~repro.harness.cache.CellStore`, probed
    cache first; a fresh cell is written to both.  Storing applies when
    the backend came from a registry name (a fresh instance is
    resolved, so the cell is a pure function of the name) or advertises
    ``deterministic_timing``; a stateful instance — the MIMD model
    mid-experiment — is never served from or written to the store.

    ``trace`` is a :class:`~repro.core.trace.FunctionalTrace` to replay
    as is (it must match the task parameters), or ``None`` for the one
    rule of :func:`_cell_records`: the trace shared per fleet size when
    it fits the resident budget, else a private streamed pass.  Both
    return byte-identical measurements — the equivalence tests compare
    them with the backend's direct task calls.  ``False`` means the same
    as ``None``: the repository benchmark's own test
    (perfbench/tests/test_layers.py) still passes it.

    ``journal`` is a :class:`~repro.service.journal.RequestJournal` to
    checkpoint the cell in (a ``served`` line) and, when resuming, to
    serve it from; ``None`` uses the ambient journal, and ``False``
    neither — the sweep engine passes ``False`` because it owns all
    store traffic itself.

    ``pruning`` is a candidate-pruning policy ("auto"/"on"/"off" or a
    :class:`~repro.core.sweepline.PruningPolicy`), ``None`` for the
    ambient one.  Functional results are bit-identical either way; the
    *effective* setting at this ``n`` participates in the cache key.
    """
    if periods < 1:
        raise ValueError("need at least one tracking period")
    opts = current_options()
    resolved_cache = opts.cache if cache is None else (cache or None)
    pruning_policy = opts.pruning if pruning is None else str(
        getattr(pruning, "value", pruning)
    )
    store = CellStore(
        cache=resolved_cache,
        journal=opts.journal if journal is None else (
            None if journal is False else journal
        ),
    )
    spec = backend
    backend = resolve_backend(spec)
    # A hit elides the measurement and with it the task spans, so the
    # probe emits a shard span that keeps warm traces fully attributed.
    key, stored = _probe_stores(
        spec, backend, n, seed=seed, periods=periods, mode=mode,
        pruning=pruning_policy, jobs=opts.jobs, store=store,
    )
    if stored is not None:
        return stored
    measurement = _replay(backend, n, _cell_records(
        n, seed=seed, periods=periods, mode=mode,
        trace=None if trace is False else trace, pruning=pruning_policy,
    ))
    if key is not None:
        store.put(key, measurement)
    return measurement


@dataclass
class SweepData:
    """Task timings for several platforms across a fleet-size axis."""

    ns: tuple
    #: platform -> list of measurements aligned with ``ns``.
    measurements: Dict[str, List[PlatformMeasurement]] = field(default_factory=dict)

    def task1_series(self, platform: str) -> List[float]:
        return [m.task1_mean_s for m in self.measurements[platform]]

    def task23_series(self, platform: str) -> List[float]:
        return [m.task23_s for m in self.measurements[platform]]

    def platforms(self) -> List[str]:
        return list(self.measurements)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; exact inverse of :meth:`from_dict`."""
        return {
            "ns": [int(n) for n in self.ns],
            "measurements": {
                platform: [m.to_dict() for m in rows]
                for platform, rows in self.measurements.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepData":
        return cls(
            ns=tuple(int(n) for n in data["ns"]),
            measurements={
                platform: [PlatformMeasurement.from_dict(m) for m in rows]
                for platform, rows in data["measurements"].items()
            },
        )

    def to_canonical_json(self) -> str:
        """Deterministic serialization; byte-equal for equal sweeps.

        This is the form the parallel-determinism tests compare: a
        ``jobs=4`` sweep must produce the same bytes as ``jobs=1``.
        """
        return canonical_json(self.to_dict())


def sweep(
    backends: Sequence[Union[str, Backend]],
    ns: Sequence[int] = DEFAULT_NS_ALL_PLATFORMS,
    *,
    seed: int = 2018,
    periods: int = 3,
    mode: DetectionMode = DetectionMode.SIGNED,
    jobs: Optional[int] = None,
    cache: Any = None,
    trace: Optional[bool] = None,
    pruning: Optional[str] = None,
) -> SweepData:
    """Measure every backend at every fleet size.

    ``jobs``/``cache``/``pruning`` default to the ambient
    :func:`~repro.harness.parallel.sweep_options`; pass ``jobs>1`` to
    shard cells across worker processes, a
    :class:`~repro.harness.cache.ResultCache` (or ``False``) to
    override the ambient cache — with the ambient journal, the tiers of
    the sweep's cell store — and ``pruning`` to set the
    candidate-pruning policy ("auto"/"on"/"off"; outputs are
    bit-identical either way).  The result is merged by matrix
    position, so its :meth:`SweepData.to_canonical_json` bytes do not
    depend on the worker count, the trace tier that served a cell, or
    scheduling order.

    Every cell gets its records by one rule (:func:`_cell_records`), so
    ``trace`` selects nothing: it takes only ``None`` or ``True``, both
    meaning that rule, because the repository benchmark
    (perfbench/batch.py) passes ``trace=True``.  Any other value raises
    ``ValueError``.
    """
    if trace is not None and trace is not True:
        raise ValueError(
            f"sweep(trace=) takes only None or True, got {trace!r}: every"
            " cell replays the trace shared per fleet size, or a private"
            " streamed pass when that trace exceeds the resident budget"
        )
    opts = current_options()
    jobs = opts.jobs if jobs is None else max(1, int(jobs))
    resolved_cache = opts.cache if cache is None else (cache or None)
    from .parallel import sweep_options

    with sweep_options(pruning=pruning):
        names, rows = measure_cells(
            list(backends),
            tuple(ns),
            seed=seed,
            periods=periods,
            mode=mode,
            jobs=jobs,
            store=CellStore(cache=resolved_cache, journal=opts.journal),
        )
    data = SweepData(ns=tuple(ns))
    for name, platform_rows in zip(names, rows):
        data.measurements[name] = platform_rows
    return data
