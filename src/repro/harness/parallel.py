"""Sharded execution of the measurement matrix, with deterministic merge.

The paper's sweep figures time every platform at every fleet size.  The
cells of that (backend, n) matrix are independent — each one builds its
own fleet from the master seed and its own backend instance from the
registry — so they can run anywhere in any order.  This module is the
engine behind ``sweep(..., jobs=N)``:

* every cell is a **shard**: ``(registry name, fleet size)`` plus the
  shared task parameters;
* shards whose key is in the :class:`~repro.harness.cache.CellStore` —
  its memory tier, its :class:`~repro.harness.cache.ResultCache` or a
  resumed checkpoint journal — are served in the parent process
  without touching a cost model, and every fresh cell is committed to
  the same store;
* remaining shards run on a ``ProcessPoolExecutor`` when ``jobs > 1``
  (registry-name specs only — live :class:`~repro.backends.base.Backend`
  *instances* may carry state, so they always run in the parent, in
  submission order);
* results are merged **by matrix position, never by completion order**,
  so the assembled :class:`~repro.harness.sweep.SweepData` is
  byte-identical for any worker count — the parallel-determinism tests
  assert exactly that.

**Fault tolerance.**  The executor survives dying workers, hung shards
and transient I/O errors (docs/robustness.md): a failed shard retries
under the ambient :class:`~repro.harness.faults.RetryPolicy` with
deterministic backoff; a crashed worker breaks the whole
``ProcessPoolExecutor``, so the pool is rebuilt (bounded times) and the
uncollected shards resubmitted; when the rebuild budget is exhausted —
a worker that dies repeatedly — the remaining shards degrade to inline
execution in the parent.  Because every cell is a pure function of its
arguments, **any path that eventually completes produces the same
bytes**, so the determinism contract extends across the fault paths.
Faults can be injected deterministically for tests and chaos runs via
``sweep_options(faults=FaultPlan(...))`` or
``atm-repro report --inject-faults SPEC``.

Every shard emits one ``harness.shard`` span (category ``harness``) on
the parent's :mod:`repro.obs` collector, carrying the platform, fleet
size, result source (the store tier ``memory`` / ``cache`` /
``journal``, or ``pool`` / ``inline``) and the shard's modelled
seconds, and counts the source in ``atm_shards``; every failure emits a
``harness.fault`` span counted in ``atm_faults``.  Pool workers ship
their spans and their operational metrics home.  See
docs/parallel-and-caching.md.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.deadlines import record_cell_metrics
from ..obs import SpanRecord
from ..obs import get_collector as obs_get_collector
from ..obs import is_active as obs_is_active
from ..obs import span as obs_span
from ..obs.metrics import get_registry, metric_inc
from .cache import CellStore, ResultCache, TraceStore
from .faults import FaultPlan, RetryPolicy, fault_span

if TYPE_CHECKING:  # pragma: no cover - the service package is imported lazily
    from ..service.journal import RequestJournal

__all__ = [
    "SweepOptions",
    "current_options",
    "sweep_options",
    "measure_cells",
]


# ---------------------------------------------------------------------------
# ambient options: how the harness should execute sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepOptions:
    """Ambient execution policy consulted by ``sweep``/``measure_platform``.

    Installed with :func:`sweep_options`; the report runner uses this to
    thread ``--jobs``/``--cache-dir``/``--inject-faults``/``--resume``
    through every experiment without widening each generator's
    signature.
    """

    #: worker processes for sweep shards (1 = serial, in-process).
    jobs: int = 1
    #: result cache, or None to measure everything.
    cache: Optional[ResultCache] = None
    #: share one functional trace per fleet size across every backend's
    #: cost replay (see docs/performance.md).  Off = every cell replays
    #: from a private functional pass of its own; bytes are identical.
    trace: bool = True
    #: on-disk tier for functional traces, or None for in-process only.
    traces: Optional[TraceStore] = None
    #: candidate-pruning policy for functional passes ("auto"/"on"/"off";
    #: see repro.core.sweepline).  Outputs are bit-identical either way.
    pruning: str = "auto"
    #: memory envelope for trace materialization/shipping, or None for
    #: the default (repro.core.trace.DEFAULT_TRACE_BUDGET).
    trace_budget: Optional[Any] = None
    #: retry/backoff/timeout policy for failed shards.
    retry: RetryPolicy = RetryPolicy()
    #: deterministic fault injector (chaos tests, --inject-faults).
    faults: Optional[FaultPlan] = None
    #: checkpoint journal of finished cells (--resume), the slowest
    #: tier of every cell store the engine builds, or None.
    journal: Optional["RequestJournal"] = None


_OPTIONS: ContextVar[SweepOptions] = ContextVar(
    "repro_sweep_options", default=SweepOptions()
)

#: sentinel distinguishing "not passed" from an explicit None/False.
_KEEP = object()


def _resolve(value: Any, base: Any) -> Any:
    """Option resolution: _KEEP inherits, None/False disable, else use.

    Identity checks on purpose — a perfectly valid store or journal may
    be *empty* (``len() == 0``), and emptiness must not read as "off".
    """
    if value is _KEEP:
        return base
    if value is None or value is False:
        return None
    return value


def current_options() -> SweepOptions:
    """The ambient :class:`SweepOptions` (defaults: serial, no cache)."""
    return _OPTIONS.get()


@contextmanager
def sweep_options(
    *,
    jobs: Optional[int] = None,
    cache: Any = _KEEP,
    trace: Optional[bool] = None,
    traces: Any = _KEEP,
    pruning: Optional[str] = None,
    trace_budget: Any = _KEEP,
    retry: Optional[RetryPolicy] = None,
    faults: Any = _KEEP,
    journal: Any = _KEEP,
) -> Iterator[SweepOptions]:
    """Scope different sweep-execution options over a ``with`` block."""
    base = _OPTIONS.get()
    new = SweepOptions(
        jobs=base.jobs if jobs is None else max(1, int(jobs)),
        cache=_resolve(cache, base.cache),
        trace=base.trace if trace is None else bool(trace),
        traces=_resolve(traces, base.traces),
        pruning=base.pruning if pruning is None else str(
            getattr(pruning, "value", pruning)
        ),
        trace_budget=_resolve(trace_budget, base.trace_budget),
        retry=base.retry if retry is None else retry,
        faults=_resolve(faults, base.faults),
        journal=_resolve(journal, base.journal),
    )
    token = _OPTIONS.set(new)
    try:
        yield new
    finally:
        _OPTIONS.reset(token)


# ---------------------------------------------------------------------------
# the shard worker (runs in pool processes; must stay module-level picklable)
# ---------------------------------------------------------------------------


def _obey_fault_directive(inject: Optional[Tuple[str, float]]) -> None:
    """Realise a parent-issued fault directive inside a worker process.

    The parent's FaultPlan makes every decision; the worker just obeys,
    so shard results stay pure functions of the argument tuple.
    """
    if inject is None:
        return
    kind, param = inject
    if kind == "crash":
        import os as _os

        _os._exit(3)
    elif kind == "timeout":
        time.sleep(param)
    elif kind == "oserror":
        raise OSError("injected transient fault")


def _measure_shard(
    spec: str,
    n: int,
    seed: int,
    periods: int,
    mode_value: str,
    trace_payload: Optional[Any] = None,
    inject: Optional[Tuple[str, float]] = None,
    collect: bool = False,
    pruning: str = "auto",
    metrics: bool = False,
) -> Dict[str, Any]:
    """Measure one (registry name, fleet size) cell; return its dict form
    as ``{"measurement": ..., "obs": ..., "metrics": ...}``.

    Runs in a worker process: resolves a *fresh* backend from the
    registry, so the cell is a pure function of its arguments, and
    returns plain JSON-able data (never pickled numpy state).  The
    worker never touches the cache — the parent owns all cache traffic
    so hit/miss counters and writes stay in one process.

    ``trace_payload`` is the dict form of the cell's
    :class:`~repro.core.trace.FunctionalTrace` (the parent computes each
    distinct fleet size once, possibly on this same pool); the worker
    replays cost models from it.  Without one — the trace engine is off,
    or the payload would exceed the trace budget's shipping bound — the
    worker streams a private functional pass under ``pruning``.  Workers
    never consult ambient policy, so shard results are pure functions of
    the argument tuple.

    ``inject`` is a parent-issued chaos directive ``(kind, param)``
    realised before any work happens: ``crash`` kills this process,
    ``timeout`` sleeps ``param`` seconds (then proceeds normally),
    ``oserror`` raises a transient ``OSError``.

    ``collect=True`` runs the cell under a private in-worker collector
    and returns its ``{spans, events}`` under ``"obs"`` (else None), so
    the parent can adopt the worker's task/kernel spans under its shard
    span (:meth:`~repro.obs.Collector.adopt`) and the merged trace looks
    the same as a serial run's.  ``metrics=True`` likewise records into
    a private registry and returns its snapshot under ``"metrics"``,
    without the deterministic families: the parent records each pool
    cell's deadline series itself, in ``_emit_shard``.
    """
    _obey_fault_directive(inject)
    from ..core.collision import DetectionMode
    from ..core.trace import FunctionalTrace
    from ..obs import Collector, collecting
    from ..obs.metrics import recording
    from .sweep import measure_platform

    trace = False if trace_payload is None else FunctionalTrace.from_dict(trace_payload)
    with ExitStack() as scopes:
        c = scopes.enter_context(collecting(Collector())) if collect else None
        r = scopes.enter_context(recording()) if metrics else None
        m = measure_platform(
            spec,
            n,
            seed=seed,
            periods=periods,
            mode=DetectionMode(mode_value),
            cache=False,
            trace=trace,
            journal=False,
            pruning=pruning,
        )
    return {
        "measurement": m.to_dict(),
        "obs": None if c is None else {
            "spans": [s.to_event() for s in c.spans],
            "events": c.events,
        },
        "metrics": None if r is None else {
            "families": {
                name: family
                for name, family in r.snapshot()["families"].items()
                if not family["deterministic"]
            }
        },
    }


def _compute_trace_shard(
    n: int,
    seed: int,
    periods: int,
    mode_value: str,
    pruning: str = "auto",
) -> Dict[str, Any]:
    """Run the functional simulation for one fleet size in a worker."""
    from ..core.collision import DetectionMode
    from ..core.trace import compute_trace

    return compute_trace(
        n,
        seed=seed,
        periods=periods,
        mode=DetectionMode(mode_value),
        pruning=pruning,
    ).to_dict()


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _modelled_seconds(measurement) -> float:
    return float(sum(measurement.task1_seconds)) + float(measurement.task23.seconds)


def _emit_shard(
    platform: str,
    n: int,
    source: str,
    jobs: int,
    measurement,
    worker_obs: Optional[Dict[str, Any]] = None,
) -> None:
    """Per shard: one ``harness.shard`` span, its ``atm_shards`` count, SLO metrics.

    ``worker_obs`` is the observability payload a pool worker collected
    under ``_measure_shard(collect=True)``; its spans and events are
    adopted under this shard span, so the parent trace carries the
    worker's task/kernel subtree exactly as a serial run would.  The
    deadline metrics are labeled only by (platform, n, logical source),
    never by the shard source, so the deterministic snapshot is
    byte-identical whichever path served the cell.
    """
    collector = obs_get_collector()
    with obs_span(
        "harness.shard",
        cat="harness",
        platform=platform,
        n_aircraft=n,
        source=source,
        jobs=jobs,
    ) as sp:
        sp.add_modelled(_modelled_seconds(measurement))
    if worker_obs is not None and collector is not None:
        collector.adopt(
            [SpanRecord.from_event(e) for e in worker_obs["spans"]],
            worker_obs["events"],
            parent_id=sp.span_id,
            wall_offset_s=sp._t0 - collector.epoch,
        )
    metric_inc("atm_shards", source=source)
    # Cells served without running measure_platform in this process
    # (cache / journal / pool) record their deadline metrics here —
    # exactly once per returned cell.  Freshly-computed cells record
    # inside measure_platform instead.  Worker-collected traces already
    # carry the deadline.miss events, so suppress re-emission then.
    record_cell_metrics(
        platform,
        n,
        measurement.task1_seconds,
        measurement.task23.seconds,
        events=worker_obs is None,
    )


def _probe_stores(
    spec: Any,
    backend: Any,
    n: int,
    *,
    seed: int,
    periods: int,
    mode: Any,
    pruning: str,
    jobs: int,
    store: CellStore,
) -> Tuple[Optional[str], Any]:
    """The cell's store key and its stored measurement, if any.

    The key is None when the store has no tier or the cell is not pure:
    only a registry name (a fresh backend per cell) or a backend with
    deterministic timing is stored, never a stateful instance such as
    the MIMD model mid-experiment.  A hit emits the cell's shard, whose
    source is the tier that held it (``memory``/``cache``/``journal``).
    """
    if not store.enabled or not (
        isinstance(spec, str) or backend.deterministic_timing
    ):
        return None, None
    key = ResultCache.key_for(
        backend,
        n=n,
        seed=seed,
        periods=periods,
        mode=mode,
        pruning=pruning,
    )
    hit, tier = store.get(key)
    if hit is not None:
        _emit_shard(backend.name, n, tier, jobs, hit)
    return key, hit


def _shard_id(platform: str, n: int) -> str:
    """Stable identity of one cell for fault-plan decisions."""
    return f"{platform}@{n}"


class _PoolBox:
    """A ProcessPoolExecutor plus its bounded rebuild budget.

    A crashed worker breaks the *whole* pool (``BrokenProcessPool``
    fails every outstanding future), so recovery means building a fresh
    pool and resubmitting the uncollected shards.  The budget bounds
    how often that is worth doing before the executor gives up on pool
    execution entirely and degrades to inline.
    """

    def __init__(self, jobs: int, rebuild_budget: int) -> None:
        self.jobs = jobs
        self.rebuild_budget = max(1, int(rebuild_budget))
        self.rebuilds = 0
        self.pool = ProcessPoolExecutor(max_workers=jobs)

    def rebuild(self) -> bool:
        """Replace a broken pool; False when the budget is exhausted."""
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.rebuilds += 1
        if self.rebuilds >= self.rebuild_budget:
            return False
        self.pool = ProcessPoolExecutor(max_workers=self.jobs)
        return True

    def shutdown(self) -> None:
        self.pool.shutdown(wait=True)


def _pool_trace_payloads(
    box: _PoolBox,
    wanted_ns: List[int],
    *,
    seed: int,
    periods: int,
    mode: Any,
    mode_value: str,
    jobs: int,
    opts: SweepOptions,
) -> Dict[int, Dict[str, Any]]:
    """Each distinct fleet size's functional trace, computed once.

    Sharded across the pool; a pool failure here falls back to an
    inline functional pass (counted), never aborts the sweep.  Cells
    whose trace would exceed the budget's shipping bound get no payload
    — each worker streams its own (pruned) pass rather than receive a
    multi-GB dict.
    """
    from ..core.trace import (
        DEFAULT_TRACE_BUDGET,
        FunctionalTrace,
        compute_trace,
        estimate_trace_bytes,
    )
    from .sweep import _lookup_trace, _remember_trace

    budget = opts.trace_budget or DEFAULT_TRACE_BUDGET
    payload_by_n: Dict[int, Dict[str, Any]] = {}
    missing: List[int] = []
    for n_val in wanted_ns:
        if not budget.allows_payload(estimate_trace_bytes(n_val, periods)):
            continue
        t = _lookup_trace(
            n_val,
            seed=seed,
            periods=periods,
            mode=mode,
            traces=opts.traces,
            pruning=opts.pruning,
        )
        if t is not None:
            payload_by_n[n_val] = t.to_dict()
        else:
            missing.append(n_val)
    trace_futures = [
        (
            n_val,
            box.pool.submit(
                _compute_trace_shard,
                n_val,
                seed,
                periods,
                mode_value,
                opts.pruning,
            ),
        )
        for n_val in missing
    ]
    broken = False
    for n_val, future in trace_futures:
        source = "pool"
        if broken:
            payload = None
        else:
            try:
                payload = future.result()
            except (BrokenProcessPool, OSError):
                fault_span("worker-crash", stage="trace", n_aircraft=n_val)
                broken = True
                payload = None
        if payload is None:
            fault_span("degraded-to-inline", stage="trace", n_aircraft=n_val)
            source = "compute"
            payload = compute_trace(
                n_val,
                seed=seed,
                periods=periods,
                mode=mode,
                pruning=opts.pruning,
            ).to_dict()
        with obs_span(
            "harness.trace",
            cat="harness",
            n_aircraft=n_val,
            source=source,
            jobs=jobs,
        ):
            pass
        metric_inc("atm_trace_requests", source=source)
        payload_by_n[n_val] = payload
        _remember_trace(
            FunctionalTrace.from_dict(payload), opts.traces, budget=budget
        )
    if broken and not box.rebuild():
        raise _PoolGone
    return payload_by_n


class _PoolGone(Exception):
    """Internal: the pool rebuild budget is exhausted; degrade to inline."""


def _execute_pool_shards(
    poolable: List[Tuple[int, int, Any, Optional[str]]],
    names: List[str],
    ns: Sequence[int],
    rows: List[List[Any]],
    *,
    seed: int,
    periods: int,
    mode: Any,
    mode_value: str,
    jobs: int,
    store: CellStore,
    opts: SweepOptions,
) -> List[Tuple[int, int, Any, Optional[str]]]:
    """Run the poolable shards; return the ones degraded to inline.

    Results are collected **in submission order** (never completion
    order) and written straight into ``rows`` by matrix position.  A
    shard that exhausts its retry budget — or outlives the pool rebuild
    budget — is handed back for inline execution instead of aborting
    the sweep.
    """
    from .sweep import PlatformMeasurement

    retry = opts.retry
    plan = opts.faults
    box = _PoolBox(min(jobs, len(poolable)), rebuild_budget=retry.max_attempts)
    degraded: List[Tuple[int, int, Any, Optional[str]]] = []
    try:
        payload_by_n: Dict[int, Dict[str, Any]] = {}
        if opts.trace:
            try:
                payload_by_n = _pool_trace_payloads(
                    box,
                    sorted({ns[j] for (_, j, _, _) in poolable}),
                    seed=seed,
                    periods=periods,
                    mode=mode,
                    mode_value=mode_value,
                    jobs=jobs,
                    opts=opts,
                )
            except _PoolGone:
                for shard in poolable:
                    fault_span(
                        "degraded-to-inline",
                        platform=names[shard[0]], n_aircraft=ns[shard[1]],
                    )
                return poolable

        attempts = [0] * len(poolable)
        # Ship worker traces home only when someone is listening.
        collect = obs_is_active()
        registry = get_registry()

        def submit(idx: int):
            i, j, spec, _ = poolable[idx]
            inject = None
            if plan is not None:
                kind = plan.worker_fault(_shard_id(names[i], ns[j]), attempts[idx])
                if kind is not None:
                    metric_inc("atm_faults", kind="injected")
                    inject = (kind, plan.hang_s)
            return box.pool.submit(
                _measure_shard,
                spec,
                ns[j],
                seed,
                periods,
                mode_value,
                payload_by_n.get(ns[j]),
                inject,
                collect,
                opts.pruning,
                registry is not None,
            )

        futures = [submit(idx) for idx in range(len(poolable))]

        for idx in range(len(poolable)):
            i, j, spec, key = poolable[idx]
            shard_attrs = dict(platform=names[i], n_aircraft=ns[j])
            result: Optional[Dict[str, Any]] = None
            while result is None:
                try:
                    result = futures[idx].result(timeout=retry.timeout_s)
                except FuturesTimeout:
                    fault_span("timeout", attempt=attempts[idx], **shard_attrs)
                except BrokenProcessPool:
                    fault_span(
                        "worker-crash", attempt=attempts[idx], **shard_attrs
                    )
                    if not box.rebuild():
                        # The pool keeps dying: run everything still
                        # uncollected in the parent instead.
                        remaining = poolable[idx:]
                        for shard in remaining:
                            fault_span(
                                "degraded-to-inline",
                                platform=names[shard[0]],
                                n_aircraft=ns[shard[1]],
                            )
                        degraded.extend(remaining)
                        return degraded
                    # Fresh pool: resubmit every uncollected shard (their
                    # futures died with the old pool).
                    attempts[idx] += 1
                    metric_inc("atm_faults", kind="retries")
                    time.sleep(retry.backoff_for(attempts[idx] - 1))
                    for k in range(idx, len(poolable)):
                        futures[k] = submit(k)
                    continue
                except OSError as exc:
                    fault_span(
                        "os-error",
                        attempt=attempts[idx], error=str(exc), **shard_attrs,
                    )
                else:
                    continue
                # timeout or transient OSError: retry this shard alone.
                attempts[idx] += 1
                if attempts[idx] >= retry.max_attempts:
                    fault_span("degraded-to-inline", **shard_attrs)
                    degraded.append(poolable[idx])
                    break
                metric_inc("atm_faults", kind="retries")
                time.sleep(retry.backoff_for(attempts[idx] - 1))
                futures[idx] = submit(idx)
            if result is None:
                continue  # degraded; the inline loop finishes it
            m = PlatformMeasurement.from_dict(result["measurement"])
            _emit_shard(names[i], ns[j], "pool", jobs, m, worker_obs=result["obs"])
            if result["metrics"] is not None:
                registry.load_snapshot(result["metrics"])
            rows[i][j] = m
            if key is not None:
                store.put(key, m)
    finally:
        box.shutdown()
    return degraded


def measure_cells(
    specs: Sequence[Any],
    ns: Sequence[int],
    *,
    seed: int,
    periods: int,
    mode: Any,
    jobs: int = 1,
    store: Optional[CellStore] = None,
) -> Tuple[List[str], List[List[Any]]]:
    """Measure every (spec, n) cell of the sweep matrix.

    Returns ``(names, rows)`` where ``names[i]`` is the resolved
    platform name of ``specs[i]`` and ``rows[i][j]`` the measurement of
    ``specs[i]`` at ``ns[j]`` — positional, regardless of how and where
    each shard actually ran (a store tier, pool, inline, or any of the
    fault-recovery paths in between).

    ``store`` is the :class:`~repro.harness.cache.CellStore` every cell
    is probed in first and every fresh pure cell is committed to
    (inline and pool alike); None measures everything and stores
    nothing.
    """
    from ..backends.registry import resolve_backend
    from .sweep import PlatformMeasurement, measure_platform

    opts = current_options()
    retry = opts.retry
    plan = opts.faults
    store = store if store is not None else CellStore()
    jobs = max(1, int(jobs))
    resolved = [resolve_backend(spec) for spec in specs]
    names = [b.name for b in resolved]
    mode_value = str(getattr(mode, "value", mode))

    rows: List[List[Optional[PlatformMeasurement]]] = [
        [None] * len(ns) for _ in specs
    ]
    #: shards still to measure: (i, j, spec, cell key or None)
    pending: List[Tuple[int, int, Any, Optional[str]]] = []

    for i, spec in enumerate(specs):
        for j, n in enumerate(ns):
            key, rows[i][j] = _probe_stores(
                spec, resolved[i], n, seed=seed, periods=periods, mode=mode,
                pruning=opts.pruning, jobs=jobs, store=store,
            )
            if rows[i][j] is None:
                pending.append((i, j, spec, key))

    # Registry-name shards may cross the process boundary; instances run
    # in the parent (they can carry state the fork would then discard).
    poolable = [p for p in pending if isinstance(p[2], str)]
    inline = [p for p in pending if not isinstance(p[2], str)]

    if jobs > 1 and len(poolable) > 1:
        degraded = _execute_pool_shards(
            poolable,
            names,
            ns,
            rows,
            seed=seed,
            periods=periods,
            mode=mode,
            mode_value=mode_value,
            jobs=jobs,
            store=store,
            opts=opts,
        )
        inline = degraded + inline
    else:
        inline = poolable + inline  # preserve matrix order below

    for i, j, spec, key in sorted(inline, key=lambda p: (p[0], p[1])):
        sid = _shard_id(names[i], ns[j])
        attempt = 0
        while True:
            try:
                # Inline chaos is limited to transient OSErrors — a
                # "crash" here would kill the parent itself, and hangs
                # cannot be preempted in-process.
                if plan is not None and plan.should_inject("oserror", sid, attempt):
                    metric_inc("atm_faults", kind="injected")
                    raise OSError("injected transient fault")
                with obs_span(
                    "harness.shard",
                    cat="harness",
                    platform=names[i],
                    n_aircraft=ns[j],
                    source="inline",
                    jobs=jobs,
                ) as sp:
                    m = measure_platform(
                        spec, ns[j], seed=seed, periods=periods, mode=mode,
                        cache=False, journal=False,
                    )
                    sp.add_modelled(_modelled_seconds(m))
                break
            except OSError as exc:
                fault_span(
                    "os-error",
                    platform=names[i], n_aircraft=ns[j],
                    attempt=attempt, error=str(exc),
                )
                attempt += 1
                if attempt >= retry.max_attempts:
                    raise
                metric_inc("atm_faults", kind="retries")
                time.sleep(retry.backoff_for(attempt - 1))
        metric_inc("atm_shards", source="inline")
        rows[i][j] = m
        if key is not None:
            store.put(key, m)

    return names, rows
