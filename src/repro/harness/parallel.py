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
* remaining shards run on a ``ProcessPoolExecutor`` when ``jobs > 1``,
  after the pool has computed each distinct fleet size's functional
  trace once (registry-name specs only — live
  :class:`~repro.backends.base.Backend` *instances* may carry state, so
  they always run in the parent, in matrix order);
* results are merged **by matrix position, never by completion order**,
  so the assembled :class:`~repro.harness.sweep.SweepData` is
  byte-identical for any worker count — the parallel-determinism tests
  assert exactly that.

**Fault tolerance.**  Every unit of work — a cell, or the trace
prefetch of one fleet size — runs through one attempt loop under the
ambient :class:`~repro.harness.faults.RetryPolicy` (docs/robustness.md).
A try on the pool may time out, crash its worker or raise an
``OSError``; each failure is counted, then retried after a
deterministic backoff.  A crashed worker breaks the whole
``ProcessPoolExecutor``, so the pool is rebuilt (one bounded budget per
sweep) and every uncollected unit resubmitted.  When the pool gives up
on a unit — its tries are spent, or so is the rebuild budget — the
loop's last step runs it in the parent.  Because every cell is a pure
function of its arguments, **any path that eventually completes
produces the same bytes**, so the determinism contract extends across
the fault paths.  Faults can be injected deterministically for tests
and chaos runs via ``sweep_options(faults=FaultPlan(...))`` or
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

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..analysis.deadlines import record_cell_metrics
from ..obs import SpanRecord
from ..obs import get_collector as obs_get_collector
from ..obs import is_active as obs_is_active
from ..obs import span as obs_span
from ..obs.metrics import get_registry, metric_inc
from .cache import CellStore, ResultCache, TraceStore
from .faults import WORKER_FAULT_KINDS, FaultPlan, RetryPolicy, fault_span

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
    #: on-disk tier for functional traces, or None for in-process only.
    traces: Optional[TraceStore] = None
    #: candidate-pruning policy for functional passes ("auto"/"on"/"off";
    #: see repro.core.sweepline).  Outputs are bit-identical either way.
    pruning: str = "auto"
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
    traces: Any = _KEEP,
    pruning: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Any = _KEEP,
    journal: Any = _KEEP,
) -> Iterator[SweepOptions]:
    """Scope different sweep-execution options over a ``with`` block."""
    base = _OPTIONS.get()
    new = SweepOptions(
        jobs=base.jobs if jobs is None else max(1, int(jobs)),
        cache=_resolve(cache, base.cache),
        traces=_resolve(traces, base.traces),
        pruning=base.pruning if pruning is None else str(
            getattr(pruning, "value", pruning)
        ),
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
# the pool workers (run in pool processes; must stay module-level picklable)
# ---------------------------------------------------------------------------


def _in_worker(
    inject: Optional[Tuple[str, float]], fn: Callable[..., Any], *args: Any
) -> Any:
    """Obey a parent-issued fault directive, then return ``fn(*args)``.

    The parent's FaultPlan makes every decision; the worker just obeys,
    so results stay pure functions of the argument tuple.  ``inject`` is
    ``(kind, param)`` or None: ``crash`` kills this process, ``timeout``
    sleeps ``param`` seconds (then proceeds normally), ``oserror``
    raises a transient ``OSError``.
    """
    if inject is not None:
        kind, param = inject
        if kind == "crash":
            os._exit(3)
        elif kind == "timeout":
            time.sleep(param)
        elif kind == "oserror":
            raise OSError("injected transient fault")
    return fn(*args)


def _measure_shard(
    spec: str,
    n: int,
    seed: int,
    periods: int,
    mode_value: str,
    trace_payload: Optional[bytes] = None,
    collect: bool = False,
    pruning: str = "auto",
    metrics: bool = False,
) -> Dict[str, Any]:
    """Measure one (registry name, fleet size) cell; return its dict form
    as ``{"measurement": ..., "obs": ..., "metrics": ...}``.

    Runs in a worker process: resolves a *fresh* backend from the
    registry, so the cell is a pure function of its arguments, and
    returns plain JSON-able data (never pickled numpy state).  The
    worker never touches a store — the parent owns all store traffic
    so hit/miss counters and writes stay in one process.

    ``trace_payload`` is the cell's
    :class:`~repro.core.trace.FunctionalTrace` as its checksummed array
    buffer (the parent computes each distinct fleet size once, possibly
    on this same pool); the worker replays cost models from it.  Without
    one — the payload would exceed the trace budget's shipping bound —
    the worker streams a private functional pass under ``pruning``, so
    its work and counts stay the cell's own whatever the scheduling.
    Workers never consult ambient policy, so shard results are pure
    functions of the argument tuple.

    ``collect=True`` runs the cell under a private in-worker collector
    and returns its ``{spans, events}`` under ``"obs"`` (else None), so
    the parent can adopt the worker's task/kernel spans under its shard
    span (:meth:`~repro.obs.Collector.adopt`) and the merged trace looks
    the same as a serial run's.  ``metrics=True`` likewise records into
    a private registry and returns its snapshot under ``"metrics"``,
    without the deterministic families: the parent records each pool
    cell's deadline series itself, in ``_emit_shard``.
    """
    from ..backends.registry import resolve_backend
    from ..core.collision import DetectionMode
    from ..core.trace import FunctionalTrace
    from ..obs import Collector, collecting
    from ..obs.metrics import recording
    from .sweep import _cell_records, _private_pass, _replay

    cell = dict(seed=seed, periods=periods, mode=DetectionMode(mode_value))
    with ExitStack() as scopes:
        c = scopes.enter_context(collecting(Collector())) if collect else None
        r = scopes.enter_context(recording()) if metrics else None
        if trace_payload is None:
            records = _private_pass(n, pruning=pruning, **cell)
        else:
            records = _cell_records(
                n, trace=FunctionalTrace.from_bytes(trace_payload),
                pruning=pruning, **cell,
            )
        m = _replay(resolve_backend(spec), n, records)
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
) -> bytes:
    """Run the functional simulation for one fleet size in a worker;
    returns the trace's array buffer."""
    from ..core.collision import DetectionMode
    from ..core.trace import compute_trace

    return compute_trace(
        n,
        seed=seed,
        periods=periods,
        mode=DetectionMode(mode_value),
        pruning=pruning,
    ).to_bytes()


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


class _PoolBox:
    """A ProcessPoolExecutor plus its bounded rebuild budget.

    A crashed worker breaks the *whole* pool (``BrokenProcessPool``
    fails every outstanding future), so recovery means building a fresh
    pool and resubmitting the uncollected units.  The budget, one per
    sweep, bounds how often that is worth doing; once it is spent
    ``pool`` is None and every unit left runs in the parent.
    """

    def __init__(self, jobs: int, rebuild_budget: int) -> None:
        self.jobs = jobs
        self.rebuild_budget = max(1, int(rebuild_budget))
        self.rebuilds = 0
        self.pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=jobs
        )

    def rebuild(self) -> None:
        """Replace the broken pool, or drop it once the budget is spent."""
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.rebuilds += 1
        self.pool = (
            ProcessPoolExecutor(max_workers=self.jobs)
            if self.rebuilds < self.rebuild_budget
            else None
        )

    def shutdown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)


#: The FaultPlan kinds a trace prefetch draws: the faults of the worker
#: process itself.  ``oserror`` stands for a transient I/O error of one
#: cell's measurement, so only cells draw it.
_PREFETCH_FAULT_KINDS = ("crash", "timeout")

#: One unit of work of the attempt loop: its FaultPlan id, its
#: ``harness.fault`` span attributes, and its pool task ``(fn, *args)``
#: — None for a unit that runs in the parent only.
_Unit = Tuple[str, Dict[str, Any], Optional[tuple]]


def _attempt(
    units: Sequence[_Unit],
    box: Optional[_PoolBox],
    kinds: Sequence[str],
    in_parent: Callable[[int], Any],
    commit: Callable[[int, Any, bool], None],
) -> None:
    """Run every unit to completion, in order: the engine's one attempt loop.

    Every unit with a pool task is submitted up front, and units are
    collected in order.  Each submission draws its FaultPlan directive
    over ``kinds`` under the unit's id and its own count of submissions,
    so a unit resubmitted after another unit broke the pool does not
    replay its last directive.  A try may time out (the ambient
    ``RetryPolicy.timeout_s``), crash the pool — which is rebuilt
    within its budget, every uncollected unit resubmitted — or raise an
    ``OSError``.  Each failure is one ``harness.fault`` span; each retry
    sleeps the deterministic backoff and counts
    ``atm_faults{kind="retries"}``.  When the pool gives up on a unit,
    after ``max_attempts`` tries or once the rebuild budget is spent,
    the unit runs in the parent with tries of its own: the loop's last
    step, and the only one of a unit without a pool task.  There only an
    ``OSError`` can fail a try (an injected one when ``kinds`` holds
    ``oserror``), and one on the last try aborts the sweep.

    ``in_parent(k)`` runs unit ``k`` in this process and returns its
    value; ``commit(k, value, pooled)`` takes a finished unit's value,
    ``pooled`` saying whether a worker produced it.
    """
    opts = current_options()
    retry, plan = opts.retry, opts.faults
    attempts = [0] * len(units)
    submissions = [0] * len(units)
    #: each unit's outstanding pool future; None runs it in the parent.
    futures: List[Any] = [None] * len(units)

    def degrade(k: int) -> None:
        fault_span("degraded-to-inline", **units[k][1])
        futures[k] = None
        attempts[k] = 0

    def submit(k: int) -> None:
        if box.pool is None:
            return degrade(k)
        sid, _, task = units[k]
        inject = None
        if plan is not None:
            kind = plan.worker_fault(sid, submissions[k], kinds)
            if kind is not None:
                metric_inc("atm_faults", kind="injected")
                inject = (kind, plan.hang_s)
        submissions[k] += 1
        try:
            futures[k] = box.pool.submit(_in_worker, inject, *task)
        except BrokenProcessPool as exc:
            # A worker died since the last collection: the unit meets
            # the break when its turn comes, as its future would have.
            futures[k] = Future()
            futures[k].set_exception(exc)

    for k, (_, _, task) in enumerate(units):
        if box is not None and task is not None:
            submit(k)
    for k, (sid, attrs, _) in enumerate(units):
        while True:
            future = futures[k]
            try:
                if future is not None:
                    value = future.result(timeout=retry.timeout_s)
                else:
                    # Chaos in the parent is limited to transient
                    # OSErrors: a crash would kill the parent itself,
                    # and a hang cannot be preempted in-process.
                    if (
                        plan is not None
                        and "oserror" in kinds
                        and plan.should_inject("oserror", sid, attempts[k])
                    ):
                        metric_inc("atm_faults", kind="injected")
                        raise OSError("injected transient fault")
                    value = in_parent(k)
                break
            except (FuturesTimeout, BrokenProcessPool, OSError) as exc:
                kind = "os-error"
                if future is not None and isinstance(exc, FuturesTimeout):
                    kind = "timeout"
                elif future is not None and isinstance(exc, BrokenProcessPool):
                    kind = "worker-crash"
                fault_span(kind, attempt=attempts[k], error=str(exc), **attrs)
                if future is None and attempts[k] + 1 >= retry.max_attempts:
                    raise
            attempts[k] += 1
            if kind == "worker-crash":
                box.rebuild()
            if future is not None and (
                box.pool is None or attempts[k] >= retry.max_attempts
            ):
                degrade(k)
            else:
                metric_inc("atm_faults", kind="retries")
                time.sleep(retry.backoff_for(attempts[k] - 1))
                if future is not None:
                    submit(k)
            if kind == "worker-crash":
                # Every uncollected future died with the old pool.
                for later in range(k + 1, len(units)):
                    if futures[later] is not None:
                        submit(later)
        commit(k, value, future is not None)


def _prefetch_traces(
    box: _PoolBox,
    wanted_ns: List[int],
    *,
    seed: int,
    periods: int,
    mode: Any,
    mode_value: str,
    jobs: int,
) -> Dict[int, bytes]:
    """Each distinct fleet size's functional trace, computed once, as
    the array buffer every pool cell of that size is shipped.

    A trace the memo or the ``TraceStore`` holds is served from there;
    each other one is a unit of the attempt loop (fault id
    ``trace@<n>``), computed on the pool, or by
    :func:`~repro.harness.sweep._compute_trace` in the parent if the pool
    gives up on it.  A fleet size whose trace would exceed the budget's
    shipping bound gets no payload — each worker streams its own
    (pruned) pass rather than receive a multi-GB buffer.
    """
    from ..core.trace import FunctionalTrace, estimate_trace_bytes
    from .sweep import (
        DEFAULT_TRACE_BUDGET, _compute_trace, _lookup_trace, _remember_trace,
    )

    opts = current_options()
    cell = dict(
        seed=seed, periods=periods, mode=mode, traces=opts.traces,
        pruning=opts.pruning,
    )
    payloads: Dict[int, bytes] = {}
    missing: List[int] = []
    for n in wanted_ns:
        if DEFAULT_TRACE_BUDGET.allows_payload(estimate_trace_bytes(n, periods)):
            trace = _lookup_trace(n, **cell)
            if trace is None:
                missing.append(n)
            else:
                payloads[n] = trace.to_bytes()

    def commit(k: int, payload: bytes, pooled: bool) -> None:
        n = missing[k]
        if pooled:
            with obs_span(
                "harness.trace", cat="harness", n_aircraft=n, source="pool", jobs=jobs
            ):
                pass
            metric_inc("atm_trace_requests", source="pool")
            _remember_trace(FunctionalTrace.from_bytes(payload), opts.traces)
        payloads[n] = payload

    _attempt(
        [
            (
                f"trace@{n}",
                dict(stage="trace", n_aircraft=n),
                (_compute_trace_shard, n, seed, periods, mode_value, opts.pruning),
            )
            for n in missing
        ],
        box,
        _PREFETCH_FAULT_KINDS,
        lambda k: _compute_trace(missing[k], **cell).to_bytes(),
        commit,
    )
    return payloads


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
    store = store if store is not None else CellStore()
    jobs = max(1, int(jobs))
    resolved = [resolve_backend(spec) for spec in specs]
    names = [b.name for b in resolved]
    mode_value = str(getattr(mode, "value", mode))

    rows: List[List[Optional[PlatformMeasurement]]] = [
        [None] * len(ns) for _ in specs
    ]
    #: cells still to measure, in matrix order: (i, j, spec, key or None)
    pending: List[Tuple[int, int, Any, Optional[str]]] = []

    for i, spec in enumerate(specs):
        for j, n in enumerate(ns):
            key, rows[i][j] = _probe_stores(
                spec, resolved[i], n, seed=seed, periods=periods, mode=mode,
                pruning=opts.pruning, jobs=jobs, store=store,
            )
            if rows[i][j] is None:
                pending.append((i, j, spec, key))

    # Registry-name cells may cross the process boundary; instances run
    # in the parent (they can carry state the fork would then discard).
    poolable = [p for p in pending if isinstance(p[2], str)]
    box = None
    if jobs > 1 and len(poolable) > 1:
        box = _PoolBox(min(jobs, len(poolable)), opts.retry.max_attempts)
    # Ship worker traces home only when someone is listening.
    collect = obs_is_active()
    registry = get_registry()

    def in_parent(k: int) -> Any:
        i, j, spec, _ = pending[k]
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
        return m

    def commit(k: int, value: Any, pooled: bool) -> None:
        i, j, _, key = pending[k]
        if pooled:
            m = PlatformMeasurement.from_dict(value["measurement"])
            _emit_shard(names[i], ns[j], "pool", jobs, m, worker_obs=value["obs"])
            if value["metrics"] is not None:
                registry.load_snapshot(value["metrics"])
        else:
            m = value
            metric_inc("atm_shards", source="inline")
        rows[i][j] = m
        if key is not None:
            store.put(key, m)

    try:
        payloads: Dict[int, bytes] = {}
        if box is not None:
            payloads = _prefetch_traces(
                box,
                sorted({ns[j] for (_, j, _, _) in poolable}),
                seed=seed,
                periods=periods,
                mode=mode,
                mode_value=mode_value,
                jobs=jobs,
            )
        units = [
            (
                f"{names[i]}@{ns[j]}",
                dict(platform=names[i], n_aircraft=ns[j]),
                (
                    _measure_shard, spec, ns[j], seed, periods, mode_value,
                    payloads.get(ns[j]), collect, opts.pruning,
                    registry is not None,
                )
                if box is not None and isinstance(spec, str)
                else None,
            )
            for i, j, spec, _ in pending
        ]
        _attempt(units, box, WORKER_FAULT_KINDS, in_parent, commit)
    finally:
        if box is not None:
            box.shutdown()
    return names, rows
