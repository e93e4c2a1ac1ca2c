"""ATM-as-a-service: the asyncio sweep/scenario server (docs/service.md).

``atm-repro serve`` wraps the batch sweep engine in a long-running
process.  The front-end is plain :func:`asyncio.start_server` speaking
a deliberately small slice of HTTP/1.1 (no framework, stdlib only);
behind it sit four mechanisms, all reusing harness machinery instead of
reimplementing it:

* **Coalescing** — every cell request is keyed by the key the sweep
  engine commits the cell under
  (:meth:`~repro.service.protocol.CellRequest.cache_key`, the result
  cache's SHA-256 cost-model fingerprint); requests for a cell already
  being measured await the in-flight future instead of queueing a
  duplicate.
* **Batching** — one admission path (:meth:`SweepService._submit`)
  serves ``/v1/cell``, ``/v1/sweep`` and journal replay; whenever the
  dispatch thread is free, every admitted cell already queued forms
  one batch, and compatible cells (same seed/periods/mode) dispatch
  **together** through
  :func:`repro.harness.parallel.measure_cells`, sharing its process
  pool, functional-trace memoization and fault tolerance.
* **Admission control** — before a cell is queued, the
  :class:`~repro.analysis.deadlines.AdmissionController` estimates
  completion time against the request's deadline budget and rejects
  with a structured verdict (HTTP 429) or sheds load outright when the
  queue is full (HTTP 503).  The deadline machinery arbitrates access
  *before* work starts, COOK-style, instead of reporting misses after.
* **Observability** — every request ends in a ``service.request`` span
  (emitted atomically at completion, so interleaved asyncio tasks can
  never misnest the span tree) and the ``atm_service_*`` metric
  families; ``GET /metrics`` exposes the registry as OpenMetrics.
* **One cell store** — the memory LRU, the result cache and the request
  journal are the tiers of one :class:`~repro.harness.cache.CellStore`:
  submits read it on the event loop, and the sweep engine commits each
  fresh cell to every tier on the dispatch thread, before the cell's
  future resolves.
* **Crash safety** — admitted cells are fsynced into a
  :class:`~repro.service.journal.RequestJournal` *before* they enter
  the dispatch queue, so ``atm-repro serve --resume`` replays exactly
  the unfinished remainder after a SIGKILL; SIGTERM/SIGINT trigger a
  graceful drain instead (``/healthz`` → draining, new work → 503 +
  ``Retry-After``, queued cells flush under ``--drain-timeout``).
  See "Crash safety & drain" in docs/service.md.

**Byte identity.**  Responses are encoded by
:func:`repro.service.protocol.payload_bytes` — the report writer's JSON
settings — so a served cell is byte-identical to the same cell's
fragment in batch ``atm-repro report`` output, whichever of the
cache / coalescing / batch-dispatch paths produced it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..analysis.deadlines import AdmissionController, AdmissionVerdict
from ..backends.registry import available_backends
from ..core.collision import DetectionMode
from ..harness.cache import CellStore
from ..obs import span as obs_span
from ..obs.metrics import (
    MetricsRegistry,
    activate_metrics,
    deactivate_metrics,
    get_registry,
    metric_inc,
    metric_observe,
    metric_set,
    to_openmetrics,
)
from .config import ServiceConfig
from .journal import RequestJournal
from .protocol import (
    CellRequest,
    ProtocolError,
    parse_cell_request,
    parse_sweep_request,
    payload_bytes,
    sweep_payload_bytes,
)

__all__ = ["ServiceConfig", "SweepService", "run_server"]

_REASON = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: HTTP status for each admission outcome (docs/service.md).
_REJECT_STATUS = {
    "rejected_deadline": 429,
    "rejected_backpressure": 503,
    "rejected_draining": 503,
}

#: Measurements the service's memory tier holds (an LRU, in cells).
_MEMORY_CELLS = 4096


@dataclass
class _PendingCell:
    """One queued cell: its request plus the future coalescers await."""

    request: CellRequest
    key: str
    future: "asyncio.Future[Any]" = field(repr=False)


class SweepService:
    """The service core: admission, coalescing, batching, dispatch.

    Usable without HTTP (the tests drive :meth:`submit_cell` directly);
    :meth:`serve` adds the asyncio front-end.  One instance owns one
    :class:`~repro.obs.metrics.MetricsRegistry` — activated process-wide
    while the service runs, so harness-layer metrics (shards, trace
    tiers, deadline margins) land in the same snapshot as the
    ``atm_service_*`` families.
    """

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.admission = AdmissionController(
            max_queue_cells=config.max_queue_cells,
            default_deadline_s=config.default_deadline_s,
            dispatch_overhead_s=config.batch_window_s,
        )
        self.cache = None
        self.traces = None
        if config.cache_dir:
            from ..harness.cache import ResultCache, TraceStore

            self.cache = ResultCache(config.cache_dir)
            self.traces = TraceStore(Path(config.cache_dir) / "traces")
        self.faults = config.faults
        journal_path = config.journal_path
        if journal_path is None and config.cache_dir:
            journal_path = str(Path(config.cache_dir) / "service-journal.jsonl")
        #: write-ahead request journal, or None (no durable location).
        self.journal: Optional[RequestJournal] = None
        if journal_path is not None:
            self.journal = RequestJournal(
                journal_path, resume=config.resume, faults=config.faults
            )
        #: finished cells: memory LRU -> result cache -> journal.
        self.store = CellStore(
            cache=self.cache, journal=self.journal, memory_cells=_MEMORY_CELLS
        )
        #: cell key -> future of the in-flight cell (coalescing).
        self._inflight_cells: Dict[str, "asyncio.Future[Any]"] = {}
        self._queue: "asyncio.Queue[_PendingCell]" = asyncio.Queue()
        #: cells admitted but not yet returned by a dispatch.
        self._pending_cells = 0
        self._pending_cells_peak = 0
        self._inflight_requests = 0
        self._inflight_requests_peak = 0
        self._served = 0
        self._coalesced = 0
        self._rejected = 0
        self._batches = 0
        self._request_seq = 0
        self._replayed_cells = 0
        self._restored_cells = 0
        self._drain_started: Optional[float] = None
        self._drain_seconds = 0.0
        self._started_at = time.monotonic()
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="atm-dispatch"
        )
        self._batcher: Optional["asyncio.Task[None]"] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._previous_registry: Optional[MetricsRegistry] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Activate metrics and the batch dispatcher (no sockets yet)."""
        self._previous_registry = get_registry()
        activate_metrics(self.registry)
        # Counters-with-zeros: the drain/replay families must appear in
        # /metrics (and the dashboard counter panels) before any drain
        # or resume happens, so their absence is never ambiguous.
        metric_set("atm_service_drain_seconds", 0.0)
        for kind in ("restored", "replayed", "dropped"):
            metric_inc("atm_service_journal_replayed", 0.0, kind=kind)
        if self._batcher is None:
            self._batcher = asyncio.create_task(self._batch_loop())
        self._replay_journal()

    def _replay_journal(self) -> None:
        """Act on a resumed request journal: count and re-enqueue.

        ``served`` entries stay in the journal, the store's slowest
        tier, which answers each on its first ask;
        ``admitted``-but-unserved cells re-enter the batch dispatcher
        through :meth:`_enqueue`, as if their clients were still
        waiting, so by the time the journal settles every admitted cell
        is served again — with byte-identical payloads, because cells
        are pure functions of their request tuple.
        """
        if self.journal is None:
            return
        self._restored_cells = self.journal.stats()["served"]
        metric_inc(
            "atm_service_journal_replayed", float(self._restored_cells), kind="restored"
        )
        for key, cell in self.journal.pending().items():
            try:
                request = CellRequest(**cell)
            except TypeError:
                metric_inc("atm_service_journal_replayed", kind="dropped")
                continue
            self._enqueue(key, request)
            self._replayed_cells += 1
            metric_inc("atm_service_journal_replayed", kind="replayed")
        for _ in range(self.journal.dropped_lines):
            metric_inc("atm_service_journal_replayed", kind="dropped")

    async def stop(self) -> None:
        """Stop the dispatcher and restore the previous registry."""
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # shutdown(wait=True) joins the dispatch thread — off the event
        # loop, bounded by the drain budget, else the loop could hang
        # on a wedged dispatch during close.
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(
                loop.run_in_executor(
                    None,
                    functools.partial(self._dispatch_pool.shutdown, wait=True),
                ),
                timeout=max(0.1, self.config.drain_timeout_s),
            )
        except asyncio.TimeoutError:
            self._dispatch_pool.shutdown(wait=False)
        if self._previous_registry is not None:
            activate_metrics(self._previous_registry)
        else:
            deactivate_metrics()

    @property
    def draining(self) -> bool:
        """True once a graceful drain has begun."""
        return self.admission.draining

    async def drain(self, timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Graceful shutdown, phase one: stop admitting, flush, report.

        Flips admission into drain mode (new work → 503 +
        ``Retry-After``; ``/healthz`` → draining) while the listener
        stays up, then waits — bounded by ``timeout_s`` (default
        ``drain_timeout_s``) — for queued cells and in-flight requests
        to finish.  Whatever is still unfinished at the deadline is
        already durable in the request journal (admitted cells are
        journaled *before* they enter the queue), so a follow-up
        ``--resume`` replays exactly the remainder.
        """
        budget = (
            self.config.drain_timeout_s if timeout_s is None else float(timeout_s)
        )
        if self._drain_started is None:
            self._drain_started = time.monotonic()
            self.admission.set_draining(True)
        deadline = self._drain_started + max(0.0, budget)
        while self._pending_cells > 0 or self._inflight_requests > 0:
            if time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.02)
        self._drain_seconds = time.monotonic() - self._drain_started
        metric_set("atm_service_drain_seconds", self._drain_seconds)
        return {
            "drained": self._pending_cells == 0 and self._inflight_requests == 0,
            "drain_seconds": round(self._drain_seconds, 6),
            "pending_cells": self._pending_cells,
            "inflight_requests": self._inflight_requests,
            "journaled_pending": (
                len(self.journal.pending()) if self.journal is not None else 0
            ),
        }

    # -- bookkeeping ----------------------------------------------------

    def _track_requests(self, delta: int) -> None:
        self._inflight_requests += delta
        if self._inflight_requests > self._inflight_requests_peak:
            self._inflight_requests_peak = self._inflight_requests
            metric_set(
                "atm_service_inflight_requests",
                float(self._inflight_requests_peak),
                kind="peak",
            )
        metric_set(
            "atm_service_inflight_requests",
            float(self._inflight_requests),
            kind="current",
        )

    def _track_cells(self, delta: int) -> None:
        self._pending_cells += delta
        if self._pending_cells > self._pending_cells_peak:
            self._pending_cells_peak = self._pending_cells
            metric_set(
                "atm_service_queue_cells",
                float(self._pending_cells_peak),
                kind="peak",
            )
        metric_set(
            "atm_service_queue_cells", float(self._pending_cells), kind="current"
        )

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot served at ``GET /stats``."""
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "inflight_requests": self._inflight_requests,
            "inflight_requests_peak": self._inflight_requests_peak,
            "pending_cells": self._pending_cells,
            "pending_cells_peak": self._pending_cells_peak,
            "served": self._served,
            "coalesced": self._coalesced,
            "rejected": self._rejected,
            "batches": self._batches,
            "memory_cells": len(self.store.memory_keys()),
            "cell_estimate_s": self.admission.cell_estimate_s,
            "jobs": self.config.jobs,
            "cache_dir": self.config.cache_dir,
            "draining": self.draining,
            "drain_seconds": round(self._drain_seconds, 6),
            "journal": self.journal.stats() if self.journal is not None else None,
            "replayed_cells": self._replayed_cells,
            "restored_cells": self._restored_cells,
        }

    # -- the request core (HTTP-independent) ----------------------------

    async def submit_cell(
        self, request: CellRequest, *, deadline_s: Optional[float] = None
    ) -> Tuple[str, Any]:
        """Resolve one cell request to ``(source, measurement)``.

        ``source`` is ``cache`` (already finished), ``coalesced``
        (attached to an identical in-flight cell) or ``computed``
        (admitted, queued and batch-dispatched).  Raises
        :class:`AdmissionRejected` when the admission controller says
        no, and :class:`asyncio.TimeoutError` when an admitted request
        outlives its own deadline budget.
        """
        source, (measurement,) = await self._submit([request], deadline_s)
        return source, measurement

    async def submit_sweep(
        self, cells: List[CellRequest], *, deadline_s: Optional[float] = None
    ) -> Tuple[str, List[Any]]:
        """Resolve a sweep request to ``(source, measurements)``, the
        measurements in request order; admitted or rejected as a whole
        (see :meth:`_submit`)."""
        return await self._submit(cells, deadline_s)

    async def _submit(
        self, cells: List[CellRequest], deadline_s: Optional[float]
    ) -> Tuple[str, List[Any]]:
        """The one admission path: ``(source, measurements)`` for
        ``cells``, the measurements in request order.

        Each distinct cell is looked up once: a stored cell is ready, a
        cell in flight is attached to, and the rest are the cells the
        request would add.  Admission assesses those, and only when
        there is one, so a request is admitted or rejected whole, never
        half-queued.  Every added cell is journaled and enqueued before
        anything is awaited: no suspension point sits between the
        lookups and the queue fills, so the coalescing map stays
        consistent and a whole sweep lands in one batch.  Every
        awaited cell times out at the request's own budget.  ``source``
        is ``cache`` when nothing was awaited, ``coalesced`` when every
        awaited cell was already in flight, else ``computed``.
        """
        keys = [cell.cache_key() for cell in cells]
        ready: Dict[str, Any] = {}
        awaited: Dict[str, "asyncio.Future[Any]"] = {}
        added: Dict[str, CellRequest] = {}
        for cell, key in zip(cells, keys):
            if key in ready or key in awaited or key in added:
                continue
            hit, _tier = self.store.get(key)
            if hit is not None:
                ready[key] = hit
            elif key in self._inflight_cells:
                awaited[key] = self._inflight_cells[key]
            else:
                added[key] = cell
        if added:
            verdict = self.admission.assess(
                len(added), queue_depth=self._pending_cells, deadline_s=deadline_s
            )
            if not verdict.admitted:
                self._rejected += 1
                raise AdmissionRejected(verdict)
        self._coalesced += len(awaited)
        for key, cell in added.items():
            awaited[key] = self._enqueue(key, cell)
        if awaited:
            budget = (
                self.config.default_deadline_s if deadline_s is None else deadline_s
            )
            # shield: a request that runs out of budget times out alone;
            # the cell keeps computing for everyone else attached to it.
            values = await asyncio.wait_for(
                asyncio.gather(*(asyncio.shield(f) for f in awaited.values())),
                timeout=budget,
            )
            ready.update(zip(awaited, values))
        source = "computed" if added else "coalesced" if awaited else "cache"
        return source, [ready[key] for key in keys]

    def _enqueue(self, key: str, request: CellRequest) -> "asyncio.Future[Any]":
        """Journal one admitted cell, then queue it; returns its future.

        Durable before queued: from here on the admission survives
        SIGKILL, and ``--resume`` replays it.
        """
        if self.journal is not None:
            self.journal.record_admitted(key, request.to_dict())
        future: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
        future.add_done_callback(_retrieve)
        self._inflight_cells[key] = future
        self._track_cells(+1)
        self._queue.put_nowait(_PendingCell(request=request, key=key, future=future))
        return future

    # -- batching -------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Batch by backlog: dispatch every queued cell, repeat.

        Whenever the dispatch thread is free, the batch is the first
        queued cell plus every cell already queued behind it (up to
        ``max_batch_cells``), taken without awaiting — so a sweep, whose
        cells are enqueued with no suspension point between them, lands
        in one dispatch, and cells arriving during a dispatch form the
        next batch.  Only a positive ``batch_window_s`` then waits up to
        that long for more cells.
        """
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            window_ends = loop.time() + self.config.batch_window_s
            while len(batch) < self.config.max_batch_cells:
                if not self._queue.empty():
                    batch.append(self._queue.get_nowait())
                    continue
                remaining = window_ends - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), timeout=remaining)
                    )
                except asyncio.TimeoutError:
                    break
            groups: Dict[Tuple[int, int, str], List[_PendingCell]] = {}
            for item in batch:
                groups.setdefault(item.request.compat_key, []).append(item)
            for group in groups.values():
                started = time.monotonic()
                try:
                    measured = await loop.run_in_executor(
                        self._dispatch_pool,
                        self._measure_batch,
                        [item.request for item in group],
                    )
                except Exception as exc:  # noqa: BLE001 - forwarded to waiters
                    metric_inc("atm_service_batches", outcome="error")
                    for item in group:
                        self._inflight_cells.pop(item.key, None)
                        self._track_cells(-1)
                        if not item.future.done():
                            item.future.set_exception(
                                RuntimeError(f"batch dispatch failed: {exc}")
                            )
                    continue
                elapsed = time.monotonic() - started
                self._batches += 1
                metric_inc("atm_service_batches", outcome="ok")
                metric_observe("atm_service_batch_cells", float(len(group)))
                self.admission.observe_cell_seconds(elapsed, cells=len(group))
                for item in group:
                    # The engine already committed the cell to the store.
                    measurement = measured[(item.request.platform, item.request.n)]
                    self._inflight_cells.pop(item.key, None)
                    self._track_cells(-1)
                    if not item.future.done():
                        item.future.set_result(measurement)

    def _measure_batch(self, requests: List[CellRequest]) -> Dict[Tuple[str, int], Any]:
        """One compatible batch through the sweep engine (worker thread).

        Platforms requesting the same fleet-size set share a single
        :func:`~repro.harness.parallel.measure_cells` matrix — one
        process-pool dispatch, one functional trace per fleet size —
        and the remainder go per-platform.  The engine probes the
        service's cell store and commits every fresh cell to it (LRU,
        cache, ``served`` journal line) before returning.  Runs on the
        single-threaded dispatch executor, so harness state (ambient
        options, trace memo, metrics) is never touched concurrently.
        """
        from ..harness.parallel import measure_cells, sweep_options

        seed, periods, mode_value = requests[0].compat_key
        mode = DetectionMode(mode_value)
        ns_by_platform: Dict[str, set] = {}
        for request in requests:
            ns_by_platform.setdefault(request.platform, set()).add(request.n)
        matrices: Dict[Tuple[int, ...], List[str]] = {}
        for platform in sorted(ns_by_platform):
            ns = tuple(sorted(ns_by_platform[platform]))
            matrices.setdefault(ns, []).append(platform)
        out: Dict[Tuple[str, int], Any] = {}
        # The fault plan rides the ambient options: its crash/timeout/
        # oserror rates fire inside the pool workers (the harness's
        # retry machinery recovers, keeping payloads byte-identical),
        # while the service-only kinds (reset/stall/corrupt-journal)
        # are realised by the front-end and ignored here.
        with sweep_options(
            jobs=self.config.jobs,
            traces=self.traces if self.traces is not None else False,
            faults=self.faults,
        ):
            for ns, platforms in matrices.items():
                with obs_span(
                    "service.dispatch",
                    cat="service",
                    platforms=len(platforms),
                    cells=len(platforms) * len(ns),
                ):
                    names, rows = measure_cells(
                        platforms,
                        ns,
                        seed=seed,
                        periods=periods,
                        mode=mode,
                        jobs=self.config.jobs,
                        store=self.store,
                    )
                for name, row in zip(names, rows):
                    for j, n in enumerate(ns):
                        out[(name, n)] = row[j]
        return out

    # -- HTTP front-end -------------------------------------------------

    async def serve(self) -> asyncio.AbstractServer:
        """Bind the listener and return it (``sockets[0]`` has the port)."""
        await self.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        return self._server

    @property
    def bound_port(self) -> Optional[int]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                parsed = await _read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive") != "close"
                self._request_seq += 1
                seq = self._request_seq
                if self.faults is not None and path.startswith("/v1/"):
                    # Service-layer chaos (--inject-faults): decisions
                    # are pure functions of (seed, kind, request#), so
                    # a chaos run is exactly replayable.
                    if self.faults.should_inject("stall", f"request#{seq}"):
                        metric_inc("atm_faults", kind="stall")
                        await asyncio.sleep(self.faults.hang_s)
                    if self.faults.should_inject("reset", f"request#{seq}"):
                        # Drop the connection before any response byte:
                        # the client sees a reset and must retry.
                        metric_inc("atm_faults", kind="reset")
                        break
                status, payload, ctype, extra = await self._route(
                    method, path, body
                )
                await _write_response(
                    writer, status, payload, ctype, keep_alive, extra
                )
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels open handlers; finishing cleanly
            # keeps asyncio's connection callback from logging it.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        if path == "/healthz" and method == "GET":
            if self.draining:
                # Load balancers must stop routing here, but probes and
                # the drain itself still get answered on the open port.
                return (
                    503,
                    payload_bytes({"status": "draining"}),
                    "application/json",
                    {"Retry-After": "1"},
                )
            return 200, payload_bytes({"status": "ok"}), "application/json", {}
        if path == "/stats" and method == "GET":
            return 200, payload_bytes(self.stats()), "application/json", {}
        if path == "/v1/platforms" and method == "GET":
            return (
                200,
                payload_bytes({"platforms": list(available_backends())}),
                "application/json",
                {},
            )
        if path == "/metrics" and method == "GET":
            text = to_openmetrics(self.registry.snapshot())
            return (
                200,
                text.encode("utf-8"),
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                {},
            )
        if path in ("/v1/cell", "/v1/sweep"):
            if method != "POST":
                return (
                    405,
                    payload_bytes({"error": "use POST"}),
                    "application/json",
                    {"Allow": "POST"},
                )
            return await self._handle_measurement(path, body)
        return (
            404,
            payload_bytes({"error": f"unknown path {path}"}),
            "application/json",
            {},
        )

    async def _handle_measurement(
        self, endpoint: str, body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        started = time.monotonic()
        outcome = "error"
        source = "none"
        status = 500
        payload = payload_bytes({"error": "internal error"})
        extra: Dict[str, str] = {}
        self._track_requests(+1)
        try:
            try:
                obj = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"body is not valid JSON: {exc}") from exc
            deadline_s = _parse_deadline(obj)
            if endpoint == "/v1/cell":
                request = parse_cell_request(obj)
                source, measurement = await self.submit_cell(
                    request, deadline_s=deadline_s
                )
                payload = payload_bytes(measurement.to_dict())
            else:
                cells = parse_sweep_request(obj)
                source, measurements = await self.submit_sweep(
                    cells, deadline_s=deadline_s
                )
                ns = sorted({c.n for c in cells})
                by_platform: Dict[str, Dict[int, Any]] = {}
                for cell, m in zip(cells, measurements):
                    by_platform.setdefault(cell.platform, {})[cell.n] = m
                payload = sweep_payload_bytes(
                    ns,
                    {
                        platform: [row[n] for n in ns]
                        for platform, row in by_platform.items()
                    },
                )
            status, outcome = 200, "served"
            self._served += 1
            extra = {"X-Atm-Source": source}
        except ProtocolError as exc:
            status, outcome = 400, "bad_request"
            payload = payload_bytes({"error": str(exc)})
        except AdmissionRejected as exc:
            status = _REJECT_STATUS[exc.verdict.outcome]
            outcome = exc.verdict.outcome
            payload = payload_bytes({"error": "rejected", **exc.verdict.to_dict()})
            extra = {"Retry-After": "1"}
        except asyncio.TimeoutError:
            status, outcome = 504, "error"
            payload = payload_bytes(
                {"error": "admitted but not served within deadline_s"}
            )
        except Exception as exc:  # noqa: BLE001 - must answer the client
            status, outcome = 500, "error"
            payload = payload_bytes({"error": f"internal error: {exc}"})
        finally:
            self._track_requests(-1)
            elapsed = time.monotonic() - started
            metric_inc("atm_service_requests", endpoint=endpoint, outcome=outcome)
            metric_observe(
                "atm_service_request_seconds",
                elapsed,
                endpoint=endpoint,
                outcome=outcome,
            )
            # Open/closed atomically: interleaved requests cannot
            # misnest the collector's span stack.
            with obs_span(
                "service.request",
                cat="service",
                endpoint=endpoint,
                outcome=outcome,
                source=source,
                status=status,
                wall_s=elapsed,
            ):
                pass
        return status, payload, "application/json", extra


class AdmissionRejected(Exception):
    """Raised by the submit paths when admission control says no."""

    def __init__(self, verdict: AdmissionVerdict) -> None:
        super().__init__(verdict.outcome)
        self.verdict = verdict


def _retrieve(future: "asyncio.Future[Any]") -> None:
    """Mark a cell's outcome retrieved: a cell may finish with nobody
    awaiting it (replayed before its client re-asks, or every request
    timed out), and a failed dispatch must not log "exception was never
    retrieved"."""
    if not future.cancelled():
        future.exception()


def _parse_deadline(obj: Any) -> Optional[float]:
    if not isinstance(obj, Mapping) or obj.get("deadline_s") is None:
        return None
    value = obj["deadline_s"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("field 'deadline_s' must be a number of seconds")
    if not 0 < float(value) <= 3600:
        raise ProtocolError("field 'deadline_s' must be in (0, 3600]")
    return float(value)


# ---------------------------------------------------------------------------
# the HTTP/1.1 slice
# ---------------------------------------------------------------------------

_MAX_BODY = 1 << 20  # 1 MiB of JSON is already an absurd sweep request


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One request off the stream; None on a clean EOF between requests."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ConnectionError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if not 0 <= length <= _MAX_BODY:
        raise ConnectionError(f"unacceptable content-length {length}")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str,
    keep_alive: bool,
    extra: Optional[Dict[str, str]] = None,
) -> None:
    head = [
        f"HTTP/1.1 {status} {_REASON.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)
    await writer.drain()


# ---------------------------------------------------------------------------
# process entry point (the CLI's `atm-repro serve`)
# ---------------------------------------------------------------------------


async def _serve_forever(config: ServiceConfig) -> None:
    service = SweepService(config)
    server = await service.serve()
    host, port = server.sockets[0].getsockname()[:2]
    # Test harnesses parse this line to find a --port 0 ephemeral bind.
    print(f"atm-repro serve: listening on http://{host}:{port}", flush=True)
    if service.journal is not None:
        js = service.journal.stats()
        # The chaos harness parses this line after a --resume restart.
        print(
            f"atm-repro serve: journal {js['path']}: "
            f"{service.stats()['restored_cells']} cells restored, "
            f"{service.stats()['replayed_cells']} replayed, "
            f"{js['dropped_lines']} torn lines dropped",
            flush=True,
        )
    loop = asyncio.get_running_loop()
    drain_signal = asyncio.Event()
    installed: List[int] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, drain_signal.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without loop signal support fall back to ^C
    try:
        async with server:
            serving = asyncio.create_task(server.serve_forever())
            draining = asyncio.create_task(drain_signal.wait())
            done, _pending = await asyncio.wait(
                {serving, draining}, return_when=asyncio.FIRST_COMPLETED
            )
            if draining in done:
                # Graceful drain: listener stays open (healthz answers
                # 503 draining, new work is rejected with Retry-After)
                # while queued and in-flight work flushes.
                print("atm-repro serve: draining", flush=True)
                summary = await service.drain(config.drain_timeout_s)
                state = "drained" if summary["drained"] else "drain timeout"
                print(
                    f"atm-repro serve: {state} in "
                    f"{summary['drain_seconds']:.2f} s "
                    f"({summary['journaled_pending']} unfinished cells"
                    " left journaled)",
                    flush=True,
                )
            for task in (serving, draining):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await service.stop()


def run_server(config: ServiceConfig) -> int:
    """Run the service until interrupted; returns a process exit code.

    SIGTERM and SIGINT both trigger the graceful drain: ``/healthz``
    flips to draining, new work is rejected with 503 + ``Retry-After``,
    queued cells flush under ``drain_timeout_s``, and whatever remains
    is already durable in the request journal for ``--resume``.
    """
    try:
        asyncio.run(_serve_forever(config))
    except KeyboardInterrupt:
        print("atm-repro serve: shutting down", flush=True)
    return 0
