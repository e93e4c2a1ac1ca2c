"""The service's tunables, in a module of their own.

:class:`ServiceConfig` is the one source of the ``atm-repro serve``
defaults: the CLI builds the ``serve`` parser from it, and importing
this module loads neither asyncio nor the server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..harness.faults import FaultPlan

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`~repro.service.server.SweepService`."""

    host: str = "127.0.0.1"
    port: int = 8018
    #: worker processes per batched dispatch (measure_cells jobs).
    jobs: int = 1
    #: result/trace cache directory, or None for in-memory only.
    cache_dir: Optional[str] = None
    #: extra seconds a batch waits for more cells after taking every
    #: queued one; 0 dispatches the backlog at once.
    batch_window_s: float = 0.0
    #: most distinct cells folded into one dispatch.
    max_batch_cells: int = 64
    #: backpressure bound: queued + in-dispatch cells beyond this reject.
    max_queue_cells: int = 1024
    #: deadline budget for requests that do not send ``deadline_s``.
    default_deadline_s: float = 30.0
    #: request-journal path; None derives <cache_dir>/service-journal.jsonl
    #: (no journal at all when cache_dir is also unset).
    journal_path: Optional[str] = None
    #: replay the request journal instead of discarding it.
    resume: bool = False
    #: graceful-shutdown budget: seconds the drain waits for in-flight
    #: cells and requests to flush before the process exits anyway.
    drain_timeout_s: float = 10.0
    #: service-layer fault plan (--inject-faults), or None.
    faults: Optional[FaultPlan] = None
