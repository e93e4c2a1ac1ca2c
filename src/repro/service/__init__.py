"""ATM-as-a-service: the long-running sweep/scenario server.

The service layer turns the batch harness into a process that serves
measurement requests over HTTP — coalescing identical in-flight
requests on the cache fingerprints, batching compatible cells into
shared process-pool dispatches, and running the deadline machinery as
*admission control* (docs/service.md; architecture context in
docs/architecture.md).

Entry points: ``atm-repro serve`` / :func:`repro.service.run_server`
for the server, ``atm-repro loadtest`` / :func:`repro.service.run_loadgen`
for the closed-loop load generator.
"""

import importlib
from typing import Any

#: public name -> the submodule defining it.  A submodule loads on the
#: first use of one of its names, so the CLI reads ``ServiceConfig``
#: (the ``serve`` defaults) without importing asyncio into every command.
_EXPORTS = {
    "CellRequest": "protocol",
    "LoadgenOptions": "loadgen",
    "ProtocolError": "protocol",
    "RequestJournal": "journal",
    "ServiceConfig": "config",
    "SweepService": "server",
    "parse_cell_request": "protocol",
    "parse_sweep_request": "protocol",
    "payload_bytes": "protocol",
    "render_summary": "loadgen",
    "run_loadgen": "loadgen",
    "run_server": "server",
    "sweep_payload_bytes": "protocol",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
