"""Request/response schema of the sweep service (docs/service.md).

One wire contract anchors everything here: **a served cell's payload is
byte-identical to the same cell in batch ``atm-repro report`` output.**
The report writer serializes with ``json.dumps(..., indent=2,
sort_keys=True)``; :func:`payload_bytes` uses exactly the same settings
over exactly the same dict (:meth:`PlatformMeasurement.to_dict`), so a
client diffing a served response against the corresponding
``report.json`` fragment sees zero bytes of difference — whichever of
the coalescing / cache / batch-dispatch paths produced it.

Requests are validated here, *before* admission control: a malformed
request must never consume queue budget.  Validation failures raise
:class:`ProtocolError` with a message safe to echo to the client.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from ..backends.registry import available_backends, resolve_backend
from ..core.collision import DetectionMode
from ..harness.cache import ResultCache
from ..harness.parallel import SweepOptions

__all__ = [
    "ProtocolError",
    "CellRequest",
    "parse_cell_request",
    "parse_sweep_request",
    "payload_bytes",
    "sweep_payload_bytes",
]

#: Hard cap on fleet size accepted over the wire; larger requests are
#: protocol errors, not admission rejections (they would never fit a
#: service-scale deadline budget anyway).
MAX_SERVED_N = 100_000

#: Hard cap on tracking periods per request.
MAX_SERVED_PERIODS = 64


class ProtocolError(ValueError):
    """A request that fails schema validation (HTTP 400)."""


@dataclass(frozen=True)
class CellRequest:
    """One validated measurement-cell request.

    Identity is by value, so two requests for the same cell are the
    same dict key — the coalescing map and the batch deduplication both
    rely on that.
    """

    platform: str
    n: int
    seed: int = 2018
    periods: int = 3
    mode: str = DetectionMode.SIGNED.value

    @property
    def detection_mode(self) -> DetectionMode:
        return DetectionMode(self.mode)

    @property
    def compat_key(self) -> Tuple[int, int, str]:
        """Requests sharing this key may share one batched dispatch."""
        return (self.seed, self.periods, self.mode)

    def cache_key(self) -> str:
        """The cell's store key (coalescing identity).

        The key the sweep engine commits the cell under: the batch
        harness's :meth:`repro.harness.cache.ResultCache.key_for` under
        the engine's default pruning policy, which the service's
        dispatch runs with.  So a cell served by the service warms the
        same cache entries ``atm-repro report --cache-dir`` reads under
        its default ``--pruning auto``, and vice versa, at every ``n``.
        """
        return ResultCache.key_for(
            resolve_backend(self.platform),
            n=self.n,
            seed=self.seed,
            periods=self.periods,
            mode=self.detection_mode,
            pruning=SweepOptions.pruning,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "platform": self.platform,
            "n": self.n,
            "seed": self.seed,
            "periods": self.periods,
            "mode": self.mode,
        }


def _require_int(obj: Mapping[str, Any], field: str, default: Any, lo: int, hi: int) -> int:
    value = obj.get(field, default)
    if value is None:
        raise ProtocolError(f"missing required field {field!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {field!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ProtocolError(f"field {field!r} must be in [{lo}, {hi}], got {value}")
    return value


def _validated_platform(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ProtocolError("field 'platform' must be a registry name string")
    if value not in available_backends():
        raise ProtocolError(
            f"unknown platform {value!r}; see GET /v1/platforms"
        )
    return value


def _validated_mode(value: Any) -> str:
    if value is None:
        return DetectionMode.SIGNED.value
    try:
        return DetectionMode(value).value
    except ValueError:
        valid = sorted(m.value for m in DetectionMode)
        raise ProtocolError(f"field 'mode' must be one of {valid}, got {value!r}")


def _common_params(obj: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "seed": _require_int(obj, "seed", 2018, 0, 2**32 - 1),
        "periods": _require_int(obj, "periods", 3, 1, MAX_SERVED_PERIODS),
        "mode": _validated_mode(obj.get("mode")),
    }


def parse_cell_request(obj: Any) -> CellRequest:
    """Validate one ``POST /v1/cell`` body into a :class:`CellRequest`."""
    if not isinstance(obj, Mapping):
        raise ProtocolError("request body must be a JSON object")
    return CellRequest(
        platform=_validated_platform(obj.get("platform")),
        n=_require_int(obj, "n", None, 1, MAX_SERVED_N),
        **_common_params(obj),
    )


def parse_sweep_request(obj: Any) -> List[CellRequest]:
    """Validate one ``POST /v1/sweep`` body into its cell requests.

    A sweep is the cross product of ``platforms`` × ``ns`` under shared
    ``seed``/``periods``/``mode`` — the same matrix shape the batch
    harness measures, so the whole request lands in one compatible
    batch.
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError("request body must be a JSON object")
    platforms = obj.get("platforms")
    ns = obj.get("ns")
    if not isinstance(platforms, list) or not platforms:
        raise ProtocolError("field 'platforms' must be a non-empty list")
    if not isinstance(ns, list) or not ns:
        raise ProtocolError("field 'ns' must be a non-empty list")
    if len(platforms) * len(ns) > 4096:
        raise ProtocolError("sweep too large: platforms x ns must be <= 4096")
    common = _common_params(obj)
    cells = []
    for platform in platforms:
        name = _validated_platform(platform)
        for n in ns:
            if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_SERVED_N:
                raise ProtocolError(
                    f"every entry of 'ns' must be an integer in [1, {MAX_SERVED_N}],"
                    f" got {n!r}"
                )
            cells.append(CellRequest(platform=name, n=n, **common))
    return cells


def payload_bytes(data: Any) -> bytes:
    """The canonical response encoding: the report writer's, exactly.

    ``json.dumps(..., indent=2, sort_keys=True)`` mirrors
    :func:`repro.harness.report.write_report`, so any fragment of a
    ``report.json`` re-encoded with the same settings is byte-equal to
    the served payload of the same data.
    """
    return json.dumps(data, indent=2, sort_keys=True).encode("utf-8")


def sweep_payload_bytes(ns: List[int], measurements: Mapping[str, List[Any]]) -> bytes:
    """Encode a sweep response in :class:`~repro.harness.sweep.SweepData` shape."""
    return payload_bytes(
        {
            "ns": [int(n) for n in ns],
            "measurements": {
                platform: [m.to_dict() for m in rows]
                for platform, rows in measurements.items()
            },
        }
    )
