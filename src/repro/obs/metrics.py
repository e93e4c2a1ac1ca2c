"""Labeled metrics: counters, gauges and exact histograms with SLO readouts.

The :mod:`repro.obs.collector` layer records *traces* — what happened,
span by span.  This module records *metrics* — labeled aggregates that
survive a whole sweep and can be exported, merged across processes and
compared across runs:

* :class:`Counter` — monotonic labeled totals (cache traffic, trace
  lookups, shard sources, injected faults, deadline misses);
* :class:`Gauge` — last-written labeled values (bench stage timings);
* :class:`Histogram` — **exact** distributions over fixed bucket
  boundaries (linear for deadline margins, logarithmic for modelled
  seconds), carrying precise ``sum``/``count``/``min``/``max`` plus
  interpolated p50/p95/p99 readouts, and mergeable bucket-by-bucket so
  pool shards fold losslessly into the parent.

Zero-overhead contract — identical to the collector's: every helper
(:func:`metric_inc`, :func:`metric_set`, :func:`metric_observe`) is a
single global read plus an early return when no
:class:`MetricsRegistry` is active, which is the default.  Activate one
with :func:`recording` (or :func:`activate_metrics`).

Determinism: label sets are canonicalized through
:func:`repro.core.canonical.canonical_json` (string-coerced values,
sorted keys), and :meth:`MetricsRegistry.snapshot` emits a fully sorted
canonical structure, so two runs recording the same observations in the
same order produce byte-identical snapshots.  Instruments declared
``deterministic`` carry only modelled (architecture-time) quantities;
``snapshot(deterministic_only=True)`` projects onto those, which is the
form embedded in ``report.json`` (its byte-equality guarantee across
``--jobs``, caching, trace replay and fault recovery extends to the
snapshot).  See docs/observability.md, "Metrics & dashboard".
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.canonical import canonical_json, canonicalize

__all__ = [
    "DECLARATIONS",
    "MetricDecl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEADLINE_MARGIN_BUCKETS",
    "MODELLED_SECONDS_BUCKETS",
    "SERVICE_LATENCY_BUCKETS",
    "ADMISSION_MARGIN_BUCKETS",
    "log_buckets",
    "linear_buckets",
    "activate_metrics",
    "deactivate_metrics",
    "get_registry",
    "metrics_active",
    "recording",
    "metric_inc",
    "metric_set",
    "metric_observe",
    "to_openmetrics",
    "parse_openmetrics",
]


# ---------------------------------------------------------------------------
# bucket schemes
# ---------------------------------------------------------------------------


def linear_buckets(lo: float, hi: float, count: int) -> Tuple[float, ...]:
    """``count + 1`` evenly spaced upper bounds from ``lo`` to ``hi``."""
    if count < 1 or hi <= lo:
        raise ValueError("need hi > lo and count >= 1")
    step = (hi - lo) / count
    return tuple(round(lo + i * step, 12) for i in range(count + 1))


def log_buckets(lo: float, hi: float) -> Tuple[float, ...]:
    """1-2-5 decade ladder of upper bounds covering ``[lo, hi]``."""
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    bounds: List[float] = []
    decade = 10.0 ** math.floor(math.log10(lo))
    while decade <= hi:
        for mantissa in (1.0, 2.0, 5.0):
            bound = mantissa * decade
            if lo <= bound <= hi * (1 + 1e-12):
                bounds.append(bound)
        decade *= 10.0
    return tuple(bounds)


#: Deadline-margin bounds: linear across ±0.5 s (the period budget), so
#: a negative-margin (missed-deadline) observation is visible directly
#: in the bucket counts.
DEADLINE_MARGIN_BUCKETS = linear_buckets(-0.5, 0.5, 20)

#: Modelled-seconds bounds: 1-2-5 ladder from 1 µs to 10 s, matching
#: the dynamic range of the paper's timing curves.
MODELLED_SECONDS_BUCKETS = log_buckets(1e-6, 10.0)

#: Service request-latency bounds: 1-2-5 ladder from 100 µs (a warm
#: coalesced hit) to 100 s (a cold full-matrix dispatch under load).
SERVICE_LATENCY_BUCKETS = log_buckets(1e-4, 100.0)

#: Admission-margin bounds: linear across ±30 s around the request
#: deadline, so rejected-with-negative-margin requests are directly
#: visible in the bucket counts (the service analogue of
#: :data:`DEADLINE_MARGIN_BUCKETS`).
ADMISSION_MARGIN_BUCKETS = linear_buckets(-30.0, 30.0, 24)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


def canonical_labels(labels: Mapping[str, Any]) -> str:
    """The canonical identity of one label set.

    Values are coerced to strings first (``960`` and ``"960"`` are the
    same series), then serialized with sorted keys through the same
    canonicalizer the cache fingerprints use, so the identity is stable
    across processes and insertion orders.
    """
    return canonical_json({str(k): str(v) for k, v in labels.items()})


class Counter:
    """A monotonic total; :meth:`inc` with a non-negative value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, value: float = 1.0) -> None:
        value = float(value)
        if value < 0.0:
            raise ValueError(f"counters only go up; got {value}")
        self.value += value

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    def load(self, data: Mapping[str, Any]) -> None:
        self.value += float(data["value"])


class Gauge:
    """A last-write-wins value; :meth:`set` replaces it."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    def load(self, data: Mapping[str, Any]) -> None:
        self.value = float(data["value"])


class Histogram:
    """Exact fixed-boundary histogram with quantile readouts.

    ``bounds`` are the finite bucket upper limits (``le`` values); an
    implicit ``+Inf`` bucket catches the rest.  The instrument keeps
    per-bucket counts plus exact ``sum``/``count``/``min``/``max``, so
    merging two histograms over the same bounds loses nothing, and
    :meth:`quantile` interpolates within the bracketing bucket (exact at
    the recorded ``min``/``max`` endpoints).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # + the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1), linearly interpolated within buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.bucket_counts):
            if c == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else self.min
            hi = self.bounds[i] if i < len(self.bounds) else self.max
            lo = max(lo, self.min)
            hi = min(hi, self.max)
            if rank <= seen + c:
                frac = (rank - seen) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            seen += c
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": None if self.count == 0 else self.quantile(0.50),
            "p95": None if self.count == 0 else self.quantile(0.95),
            "p99": None if self.count == 0 else self.quantile(0.99),
        }

    def load(self, data: Mapping[str, Any]) -> None:
        other = Histogram(data["bounds"])
        other.bucket_counts = [int(c) for c in data["bucket_counts"]]
        other.count = int(data["count"])
        other.sum = float(data["sum"])
        other.min = math.inf if data.get("min") is None else float(data["min"])
        other.max = -math.inf if data.get("max") is None else float(data["max"])
        self.merge(other)


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDecl:
    """Static metadata of one metric family."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    unit: str = ""
    #: deterministic metrics carry only modelled quantities, so their
    #: series are byte-identical across --jobs/cache/trace/fault paths
    #: and may be embedded in report.json.
    deterministic: bool = False
    #: finite bucket upper bounds (histograms only).
    buckets: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if not re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", self.name):
            raise ValueError(f"invalid metric name {self.name!r}")
        if self.unit and not self.name.endswith(f"_{self.unit}"):
            raise ValueError(
                f"OpenMetrics requires {self.name!r} to end with its unit"
                f" {self.unit!r}"
            )
        if self.kind == "histogram" and not self.buckets:
            raise ValueError(f"histogram {self.name!r} needs bucket bounds")


#: Every metric the harness records, by family name.  The deterministic
#: families reproduce the paper's deadline table from the snapshot alone.
DECLARATIONS: Dict[str, MetricDecl] = {
    d.name: d
    for d in (
        MetricDecl(
            name="atm_deadline_margin_seconds",
            kind="histogram",
            help=(
                "Remaining half-second period budget after the period's"
                " modelled task time (negative = deadline missed); labels:"
                " platform, n_aircraft, period (tracking|collision), and"
                " source (sweep|schedule) distinguishing measurement sweeps"
                " from full major-cycle schedules"
            ),
            unit="seconds",
            deterministic=True,
            buckets=DEADLINE_MARGIN_BUCKETS,
        ),
        MetricDecl(
            name="atm_deadline_misses",
            kind="counter",
            help=(
                "Periods whose modelled task time exceeded the 0.5 s budget"
                " (or whose Task 2+3 was skipped); labels: platform,"
                " n_aircraft, source.  Recorded as 0 for clean cells so the"
                " paper's never-miss claim is readable from the snapshot."
            ),
            deterministic=True,
        ),
        MetricDecl(
            name="atm_deadline_periods",
            kind="counter",
            help=(
                "Half-second periods evaluated against the deadline budget"
                " (the denominator of the miss rate); labels: platform,"
                " n_aircraft, source"
            ),
            deterministic=True,
        ),
        MetricDecl(
            name="atm_store_requests",
            kind="counter",
            help=(
                "Content-addressed store traffic; labels: store"
                " (result|trace), outcome (hit|miss|store|quarantined|"
                "io_error)"
            ),
        ),
        MetricDecl(
            name="atm_trace_requests",
            kind="counter",
            help=(
                "Functional-trace tier lookups; labels: source"
                " (memo|store|compute|pool|stream)"
            ),
        ),
        MetricDecl(
            name="atm_prune_candidates",
            kind="counter",
            help=(
                "Candidate pairs surviving sweepline/grid-hash pruning"
                " in the functional pass; labels: task (detect|resolve|"
                "track)"
            ),
        ),
        MetricDecl(
            name="atm_trace_bytes",
            kind="counter",
            help=(
                "Functional-trace record bytes produced by the streaming"
                " generator; labels: record (period|collision)"
            ),
            unit="bytes",
        ),
        MetricDecl(
            name="atm_trace_peak_bytes",
            kind="gauge",
            help=(
                "Peak resident trace bytes of the latest functional pass;"
                " labels: path (materialized|streamed)"
            ),
            unit="bytes",
        ),
        MetricDecl(
            name="atm_shards",
            kind="counter",
            help=(
                "Sweep shards by where their result came from; labels:"
                " source (memory|cache|journal|pool|inline)"
            ),
        ),
        MetricDecl(
            name="atm_faults",
            kind="counter",
            help=(
                "Harness fault events (injected chaos and real failures);"
                " labels: kind"
            ),
        ),
        MetricDecl(
            name="atm_bench_stage_seconds",
            kind="gauge",
            help=(
                "Wall seconds of the latest bench stage; labels: stage"
                " (trace_cold|trace_warm|large_calibration_brute|"
                "large_calibration_pruned|large_sweep)"
            ),
            unit="seconds",
        ),
        MetricDecl(
            name="atm_search_evaluations",
            kind="counter",
            help=(
                "Design-space candidates judged by the search evaluator;"
                " labels: searcher (random|genetic|halving|paper), outcome"
                " (evaluated|rejected|memoized).  Zero-initialized per"
                " searcher at evaluator construction."
            ),
        ),
        MetricDecl(
            name="atm_search_rejected",
            kind="counter",
            help=(
                "Candidates rejected by the lumos-style physical budget"
                " before any sweep work; labels: searcher, constraint"
                " (area|power).  Recorded as 0 for clean runs so budget"
                " behaviour is readable from the snapshot alone."
            ),
        ),
        MetricDecl(
            name="atm_search_rounds",
            kind="counter",
            help=(
                "Search rounds completed (GA generations, halving rungs,"
                " 1 for random search); labels: searcher"
            ),
        ),
        MetricDecl(
            name="atm_search_best_fitness",
            kind="gauge",
            help=(
                "Best (lowest) full-fidelity fitness seen so far by a"
                " searcher; labels: searcher, objective"
            ),
        ),
        MetricDecl(
            name="atm_service_requests",
            kind="counter",
            help=(
                "Requests seen by the sweep service (or, with"
                " endpoint=client, sent by the load generator); labels:"
                " endpoint, outcome (served|rejected_deadline|"
                "rejected_backpressure|rejected_draining|bad_request|error)"
            ),
        ),
        MetricDecl(
            name="atm_service_request_seconds",
            kind="histogram",
            help=(
                "Wall-clock latency from request receipt to the last"
                " response byte (endpoint=client: as observed by the"
                " closed-loop load generator); labels: endpoint, outcome."
                "  Measured wall time — never the paper's modelled"
                " architecture seconds (see EXPERIMENTS.md)."
            ),
            unit="seconds",
            buckets=SERVICE_LATENCY_BUCKETS,
        ),
        MetricDecl(
            name="atm_service_admission_margin_seconds",
            kind="histogram",
            help=(
                "Estimated slack between a request's deadline budget and"
                " the admission controller's completion estimate at"
                " admission time (negative = rejected with a deadline"
                " verdict); labels: outcome"
            ),
            unit="seconds",
            buckets=ADMISSION_MARGIN_BUCKETS,
        ),
        MetricDecl(
            name="atm_service_inflight_requests",
            kind="gauge",
            help=(
                "Admitted requests not yet answered; labels: kind"
                " (current|peak)"
            ),
        ),
        MetricDecl(
            name="atm_service_queue_cells",
            kind="gauge",
            help=(
                "Measurement cells waiting for a batch dispatch; labels:"
                " kind (current|peak)"
            ),
        ),
        MetricDecl(
            name="atm_service_batches",
            kind="counter",
            help=(
                "Batched process-pool dispatches through the sweep engine;"
                " labels: outcome (ok|error)"
            ),
        ),
        MetricDecl(
            name="atm_service_batch_cells",
            kind="histogram",
            help=(
                "Distinct measurement cells folded into one batched"
                " dispatch (coalesced duplicates count once); no labels"
            ),
            buckets=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0),
        ),
        MetricDecl(
            name="atm_service_retries",
            kind="counter",
            help=(
                "Request retries by the service load generator, by"
                " taxonomy; labels: endpoint, reason (timeout|reset|"
                "rejected_backpressure|rejected_draining|circuit_open)"
            ),
        ),
        MetricDecl(
            name="atm_service_drain_seconds",
            kind="gauge",
            help=(
                "Wall-clock seconds the last graceful drain took to"
                " flush in-flight cells before shutdown (0 until a"
                " drain runs); no labels"
            ),
            unit="seconds",
        ),
        MetricDecl(
            name="atm_service_journal_replayed",
            kind="counter",
            help=(
                "Request-journal lines acted on at --resume startup;"
                " labels: kind (restored = served payloads reloaded,"
                " replayed = admitted-but-unserved cells re-enqueued,"
                " dropped = torn/corrupt lines discarded)"
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Holds every labeled series of every declared metric family.

    One registry per recording scope; the process-global one is
    installed with :func:`recording` / :func:`activate_metrics`.  The
    record methods (:meth:`inc`, :meth:`set`, :meth:`observe`) create
    series on first touch; unknown family names raise unless declared
    first with :meth:`declare` — silent typos would otherwise vanish
    into never-exported series.
    """

    def __init__(
        self, declarations: Optional[Mapping[str, MetricDecl]] = None
    ) -> None:
        self.declarations: Dict[str, MetricDecl] = dict(
            DECLARATIONS if declarations is None else declarations
        )
        #: family name -> canonical label json -> instrument
        self._series: Dict[str, Dict[str, Any]] = {}

    def declare(self, decl: MetricDecl) -> MetricDecl:
        existing = self.declarations.get(decl.name)
        if existing is not None and existing != decl:
            raise ValueError(f"metric {decl.name!r} already declared differently")
        self.declarations[decl.name] = decl
        return decl

    # -- recording ------------------------------------------------------

    def _instrument(self, name: str, kind: str, labels: Mapping[str, Any]):
        decl = self.declarations.get(name)
        if decl is None:
            raise KeyError(f"metric {name!r} is not declared")
        if decl.kind != kind:
            raise TypeError(f"metric {name!r} is a {decl.kind}, not a {kind}")
        family = self._series.setdefault(name, {})
        key = canonical_labels(labels)
        instrument = family.get(key)
        if instrument is None:
            if kind == "counter":
                instrument = Counter()
            elif kind == "gauge":
                instrument = Gauge()
            else:
                instrument = Histogram(decl.buckets)
            family[key] = instrument
        return instrument

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        self._instrument(name, "counter", labels).inc(value)

    def set(self, name: str, value: float, **labels: Any) -> None:
        self._instrument(name, "gauge", labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self._instrument(name, "histogram", labels).observe(value)

    # -- queries --------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """A counter/gauge series' value, or None when never recorded."""
        instrument = self._series.get(name, {}).get(canonical_labels(labels))
        return None if instrument is None else instrument.value

    def series(self, name: str) -> Dict[str, Any]:
        """Canonical-label-json -> instrument for one family."""
        return dict(self._series.get(name, {}))

    # -- snapshot / merge -----------------------------------------------

    def snapshot(self, *, deterministic_only: bool = False) -> Dict[str, Any]:
        """Canonical JSON-able form of every recorded series.

        Families and series are emitted in sorted order and every value
        passes through :func:`repro.core.canonical.canonicalize`, so
        equal registries snapshot to byte-equal ``canonical_json``.
        With ``deterministic_only`` the snapshot is restricted to
        families declared deterministic — the projection embedded in
        ``report.json``.
        """
        families: Dict[str, Any] = {}
        for name in sorted(self._series):
            decl = self.declarations[name]
            if deterministic_only and not decl.deterministic:
                continue
            series = []
            for key in sorted(self._series[name]):
                instrument = self._series[name][key]
                series.append(
                    {"labels": json.loads(key), **instrument.to_dict()}
                )
            families[name] = {
                "kind": decl.kind,
                "help": decl.help,
                "unit": decl.unit,
                "deterministic": decl.deterministic,
                "series": series,
            }
        return canonicalize(
            {"deterministic_only": deterministic_only, "families": families}
        )

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s series into this registry (shard -> parent)."""
        for name, series in other._series.items():
            self.declarations.setdefault(name, other.declarations[name])
            for key, instrument in series.items():
                decl = self.declarations[name]
                mine = self._instrument(name, decl.kind, json.loads(key))
                mine.merge(instrument)
        return self

    def load_snapshot(self, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` dict back in (cross-process merge)."""
        for name, family in snapshot.get("families", {}).items():
            decl = self.declarations.get(name)
            if decl is None:
                decl = self.declare(
                    MetricDecl(
                        name=name,
                        kind=family["kind"],
                        help=family.get("help", ""),
                        unit=family.get("unit", ""),
                        deterministic=bool(family.get("deterministic", False)),
                        buckets=tuple(family["series"][0]["bounds"])
                        if family["kind"] == "histogram" and family["series"]
                        else (),
                    )
                )
            for entry in family["series"]:
                instrument = self._instrument(name, decl.kind, entry["labels"])
                instrument.load(entry)
        return self


# ---------------------------------------------------------------------------
# the process-global registry (no-op mode mirrors the collector's)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def get_registry() -> Optional[MetricsRegistry]:
    """The active registry, or None when metrics are disabled."""
    return _ACTIVE


def metrics_active() -> bool:
    return _ACTIVE is not None


def activate_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process registry."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def deactivate_metrics() -> Optional[MetricsRegistry]:
    """Return to no-op mode; returns the registry that was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def recording(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Activate a metrics registry for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    r = registry if registry is not None else MetricsRegistry()
    _ACTIVE = r
    try:
        yield r
    finally:
        _ACTIVE = previous


def metric_inc(name: str, value: float = 1.0, **labels: Any) -> None:
    """Increment a labeled counter (no-op when no registry is active)."""
    r = _ACTIVE
    if r is not None:
        r.inc(name, value, **labels)


def metric_set(name: str, value: float, **labels: Any) -> None:
    """Set a labeled gauge (no-op when no registry is active)."""
    r = _ACTIVE
    if r is not None:
        r.set(name, value, **labels)


def metric_observe(name: str, value: float, **labels: Any) -> None:
    """Observe into a labeled histogram (no-op when no registry is active)."""
    r = _ACTIVE
    if r is not None:
        r.observe(name, value, **labels)


# ---------------------------------------------------------------------------
# OpenMetrics text exposition
# ---------------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_openmetrics(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as OpenMetrics text.

    Counter samples get the mandatory ``_total`` suffix; histograms
    expose cumulative ``_bucket`` series plus ``_count``/``_sum``; the
    exposition ends with ``# EOF`` as the format requires.  The output
    round-trips through :func:`parse_openmetrics`.
    """
    lines: List[str] = []
    for name in sorted(snapshot.get("families", {})):
        family = snapshot["families"][name]
        kind = family["kind"]
        lines.append(f"# TYPE {name} {kind}")
        if family.get("unit"):
            lines.append(f"# UNIT {name} {family['unit']}")
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        for entry in family["series"]:
            labels = entry["labels"]
            if kind == "counter":
                lines.append(
                    f"{name}_total{_format_labels(labels)}"
                    f" {_format_value(entry['value'])}"
                )
            elif kind == "gauge":
                lines.append(
                    f"{name}{_format_labels(labels)}"
                    f" {_format_value(entry['value'])}"
                )
            else:  # histogram
                cumulative = 0
                for bound, count in zip(
                    list(entry["bounds"]) + [math.inf],
                    entry["bucket_counts"],
                ):
                    cumulative += count
                    le = 'le="%s"' % _format_value(bound)
                    lines.append(
                        f"{name}_bucket{_format_labels(labels, extra=le)}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {entry['count']}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)}"
                    f" {_format_value(entry['sum'])}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>\S+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum"),
}


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse OpenMetrics text; raise ``ValueError`` on violations.

    Checks the invariants CI relies on: a single trailing ``# EOF``,
    every sample attributable to a ``# TYPE``-declared family with a
    kind-appropriate suffix, parseable labels and values, and — for
    histograms — cumulative non-decreasing buckets whose ``+Inf`` count
    equals the series ``_count``.  Returns ``{family: {"type": ...,
    "unit": ..., "help": ..., "samples": [(name, labels, value), ...]}}``.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families: Dict[str, Dict[str, Any]] = {}
    for i, line in enumerate(lines[:-1]):
        if line == "# EOF":
            raise ValueError(f"line {i + 1}: '# EOF' before the end")
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            parts = rest.split(" ")
            if len(parts) != 2:
                raise ValueError(f"line {i + 1}: malformed TYPE line")
            name, kind = parts
            if kind not in _SUFFIXES:
                raise ValueError(f"line {i + 1}: unknown metric type {kind!r}")
            if name in families:
                raise ValueError(f"line {i + 1}: duplicate TYPE for {name!r}")
            families[name] = {"type": kind, "unit": "", "help": "", "samples": []}
            continue
        if line.startswith("# UNIT ") or line.startswith("# HELP "):
            keyword = line[2:6]
            rest = line[7:]
            name, _, value = rest.partition(" ")
            if name not in families:
                raise ValueError(
                    f"line {i + 1}: {keyword} before TYPE for {name!r}"
                )
            families[name][keyword.lower()] = value
            continue
        if line.startswith("#") or not line.strip():
            raise ValueError(f"line {i + 1}: unexpected line {line!r}")
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {i + 1}: unparseable sample {line!r}")
        sample_name = m.group("name")
        family = None
        for fam_name, meta in families.items():
            for suffix in _SUFFIXES[meta["type"]]:
                if sample_name == fam_name + suffix:
                    family = fam_name
                    break
            if family:
                break
        if family is None:
            raise ValueError(
                f"line {i + 1}: sample {sample_name!r} matches no declared"
                " family/suffix"
            )
        labels: Dict[str, str] = {}
        raw_labels = m.group("labels")
        if raw_labels:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw_labels):
                labels[lm.group(1)] = lm.group(2)
                consumed = lm.end()
            leftover = raw_labels[consumed:].strip().strip(",")
            if leftover:
                raise ValueError(
                    f"line {i + 1}: unparseable labels {raw_labels!r}"
                )
        raw_value = m.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {i + 1}: unparseable value {raw_value!r}"
            ) from None
        families[family]["samples"].append((sample_name, labels, value))
    for name, meta in families.items():
        if meta["type"] != "histogram":
            continue
        by_series: Dict[str, Dict[str, Any]] = {}
        for sample_name, labels, value in meta["samples"]:
            key_labels = {k: v for k, v in labels.items() if k != "le"}
            entry = by_series.setdefault(
                canonical_labels(key_labels), {"buckets": [], "count": None}
            )
            if sample_name == f"{name}_bucket":
                entry["buckets"].append((labels.get("le"), value))
            elif sample_name == f"{name}_count":
                entry["count"] = value
        for key, entry in by_series.items():
            if not entry["buckets"]:
                raise ValueError(f"histogram {name!r} series {key} has no buckets")
            les = [le for le, _ in entry["buckets"]]
            if les[-1] != "+Inf":
                raise ValueError(
                    f"histogram {name!r} series {key} lacks the +Inf bucket"
                )
            counts = [v for _, v in entry["buckets"]]
            if any(b > a for b, a in zip(counts, counts[1:])):
                raise ValueError(
                    f"histogram {name!r} series {key} buckets not cumulative"
                )
            if entry["count"] is not None and counts[-1] != entry["count"]:
                raise ValueError(
                    f"histogram {name!r} series {key}: +Inf bucket"
                    f" {counts[-1]} != _count {entry['count']}"
                )
    return families
