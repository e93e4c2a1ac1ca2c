"""The benchmark's layers: which ``repro`` entry points each one wraps,
and the per-layer metrics a traced run reports.

A layer is a ``repro`` module (or, for the five backend families, the
trace-replay and direct-execution halves of one backend class).  Only
entry points are wrapped, never helpers called ~10^5 times per op; the
one exception is ``core.collision.pair_interval``, which dominates the
pruned large-n pass.  Two consequences of wrapping entry points only:

* the pruned resolve's existence oracle (a sweepline helper handed to
  ``core.resolution.resolve``) is not wrapped, so on ``large_n`` its
  time shows as ``core.resolution`` self time;
* ``service.server.submit_cell`` is a coroutine, recorded flat, so its
  self time is the event loop's time while submits were in flight and
  no traced layer ran on the loop — mostly waiting for the batch window
  and the dispatch thread, which ``queue_wait_s`` and
  ``dispatch_busy_share`` break down.
"""

from __future__ import annotations

import importlib
from collections import Counter
from typing import Any, Dict, List, Optional

from stats import percentile
from tracer import (
    ASYNC,
    END,
    LAYER,
    NOTE,
    START,
    THREAD,
    Tracer,
    attribute,
    children_index,
    descendants,
    import_package,
)

#: Module-level functions: (layer, module, name).
FUNCTIONS = (
    ("core.tracking", "repro.core.tracking", "correlate"),
    ("core.collision", "repro.core.collision", "detect"),
    ("core.collision", "repro.core.collision", "pair_interval"),
    ("core.resolution", "repro.core.resolution", "resolve"),
    ("core.resolution", "repro.core.resolution", "detect_and_resolve"),
    ("core.sweepline", "repro.core.sweepline", "detect_pruned"),
    ("core.sweepline", "repro.core.sweepline", "resolve_pruned"),
    ("core.scheduler", "repro.core.scheduler", "run_schedule"),
    ("extended", "repro.extended.scheduler", "run_extended_schedule"),
    ("core.setup", "repro.core.setup", "setup_flight"),
    ("core.radar", "repro.core.radar", "generate_radar_frame"),
    ("core.trace", "repro.core.trace", "compute_trace"),
    ("harness.sweep", "repro.harness.sweep", "measure_platform"),
    ("harness.parallel", "repro.harness.parallel", "measure_cells"),
    ("service.protocol", "repro.service.protocol", "parse_cell_request"),
    ("service.protocol", "repro.service.protocol", "parse_sweep_request"),
    ("service.protocol", "repro.service.protocol", "payload_bytes"),
    ("analysis", "repro.analysis.curvefit", "polynomial_fit"),
    ("analysis", "repro.analysis.curvefit", "growth_exponent"),
    ("analysis", "repro.analysis.curvefit", "assess_linearity"),
    ("analysis", "repro.analysis.deadlines", "record_cell_metrics"),
    ("obs.metrics", "repro.obs.metrics", "metric_inc"),
    ("obs.metrics", "repro.obs.metrics", "metric_observe"),
    ("obs.metrics", "repro.obs.metrics", "metric_set"),
)

#: The five backend families: family -> (module, class).
FAMILIES = {
    "cuda": ("repro.cuda.backend", "CudaBackend"),
    "ap": ("repro.ap.backend", "ApBackend"),
    "simd": ("repro.simd.backend", "SimdBackend"),
    "mimd": ("repro.mimd.backend", "MimdBackend"),
    "vector": ("repro.vector.backend", "VectorBackend"),
}


def _cell(request: Any) -> List[Any]:
    d = request.to_dict()
    return [d["platform"], d["n"], d["seed"], d["periods"], d["mode"]]


def _found(hit: str, miss: str):
    return lambda args, result: hit if result is not None else miss


def _const(value: str):
    return lambda args, result: value


#: Methods: (layer, module, class, name, note).
METHODS = tuple(
    [
        (f"{family}.{half}", module, cls, name, None)
        for family, (module, cls) in FAMILIES.items()
        for half, names in (
            ("replay", ("track_timing_from_trace", "collision_timing_from_trace")),
            ("direct", ("track_and_correlate", "detect_and_resolve")),
        )
        for name in names
    ]
    + [
        ("harness.cache", "repro.harness.cache", "ResultCache", "get",
         _found("result_hit", "result_miss")),
        ("harness.cache", "repro.harness.cache", "ResultCache", "put", _const("put")),
        ("harness.cache", "repro.harness.cache", "ResultCache", "key_for", _const("key")),
        ("harness.cache", "repro.harness.cache", "TraceStore", "get",
         _found("trace_hit", "trace_miss")),
        ("harness.cache", "repro.harness.cache", "TraceStore", "put", _const("put")),
        ("service.server", "repro.service.server", "SweepService", "submit_cell",
         lambda args, result: [result[0] if result else "error", _cell(args[1])]),
        ("service.server", "repro.service.server", "SweepService", "_measure_batch",
         lambda args, result: [_cell(r) for r in args[1]]),
        # The journal's line count after the call: its maximum is the
        # number of fsynced appends.
        ("service.journal", "repro.service.journal", "RequestJournal",
         "record_admitted", lambda args, result: args[0].recorded),
        ("service.journal", "repro.service.journal", "RequestJournal",
         "record_served", lambda args, result: args[0].recorded),
        ("analysis", "repro.analysis.deadlines", "AdmissionController", "assess", None),
    ]
)

#: The report's experiments, in the order metric names list them.
EXPERIMENT_IDS = (
    "abl-blocksize", "abl-fused", "abl-resolution", "abl-smem", "abl-throughput",
    "ext-vector", "ext-viability", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "tbl-deadline", "tbl-determinism",
)

LAYERS = (
    "core.tracking", "core.collision", "core.resolution", "core.sweepline",
    "core.scheduler", "extended", "core.setup", "core.radar", "core.trace",
    *(f"{family}.{half}" for family in FAMILIES for half in ("replay", "direct")),
    "harness.sweep", "harness.parallel", "harness.cache", "harness.figures",
    "service.protocol", "service.server", "service.journal",
    "analysis", "obs.metrics",
)

#: Extra per-layer metrics beyond calls / self_s / share: name -> unit.
EXTRAS = {
    "core.trace.traces_computed": "count",
    "harness.sweep.memo_hit_ratio": "ratio",
    "harness.cache.get_s": "s",
    "harness.cache.put_s": "s",
    "harness.cache.hit_ratio": "ratio",
    "service.server.queue_wait_s": "s",
    "service.server.dispatch_busy_share": "ratio",
    "service.server.batch_cells_mean": "count",
    "service.server.memory_hit_share": "ratio",
    "service.server.disk_hit_share": "ratio",
    "service.server.computed_share": "ratio",
    "service.server.coalesced_share": "ratio",
    "service.journal.fsyncs": "count",
    **{f"harness.figures.{exp}.wall_s": "s" for exp in EXPERIMENT_IDS},
    "client.lateness_p99_ms": "ms",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_s": "s",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name, in reporting order, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(EXTRAS)
    return units


def install(tracer: Tracer) -> None:
    """Wrap every entry point above (imports all of ``repro`` first)."""
    modules = import_package("repro")
    for layer, module, name in FUNCTIONS:
        fn = getattr(importlib.import_module(module), name)
        if not tracer.patch_function(fn, layer, modules):
            raise RuntimeError(f"no binding of {module}.{name} to wrap")
    for layer, module, cls, name, note in METHODS:
        tracer.patch_method(getattr(importlib.import_module(module), cls), name, layer, note)
    experiments = importlib.import_module("repro.harness.figures").EXPERIMENTS
    if sorted(experiments) != sorted(EXPERIMENT_IDS):
        raise RuntimeError(f"experiment set changed: {sorted(experiments)}")
    for exp_id, fn in list(experiments.items()):
        tracer.patch_function(fn, "harness.figures", modules, _const(exp_id))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: List[list],
    *,
    wall_s: float,
    main_thread: int,
    overhead_s: float,
    lateness_ms: Optional[List[float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced op whose wall time is ``wall_s``."""
    owned, covered = attribute(spans)
    calls = Counter(span[LAYER] for span in spans)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = owned.get(layer, 0.0)
        out[f"{layer}.share"] = _share(owned.get(layer, 0.0), wall_s)
    out["core.trace.traces_computed"] = calls["core.trace"]

    # Trace memo: a measured cell that replayed a trace it neither
    # computed nor read from the trace store found it in the memo.
    index = children_index(spans)
    replayed = memo_hits = 0
    for span in spans:
        if span[LAYER] != "harness.sweep":
            continue
        below = descendants(span, index)
        if not any(s[LAYER].endswith(".replay") for s in below):
            continue
        replayed += 1
        if not any(s[LAYER] == "core.trace" or s[NOTE] == "trace_hit" for s in below):
            memo_hits += 1
    out["harness.sweep.memo_hit_ratio"] = _share(memo_hits, replayed)

    cache = [s for s in spans if s[LAYER] == "harness.cache"]
    gets = [s for s in cache if s[NOTE] in ("result_hit", "result_miss", "trace_hit", "trace_miss")]
    out["harness.cache.get_s"] = sum((s[END] - s[START] for s in gets), 0.0)
    out["harness.cache.put_s"] = sum((s[END] - s[START] for s in cache if s[NOTE] == "put"), 0.0)
    out["harness.cache.hit_ratio"] = _share(
        sum(1 for s in gets if s[NOTE].endswith("_hit")), len(gets)
    )

    out.update(_server_metrics(spans, wall_s))
    journal = [s[NOTE] for s in spans if s[LAYER] == "service.journal"]
    out["service.journal.fsyncs"] = max(journal, default=0)

    for exp in EXPERIMENT_IDS:
        out[f"harness.figures.{exp}.wall_s"] = sum(
            (s[END] - s[START] for s in spans if s[LAYER] == "harness.figures" and s[NOTE] == exp),
            0.0,
        )
    out["client.lateness_p99_ms"] = percentile(lateness_ms, 99) if lateness_ms else 0.0
    unattributed = wall_s - covered.get(main_thread, 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = unattributed
    out["trace.unattributed_share"] = _share(unattributed, wall_s)
    out["trace.overhead_s"] = overhead_s
    return out


def server_counts(spans: List[list]) -> Dict[str, int]:
    """How the server resolved its cell submits, counted from the spans.

    A disk hit is a result-cache read that found its cell on the event
    loop's thread; every other ``cache`` submit came from memory.
    """
    submits = [s for s in spans if s[LAYER] == "service.server" and s[ASYNC]]
    sources = Counter(s[NOTE][0] for s in submits)
    loop_threads = {s[THREAD] for s in submits}
    disk = sum(
        1 for s in spans
        if s[LAYER] == "harness.cache" and s[NOTE] == "result_hit" and s[THREAD] in loop_threads
    )
    return {
        "submits": len(submits),
        "cache_misses": sum(1 for s in spans if s[NOTE] == "result_miss"),
        "computed": sources["computed"],
        "coalesced": sources["coalesced"],
        "disk_hits": disk,
        "memory_hits": sources["cache"] - disk,
    }


def _server_metrics(spans: List[list], wall_s: float) -> Dict[str, float]:
    submits = [s for s in spans if s[LAYER] == "service.server" and s[ASYNC]]
    batches = [s for s in spans if s[LAYER] == "service.server" and not s[ASYNC]]
    counts = server_counts(spans)
    # A computed cell waits from its submit until the dispatch that
    # measures it starts.
    dispatch_start: Dict[tuple, float] = {}
    for batch in sorted(batches, key=lambda s: s[START]):
        for cell in batch[NOTE]:
            dispatch_start.setdefault(tuple(cell), batch[START])
    waits = [
        dispatch_start[tuple(s[NOTE][1])] - s[START]
        for s in submits
        if s[NOTE][0] == "computed" and tuple(s[NOTE][1]) in dispatch_start
    ]
    total = counts["submits"]
    return {
        "service.server.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "service.server.dispatch_busy_share": _share(sum((s[END] - s[START] for s in batches), 0.0), wall_s),
        "service.server.batch_cells_mean": _share(sum(len(s[NOTE]) for s in batches), len(batches)),
        "service.server.memory_hit_share": _share(counts["memory_hits"], total),
        "service.server.disk_hit_share": _share(counts["disk_hits"], total),
        "service.server.computed_share": _share(counts["computed"], total),
        "service.server.coalesced_share": _share(counts["coalesced"], total),
    }


def exact_counts(metrics: Dict[str, float]) -> Dict[str, int]:
    """The traced counts that depend only on the seed (asserted exactly)."""
    return {k: int(v) for k, v in metrics.items() if k.endswith(".calls")}


def ranked_table(metrics: Dict[str, float]) -> List[str]:
    """Text lines: the top layers ranked by self time, then the remainder."""
    rows = sorted(
        ((metrics[f"{layer}.self_s"], layer) for layer in LAYERS), reverse=True
    )
    lines = [f"{'layer':<18s} {'calls':>9s} {'self s':>9s} {'share':>7s}"]
    for self_s, layer in rows[:12]:
        if self_s <= 0:
            break
        lines.append(
            f"{layer:<18s} {int(metrics[layer + '.calls']):>9d} {self_s:>9.3f} "
            f"{metrics[layer + '.share']:>7.1%}"
        )
    lines.append(
        f"{'(unattributed)':<18s} {'':>9s} {metrics['trace.unattributed_s']:>9.3f} "
        f"{metrics['trace.unattributed_share']:>7.1%}"
    )
    lines.append(
        f"tracing overhead {metrics['trace.overhead_s']:.4f} s over a traced wall of "
        f"{metrics['trace.wall_s']:.3f} s"
    )
    return lines
