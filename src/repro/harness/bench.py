"""Benchmark harness for the shared functional-trace engine.

``run_bench`` times the five-backend sweep three ways on identical
parameters:

* ``reexec`` — trace engine off: every cell replays from a private
  functional pass, so the :mod:`repro.core` simulation re-runs for
  every backend (the cost of the pre-trace-engine behaviour);
* ``trace_cold`` — trace engine on, empty memo: the simulation runs once
  per fleet size and all backends replay their cost ledgers from it;
* ``trace_warm`` — trace engine on, warm in-process memo: pure replay.

All three sweeps must serialize to byte-identical canonical JSON — the
bench *fails* equivalence otherwise, because a speedup that changes
results is a bug, not an optimisation.  The headline metric is the
``cold`` speedup (``reexec`` wall / ``trace_cold`` wall): it is a ratio
of two measurements from the same process on the same machine, so it is
machine-independent enough for CI regression tracking, unlike absolute
wall seconds.

``compare_to_baseline`` enforces the CI gate: the current cold speedup
must not fall more than ``max_regression`` (default 25%) below the
committed baseline's.  See docs/performance.md and ``make bench-smoke``.

``run_bench_large`` is the continental-scale profile: a calibration
stage times the unpruned O(n²) functional pass (``pruning="off"``, the
record's ``brute``) against the sweepline pruner on the same fleet (and
checks the two traces are functionally identical), then a single pruned
pass at ``n`` (default 10⁶) drives the paper's five-platform deadline
table.  ``large_bench_table`` projects
the record onto its deterministic, wall-free subset — modelled task
times and deadline margins only — so CI can run the profile twice and
``cmp`` the tables byte for byte.  See docs/performance.md ("Large-n
regime") and ``make bench-large-smoke``.
"""

from __future__ import annotations

import dataclasses
import json
import platform as _platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .. import __version__
from ..core.collision import DetectionMode
from ..obs.metrics import metric_set

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_PLATFORMS",
    "DEFAULT_BENCH_NS",
    "SMOKE_BENCH_NS",
    "LARGE_BENCH_PLATFORMS",
    "LARGE_BENCH_N",
    "run_bench",
    "run_bench_large",
    "large_bench_table",
    "compare_to_baseline",
    "write_bench",
    "render_bench",
    "render_bench_large",
]

BENCH_SCHEMA_VERSION = 1

#: Fleet sizes of the full bench profile (the paper's all-platform axis).
DEFAULT_BENCH_NS = (96, 480, 960, 1440, 1920, 2880, 3840)

#: Reduced profile for the CI smoke job — seconds, not minutes.
SMOKE_BENCH_NS = (96, 480, 960, 1920)

#: Bench default: the paper's platform axis plus one of each remaining
#: backend family, so every family's trace-replay path gets timed.
BENCH_PLATFORMS = (
    "cuda:titan-x-pascal",
    "cuda:gtx-880m",
    "cuda:geforce-9800-gt",
    "ap:staran",
    "simd:clearspeed-csx600",
    "mimd:xeon-16",
    "vector:avx512-16c",
)

#: Fleet size of the continental-scale profile (``--large``).
LARGE_BENCH_N = 1_000_000

#: One representative per backend family for the large-n deadline
#: table: the paper's flagship GPU plus the associative, SIMD,
#: multi-core and vector models it is compared against.
LARGE_BENCH_PLATFORMS = (
    "cuda:titan-x-pascal",
    "ap:staran",
    "simd:clearspeed-csx600",
    "mimd:xeon-16",
    "vector:avx512-16c",
)


def run_bench(
    *,
    ns: Sequence[int] = SMOKE_BENCH_NS,
    platforms: Optional[Sequence[str]] = None,
    seed: int = 2018,
    periods: int = 2,
    mode: DetectionMode = DetectionMode.SIGNED,
) -> Dict[str, Any]:
    """Time the sweep with and without the trace engine; return the record.

    The three stages run back to back in this process with no result
    cache and no on-disk trace store, so the comparison isolates exactly
    one variable: a private functional pass per cell (``reexec``) versus
    one trace shared by every backend at a fleet size.
    """
    from .sweep import _TRACE_MEMO, sweep

    platforms = list(platforms) if platforms is not None else list(BENCH_PLATFORMS)
    ns = tuple(int(n) for n in ns)

    def _timed(trace: bool):
        t0 = time.perf_counter()
        data = sweep(
            platforms, ns, seed=seed, periods=periods, mode=mode,
            cache=False, trace=trace,
        )
        return data.to_canonical_json(), time.perf_counter() - t0

    _TRACE_MEMO.clear()
    reexec_json, reexec_s = _timed(False)
    _TRACE_MEMO.clear()
    cold_json, cold_s = _timed(True)
    warm_json, warm_s = _timed(True)  # memo warm from the cold stage

    stages: List[Dict[str, Any]] = [
        {"name": "reexec", "trace": False, "wall_s": reexec_s},
        {"name": "trace_cold", "trace": True, "wall_s": cold_s},
        {"name": "trace_warm", "trace": True, "wall_s": warm_s},
    ]
    for stage in stages:
        metric_set("atm_bench_stage_seconds", stage["wall_s"], stage=stage["name"])
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "library_version": __version__,
        "config": {
            "ns": list(ns),
            "platforms": platforms,
            "seed": int(seed),
            "periods": int(periods),
            "mode": str(getattr(mode, "value", mode)),
        },
        "stages": stages,
        "speedup": {
            "cold": reexec_s / cold_s if cold_s > 0 else float("inf"),
            "warm": reexec_s / warm_s if warm_s > 0 else float("inf"),
        },
        "equivalent": reexec_json == cold_json == warm_json,
        "python": sys.version.split()[0],
        "host": _platform.platform(),
        "timestamp": time.time(),
    }


def compare_to_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    max_regression: float = 0.25,
) -> List[str]:
    """CI gate: the list of failures (empty = pass).

    Checks, in order:

    * the current run's three stages produced byte-identical sweeps;
    * the cold speedup has not regressed more than ``max_regression``
      relative to the baseline's (speedups are wall-time *ratios*, so
      the check transfers across machines).
    """
    failures: List[str] = []
    if not current.get("equivalent", False):
        failures.append(
            "trace replay is not byte-identical to functional re-execution"
        )
    base = float(baseline["speedup"]["cold"])
    cur = float(current["speedup"]["cold"])
    floor = base * (1.0 - max_regression)
    if cur < floor:
        failures.append(
            f"cold trace-engine speedup regressed: {cur:.2f}x < floor "
            f"{floor:.2f}x (baseline {base:.2f}x, allowed regression "
            f"{max_regression:.0%})"
        )
    return failures


def write_bench(path: str, result: Dict[str, Any]) -> None:
    """Write one bench record as indented JSON (``BENCH_*.json``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_bench(result: Dict[str, Any]) -> str:
    """Terminal summary of one bench record."""
    cfg = result["config"]
    lines = [
        f"trace-engine bench — {len(cfg['platforms'])} platforms, "
        f"ns={cfg['ns']}, periods={cfg['periods']}, seed={cfg['seed']}",
    ]
    for stage in result["stages"]:
        lines.append(f"  {stage['name']:<12s} {stage['wall_s']:8.2f} s")
    lines.append(
        f"  speedup      cold {result['speedup']['cold']:.2f}x, "
        f"warm {result['speedup']['warm']:.2f}x"
    )
    lines.append(
        "  equivalence  "
        + ("byte-identical across all stages" if result["equivalent"] else "FAILED")
    )
    return "\n".join(lines)


def _functional_bytes(trace: Any) -> bytes:
    """A trace's array buffer with the execution-policy param normalized.

    The sweepline pruner must change *how* the functional pass runs,
    never *what* it computes — so two traces of the same cell are
    functionally identical iff their buffers match once ``pruning``
    (an execution policy, not a result) is set alike.
    """
    return dataclasses.replace(trace, pruning="off").to_bytes()


def _peak_trace_bytes(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """``atm_trace_peak_bytes`` series from a metrics snapshot, by path."""
    family = snapshot.get("families", {}).get("atm_trace_peak_bytes", {})
    peaks: Dict[str, float] = {}
    for series in family.get("series", []):
        path = str(series.get("labels", {}).get("path", "unknown"))
        peaks[path] = max(peaks.get(path, 0.0), float(series.get("value", 0.0)))
    return peaks


def run_bench_large(
    *,
    n: int = LARGE_BENCH_N,
    calibration_n: int = 7680,
    seed: int = 2018,
    periods: int = 3,
    mode: DetectionMode = DetectionMode.SIGNED,
    platforms: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Continental-scale bench: pruning speedup plus the n=10⁶ table.

    Two stages:

    * **calibration** — the unpruned O(n²) functional pass (the
      altitude gate over every pair) and the sweepline-pruned pass both
      run once at ``calibration_n`` (large enough for the asymptotics to
      show, small enough for the unpruned pass to finish).  Their wall
      times give the pruning speedup, and their traces must be
      functionally identical (``equivalent``).
    * **large** — one pruned five-platform sweep at ``n`` produces the
      paper's deadline table at continental scale: per-period tracking
      margins and the collision-period margin against the half-second
      deadline, straight from the same modelled timings
      :func:`repro.analysis.deadlines.record_cell_metrics` budgets.

    Peak memory is reported two ways: the process high-water mark
    (``ru_maxrss``) and the trace engine's own ``atm_trace_peak_bytes``
    gauge, labelled by path (materialized vs streamed).
    """
    import resource

    from ..core import constants as C
    from ..core.trace import compute_trace, estimate_trace_bytes
    from ..obs.metrics import MetricsRegistry, recording
    from .parallel import sweep_options
    from .sweep import _TRACE_MEMO, sweep

    platforms = list(platforms) if platforms is not None else list(LARGE_BENCH_PLATFORMS)
    n = int(n)
    calibration_n = int(calibration_n)

    # --- calibration: unpruned O(n²) vs sweepline-pruned, same fleet --
    t0 = time.perf_counter()
    brute = compute_trace(
        calibration_n, seed=seed, periods=periods, mode=mode, pruning="off"
    )
    brute_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pruned = compute_trace(
        calibration_n, seed=seed, periods=periods, mode=mode, pruning="on"
    )
    pruned_s = time.perf_counter() - t0
    equivalent = _functional_bytes(brute) == _functional_bytes(pruned)

    # --- the large run: one pruned sweep at n under a private registry
    registry = MetricsRegistry()
    _TRACE_MEMO.clear()
    t0 = time.perf_counter()
    with recording(registry), sweep_options(pruning="on"):
        data = sweep(
            platforms, [n], seed=seed, periods=periods, mode=mode,
            cache=False, trace=True,
        )
    large_s = time.perf_counter() - t0
    _TRACE_MEMO.clear()

    deadline_s = float(C.PERIOD_SECONDS)
    table: List[Dict[str, Any]] = []
    for platform in platforms:
        cell = data.measurements[platform][0]
        task1 = [float(s) for s in cell.task1_seconds]
        tracking_margins = [deadline_s - t1 for t1 in task1[:-1]]
        collision_margin = deadline_s - (task1[-1] + float(cell.task23_s))
        margins = tracking_margins + [collision_margin]
        table.append(
            {
                "platform": platform,
                "n_aircraft": n,
                "task1_seconds": task1,
                "task23_seconds": float(cell.task23_s),
                "tracking_margins_s": tracking_margins,
                "collision_margin_s": collision_margin,
                "deadline_met": bool(min(margins) >= 0.0),
            }
        )

    metric_set("atm_bench_stage_seconds", brute_s, stage="large_calibration_brute")
    metric_set("atm_bench_stage_seconds", pruned_s, stage="large_calibration_pruned")
    metric_set("atm_bench_stage_seconds", large_s, stage="large_sweep")

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "profile": "large",
        "library_version": __version__,
        "config": {
            "n": n,
            "calibration_n": calibration_n,
            "platforms": platforms,
            "seed": int(seed),
            "periods": int(periods),
            "mode": str(getattr(mode, "value", mode)),
            "pruning": "on",
        },
        "calibration": {
            "brute_wall_s": brute_s,
            "pruned_wall_s": pruned_s,
            "speedup": brute_s / pruned_s if pruned_s > 0 else float("inf"),
            "equivalent": equivalent,
        },
        "large": {
            "wall_s": large_s,
            "deadline_seconds": deadline_s,
            "table": table,
        },
        "memory": {
            "estimated_trace_bytes": int(estimate_trace_bytes(n, periods)),
            "peak_rss_bytes": int(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            ),
            "trace_peak_bytes": _peak_trace_bytes(registry.snapshot()),
        },
        "equivalent": equivalent,
        "python": sys.version.split()[0],
        "host": _platform.platform(),
        "timestamp": time.time(),
    }


def large_bench_table(result: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic, wall-free projection of a large-bench record.

    Everything here is a pure function of the modelled cost ledgers —
    no wall times, timestamps, host strings or RSS — so two runs of the
    same profile on any machines produce byte-identical tables.  The CI
    job runs the profile twice and ``cmp``'s this projection.
    """
    return {
        "schema": result["schema"],
        "library_version": result["library_version"],
        "config": result["config"],
        "deadline_seconds": result["large"]["deadline_seconds"],
        "table": result["large"]["table"],
        "estimated_trace_bytes": result["memory"]["estimated_trace_bytes"],
        "equivalent": result["equivalent"],
    }


def render_bench_large(result: Dict[str, Any]) -> str:
    """Terminal summary of a large-bench record."""
    cfg = result["config"]
    cal = result["calibration"]
    mem = result["memory"]
    lines = [
        f"large-n bench — n={cfg['n']:,}, {len(cfg['platforms'])} platforms, "
        f"periods={cfg['periods']}, seed={cfg['seed']}, pruning={cfg['pruning']}",
        f"  calibration (n={cfg['calibration_n']:,})  "
        f"brute {cal['brute_wall_s']:.2f} s, pruned {cal['pruned_wall_s']:.2f} s "
        f"-> {cal['speedup']:.2f}x",
        f"  large sweep               {result['large']['wall_s']:.2f} s wall",
        f"  {'platform':<24s} {'task1 max':>10s} {'task2+3':>10s} "
        f"{'min margin':>11s}  deadline",
    ]
    for row in result["large"]["table"]:
        margins = row["tracking_margins_s"] + [row["collision_margin_s"]]
        lines.append(
            f"  {row['platform']:<24s} {max(row['task1_seconds']):>9.4f}s "
            f"{row['task23_seconds']:>9.4f}s {min(margins):>10.4f}s  "
            + ("met" if row["deadline_met"] else "MISSED")
        )
    peaks = ", ".join(
        f"{path} {bytes_ / 1e6:.1f} MB"
        for path, bytes_ in sorted(mem["trace_peak_bytes"].items())
    ) or "none recorded"
    lines.append(
        f"  memory  est. trace {mem['estimated_trace_bytes'] / 1e6:.1f} MB, "
        f"peak RSS {mem['peak_rss_bytes'] / 1e6:.1f} MB, gauge: {peaks}"
    )
    lines.append(
        "  equivalence  "
        + ("pruned trace functionally identical to the unpruned one"
           if result["equivalent"] else "FAILED")
    )
    return "\n".join(lines)
