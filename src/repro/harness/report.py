"""One-shot reproduction report: run every experiment, save the record.

``build_report`` executes the whole DESIGN.md experiment index —
figures, tables, ablations and the two future-work extensions — and
collects each result's structured data and rendered text into one
document.  ``atm-repro report --out report.json`` is the single command
a reviewer runs to regenerate the paper's evaluation end to end.

A ``quick`` profile (smaller sweeps) finishes in about ten seconds on
a two-core machine; the ``full`` profile uses each experiment's
defaults.
"""

from __future__ import annotations

import json
import platform as _platform
import sys
from typing import Any, Dict, Optional

from .. import __version__
from ..backends.registry import available_backends, resolve_backend
from ..core.canonical import canonicalize
from ..obs.metrics import MetricsRegistry, recording
from .figures import EXPERIMENTS
from .parallel import sweep_options

__all__ = ["QUICK_OVERRIDES", "build_report", "render_report", "write_report"]

#: Reduced parameters for the quick profile, per experiment id.
QUICK_OVERRIDES: Dict[str, dict] = {
    "fig4": {"ns": (96, 480, 960, 1440, 1920), "periods": 2},
    "fig5": {"ns": (96, 480, 960, 1920), "periods": 2},
    "fig6": {"ns": (96, 480, 960, 1440, 1920), "periods": 2},
    "fig7": {"ns": (96, 480, 960, 1920), "periods": 2},
    "fig8": {"ns": (96, 480, 960, 1920), "periods": 2},
    "fig9": {"ns": (96, 480, 960, 1920), "periods": 2},
    "tbl-deadline": {"ns": (480, 960, 1920), "major_cycles": 1},
    "tbl-determinism": {"n": 480, "repeats": 2},
    "abl-blocksize": {"n": 960},
    "abl-fused": {"ns": (480, 960)},
    "abl-throughput": {"ns": (480, 960)},
    "abl-resolution": {"n": 480, "major_cycles": 4},
    "abl-smem": {"ns": (480, 960)},
    "ext-viability": {"ns": (480, 960), "major_cycles": 1},
    "ext-vector": {"ns": (96, 480, 960, 1920), "periods": 2},
}


def build_report(
    *,
    quick: bool = True,
    seed: int = 2018,
    only: Optional[list] = None,
    jobs: int = 1,
    cache: Any = None,
    trace: Optional[bool] = None,
    traces: Any = None,
    retry: Any = None,
    faults: Any = None,
    journal: Any = None,
    pruning: Optional[str] = None,
    metrics_registry: Optional[MetricsRegistry] = None,
) -> dict:
    """Run the experiment suite and return the structured report.

    Parameters
    ----------
    quick:
        Use the reduced sweep profile (default) or each experiment's
        full defaults.
    seed:
        Master airfield seed passed to every experiment.
    only:
        Optional subset of experiment ids to run.
    jobs:
        Worker processes for sweep shards (see
        :mod:`repro.harness.parallel`).  The report content is
        byte-identical for every value — only wall time changes.
    cache:
        A :class:`~repro.harness.cache.ResultCache` to serve unchanged
        measurement cells from; None runs everything fresh.  Like
        ``jobs``, caching never changes the report's bytes, so neither
        parameter is recorded in the document.
    trace:
        ``False`` disables the shared functional-trace engine (every
        cell replays from a private functional pass); ``None``/``True``
        keep it on.  Like ``jobs``, the report bytes are identical
        either way — see docs/performance.md.
    traces:
        A :class:`~repro.harness.cache.TraceStore` for the on-disk
        functional-trace tier; None keeps traces in-process only.
    retry:
        A :class:`~repro.harness.faults.RetryPolicy` governing shard
        retries, backoff and per-shard timeouts; None keeps the
        defaults.  Whenever retries (or pool→inline degradation)
        succeed, the report bytes match a fault-free run — the chaos
        suite asserts that.
    faults:
        A :class:`~repro.harness.faults.FaultPlan` injecting
        deterministic chaos (``--inject-faults``); None runs clean.
    journal:
        A :class:`~repro.harness.faults.SweepJournal` checkpointing
        completed sweep cells (``--resume``); None disables
        checkpointing.  See docs/robustness.md.
    pruning:
        Candidate-pruning policy for the functional passes
        (``"auto"``/``"on"``/``"off"``, ``--pruning``); None keeps the
        ambient default (``auto``).  Like ``jobs`` and ``trace``, the
        report bytes are identical for every setting — the sweepline
        pruner and the in-place gated pass are both proven
        bit-identical to the dense all-pairs reference (see
        docs/performance.md, "Large-n regime").
    metrics_registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` to record into
        while the experiments run (``--metrics-out`` passes one so the
        CLI can export the *full* OpenMetrics view afterwards); None
        uses a private registry.  Either way the report embeds the
        registry's **deterministic** snapshot under ``"metrics"`` — only
        families that are pure functions of the measured cells (the
        deadline SLO families), so the report's byte-for-byte
        reproducibility contract (any ``jobs``, cache state, fault
        plan) extends to the embedded metrics.
    """
    chosen = sorted(EXPERIMENTS) if only is None else list(only)
    unknown = [e for e in chosen if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment ids: {unknown}")

    registry = metrics_registry if metrics_registry is not None else MetricsRegistry()
    results = {}
    with recording(registry), sweep_options(
        jobs=jobs, cache=cache, trace=trace, traces=traces,
        pruning=pruning, retry=retry, faults=faults, journal=journal,
    ):
        for exp_id in chosen:
            kwargs = dict(QUICK_OVERRIDES.get(exp_id, {})) if quick else {}
            kwargs["seed"] = seed
            outcome = EXPERIMENTS[exp_id](**kwargs)
            results[exp_id] = {
                "parameters": {k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()},
                "data": outcome.to_dict(),
                "rendered": outcome.render(),
            }

    # Platform descriptions go through the same canonicalizer as the
    # cache fingerprints, so numpy scalars or tuples in a backend's
    # describe() can never produce unserializable (or unstable) JSON.
    platforms = {
        name: canonicalize(resolve_backend(name).describe())
        for name in available_backends()
    }

    return {
        "paper": (
            "Performance Comparison of NVIDIA accelerators with SIMD, "
            "Associative, and Multi-core Processors for Air Traffic "
            "Management (ICPP 2018 Companion)"
        ),
        "library_version": __version__,
        "profile": "quick" if quick else "full",
        "seed": seed,
        "python": sys.version.split()[0],
        "host": _platform.platform(),
        "platforms": platforms,
        "experiments": results,
        "metrics": registry.snapshot(deterministic_only=True),
    }


def render_report(report: dict) -> str:
    """Human-readable rendering of a report document."""
    lines = [
        f"reproduction report — {report['paper']}",
        f"library {report['library_version']}, profile {report['profile']}, "
        f"seed {report['seed']}",
        "",
    ]
    for exp_id, entry in report["experiments"].items():
        lines.append("=" * 72)
        lines.append(entry["rendered"])
        lines.append("")
    return "\n".join(lines)


def write_report(path: str, report: dict) -> None:
    """Write the structured report as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
