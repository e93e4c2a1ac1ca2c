"""``atm-repro profile``: run an experiment under the obs collector.

Profiling answers two questions the report pipeline does not:

* **wall clock** — where does the *simulator* spend its time?
* **modelled time** — which cost-model component produced each second
  the figures attribute to an architecture?

With ``--backend`` the profiler runs the experiment's measurement
protocol (``periods`` tracking periods plus one collision pass, exactly
:func:`~repro.harness.sweep.measure_platform`) on that single platform,
so the span tree shows one machine's cost structure at one fleet size.
Without ``--backend`` it runs the whole experiment function under the
collector — every platform the figure sweeps.

The run also records into a metrics registry.  The result renders as an
indented span tree (docs/observability.md explains how to read it)
followed by the registry's counter and gauge series; the trace can be
exported with ``--trace`` (Chrome trace JSON, load in
``chrome://tracing`` / Perfetto) or ``--jsonl`` (one JSON object per
span or event).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..obs import (
    Collector,
    collecting,
    modelled_coverage,
    render_counters,
    render_span_tree,
)
from ..obs.metrics import MetricsRegistry, recording
from .figures import EXPERIMENTS
from .report import QUICK_OVERRIDES
from .sweep import measure_platform

__all__ = ["ProfileResult", "profile_experiment"]


@dataclass
class ProfileResult:
    """A profiling run: the collector and registry plus enough context to
    render them."""

    experiment: str
    backend: Optional[str]
    n_aircraft: Optional[int]
    wall_s: float
    collector: Collector
    registry: MetricsRegistry

    @property
    def coverage(self) -> float:
        """Fraction of task-span modelled time attributed to children."""
        return modelled_coverage(self.collector)

    def render(self) -> str:
        c = self.collector
        target = self.backend if self.backend else "all platforms"
        lines = [
            f"profile {self.experiment} — {target}"
            + (f", n={self.n_aircraft}" if self.n_aircraft else ""),
            f"  wall clock     {self.wall_s:.3f} s "
            f"(simulator time, host machine)",
            f"  modelled time  {c.total_modelled():.6f} s "
            f"(architecture time, cost models)",
            f"  attribution    {self.coverage:.1%} of task time covered by"
            " child spans",
            "",
            render_span_tree(c),
            "",
            render_counters(self.registry.snapshot()),
        ]
        return "\n".join(lines)


def profile_experiment(
    experiment: str,
    *,
    backend: Optional[str] = None,
    n: int = 960,
    periods: int = 3,
    seed: int = 2018,
    quick: bool = True,
) -> ProfileResult:
    """Run ``experiment`` under a fresh collector and registry; return the
    profile.

    Parameters
    ----------
    experiment:
        An id from the DESIGN.md experiment index (``fig4`` ...).
    backend:
        Registry name; when given, profile only that platform via the
        standard measurement protocol instead of the full experiment.
    n, periods:
        Fleet size and tracking periods for the single-backend path.
    quick:
        Use the report's reduced sweep profile for the full-experiment
        path (full defaults otherwise).
    """
    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment!r}; known: {known}")

    t0 = time.perf_counter()
    with collecting() as collector, recording() as registry:
        if backend is not None:
            measure_platform(backend, n, seed=seed, periods=periods)
        else:
            kwargs = dict(QUICK_OVERRIDES.get(experiment, {})) if quick else {}
            kwargs["seed"] = seed
            EXPERIMENTS[experiment](**kwargs)
    wall = time.perf_counter() - t0
    return ProfileResult(
        experiment=experiment,
        backend=backend,
        n_aircraft=n if backend is not None else None,
        wall_s=wall,
        collector=collector,
        registry=registry,
    )
