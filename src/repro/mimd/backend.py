"""Multi-core MIMD backend (16-core Xeon).

Functional results come from the shared :mod:`repro.core` algorithms.
Timing comes from the discrete-event work-queue simulation, which —
unlike every other backend — is **not deterministic**: each call draws
fresh OS-jitter factors from the backend's seeded generator, modelling
the asynchrony that keeps shared-memory multiprocessors from offering
the predictable timing hard-real-time scheduling needs (paper
Sections 2.3, 6.2 and the conclusions of [13]).

The generator is seeded at construction, so an *experiment* (a fixed
sequence of calls on one backend instance) is reproducible; repeated
identical calls within it still vary, as on real hardware.
"""

from __future__ import annotations

from typing import Any, Dict, Union

import numpy as np

from ..backends.base import Backend
from ..core.collision import DetectionMode
from ..core.resolution import detect_and_resolve as core_detect_and_resolve
from ..core.tracking import correlate as core_correlate
from ..core.types import FleetState, RadarFrame, TaskTiming, TimingBreakdown
from ..obs import count as obs_count
from ..obs import span as obs_span
from .events import QueueRunResult, simulate_work_queue
from .tasks import task1_chunks, task23_chunks
from .xeon import XEON_8, XEON_16, MimdConfig

__all__ = ["MimdBackend"]

_CONFIGS = {c.key: c for c in (XEON_16, XEON_8)}


class MimdBackend(Backend):
    """A shared-memory multi-core machine running the ATM tasks."""

    deterministic_timing = False

    def __init__(
        self,
        config: Union[str, MimdConfig] = XEON_16,
        *,
        seed: int = 2018,
    ) -> None:
        if isinstance(config, str):
            try:
                config = _CONFIGS[config]
            except KeyError:
                known = ", ".join(sorted(_CONFIGS))
                raise KeyError(
                    f"unknown MIMD config {config!r}; known: {known}"
                ) from None
        self.config = config
        self.name = config.registry_name
        self.timing_seed = seed
        self._rng = np.random.default_rng(seed)

    def _timing(self, task: str, n: int, run: QueueRunResult, extra: Dict[str, Any]) -> TaskTiming:
        sync = min(run.sync_busy_s + run.queue_wait_s, run.makespan_s)
        self._emit_queue_obs(run, sync)
        return TaskTiming(
            task=task,
            platform=self.name,
            n_aircraft=n,
            seconds=run.makespan_s,
            breakdown=TimingBreakdown(
                compute=run.makespan_s - sync,
                sync=sync,
            ),
            detail={
                "mimd.compute": run.makespan_s - sync,
                "mimd.sync": sync,
            },
            stats={
                "chunks": run.n_chunks,
                "parallel_efficiency": run.parallel_efficiency,
                "sync_busy_s": run.sync_busy_s,
                "sync_wait_s": run.sync_wait_s,
                "queue_wait_s": run.queue_wait_s,
                **extra,
            },
        )

    def _emit_queue_obs(self, run: QueueRunResult, sync: float) -> None:
        """Trace one work-queue execution: critical-path attribution plus
        the per-core wait picture (the asynchrony the paper blames)."""
        with obs_span(
            "mimd.compute",
            cat="mimd",
            chunks=run.n_chunks,
            cores=run.n_cores,
            parallel_efficiency=run.parallel_efficiency,
        ) as sp:
            sp.add_modelled(run.makespan_s - sync)
        with obs_span(
            "mimd.sync",
            cat="mimd",
            sync_busy_s=run.sync_busy_s,
            sync_wait_s=run.sync_wait_s,
            queue_wait_s=run.queue_wait_s,
            core_sync_wait_s=list(run.core_sync_wait_s),
            core_queue_wait_s=list(run.core_queue_wait_s),
            core_finish_s=list(run.core_finish_s),
        ) as sp:
            sp.add_modelled(sync)
        obs_count("mimd.chunks", run.n_chunks)
        obs_count("mimd.sync_wait_s", run.sync_wait_s)
        obs_count("mimd.queue_wait_s", run.queue_wait_s)

    def _charge_task1(self, task, n: int, stats) -> TaskTiming:
        """One work-queue simulation of Task 1.

        Draws jitter from ``self._rng``: trace replay preserves timing
        distributions only if the call sequence matches the direct path
        (``periods`` Task-1 runs, then one Task-2+3 run — exactly the
        measurement protocol).
        """
        chunks = task1_chunks(self.config, n, stats)
        run = simulate_work_queue(
            self.config.n_cores,
            chunks,
            pop_cost_s=self.config.queue_pop_s,
            jitter_sigma=self.config.jitter_sigma,
            rng=self._rng,
        )
        timing = self._timing(
            "task1",
            n,
            run,
            {"rounds": stats.rounds_executed, "committed": stats.committed},
        )
        task.add_modelled(timing.seconds)
        return timing

    def _charge_task23(self, task, n: int, alt, det, res) -> TaskTiming:
        chunks = task23_chunks(self.config, alt, det, res)
        run = simulate_work_queue(
            self.config.n_cores,
            chunks,
            pop_cost_s=self.config.queue_pop_s,
            jitter_sigma=self.config.jitter_sigma,
            rng=self._rng,
        )
        timing = self._timing(
            "task23",
            n,
            run,
            {
                "conflicts": det.conflicts,
                "critical_conflicts": det.critical_conflicts,
                "resolved": res.resolved,
                "unresolved": res.unresolved,
                "trials": res.trials_evaluated,
            },
        )
        task.add_modelled(timing.seconds)
        return timing

    def track_and_correlate(self, fleet: FleetState, frame: RadarFrame) -> TaskTiming:
        with self._task_span("task1", fleet.n) as task:
            with obs_span("core.correlate", cat="core"):
                stats = core_correlate(fleet, frame)
            return self._charge_task1(task, fleet.n, stats)

    def detect_and_resolve(
        self,
        fleet: FleetState,
        mode: DetectionMode = DetectionMode.SIGNED,
    ) -> TaskTiming:
        with self._task_span("task23", fleet.n) as task:
            with obs_span("core.detect_and_resolve", cat="core"):
                det, res = core_detect_and_resolve(fleet, mode)
            return self._charge_task23(task, fleet.n, fleet.alt, det, res)

    def track_timing_from_trace(self, period) -> TaskTiming:
        with self._task_span("task1", period.n_aircraft) as task:
            return self._charge_task1(task, period.n_aircraft, period.stats)

    def collision_timing_from_trace(self, collision) -> TaskTiming:
        with self._task_span("task23", collision.n_aircraft) as task:
            return self._charge_task23(
                task,
                collision.n_aircraft,
                collision.alt,
                collision.det,
                collision.res,
            )

    def peak_throughput_ops_per_s(self) -> float:
        return self.config.peak_ops_per_s

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update(
            kind="shared-memory multi-core model",
            machine=self.config.name,
            n_cores=self.config.n_cores,
            clock_ghz=self.config.clock_hz / 1e9,
            ipc=self.config.ipc,
            jitter_sigma=self.config.jitter_sigma,
            timing_seed=self.timing_seed,
        )
        return info
