"""Wide-vector backend: ATM on AVX-512-class commodity processors."""

from __future__ import annotations

from typing import Any, Dict, Union

from ..backends.base import Backend
from ..core.collision import DetectionMode
from ..core.resolution import detect_and_resolve as core_detect_and_resolve
from ..core.tracking import correlate as core_correlate
from ..core.types import FleetState, RadarFrame, TaskTiming, TimingBreakdown
from ..obs import span as obs_span
from .machine import AVX512_WORKSTATION, XEON_PHI_7250, VectorConfig
from .tasks import charge_task1, charge_task23

__all__ = ["VectorBackend"]

_CONFIGS = {c.key: c for c in (XEON_PHI_7250, AVX512_WORKSTATION)}


class VectorBackend(Backend):
    """A statically-scheduled, mask-vectorized multi-core machine.

    Deterministic by construction (static loop partitioning, no shared
    work queue, no record locks) — the §7.2 hypothesis that commodity
    vector hardware can recover SIMD-style predictability.
    """

    deterministic_timing = True

    def __init__(self, config: Union[str, VectorConfig] = XEON_PHI_7250) -> None:
        if isinstance(config, str):
            try:
                config = _CONFIGS[config]
            except KeyError:
                known = ", ".join(sorted(_CONFIGS))
                raise KeyError(
                    f"unknown vector config {config!r}; known: {known}"
                ) from None
        self.config = config
        self.name = config.registry_name

    def _emit_vector_obs(self, task, seconds: float, info: dict) -> dict:
        """Trace one vectorized pass: lane work vs fork/join barriers.

        The roofline takes max(compute, stream), so the "lanes" child is
        whichever term won; the loser is reported as an attribute.
        """
        lanes = seconds - info["overhead_s"]
        bound = "compute" if info["compute_s"] >= info["stream_s"] else "stream"
        with obs_span(
            "vector.lanes",
            cat="vector",
            bound=bound,
            compute_s=info["compute_s"],
            stream_s=info["stream_s"],
        ) as sp:
            sp.add_modelled(lanes)
        with obs_span(
            "vector.barriers",
            cat="vector",
            regions=round(info["overhead_s"] / self.config.region_overhead_s),
        ) as sp:
            sp.add_modelled(info["overhead_s"])
        task.add_modelled(seconds)
        return {"vector.lanes": lanes, "vector.barriers": info["overhead_s"]}

    def _charge_task1(self, task, n: int, stats) -> TaskTiming:
        seconds, info = charge_task1(self.config, n, stats)
        detail = self._emit_vector_obs(task, seconds, info)
        return TaskTiming(
            task="task1",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(
                compute=seconds - info["overhead_s"], sync=info["overhead_s"]
            ),
            detail=detail,
            stats={"committed": stats.committed, **info},
        )

    def _charge_task23(self, task, n: int, alt, det, res) -> TaskTiming:
        seconds, info = charge_task23(self.config, alt, det, res)
        detail = self._emit_vector_obs(task, seconds, info)
        return TaskTiming(
            task="task23",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(
                compute=seconds - info["overhead_s"], sync=info["overhead_s"]
            ),
            detail=detail,
            stats={
                "conflicts": det.conflicts,
                "critical_conflicts": det.critical_conflicts,
                "resolved": res.resolved,
                "unresolved": res.unresolved,
                "trials": res.trials_evaluated,
                **info,
            },
        )

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
        return self.config.peak_lane_ops_per_s

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update(
            kind="wide-vector commodity processor model",
            machine=self.config.name,
            n_cores=self.config.n_cores,
            lanes_per_core=self.config.lanes_per_core,
            clock_ghz=self.config.clock_hz / 1e9,
            mem_bandwidth_gbs=self.config.mem_bandwidth_gbs,
        )
        return info
