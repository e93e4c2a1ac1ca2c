"""SIMD backend: the ClearSpeed CSX600 running the AP-style algorithms."""

from __future__ import annotations

from typing import Any, Dict, Union

from ..backends.base import Backend
from ..core.collision import DetectionMode
from ..core.resolution import detect_and_resolve as core_detect_and_resolve
from ..core.tracking import correlate as core_correlate
from ..core.types import FleetState, RadarFrame, TaskTiming, TimingBreakdown
from ..obs import count as obs_count
from ..obs import span as obs_span
from .clearspeed import CSX600, CSX600_DUAL, SimdConfig
from .pe_array import PEArray
from .tasks import charge_setup, charge_task1, charge_task23

__all__ = ["SimdBackend"]

_CONFIGS = {c.key: c for c in (CSX600, CSX600_DUAL)}


class SimdBackend(Backend):
    """A traditional synchronous SIMD machine (paper Section 2.1)."""

    deterministic_timing = True

    def __init__(self, config: Union[str, SimdConfig] = CSX600) -> None:
        if isinstance(config, str):
            try:
                config = _CONFIGS[config]
            except KeyError:
                known = ", ".join(sorted(_CONFIGS))
                raise KeyError(
                    f"unknown SIMD config {config!r}; known: {known}"
                ) from None
        self.config = config
        self.name = config.registry_name

    def _emit_pe_obs(self, pe: PEArray) -> dict:
        """Trace the PE-array ledger: one span per instruction class.

        Returns the per-class modelled-seconds dict (sums to the task's
        ``seconds``) used for ``TaskTiming.detail``.
        """
        detail = {}
        for klass, class_s in pe.class_seconds(self.config.clock_hz).items():
            name = f"simd.{klass}"
            detail[name] = class_s
            with obs_span(
                name, cat="simd", count=pe.class_counts[klass], stripe=pe.stripe
            ) as sp:
                sp.add_modelled(class_s)
            obs_count(f"{name}.issues", pe.class_counts[klass])
        obs_count("simd.vector_instructions", pe.vector_instructions)
        obs_count("simd.scalar_instructions", pe.scalar_instructions)
        obs_count("simd.reductions", pe.reductions)
        return detail

    def _charge_task1(self, task, n: int, stats) -> TaskTiming:
        pe = charge_task1(self.config, n, stats)
        seconds = pe.seconds(self.config.clock_hz)
        detail = self._emit_pe_obs(pe)
        task.add_modelled(seconds)
        return TaskTiming(
            task="task1",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(compute=seconds),
            detail=detail,
            stats={
                "rounds": stats.rounds_executed,
                "committed": stats.committed,
                "stripe": pe.stripe,
                "cycles": pe.cycles,
                "vector_instructions": pe.vector_instructions,
                "reductions": pe.reductions,
            },
        )

    def _charge_task23(self, task, n: int, det, res) -> TaskTiming:
        pe = charge_task23(self.config, n, det, res)
        seconds = pe.seconds(self.config.clock_hz)
        detail = self._emit_pe_obs(pe)
        task.add_modelled(seconds)
        return TaskTiming(
            task="task23",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(compute=seconds),
            detail=detail,
            stats={
                "conflicts": det.conflicts,
                "critical_conflicts": det.critical_conflicts,
                "resolved": res.resolved,
                "unresolved": res.unresolved,
                "trials": res.trials_evaluated,
                "stripe": pe.stripe,
                "cycles": pe.cycles,
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
            return self._charge_task23(task, fleet.n, det, res)

    def track_timing_from_trace(self, period) -> TaskTiming:
        with self._task_span("task1", period.n_aircraft) as task:
            return self._charge_task1(task, period.n_aircraft, period.stats)

    def collision_timing_from_trace(self, collision) -> TaskTiming:
        with self._task_span("task23", collision.n_aircraft) as task:
            return self._charge_task23(
                task, collision.n_aircraft, collision.det, collision.res
            )

    def setup_timing(self, n: int) -> TaskTiming:
        """Modelled one-time SetupFlight cost."""
        pe = charge_setup(self.config, n)
        seconds = pe.seconds(self.config.clock_hz)
        return TaskTiming(
            task="setup",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(compute=seconds),
        )

    def peak_throughput_ops_per_s(self) -> float:
        return self.config.peak_ops_per_s

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update(
            kind="traditional SIMD machine model",
            machine=self.config.name,
            n_pes=self.config.n_pes,
            clock_mhz=self.config.clock_hz / 1e6,
        )
        return info
