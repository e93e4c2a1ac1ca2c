"""Associative-processor backend (STARAN)."""

from __future__ import annotations

from typing import Any, Dict, Union

from ..backends.base import Backend
from ..core.collision import DetectionMode
from ..core.resolution import detect_and_resolve as core_detect_and_resolve
from ..core.tracking import correlate as core_correlate
from ..core.types import FleetState, RadarFrame, TaskTiming, TimingBreakdown
from ..obs import span as obs_span
from .primitives import AssociativeArray
from .staran import STARAN, STARAN_1972, ApConfig
from .tasks import charge_setup, charge_task1, charge_task23

__all__ = ["ApBackend"]

_CONFIGS = {c.key: c for c in (STARAN, STARAN_1972)}


class ApBackend(Backend):
    """An associative processor running the AP algorithms of [12, 13]."""

    deterministic_timing = True

    def __init__(self, config: Union[str, ApConfig] = STARAN) -> None:
        if isinstance(config, str):
            try:
                config = _CONFIGS[config]
            except KeyError:
                known = ", ".join(sorted(_CONFIGS))
                raise KeyError(f"unknown AP config {config!r}; known: {known}") from None
        self.config = config
        self.name = config.registry_name

    def _emit_ap_obs(self, ap: AssociativeArray) -> dict:
        """Trace the associative ledger: one span per primitive class."""
        detail = {}
        for klass, class_s in ap.class_seconds(self.config.clock_hz).items():
            name = f"ap.{klass}"
            detail[name] = class_s
            with obs_span(
                name, cat="ap", count=ap.class_counts[klass], modules=ap.n_modules
            ) as sp:
                sp.add_modelled(class_s)
        return detail

    def _charge_task1(self, task, n: int, stats) -> TaskTiming:
        ap = charge_task1(self.config, n, stats)
        seconds = ap.seconds(self.config.clock_hz)
        detail = self._emit_ap_obs(ap)
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
                "cycles": ap.cycles,
                "modules": ap.n_modules,
                "searches": ap.searches,
            },
        )

    def _charge_task23(self, task, n: int, det, res) -> TaskTiming:
        ap = charge_task23(self.config, n, det, res)
        seconds = ap.seconds(self.config.clock_hz)
        detail = self._emit_ap_obs(ap)
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
                "cycles": ap.cycles,
                "modules": ap.n_modules,
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
        ap = charge_setup(self.config, n)
        seconds = ap.seconds(self.config.clock_hz)
        return TaskTiming(
            task="setup",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(compute=seconds),
        )

    def peak_throughput_ops_per_s(self) -> float:
        # Field-operation throughput of a fleet-sized array: every PE
        # participates in each field op, one field op per field_alu cycles.
        per_op_cycles = self.config.costs.field_alu
        return self.config.pes_per_module * self.config.clock_hz / per_op_cycles

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update(
            kind="associative processor model",
            machine=self.config.name,
            pes_per_module=self.config.pes_per_module,
            clock_mhz=self.config.clock_hz / 1e6,
        )
        return info
