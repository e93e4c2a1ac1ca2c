"""The NumPy reference backend — the functional oracle.

This backend simply calls the :mod:`repro.core` algorithms.  Its timing
model is a deliberately simple sequential-machine estimate (useful-op
count over a nominal scalar rate); it exists so the reference can be
scheduled and plotted next to the real machine models, not to model any
paper platform.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core import constants as C
from ..core.collision import DetectionMode
from ..core.resolution import detect_and_resolve as core_detect_and_resolve
from ..core.tracking import correlate as core_correlate
from ..core.types import FleetState, RadarFrame, TaskTiming, TimingBreakdown
from ..obs import span as obs_span
from .base import Backend

__all__ = ["ReferenceBackend"]

#: Nominal sequential machine: one useful operation per nanosecond.
_SECONDS_PER_OP = 1e-9

#: Rough useful operations per radar-aircraft gate test.
_OPS_PER_GATE_TEST = 8.0

#: Rough useful operations per Batcher pair check (Eqs. 1-6 + gates).
_OPS_PER_PAIR_CHECK = 30.0


class ReferenceBackend(Backend):
    """Sequential NumPy oracle used by tests and as a comparison point."""

    name = "reference"
    deterministic_timing = True

    def _charge_task1(self, task, n: int, frame_n: int, stats) -> TaskTiming:
        # A sequential machine scans every (radar, aircraft) pair each
        # executed round, plus per-aircraft setup and commit work.
        scan_ops = _OPS_PER_GATE_TEST * frame_n * n * stats.rounds_executed
        linear_ops = 12.0 * n
        seconds = (scan_ops + linear_ops) * _SECONDS_PER_OP
        detail = {
            "reference.scan": scan_ops * _SECONDS_PER_OP,
            "reference.linear": linear_ops * _SECONDS_PER_OP,
        }
        with obs_span("reference.scan", cat="reference", ops=scan_ops) as sp:
            sp.add_modelled(detail["reference.scan"])
        with obs_span("reference.linear", cat="reference", ops=linear_ops) as sp:
            sp.add_modelled(detail["reference.linear"])
        task.add_modelled(seconds)
        return TaskTiming(
            task="task1",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(compute=seconds),
            stats={
                "rounds": stats.rounds_executed,
                "candidate_pairs": stats.total_candidate_pairs,
                "committed": stats.committed,
                "discarded_radars": stats.discarded_radars,
                "dropped_aircraft": stats.dropped_aircraft,
            },
            detail=detail,
        )

    def _charge_task23(self, task, n: int, det, res) -> TaskTiming:
        pair_ops = _OPS_PER_PAIR_CHECK * det.pairs_checked
        trial_ops = _OPS_PER_PAIR_CHECK * res.trials_evaluated * n
        seconds = (pair_ops + trial_ops) * _SECONDS_PER_OP
        detail = {
            "reference.pairs": pair_ops * _SECONDS_PER_OP,
            "reference.trials": trial_ops * _SECONDS_PER_OP,
        }
        with obs_span("reference.pairs", cat="reference", ops=pair_ops) as sp:
            sp.add_modelled(detail["reference.pairs"])
        with obs_span("reference.trials", cat="reference", ops=trial_ops) as sp:
            sp.add_modelled(detail["reference.trials"])
        task.add_modelled(seconds)
        return TaskTiming(
            task="task23",
            platform=self.name,
            n_aircraft=n,
            seconds=seconds,
            breakdown=TimingBreakdown(compute=seconds),
            stats={
                "conflicts": det.conflicts,
                "critical_conflicts": det.critical_conflicts,
                "flagged": det.flagged_aircraft,
                "resolved": res.resolved,
                "unresolved": res.unresolved,
                "trials": res.trials_evaluated,
            },
            detail=detail,
        )

    def track_and_correlate(self, fleet: FleetState, frame: RadarFrame) -> TaskTiming:
        with self._task_span("task1", fleet.n) as task:
            with obs_span("core.correlate", cat="core"):
                stats = core_correlate(fleet, frame)
            return self._charge_task1(task, fleet.n, frame.n, stats)

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
            return self._charge_task1(
                task, period.n_aircraft, period.frame_n, period.stats
            )

    def collision_timing_from_trace(self, collision) -> TaskTiming:
        with self._task_span("task23", collision.n_aircraft) as task:
            return self._charge_task23(
                task, collision.n_aircraft, collision.det, collision.res
            )

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update(
            kind="sequential reference",
            seconds_per_op=_SECONDS_PER_OP,
            ops_per_gate_test=_OPS_PER_GATE_TEST,
            ops_per_pair_check=_OPS_PER_PAIR_CHECK,
        )
        return info
