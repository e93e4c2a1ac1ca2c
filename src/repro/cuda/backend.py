"""CUDA backend: the paper's NVIDIA implementation on a simulated card.

Functional results come from the shared :mod:`repro.core` algorithms
(bit-identical with every other backend); the timing comes from the
warp-level kernel cost models in :mod:`repro.cuda.kernels` evaluated
against one of the three device tables.

``fused=True`` (default) models the paper's single CheckCollisionPath
kernel.  ``fused=False`` models the rejected design the paper argues
against in Section 4 — separate detection and resolution kernels with
the flight table copied through the host in between — and exists for the
ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from ..backends.base import Backend
from ..core.collision import DetectionMode
from ..core.resolution import detect_and_resolve as core_detect_and_resolve
from ..core.tracking import correlate as core_correlate
from ..core.types import FleetState, RadarFrame, TaskTiming, TimingBreakdown
from ..obs import count as obs_count
from ..obs import span as obs_span
from .device import DeviceProperties, get_device
from .grid import PAPER_BLOCK_SIZE
from .kernels.check_collision import charge_check_collision
from .kernels.generate_radar import RadarPhaseTiming, charge_generate_radar
from .kernels.setup_flight import charge_setup_flight
from .kernels.track_drone import charge_track_drone
from .memory import TransferModel

__all__ = ["CudaBackend"]

#: bytes per aircraft of the drone struct moved by the split-kernel
#: design (all 13 persistent fields at 8 bytes).
_DRONE_STRUCT_BYTES = 104


class CudaBackend(Backend):
    """One NVIDIA device running the paper's CUDA ATM program."""

    deterministic_timing = True

    def __init__(
        self,
        device: Union[str, DeviceProperties],
        *,
        block_size: int = PAPER_BLOCK_SIZE,
        fused_collision_kernel: bool = True,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.block_size = block_size
        self.fused_collision_kernel = fused_collision_kernel
        self.name = self.device.registry_name
        if block_size != PAPER_BLOCK_SIZE:
            self.name += f"@bs{block_size}"
        if not fused_collision_kernel:
            self.name += "+split"

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------

    def _charge_task1(self, task, fleet, frame, stats) -> TaskTiming:
        """Charge the TrackDrone kernel model (``fleet``/``frame`` may be
        live state or recorded trace views — the models are duck-typed)."""
        kt = charge_track_drone(self.device, fleet, frame, stats, self.block_size)
        with obs_span("cuda.kernel.TrackDrone", cat="cuda", **kt.obs_attrs()) as sp:
            sp.add_modelled(kt.seconds)
        obs_count("cuda.kernel_launches")
        obs_count("cuda.issue_total", kt.issue_total)
        obs_count("cuda.bytes_total", kt.bytes_total)
        task.add_modelled(kt.seconds)
        return TaskTiming(
            task="task1",
            platform=self.name,
            n_aircraft=fleet.n,
            seconds=kt.seconds,
            breakdown=kt.breakdown(),
            detail={
                "cuda.kernel.TrackDrone": kt.seconds - kt.launch_seconds,
                "cuda.launch": kt.launch_seconds,
            },
            stats={
                "rounds": stats.rounds_executed,
                "committed": stats.committed,
                "bound": kt.bound,
                "occupancy": kt.occupancy.occupancy_fraction,
                "waves": kt.occupancy.waves,
                "issue_total": kt.issue_total,
                "bytes_total": kt.bytes_total,
            },
        )

    def _charge_task23(self, task, fleet, det, res) -> TaskTiming:
        kt = charge_check_collision(self.device, fleet, det, res, self.block_size)
        seconds = kt.seconds
        breakdown = kt.breakdown()
        detail = {
            "cuda.kernel.CheckCollisionPath": kt.seconds - kt.launch_seconds,
            "cuda.launch": kt.launch_seconds,
        }
        with obs_span(
            "cuda.kernel.CheckCollisionPath", cat="cuda", **kt.obs_attrs()
        ) as sp:
            sp.add_modelled(kt.seconds)
        obs_count("cuda.kernel_launches")
        obs_count("cuda.issue_total", kt.issue_total)
        obs_count("cuda.bytes_total", kt.bytes_total)
        if not self.fused_collision_kernel:
            # Split design: Task 2 and Task 3 in separate kernels with
            # the drone struct round-tripped through the host between
            # them (the overhead the paper's fused kernel avoids).
            extra_transfer = TransferModel(self.device).round_trip_seconds(
                fleet.n * _DRONE_STRUCT_BYTES
            )
            extra_launch = self.device.kernel_launch_s
            seconds += extra_transfer + extra_launch
            breakdown = TimingBreakdown(
                compute=breakdown.compute,
                memory=breakdown.memory,
                transfer=extra_transfer,
                sync=breakdown.sync,
                overhead=breakdown.overhead + extra_launch,
            )
            detail["cuda.transfer.drone_struct"] = extra_transfer
            detail["cuda.launch"] += extra_launch
            with obs_span(
                "cuda.transfer.drone_struct",
                cat="cuda",
                bytes=fleet.n * _DRONE_STRUCT_BYTES,
            ) as sp:
                sp.add_modelled(extra_transfer + extra_launch)
            obs_count("cuda.kernel_launches")
        task.add_modelled(seconds)
        return TaskTiming(
            task="task23",
            platform=self.name,
            n_aircraft=fleet.n,
            seconds=seconds,
            breakdown=breakdown,
            detail=detail,
            stats={
                "conflicts": det.conflicts,
                "critical_conflicts": det.critical_conflicts,
                "resolved": res.resolved,
                "unresolved": res.unresolved,
                "trials": res.trials_evaluated,
                "bound": kt.bound,
                "waves": kt.occupancy.waves,
            },
        )

    def track_and_correlate(self, fleet: FleetState, frame: RadarFrame) -> TaskTiming:
        with self._task_span("task1", fleet.n) as task:
            with obs_span("core.correlate", cat="core"):
                stats = core_correlate(fleet, frame)
            return self._charge_task1(task, fleet, frame, stats)

    def detect_and_resolve(
        self,
        fleet: FleetState,
        mode: DetectionMode = DetectionMode.SIGNED,
    ) -> TaskTiming:
        with self._task_span("task23", fleet.n) as task:
            with obs_span("core.detect_and_resolve", cat="core"):
                det, res = core_detect_and_resolve(fleet, mode)
            return self._charge_task23(task, fleet, det, res)

    def track_timing_from_trace(self, period) -> TaskTiming:
        with self._task_span("task1", period.n_aircraft) as task:
            return self._charge_task1(
                task, period.fleet_view(), period.frame_view(), period.stats
            )

    def collision_timing_from_trace(self, collision) -> TaskTiming:
        with self._task_span("task23", collision.n_aircraft) as task:
            return self._charge_task23(
                task, collision.fleet_view(), collision.det, collision.res
            )

    # ------------------------------------------------------------------
    # extra phases (outside the deadline budget)
    # ------------------------------------------------------------------

    def setup_timing(self, n: int) -> TaskTiming:
        """Modelled one-time SetupFlight cost."""
        kt = charge_setup_flight(self.device, n, self.block_size)
        with obs_span("cuda.kernel.SetupFlight", cat="cuda", **kt.obs_attrs()) as sp:
            sp.add_modelled(kt.seconds)
        return TaskTiming(
            task="setup",
            platform=self.name,
            n_aircraft=n,
            seconds=kt.seconds,
            breakdown=kt.breakdown(),
        )

    def radar_phase_timing(self, n_aircraft: int, n_reports: int) -> RadarPhaseTiming:
        """Modelled GenerateRadarData kernel + host shuffle round trip."""
        return charge_generate_radar(
            self.device, n_aircraft, n_reports, self.block_size
        )

    # ------------------------------------------------------------------
    # description / normalization
    # ------------------------------------------------------------------

    def peak_throughput_ops_per_s(self) -> float:
        return self.device.total_cores * self.device.core_clock_ghz * 1e9

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        d = self.device
        info.update(
            kind="NVIDIA CUDA device model",
            device=d.name,
            compute_capability=".".join(map(str, d.compute_capability)),
            sm_count=d.sm_count,
            cuda_cores=d.total_cores,
            core_clock_ghz=d.core_clock_ghz,
            mem_bandwidth_gbs=d.mem_bandwidth_gbs,
            block_size=self.block_size,
            fused_collision_kernel=self.fused_collision_kernel,
        )
        return info
