"""Generators for every evaluation artifact of the paper (Figs. 4-9 + §6.2).

Each ``figN()`` function regenerates the data behind the corresponding
figure and returns a structured object with a ``render()`` method; the
CLI (``python -m repro.harness.cli figN``) prints it.  The experiment
ids match DESIGN.md's per-experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.ascii_plot import ascii_chart
from ..analysis.curvefit import LinearityVerdict, assess_linearity
from ..analysis.deadlines import DeadlineReport, DeadlineRow, record_schedule_metrics
from ..analysis.normalize import NormalizedSeries, efficiency_ranking, normalize_times
from ..analysis.tables import format_seconds, render_series, render_table
from ..backends.registry import all_platform_names, resolve_backend
from ..core.radar import generate_radar_frame
from ..core.scheduler import run_schedule
from ..core.setup import setup_flight
from ..cuda.backend import CudaBackend
from ..cuda.device import DEVICES
from .sweep import (
    DEFAULT_NS_ALL_PLATFORMS,
    DEFAULT_NS_NVIDIA,
    SweepData,
    measure_platform,
    sweep,
)

__all__ = [
    "FigureData",
    "FitFigure",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "deadline_table",
    "determinism_table",
    "ablation_blocksize",
    "ablation_fused",
    "ablation_throughput",
    "ablation_resolution",
    "ablation_smem",
    "ext_viability",
    "ext_vector",
    "EXPERIMENTS",
    "run_experiment",
]

NVIDIA_PLATFORMS = tuple(f"cuda:{key}" for key in DEVICES)


@dataclass
class FigureData:
    """A timing-curve figure: one series per platform."""

    figure_id: str
    title: str
    task: str
    ns: tuple
    series: Dict[str, List[float]]
    #: linearity verdict per platform (the paper's curve-shape claim).
    verdicts: Dict[str, LinearityVerdict] = field(default_factory=dict)
    #: platform -> raw per-cell measurements aligned with ``ns``.  These
    #: are the byte-identity anchor for the sweep service: a cell served
    #: by ``atm-repro serve`` re-encoded with the report serializer is
    #: byte-equal to the same entry here (docs/service.md).
    measurements: Dict[str, list] = field(default_factory=dict)

    def render(self, plot: bool = False) -> str:
        out = [render_series(f"{self.figure_id}: {self.title}", self.ns, self.series)]
        if plot:
            from ..core import constants as C

            out.append("")
            out.append(
                ascii_chart(
                    list(self.ns),
                    self.series,
                    title=f"{self.figure_id} ({self.task})",
                    hline=C.PERIOD_SECONDS,
                    hline_label="half-second period budget",
                )
            )
        if self.verdicts:
            out.append("")
            for platform, verdict in self.verdicts.items():
                out.append(f"  {platform}: {verdict.describe()}")
        return "\n".join(out)

    def crossovers(self):
        """Where the platform curves trade places (see
        :mod:`repro.analysis.crossover`)."""
        from ..analysis.crossover import pairwise_crossovers

        return pairwise_crossovers(self.ns, self.series)

    def to_dict(self) -> dict:
        return {
            "experiment": self.figure_id,
            "title": self.title,
            "task": self.task,
            "ns": list(self.ns),
            "series": {k: [float(y) for y in v] for k, v in self.series.items()},
            "measurements": {
                platform: [m.to_dict() for m in rows]
                for platform, rows in self.measurements.items()
            },
            "verdicts": {
                k: {
                    "verdict": v.verdict,
                    "growth_exponent": v.growth_exponent,
                    "linear_adj_r2": v.linear.adj_r_squared,
                    "quadratic_adj_r2": v.quadratic.adj_r_squared,
                    "quadratic_coefficient": v.quadratic.leading_coefficient,
                }
                for k, v in self.verdicts.items()
            },
            "crossovers": [
                {
                    "n_aircraft": c.n_aircraft,
                    "faster_after": c.faster_after,
                    "seconds": c.seconds,
                }
                for c in self.crossovers()
            ],
        }


def _figure_from_sweep(
    figure_id: str,
    title: str,
    task: str,
    data: SweepData,
    *,
    fit: bool = True,
) -> FigureData:
    series = {}
    verdicts = {}
    for platform in data.platforms():
        ys = (
            data.task1_series(platform)
            if task == "task1"
            else data.task23_series(platform)
        )
        series[platform] = ys
        if fit and len(data.ns) >= 4:
            verdicts[platform] = assess_linearity(data.ns, ys)
    return FigureData(
        figure_id=figure_id,
        title=title,
        task=task,
        ns=data.ns,
        series=series,
        verdicts=verdicts,
        measurements={p: list(rows) for p, rows in data.measurements.items()},
    )


def fig4(
    ns: Sequence[int] = DEFAULT_NS_ALL_PLATFORMS, *, seed: int = 2018, periods: int = 3
) -> FigureData:
    """Fig. 4: Task 1 timings on all six platforms."""
    data = sweep(all_platform_names(), ns, seed=seed, periods=periods)
    return _figure_from_sweep(
        "fig4", "Task 1 (tracking & correlation) on all platforms", "task1", data
    )


def fig5(
    ns: Sequence[int] = DEFAULT_NS_NVIDIA, *, seed: int = 2018, periods: int = 3
) -> FigureData:
    """Fig. 5: Task 1 timings on the three NVIDIA cards."""
    data = sweep(NVIDIA_PLATFORMS, ns, seed=seed, periods=periods)
    return _figure_from_sweep(
        "fig5", "Task 1 (tracking & correlation) on the NVIDIA cards", "task1", data
    )


def fig6(
    ns: Sequence[int] = DEFAULT_NS_ALL_PLATFORMS, *, seed: int = 2018, periods: int = 3
) -> FigureData:
    """Fig. 6: Tasks 2+3 timings on all six platforms."""
    data = sweep(all_platform_names(), ns, seed=seed, periods=periods)
    return _figure_from_sweep(
        "fig6", "Tasks 2+3 (collision detection & resolution) on all platforms",
        "task23", data,
    )


def fig7(
    ns: Sequence[int] = DEFAULT_NS_NVIDIA, *, seed: int = 2018, periods: int = 3
) -> FigureData:
    """Fig. 7: Tasks 2+3 timings on the three NVIDIA cards."""
    data = sweep(NVIDIA_PLATFORMS, ns, seed=seed, periods=periods)
    return _figure_from_sweep(
        "fig7", "Tasks 2+3 (collision detection & resolution) on the NVIDIA cards",
        "task23", data,
    )


@dataclass
class FitFigure:
    """A single-platform curve-fit figure (Figs. 8 and 9)."""

    figure_id: str
    title: str
    platform: str
    ns: tuple
    seconds: tuple
    verdict: LinearityVerdict

    def render(self) -> str:
        rows = [
            (
                n,
                format_seconds(s),
                format_seconds(max(float(self.verdict.linear.predict(n)), 0.0)),
                format_seconds(max(float(self.verdict.quadratic.predict(n)), 0.0)),
            )
            for n, s in zip(self.ns, self.seconds)
        ]
        table = render_table(
            ["aircraft", "measured", "linear fit", "quadratic fit"], rows
        )
        return "\n".join(
            [
                f"{self.figure_id}: {self.title}",
                table,
                "",
                f"  linear    {self.verdict.linear.describe()}",
                f"  quadratic {self.verdict.quadratic.describe()}",
                f"  {self.verdict.describe()}",
            ]
        )

    def to_dict(self) -> dict:
        v = self.verdict
        return {
            "experiment": self.figure_id,
            "title": self.title,
            "platform": self.platform,
            "ns": list(self.ns),
            "seconds": [float(y) for y in self.seconds],
            "verdict": v.verdict,
            "growth_exponent": v.growth_exponent,
            "linear": {
                "coefficients": list(v.linear.coefficients),
                "sse": v.linear.sse,
                "r2": v.linear.r_squared,
                "adj_r2": v.linear.adj_r_squared,
                "rmse": v.linear.rmse,
            },
            "quadratic": {
                "coefficients": list(v.quadratic.coefficients),
                "sse": v.quadratic.sse,
                "r2": v.quadratic.r_squared,
                "adj_r2": v.quadratic.adj_r_squared,
                "rmse": v.quadratic.rmse,
            },
        }


def fig8(
    ns: Sequence[int] = DEFAULT_NS_NVIDIA, *, seed: int = 2018, periods: int = 3
) -> FitFigure:
    """Fig. 8: near-linear curve fit for Task 1 on the GTX 880M."""
    rows = [
        measure_platform("cuda:gtx-880m", n, seed=seed, periods=periods) for n in ns
    ]
    ys = tuple(m.task1_mean_s for m in rows)
    return FitFigure(
        figure_id="fig8",
        title="Task 1 timings on the GTX 880M with curve fits",
        platform="cuda:gtx-880m",
        ns=tuple(ns),
        seconds=ys,
        verdict=assess_linearity(ns, ys),
    )


def fig9(
    ns: Sequence[int] = DEFAULT_NS_NVIDIA, *, seed: int = 2018, periods: int = 3
) -> FitFigure:
    """Fig. 9: quadratic (small-coefficient) fit for Tasks 2+3 on the 9800 GT."""
    rows = [
        measure_platform("cuda:geforce-9800-gt", n, seed=seed, periods=periods)
        for n in ns
    ]
    ys = tuple(m.task23_s for m in rows)
    return FitFigure(
        figure_id="fig9",
        title="Tasks 2+3 timings on the GeForce 9800 GT with curve fits",
        platform="cuda:geforce-9800-gt",
        ns=tuple(ns),
        seconds=ys,
        verdict=assess_linearity(ns, ys),
    )


# ---------------------------------------------------------------------------
# §6.2 tables
# ---------------------------------------------------------------------------


@dataclass
class DeadlineTable:
    """tbl-deadline: the §6.2 deadline-miss comparison."""

    report: DeadlineReport

    def render(self) -> str:
        rows = [
            (
                r.platform,
                r.n_aircraft,
                r.periods,
                r.missed,
                r.skipped,
                f"{r.miss_rate:.1%}",
                f"{r.worst_period_ms:.2f}",
                f"{r.mean_utilization:.1%}",
            )
            for r in self.report.rows
        ]
        table = render_table(
            [
                "platform",
                "aircraft",
                "periods",
                "missed",
                "skipped",
                "miss rate",
                "worst period (ms)",
                "utilization",
            ],
            rows,
        )
        lines = ["tbl-deadline: hard-deadline behaviour over full major cycles", table, ""]
        lines.extend("  " + s for s in self.report.summary_lines())
        never = self.report.platforms_never_missing()
        missing = self.report.platforms_missing()
        lines.append(f"  never miss: {', '.join(never) if never else '(none)'}")
        lines.append(f"  miss: {', '.join(missing) if missing else '(none)'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "experiment": "tbl-deadline",
            "rows": [
                {
                    "platform": r.platform,
                    "n_aircraft": r.n_aircraft,
                    "periods": r.periods,
                    "missed": r.missed,
                    "skipped": r.skipped,
                    "worst_period_ms": r.worst_period_ms,
                }
                for r in self.report.rows
            ],
            "never_miss": self.report.platforms_never_missing(),
            "miss": self.report.platforms_missing(),
        }


def deadline_table(
    ns: Sequence[int] = (960, 1920, 2880, 3840),
    *,
    platforms: Optional[Sequence[str]] = None,
    major_cycles: int = 2,
    seed: int = 2018,
) -> DeadlineTable:
    """Run full hard-deadline schedules and tabulate misses per platform."""
    platforms = list(platforms) if platforms is not None else all_platform_names()
    rows: List[DeadlineRow] = []
    for name in platforms:
        backend = resolve_backend(name)
        for n in ns:
            fleet = setup_flight(n, seed)
            result = run_schedule(
                backend, fleet, major_cycles=major_cycles, seed=seed
            )
            record_schedule_metrics(result)
            rows.append(DeadlineRow.from_schedule(result))
    return DeadlineTable(DeadlineReport(rows))


@dataclass
class DeterminismTable:
    """tbl-determinism: repeated identical runs, identical timings?"""

    repeats: int
    rows: List[tuple]

    def render(self) -> str:
        table = render_table(
            ["platform", "task1 spread", "task23 spread", "deterministic"],
            self.rows,
        )
        return (
            f"tbl-determinism: timing spread over {self.repeats} identical runs\n"
            + table
        )

    def to_dict(self) -> dict:
        return {
            "experiment": "tbl-determinism",
            "repeats": self.repeats,
            "rows": [list(r) for r in self.rows],
        }


def determinism_table(
    n: int = 960,
    *,
    repeats: int = 3,
    platforms: Optional[Sequence[str]] = None,
    seed: int = 2018,
) -> DeterminismTable:
    """Re-run identical inputs and compare the modelled timings.

    The paper: "we would get the exact same timings again and again for
    each machine" (NVIDIA); the MIMD machine cannot offer that.
    """
    platforms = list(platforms) if platforms is not None else all_platform_names()
    rows = []
    for name in platforms:
        backend = resolve_backend(name)
        t1s, t23s = [], []
        for _ in range(repeats):
            fleet = setup_flight(n, seed)
            frame = generate_radar_frame(fleet, seed, 0)
            t1s.append(backend.track_and_correlate(fleet, frame).seconds)
            t23s.append(backend.detect_and_resolve(fleet).seconds)
        spread1 = max(t1s) - min(t1s)
        spread23 = max(t23s) - min(t23s)
        deterministic = spread1 == 0.0 and spread23 == 0.0
        rows.append(
            (
                name,
                format_seconds(spread1),
                format_seconds(spread23),
                "yes" if deterministic else "NO",
            )
        )
    return DeterminismTable(repeats=repeats, rows=rows)


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------


@dataclass
class AblationTable:
    experiment_id: str
    title: str
    headers: tuple
    rows: List[tuple]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        out = [f"{self.experiment_id}: {self.title}", render_table(self.headers, self.rows)]
        if self.notes:
            out.append("")
            out.extend("  " + n for n in self.notes)
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "notes": list(self.notes),
        }


def ablation_blocksize(
    n: int = 1920,
    *,
    block_sizes: Sequence[int] = (32, 64, 96, 128, 256),
    device: str = "titan-x-pascal",
    seed: int = 2018,
) -> AblationTable:
    """abl-blocksize: the paper's 96-threads-per-block choice."""
    rows = []
    for bs in block_sizes:
        backend = CudaBackend(device, block_size=bs)
        m = measure_platform(backend, n, seed=seed, periods=2)
        rows.append(
            (
                bs,
                format_seconds(m.task1_mean_s),
                format_seconds(m.task23_s),
            )
        )
    return AblationTable(
        experiment_id="abl-blocksize",
        title=f"threads-per-block sweep on {device} at n={n}",
        headers=("block size", "task1", "task2+3"),
        rows=rows,
        notes=[
            "the paper fixes 96 threads/block (matching the ClearSpeed chip's"
            " 96 PEs); this sweep shows how sensitive the cards actually are",
        ],
    )


def ablation_fused(
    ns: Sequence[int] = (480, 960, 1920, 3840),
    *,
    device: str = "titan-x-pascal",
    seed: int = 2018,
) -> AblationTable:
    """abl-fused: fused CheckCollisionPath vs split Task-2/Task-3 kernels."""
    rows = []
    for n in ns:
        fused = measure_platform(
            CudaBackend(device), n, seed=seed, periods=1
        ).task23_s
        split = measure_platform(
            CudaBackend(device, fused_collision_kernel=False), n, seed=seed, periods=1
        ).task23_s
        rows.append(
            (
                n,
                format_seconds(fused),
                format_seconds(split),
                f"{split / fused:.2f}x",
            )
        )
    return AblationTable(
        experiment_id="abl-fused",
        title=f"fused vs split collision kernels on {device}",
        headers=("aircraft", "fused", "split (+transfers)", "split/fused"),
        rows=rows,
        notes=[
            "Section 4: fusing Tasks 2+3 into one kernel 'cuts overhead for"
            " memory and data transfer' — the split design pays a host round"
            " trip of the drone table plus an extra launch",
        ],
    )


def ablation_throughput(
    ns: Sequence[int] = (480, 960, 1920),
    *,
    task: str = "task23",
    seed: int = 2018,
) -> AblationTable:
    """abl-throughput: §7.2's throughput-normalized comparison."""
    platforms = all_platform_names()
    data = sweep(platforms, ns, seed=seed, periods=2)
    reference = resolve_backend("ap:staran").peak_throughput_ops_per_s()
    normalized: List[NormalizedSeries] = []
    for name in platforms:
        backend = resolve_backend(name)
        ys = (
            data.task23_series(name) if task == "task23" else data.task1_series(name)
        )
        normalized.append(
            normalize_times(
                name, ns, ys, backend.peak_throughput_ops_per_s(), reference
            )
        )
    rows = []
    for s in normalized:
        for n, raw, norm in zip(s.ns, s.raw_seconds, s.normalized_seconds):
            rows.append(
                (
                    s.platform,
                    n,
                    format_seconds(raw),
                    format_seconds(norm),
                    f"{s.peak_ops_per_s:.3g}",
                )
            )
    ranking = efficiency_ranking(normalized)
    return AblationTable(
        experiment_id="abl-throughput",
        title=f"throughput-normalized {task} times (reference: ap:staran)",
        headers=("platform", "aircraft", "raw", "normalized", "peak ops/s"),
        rows=rows,
        notes=[
            "normalized = raw x peak(platform) / peak(reference): time the"
            " platform would need at the reference's peak throughput",
            "efficiency ranking (best first): " + ", ".join(ranking),
        ],
    )


def ext_viability(
    ns: Sequence[int] = (480, 960, 1920),
    *,
    platforms: Optional[Sequence[str]] = None,
    major_cycles: int = 2,
    seed: int = 2018,
) -> AblationTable:
    """ext-viability: the paper's §7.1 question — does the *complete*
    ATM task set (collision + terrain + approach + advisories) still
    hold every deadline, and does it bend the curves?"""
    from ..extended import TerrainGrid, run_extended_schedule

    platforms = list(platforms) if platforms is not None else all_platform_names()
    grid = TerrainGrid.generate(seed)
    rows = []
    for name in platforms:
        backend = resolve_backend(name)
        for n in ns:
            fleet = setup_flight(n, seed)
            res = run_extended_schedule(
                backend, fleet, terrain=grid, major_cycles=major_cycles, seed=seed
            )
            record_schedule_metrics(res)
            s = res.summary()
            rows.append(
                (
                    name,
                    n,
                    res.missed_deadlines,
                    res.skipped_tasks,
                    format_seconds(s["terrain_mean_s"]),
                    format_seconds(s["approach_mean_s"]),
                    format_seconds(s["advisory_mean_s"]),
                    format_seconds(res.worst_period_seconds),
                )
            )
    return AblationTable(
        experiment_id="ext-viability",
        title="complete ATM task set: deadline viability per platform",
        headers=(
            "platform", "aircraft", "missed", "skipped",
            "terrain", "approach", "advisory", "worst period",
        ),
        rows=rows,
        notes=[
            "the paper's §7.1 future work: add the remaining STARAN ATC"
            " tasks and check the system 'is still viable and will not"
            " miss deadlines'",
        ],
    )


def ablation_resolution(
    n: int = 768,
    *,
    major_cycles: int = 8,
    seed: int = 2018,
    ns=None,  # accepted for CLI uniformity; single-n experiment
) -> AblationTable:
    """abl-resolution: does Task 3 actually improve safety outcomes?

    Runs the same evolving airfield with collision resolution enabled
    and disabled and scores both with the separation-minima safety log
    (losses of separation are what the system exists to prevent)."""
    from ..analysis.safety import SafetyLog
    from ..backends.reference import ReferenceBackend
    from ..core.collision import detect as core_detect
    from ..core.scheduler import run_schedule
    from ..core.types import TaskTiming

    if ns:
        n = ns[0]

    class DetectionOnlyBackend(ReferenceBackend):
        """Task 2 runs, Task 3 is disabled: conflicts are found but
        nobody turns."""

        name = "reference+no-resolution"

        def detect_and_resolve(self, fleet, mode=None):
            stats = core_detect(fleet)
            return TaskTiming(
                task="task23",
                platform=self.name,
                n_aircraft=fleet.n,
                seconds=1e-6,
                stats={"flagged": stats.flagged_aircraft},
            )

    rows = []
    logs = {}
    for label, backend in (
        ("resolution ON", ReferenceBackend()),
        ("resolution OFF", DetectionOnlyBackend()),
    ):
        fleet = setup_flight(n, seed)
        log = SafetyLog()
        log.record(fleet)
        for _ in range(major_cycles):
            run_schedule(backend, fleet, major_cycles=1, seed=seed)
            log.record(fleet)
        logs[label] = log
        s_ = log.summary()
        rows.append(
            (
                label,
                n,
                major_cycles,
                s_["total_loss_events"],
                s_["peak_losses"],
                f"{s_['worst_min_horizontal_nm']:.2f}",
            )
        )
    return AblationTable(
        experiment_id="abl-resolution",
        title=f"safety outcomes with and without Task 3 (n={n}, {major_cycles} cycles)",
        headers=(
            "configuration", "aircraft", "cycles",
            "LoS pair-periods", "peak simultaneous LoS", "worst separation (nm)",
        ),
        rows=rows,
        notes=[
            "LoS = pair below 3 nm horizontally and 1000 ft vertically;",
            "Task 3's +-30-degree turns cannot clear every conflict in"
            " dense synthetic traffic, but they must strictly reduce the"
            " loss-of-separation exposure",
        ],
    )


def ablation_smem(
    ns: Sequence[int] = (480, 960, 1920, 2880),
    *,
    seed: int = 2018,
) -> AblationTable:
    """abl-smem: the paper's global-memory design vs shared-memory tiling.

    Section 5: "the program uses global memory and is not restricted by
    shared memory size, which is what makes it compatible on the old and
    new architecture."  This ablation models the textbook alternative —
    a shared-memory tiled collision kernel — and shows what the paper's
    choice avoids."""
    from ..core.resolution import detect_and_resolve as core_dnr
    from ..cuda.device import DEVICES
    from ..cuda.kernels.check_collision import (
        charge_check_collision,
        charge_check_collision_tiled,
    )

    rows = []
    for n in ns:
        fleet = setup_flight(n, seed)
        det, res = core_dnr(fleet)
        for key, device in DEVICES.items():
            g = charge_check_collision(device, fleet, det, res)
            t = charge_check_collision_tiled(device, fleet, det, res)
            rows.append(
                (
                    f"cuda:{key}",
                    n,
                    format_seconds(g.seconds),
                    format_seconds(t.seconds),
                    f"{t.seconds / g.seconds:.3f}x",
                    g.occupancy.blocks_per_sm,
                    t.occupancy.blocks_per_sm,
                )
            )
    return AblationTable(
        experiment_id="abl-smem",
        title="global-memory kernel vs shared-memory tiled variant (Tasks 2+3)",
        headers=(
            "device", "aircraft", "global", "tiled", "tiled/global",
            "blocks/SM global", "blocks/SM tiled",
        ),
        rows=rows,
        notes=[
            "tiling forces every block to stream the whole flight table"
            " itself and spends shared memory that costs occupancy —"
            " hardest on the CC 1.x card's 16 KiB — while the broadcast"
            " reads it replaces were already cache-served: the paper's"
            " global-memory design wins on every card",
        ],
    )


def ext_vector(
    ns: Sequence[int] = (96, 480, 960, 1920, 3840),
    *,
    seed: int = 2018,
    periods: int = 2,
) -> FigureData:
    """ext-vector: §7.2's wide-vector hypothesis, measured.

    Compares the AVX-512/Xeon Phi models against the best GPU and the
    AP on the fused collision tasks: do commodity vector units deliver
    SIMD-like curves and deadlines?"""
    platforms = (
        "vector:xeon-phi-7250",
        "vector:avx512-16c",
        "cuda:titan-x-pascal",
        "cuda:gtx-880m",
        "ap:staran",
    )
    data = sweep(platforms, ns, seed=seed, periods=periods)
    return _figure_from_sweep(
        "ext-vector",
        "Tasks 2+3 on wide-vector processors vs GPU and AP (paper 7.2)",
        "task23",
        data,
    )


# ---------------------------------------------------------------------------
# experiment registry (per-experiment index of DESIGN.md)
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "tbl-deadline": deadline_table,
    "tbl-determinism": determinism_table,
    "abl-blocksize": ablation_blocksize,
    "abl-fused": ablation_fused,
    "abl-throughput": ablation_throughput,
    "abl-resolution": ablation_resolution,
    "abl-smem": ablation_smem,
    "ext-viability": ext_viability,
    "ext-vector": ext_vector,
}


def run_experiment(experiment_id: str, **kwargs):
    """Run one experiment from the DESIGN.md index by id."""
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        # Name the missing key on the obs collector too, so a traced
        # harness run shows *which* lookup failed, not just that one did.
        from .faults import fault_span

        fault_span("unknown-experiment", experiment=experiment_id)
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return fn(**kwargs)
