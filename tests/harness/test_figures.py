"""Unit tests for the figure/table generators (tiny sweeps for speed)."""

import pytest

from repro.harness.figures import (
    EXPERIMENTS,
    ablation_blocksize,
    ablation_fused,
    ablation_throughput,
    deadline_table,
    determinism_table,
    ext_viability,
    fig4,
    fig5,
    fig8,
    run_experiment,
)

TINY = (96, 192, 288, 480)


class TestCurveFigures:
    def test_fig4_has_all_six_platforms(self):
        data = fig4(ns=TINY, periods=1)
        assert len(data.series) == 6
        assert data.task == "task1"
        assert all(len(v) == len(TINY) for v in data.series.values())
        out = data.render()
        assert "fig4" in out and "aircraft" in out

    def test_fig5_nvidia_only(self):
        data = fig5(ns=TINY, periods=1)
        assert set(data.series) == {
            "cuda:geforce-9800-gt",
            "cuda:gtx-880m",
            "cuda:titan-x-pascal",
        }

    def test_fig8_fit_figure(self):
        fig = fig8(ns=TINY, periods=1)
        assert fig.platform == "cuda:gtx-880m"
        assert len(fig.seconds) == len(TINY)
        out = fig.render()
        assert "linear" in out and "R^2" in out


class TestTables:
    def test_deadline_table_small(self):
        table = deadline_table(
            ns=(96,), platforms=("cuda:titan-x-pascal", "ap:staran"), major_cycles=1
        )
        out = table.render()
        assert "never miss" in out
        assert "cuda:titan-x-pascal" in out
        # Both deterministic platforms hold every deadline at n=96.
        assert table.report.platforms_never_missing() == [
            "ap:staran",
            "cuda:titan-x-pascal",
        ]

    def test_ext_viability_columns_match_direct_runs(self):
        """Each column, read by its header, is the matching figure of a
        direct run of the complete system on a fresh backend and fleet
        (one n, so no backend's state carries from row to row)."""
        from repro.analysis.tables import format_seconds
        from repro.backends.registry import resolve_backend
        from repro.core.setup import setup_flight
        from repro.extended import TerrainGrid, run_extended_schedule

        table = ext_viability(ns=(96,), major_cycles=1)
        grid = TerrainGrid.generate(2018)
        assert len(table.rows) == 6
        for values in table.rows:
            row = dict(zip(table.headers, values))
            res = run_extended_schedule(
                resolve_backend(row["platform"]),
                setup_flight(96, 2018),
                terrain=grid,
                major_cycles=1,
                seed=2018,
            )
            s = res.summary()
            assert row == {
                "platform": row["platform"],
                "aircraft": 96,
                "missed": s["missed_deadlines"],
                "skipped": s["skipped_tasks"],
                "terrain": format_seconds(s["terrain_mean_s"]),
                "approach": format_seconds(s["approach_mean_s"]),
                "advisory": format_seconds(s["advisory_mean_s"]),
                "worst period": format_seconds(s["worst_period_s"]),
            }

    def test_determinism_table(self):
        table = determinism_table(
            n=96,
            repeats=2,
            platforms=("cuda:gtx-880m", "mimd:xeon-16"),
        )
        out = table.render()
        rows = {r[0]: r[3] for r in table.rows}
        assert rows["cuda:gtx-880m"] == "yes"
        assert rows["mimd:xeon-16"] == "NO"
        assert "spread" in out


class TestAblations:
    def test_blocksize(self):
        table = ablation_blocksize(n=192, block_sizes=(32, 96, 256))
        assert len(table.rows) == 3
        assert "abl-blocksize" in table.render()

    def test_fused(self):
        table = ablation_fused(ns=(96, 192))
        assert len(table.rows) == 2
        # Split is never faster than fused.
        for _, fused, split, ratio in table.rows:
            assert float(ratio.rstrip("x")) >= 1.0

    def test_throughput(self):
        table = ablation_throughput(ns=(96, 192))
        out = table.render()
        assert "efficiency ranking" in out


class TestRegistry:
    def test_all_design_md_ids_present(self):
        assert set(EXPERIMENTS) == {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "tbl-deadline", "tbl-determinism",
            "abl-blocksize", "abl-fused", "abl-throughput",
            "abl-resolution", "abl-smem", "ext-viability", "ext-vector",
        }

    def test_run_experiment_dispatch(self):
        fig = run_experiment("fig8", ns=TINY, periods=1)
        assert fig.figure_id == "fig8"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="known"):
            run_experiment("fig99")
