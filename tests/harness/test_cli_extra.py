"""CLI tests for the report subcommand, --plot flag and extension ids."""

import json

import pytest

from repro.harness.cli import main


class TestReportCommand:
    def test_report_subset_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        assert main(["report", "--only", "tbl-determinism", "--out", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "reproduction report" in text
        data = json.loads(out_path.read_text())
        assert list(data["experiments"]) == ["tbl-determinism"]

    def test_report_stdout_only(self, capsys):
        assert main(["report", "--only", "abl-fused"]) == 0
        assert "abl-fused" in capsys.readouterr().out


class TestPlotFlag:
    def test_plot_appends_chart(self, capsys):
        assert main(["fig5", "--ns", "96", "192", "288", "480", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "(aircraft)" in out  # the chart's x axis label
        assert "o=cuda:geforce-9800-gt" in out

    def test_plot_ignored_for_tables(self, capsys):
        assert main(["tbl-determinism", "--n", "96", "--repeats", "2", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "(aircraft)" not in out


class TestExtensionCommands:
    def test_ext_vector_runs(self, capsys):
        assert main(["ext-vector", "--ns", "96", "192", "288", "480"]) == 0
        out = capsys.readouterr().out
        assert "vector:xeon-phi-7250" in out

    def test_ext_viability_runs(self, capsys):
        assert main(["ext-viability", "--ns", "96"]) == 0
        out = capsys.readouterr().out
        assert "ext-viability" in out
        assert "terrain" in out


class TestBenchCommand:
    @pytest.fixture(autouse=True)
    def _fresh_trace_memo(self):
        """The disk-tier tests below assert store traffic; a memo warmed
        by earlier tests in this process would satisfy lookups before
        the store is ever consulted."""
        from repro.harness.sweep import _TRACE_MEMO

        _TRACE_MEMO.clear()
        yield
        _TRACE_MEMO.clear()

    def test_bench_writes_record_and_passes(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_test.json"
        rc = main([
            "bench", "--ns", "64", "96", "--periods", "1",
            "--platforms", "reference", "ap:staran",
            "--out", str(out_path),
        ])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["equivalent"] is True
        assert data["failures"] == []
        assert "gate         pass" in capsys.readouterr().out

    def test_bench_gate_fails_when_the_memo_keeps_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        """Every cell then runs its own functional pass: the regression
        the gate exists for, caught by its exact compute counts."""
        import importlib
        from collections import OrderedDict

        sweep_module = importlib.import_module("repro.harness.sweep")

        class KeepsNothing(OrderedDict):
            def __setitem__(self, key, value):
                pass

            def move_to_end(self, key, last=True):
                pass

        monkeypatch.setattr(sweep_module, "_TRACE_MEMO", KeepsNothing())
        rc = main([
            "bench", "--ns", "64", "96", "--periods", "1",
            "--platforms", "reference", "ap:staran",
            "--out", str(tmp_path / "BENCH_test.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAIL: trace_cold computed 4 traces, expected 2" in err
        assert "FAIL: trace_warm computed 4 traces, expected 0" in err

    def test_bench_rejects_more_sizes_than_the_memo_holds(self, capsys, tmp_path):
        ns = [str(64 + i) for i in range(17)]
        rc = main([
            "bench", "--ns", *ns, "--periods", "1", "--platforms", "reference",
            "--out", str(tmp_path / "BENCH_test.json"),
        ])
        assert rc == 2
        assert "capacity of 16" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_test.json").exists()

    def test_report_cache_dir_populates_trace_tier(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main([
            "report", "--only", "fig5", "--cache-dir", str(cache_dir),
        ]) == 0
        assert (cache_dir / "traces").is_dir()

    def test_cache_stats_and_clear_cover_trace_tier(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main([
            "report", "--only", "fig5", "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "trace tier:" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "stored traces" in out
        assert not (cache_dir / "traces").exists()


class TestQuarantineSummary:
    """The integrity summary on stderr when cached entries rot on disk."""

    def test_corrupt_cache_entries_are_reported_on_stderr(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        args = ["report", "--only", "abl-fused", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()

        # Rot two result entries: each read is a quarantined miss and
        # the run ends with the integrity summary on stderr.
        result_entries = sorted((cache_dir / "v2").rglob("*.json"))
        assert len(result_entries) >= 2
        result_entries[0].write_text("{not json", encoding="utf-8")
        result_entries[1].write_text("{not json", encoding="utf-8")

        assert main(args) == 0
        err = capsys.readouterr().err
        assert (
            f"integrity: 2 corrupt entries quarantined under"
            f" {cache_dir}/quarantine" in err
        )
        assert (cache_dir / "quarantine").exists()

    def test_corrupt_traces_are_reported_under_their_own_quarantine(
        self, capsys, tmp_path
    ):
        import shutil

        from repro.harness.sweep import _TRACE_MEMO

        cache_dir = tmp_path / "cache"
        args = ["report", "--only", "abl-fused", "--cache-dir", str(cache_dir)]
        _TRACE_MEMO.clear()
        assert main(args) == 0
        capsys.readouterr()

        # Without the result entries and the memo the rerun reads the
        # stored traces, each of them rotten.
        shutil.rmtree(cache_dir / "v2")
        traces = sorted((cache_dir / "traces").rglob("*.trace"))
        assert traces
        for path in traces:
            path.write_bytes(b"rot")
        _TRACE_MEMO.clear()
        assert main(args) == 0
        err = capsys.readouterr().err
        assert (
            f"integrity: {len(traces)} corrupt entries quarantined under"
            f" {cache_dir}/traces/quarantine" in err
        )
        assert f"under {cache_dir}/quarantine" not in err
        assert len(list((cache_dir / "traces" / "quarantine").iterdir())) == len(
            traces
        )

    def test_clean_cache_prints_no_integrity_line(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        args = ["report", "--only", "abl-fused", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "integrity:" not in err
        assert "cache" in err  # the hit/miss summary still prints
