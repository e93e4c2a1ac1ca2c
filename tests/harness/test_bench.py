"""Unit tests for the trace-engine benchmark harness (repro.harness.bench)."""

import json

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA_VERSION,
    bench_failures,
    render_bench,
    run_bench,
    write_bench,
)

#: a deliberately tiny profile: the record shape, the trace-work counts
#: and the equivalence check are under test here, not wall times.
TINY = dict(ns=(64, 96), periods=1, platforms=["reference", "ap:staran"])


@pytest.fixture(scope="module")
def result():
    return run_bench(**TINY)


class TestRunBench:
    def test_record_shape(self, result):
        assert result["schema"] == BENCH_SCHEMA_VERSION
        assert [s["name"] for s in result["stages"]] == ["trace_cold", "trace_warm"]
        assert all(s["wall_s"] > 0 for s in result["stages"])
        assert result["config"]["ns"] == [64, 96]
        assert result["config"]["platforms"] == ["reference", "ap:staran"]

    def test_stages_are_equivalent(self, result):
        assert result["equivalent"] is True

    def test_stages_count_exact_trace_work(self, result):
        cold, warm = result["stages"]
        assert cold["cells"] == warm["cells"] == 4
        assert cold["traces"]["compute"] == 2  # one per fleet size
        assert cold["traces"]["memo"] == 2
        assert warm["traces"]["compute"] == 0
        assert warm["traces"]["memo"] == 4
        assert cold["traces"]["stream"] == warm["traces"]["stream"] == 0
        assert result["failures"] == []

    def test_record_is_json_round_trippable(self, result, tmp_path):
        out = tmp_path / "BENCH_test.json"
        write_bench(str(out), result)
        again = json.loads(out.read_text(encoding="utf-8"))
        assert again["stages"] == result["stages"]
        assert again["failures"] == []
        assert again["equivalent"] is True

    def test_render_mentions_every_stage(self, result):
        text = render_bench(result)
        for stage in ("trace_cold", "trace_warm"):
            assert stage in text


class TestBenchFailures:
    """The gate's verdict on synthetic records: the expectations come
    from the config alone."""

    @staticmethod
    def _record():
        def stage(name, compute, memo):
            return {
                "name": name,
                "wall_s": 1.0,
                "cells": 28,
                "traces": {
                    "compute": compute, "memo": memo, "store": 0, "pool": 0,
                    "stream": 0,
                },
            }

        return {
            "config": {"ns": [96, 480, 960, 1920], "platforms": ["p"] * 7},
            "stages": [stage("trace_cold", 4, 24), stage("trace_warm", 0, 28)],
            "equivalent": True,
        }

    def test_one_trace_per_fleet_size_passes(self):
        assert bench_failures(self._record()) == []

    def test_a_trace_per_cell_fails(self):
        record = self._record()
        record["stages"][0]["traces"].update(compute=28, memo=0)
        assert bench_failures(record) == ["trace_cold computed 28 traces, expected 4"]

    def test_a_warm_stage_that_computes_fails(self):
        record = self._record()
        record["stages"][1]["traces"].update(compute=4, memo=24)
        assert bench_failures(record) == ["trace_warm computed 4 traces, expected 0"]

    @pytest.mark.parametrize("stage", [0, 1])
    def test_a_stage_that_streamed_fails(self, stage):
        record = self._record()
        record["stages"][stage]["traces"]["stream"] = 1
        failures = bench_failures(record)
        assert len(failures) == 1 and "streamed 1 private passes" in failures[0]

    def test_a_byte_difference_fails(self):
        record = self._record()
        record["equivalent"] = False
        failures = bench_failures(record)
        assert len(failures) == 1 and "not byte-identical" in failures[0]

    def test_a_stage_missing_cells_fails(self):
        record = self._record()
        record["stages"][1]["cells"] = 27
        failures = bench_failures(record)
        assert failures == [
            "trace_warm measured 27 cells, expected 28 (7 platforms x 4 fleet sizes)"
        ]

    def test_duplicate_sizes_share_one_trace(self):
        record = self._record()
        record["config"]["ns"] = [96, 96]
        for stage in record["stages"]:
            stage["cells"] = 14
        record["stages"][0]["traces"]["compute"] = 1
        assert bench_failures(record) == []


class TestCommittedRecord:
    def test_committed_smoke_record_passes_the_gate(self):
        """The committed BENCH_trace_engine.json is a passing record of
        the smoke profile."""
        from pathlib import Path

        from repro.harness.bench import BENCH_PLATFORMS, SMOKE_BENCH_NS

        path = Path(__file__).resolve().parents[2] / "BENCH_trace_engine.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["config"]["ns"] == list(SMOKE_BENCH_NS)
        assert record["config"]["platforms"] == list(BENCH_PLATFORMS)
        assert record["failures"] == bench_failures(record) == []
