"""The large-n contract through the harness: pruning policy threading,
byte-identical sweeps and reports for every policy, streaming replay
under a tight trace budget, and the continental-scale bench profile.

Companion to tests/core/test_sweepline.py (the bit-level differential
wall); here the same contract is asserted at the sweep/report/bench
layers where the policy actually gets threaded.
"""

import dataclasses
import json

import pytest

from repro.core.sweepline import PRUNE_MIN_N, resolve_pruning
from repro.core.trace import (
    DEFAULT_TRACE_BUDGET,
    TraceBudget,
    compute_trace,
    estimate_trace_bytes,
    stream_trace,
    trace_nbytes,
)
from repro.harness.bench import (
    LARGE_BENCH_PLATFORMS,
    large_bench_table,
    render_bench_large,
    run_bench_large,
)
from repro.harness.cache import ResultCache
from repro.harness.cli import build_parser, main
from repro.harness.parallel import sweep_options
from repro.harness.report import build_report
from repro.harness.sweep import _TRACE_MEMO, measure_platform, sweep
from repro.obs.metrics import MetricsRegistry, recording

PLATFORMS = ["cuda:titan-x-pascal", "ap:staran"]
NS = (96, 192)


def canonical_sweep(**kwargs):
    _TRACE_MEMO.clear()
    data = sweep(PLATFORMS, NS, periods=2, cache=False, **kwargs)
    return data.to_canonical_json()


class TestPolicyThreading:
    def test_sweep_bytes_identical_for_every_policy(self):
        baseline = canonical_sweep()
        for policy in ("auto", "on", "off"):
            assert canonical_sweep(pruning=policy) == baseline, policy

    def test_sweep_bytes_identical_under_pool(self):
        baseline = canonical_sweep()
        with sweep_options(jobs=2):
            assert canonical_sweep(pruning="on") == baseline

    def test_report_bytes_identical_on_vs_off(self):
        on = build_report(only=["fig5"], pruning="on")
        off = build_report(only=["fig5"], pruning="off")
        dump = lambda r: json.dumps(r, indent=2, sort_keys=True)  # noqa: E731
        assert dump(on) == dump(off)

    def test_trace_payload_identical_on_vs_off(self):
        on = compute_trace(96, periods=2, pruning="on")
        off = compute_trace(96, periods=2, pruning="off")
        assert (on.pruning, off.pruning) == ("on", "off")
        assert dataclasses.replace(on, pruning="off").to_bytes() == off.to_bytes()

    def test_cache_keys_split_on_effective_policy(self, tmp_path):
        from repro.backends.registry import resolve_backend

        backend = resolve_backend("ap:staran")
        cache = ResultCache(tmp_path)
        base = dict(n=96, seed=2018, periods=2, mode="signed")
        on = cache.key_for(backend, pruning="on", **base)
        off = cache.key_for(backend, pruning="off", **base)
        default = cache.key_for(backend, **base)
        assert on != off
        assert default == off  # the default is the brute-force path

    def test_auto_is_off_at_paper_sizes(self):
        # Every paper axis stops below the auto threshold, so default
        # runs replay the exact pre-pruner code path.
        assert max(5760, 3840) < PRUNE_MIN_N
        assert not resolve_pruning("auto", 5760)


class TestTraceBudget:
    def test_estimate_tracks_real_trace_size(self):
        trace = compute_trace(96, periods=2)
        est = estimate_trace_bytes(96, 2)
        real = trace_nbytes(trace)
        assert real <= est <= 4 * real

    def test_default_budget_admits_paper_cells(self):
        assert DEFAULT_TRACE_BUDGET.allows_resident(estimate_trace_bytes(3840, 3))

    def test_streamed_replay_is_byte_identical(self):
        baseline = canonical_sweep()
        tiny = TraceBudget(max_resident_bytes=1024, max_payload_bytes=1024)
        _TRACE_MEMO.clear()
        registry = MetricsRegistry()
        with recording(registry), sweep_options(trace_budget=tiny):
            data = sweep(PLATFORMS, NS, periods=2, cache=False)
        assert data.to_canonical_json() == baseline
        assert not _TRACE_MEMO  # nothing memoized above the resident bound
        families = registry.snapshot()["families"]
        paths = {
            s["labels"]["path"]: s["value"]
            for s in families["atm_trace_peak_bytes"]["series"]
        }
        assert "streamed" in paths
        # Streamed peak is one record, not the whole trace.
        assert 0 < paths["streamed"] < estimate_trace_bytes(max(NS), 2)

    def test_stream_yields_periods_then_collision(self):
        records = list(stream_trace(96, periods=2))
        assert len(records) == 3
        assert [type(r).__name__ for r in records] == [
            "TracePeriod", "TracePeriod", "CollisionRecord",
        ]


class TestBenchLarge:
    @pytest.fixture(scope="class")
    def result(self):
        return run_bench_large(n=512, calibration_n=256, periods=2)

    def test_platforms_default(self):
        assert len(LARGE_BENCH_PLATFORMS) == 5

    def test_record_shape(self, result):
        assert result["profile"] == "large"
        assert result["config"]["pruning"] == "on"
        assert result["calibration"]["speedup"] > 0
        assert result["equivalent"] is True
        table = result["large"]["table"]
        assert [row["platform"] for row in table] == list(LARGE_BENCH_PLATFORMS)
        for row in table:
            assert len(row["tracking_margins_s"]) == 1  # periods - 1
            assert isinstance(row["deadline_met"], bool)
        assert result["memory"]["peak_rss_bytes"] > 0
        assert result["memory"]["trace_peak_bytes"]

    def test_table_is_deterministic(self, result):
        again = run_bench_large(n=512, calibration_n=256, periods=2)
        dump = lambda r: json.dumps(  # noqa: E731
            large_bench_table(r), indent=2, sort_keys=True
        )
        assert dump(result) == dump(again)

    def test_table_strips_nondeterminism(self, result):
        table = json.dumps(large_bench_table(result))
        for key in ("wall_s", "timestamp", "host", "rss", "python"):
            assert key not in table

    def test_render(self, result):
        text = render_bench_large(result)
        assert "calibration" in text
        for platform in LARGE_BENCH_PLATFORMS:
            assert platform in text


class TestCli:
    def test_report_pruning_flag_parses(self):
        args = build_parser().parse_args(["report", "--pruning", "on"])
        assert args.pruning == "on"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--pruning", "sometimes"])

    def test_bench_large_flags_parse(self):
        args = build_parser().parse_args(
            ["bench", "--large", "--large-n", "4096", "--table-out", "t.json"]
        )
        assert args.large and args.large_n == 4096
        assert args.table_out == "t.json"

    def test_bench_large_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_large_n.json"
        table = tmp_path / "table.json"
        code = main(
            [
                "bench", "--large", "--large-n", "512",
                "--calibration-n", "256", "--periods", "2",
                "--out", str(out), "--table-out", str(table),
            ]
        )
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["profile"] == "large"
        assert record["equivalent"] is True
        projected = json.loads(table.read_text(encoding="utf-8"))
        assert projected["table"] == record["large"]["table"]

    def test_bench_large_defaults_to_three_periods(self, tmp_path, capsys):
        """Without --periods each profile keeps its own default: 3 for
        --large (as make bench-large always ran it), 2 for the
        trace-engine bench."""
        out = tmp_path / "BENCH_large_n.json"
        assert main(
            [
                "bench", "--large", "--large-n", "512",
                "--calibration-n", "256", "--out", str(out),
            ]
        ) == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["config"]["periods"] == 3
        for row in record["large"]["table"]:
            assert len(row["tracking_margins_s"]) == 2  # periods - 1
        assert build_parser().parse_args(["bench"]).periods is None
        capsys.readouterr()
