"""Trace engine — one functional pass per fleet size, shared by every backend.

Unlike the figure benchmarks, the artifact here is not a paper figure
but the harness itself: ``run_bench`` sweeps the same multi-platform
matrix cold and warm, counts each stage's exact trace work and proves
the two sweeps byte-identical.  The shape assertions are the trace
engine's acceptance bar: the record's verdict passes, and a warm memo
beats a cold one (it skips the functional pass too).
"""

from repro.harness.bench import SMOKE_BENCH_NS, run_bench


def test_trace_engine_speedup(bench_once, benchmark):
    result = bench_once(run_bench, ns=SMOKE_BENCH_NS)

    benchmark.extra_info["ns"] = list(result["config"]["ns"])
    benchmark.extra_info["platforms"] = result["config"]["platforms"]
    for stage in result["stages"]:
        benchmark.extra_info[f"wall:{stage['name']}"] = stage["wall_s"]
        benchmark.extra_info[f"computed:{stage['name']}"] = stage["traces"]["compute"]

    # Correctness and work first: one functional pass per fleet size
    # cold, none warm, no private pass, and identical bytes.
    assert result["failures"] == [], result["failures"]

    cold, warm = result["stages"]
    assert warm["wall_s"] < cold["wall_s"], (cold["wall_s"], warm["wall_s"])
