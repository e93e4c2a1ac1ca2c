"""The repository benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload report|service|large_n \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  Every workload runs with ``jobs=1``
(on a two-core host a process pool's wall time measures the scheduler,
not the program) and checks every op's output.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with no wrappers installed and ``repro.obs``
collection off; with ``--trace 1`` a separate traced op follows the
untraced ones and the metrics are per-layer self times and counts.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``report`` — the quick-profile ``atm-repro report`` (all 15
  experiments, no cache dir), one fresh interpreter per op.
* ``service`` — a Poisson open-loop window against a restarted
  ``atm-repro serve`` over a disk-warm cache (``service.py``).
* ``large_n`` — the pruned five-platform sweep at n=9600, no cache,
  one fresh interpreter (so an empty trace memo) per op.

A batch run starts ops while its window is open, so the last op may end
after it: two ``report`` ops or three to seven ``large_n`` ops at 30 s.
Every op does the same work, and on a shared host noise only ever adds
time, so each repeated timing -- the op wall and the set-up -- is the
fastest of the run (timeit's rule): the median of a few ops measured how
busy the neighbours were.  An op's latency is its wall, and two to seven
ops have no percentile with ten samples beyond it, so
``latency_p50_ms`` and ``latency_p99_ms`` repeat the fastest op there.
For ``service`` an op is a request and ``wall_s`` runs from the window's
start to its last reply.

Left unmeasured on purpose: the process-pool path of
``harness.parallel``, ``repro.search`` (a front-end over the same sweep
and cache layers) and the ``--resume`` journal path.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
``perfbench/pin.py`` regenerates the pinned output digests and traced
call counts when the program's output changes on purpose.

A fixed pure-Python loop is timed before and after every run.  It is a
host-drift diagnostic only and never scales a metric.  Each run's
samples, probes and errors are also written under ``.perfbench/runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import batch  # noqa: E402
import layers  # noqa: E402
import service  # noqa: E402
from stats import percentile, samples_beyond  # noqa: E402

#: Default seed and held-out seed of each workload: develop a change on
#: the first, re-check its claim on the second.
SEEDS = {"report": (2018, 2019), "service": (2018, 2019), "large_n": (2018, 2019)}
#: Set-up samples per batch run (the ops' own plus set-up-only starts).
SETUP_SAMPLES = 5
PINS = HERE / "pins.json"

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Outcome:
    """What a workload run hands back to :func:`main`."""

    attempted: int = 0
    ok: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    samples: Dict[str, Any] = field(default_factory=dict)


def host_probe(reps: int = 3) -> float:
    """Median milliseconds of a fixed pure-Python loop (drift diagnostic)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return median(times) * 1000.0


def child_path() -> str:
    """``PYTHONPATH`` for child interpreters: the program, then this directory."""
    inherited = os.environ.get("PYTHONPATH")
    return os.pathsep.join([str(SRC), str(HERE)] + ([inherited] if inherited else []))


def load_pins(workload: str) -> Dict[str, Any]:
    return json.loads(PINS.read_text(encoding="utf-8"))[workload]


def op_seed(workload: str, seed: int, pinned: List[int]) -> int:
    """The input seed of a batch op: ``seed`` itself when its output is
    pinned, else the workload's default seed, so runs on unpinned seeds
    all measure the paper's input."""
    return seed if seed in pinned else SEEDS[workload][0]


# ---------------------------------------------------------------------------
# report and large_n: one fresh interpreter per op
# ---------------------------------------------------------------------------


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              env: Dict[str, str], work: Path) -> Outcome:
    pins = load_pins(workload)
    seed = op_seed(workload, seed, [int(s) for s in pins])
    want = pins[str(seed)]
    out = Outcome()
    setups: List[float] = []
    if not trace:
        # Half the set-up-only starts before the ops, the rest after, so
        # the fastest is drawn from the whole run, not one moment of it.
        for _ in range(SETUP_SAMPLES // 2):
            setups.append(batch.spawn(workload, seed, work, env, setup_only=True)["setup_s"])
    ops: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(batch.spawn(workload, seed, work, env))
    walls = [op["wall_s"] for op in ops]
    out.attempted = len(ops)
    out.ok = sum(1 for op in ops if op["digest"] == want["digest"])
    if out.ok != len(ops):
        out.errors.append(f"{len(ops) - out.ok} of {len(ops)} op digests differ from the pin")
    out.lines.append(f"{workload}: {len(ops)} ops at input seed {seed}, walls {_fmt(walls)} s")
    out.samples["walls_s"] = walls

    if not trace:
        setups += [op["setup_s"] for op in ops]
        while len(setups) < SETUP_SAMPLES:
            setups.append(batch.spawn(workload, seed, work, env, setup_only=True)["setup_s"])
        out.samples["setups_s"] = setups
        # Fastest of the run, and no tail with this few ops (see the
        # module docstring).
        out.metrics = {
            "wall_s": min(walls),
            "latency_p50_ms": min(walls) * 1000.0,
            "latency_p99_ms": min(walls) * 1000.0,
            "ok_share": out.ok / out.attempted,
            "peak_rss_mb": max(op["rss_mb"] for op in ops),
            "setup_s": min(setups),
        }
        return out

    spans_file = work / "spans.json"
    traced = batch.spawn(workload, seed, work, env, trace_out=spans_file)
    dump = json.loads(spans_file.read_text(encoding="utf-8"))
    if traced["digest"] != want["digest"]:
        out.errors.append("the traced op's digest differs from the pin")
    out.metrics = layers.layer_metrics(
        dump["spans"],
        wall_s=traced["wall_s"],
        main_thread=dump["main_thread"],
        overhead_s=traced["wall_s"] - median(walls),
    )
    counts = layers.exact_counts(out.metrics)
    if counts != want["calls"]:
        diff = sorted(k for k in set(counts) | set(want["calls"]) if counts.get(k) != want["calls"].get(k))
        out.errors.append(f"traced call counts differ from the pin: {diff}")
    out.lines += layers.ranked_table(out.metrics)
    return out


# ---------------------------------------------------------------------------
# service: the open-loop window
# ---------------------------------------------------------------------------


def run_service(workload: str, seed: int, seconds: float, trace: bool,
                env: Dict[str, str], work: Path) -> Outcome:
    out = Outcome()
    requests = service.schedule(seed, seconds)
    want = service.expected_counts(requests)
    template = work / "template"
    expected = service.build_template(template, seed)
    starts = 1 if trace else service.SERVER_STARTS
    window = service.measure_window(requests, expected, template, work, env, starts=starts)
    out.errors += window.errors
    out.attempted, out.ok = window.attempted, window.ok
    _check_lateness(window.lateness_ms, out)
    n = len(window.latencies_ms)
    out.lines.append(
        f"service: {n} requests ({want['computed']} fresh) over {window.wall_s:.2f} s; "
        f"p99 has {samples_beyond(n, 99)} samples beyond it, slowest {max(window.latencies_ms):.1f} ms; "
        f"server start {_fmt(window.setups_s)} s"
    )
    out.samples.update(latencies_ms=window.latencies_ms, setups_s=window.setups_s,
                       server_stats=window.server_stats)
    p50 = percentile(window.latencies_ms, 50)
    if not trace:
        out.metrics = {
            "wall_s": window.wall_s,
            "latency_p50_ms": p50,
            "latency_p99_ms": percentile(window.latencies_ms, 99),
            "ok_share": window.ok / window.attempted,
            "peak_rss_mb": window.peak_rss_mb,
            "setup_s": min(window.setups_s),
        }
        return out

    spans_file = work / "spans.json"
    traced = service.measure_window(
        requests, expected, template, work, env, trace_out=spans_file, starts=1
    )
    out.errors += [f"traced window: {e}" for e in traced.errors]
    _check_lateness(traced.lateness_ms, out)
    dump = json.loads(spans_file.read_text(encoding="utf-8"))
    spans = dump["spans"]
    out.metrics = layers.layer_metrics(
        spans,
        wall_s=traced.wall_s,
        main_thread=dump["main_thread"],
        overhead_s=(percentile(traced.latencies_ms, 50) - p50) / 1000.0,
        lateness_ms=traced.lateness_ms,
    )
    got = layers.server_counts(spans)
    got["traces_computed"] = out.metrics["core.trace.calls"]
    got["journal_lines"] = out.metrics["service.journal.fsyncs"]
    pinned = {
        "computed": want["computed"],
        "disk_hits": want["disk_hits"],
        "memory_hits": want["memory_hits"],
        # A fresh cell misses twice: the submit's lookup, then the sweep's.
        "cache_misses": 2 * want["computed"],
        "coalesced": 0,
        "traces_computed": want["computed"],
        "journal_lines": want["journal_lines"],
    }
    mismatched = {k: (got.get(k), v) for k, v in pinned.items() if got.get(k) != v}
    if mismatched:
        out.errors.append(f"traced server counts (got, expected): {mismatched}")
    out.lines += layers.ranked_table(out.metrics)
    return out


def _check_lateness(lateness_ms: List[float], out: Outcome) -> None:
    late = percentile(lateness_ms, 99) if lateness_ms else 0.0
    out.lines.append(f"client timer lateness p99 {late:.3f} ms over {len(lateness_ms)} sends")
    if late > service.LATENESS_LIMIT_MS:
        out.errors.append(
            f"invalid run: the client fell behind (lateness p99 {late:.1f} ms > "
            f"{service.LATENESS_LIMIT_MS} ms)"
        )


def _fmt(values: List[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "report": run_batch,
    "large_n": run_batch,
    "service": run_service,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = SEEDS[args.workload][0] if args.seed is None else args.seed

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=child_path())
    work = WORK_ROOT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        before = host_probe()
        out = RUNNERS[args.workload](args.workload, seed, args.seconds, bool(args.trace), env, work)
        after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END if not args.trace else layers.metric_units()
    result = {
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.attempted - out.ok,
        "metrics": {k: {"value": out.metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "host_probe_ms": {"before": before, "after": after},
        "errors": out.errors, "samples": out.samples, "result": result,
    }
    runs = WORK_ROOT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for line in out.lines:
        print(line)
    print(f"host probe: {before:.1f} ms before, {after:.1f} ms after (diagnostic only)")
    for error in out.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
