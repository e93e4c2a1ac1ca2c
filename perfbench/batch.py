"""One op of the ``report`` or ``large_n`` workload, in a fresh interpreter.

Run as ``python perfbench/batch.py <workload> --seed S --work DIR
[--trace-out FILE] [--setup-only]`` with ``src`` on ``PYTHONPATH``.  It
imports the program, notes when it is ready, runs the op, and prints one
JSON line: the ready and done instants on the shared monotonic clock,
the process's peak RSS and the digest of the op's output.  With
``--trace-out`` it first wraps the layers' entry points and writes the
recorded spans there after the op.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

#: Fleet size of ``large_n``: just above the sweepline threshold
#: (PRUNE_MIN_N = 8192), where the pruned pass is the default.
LARGE_N = 9600
LARGE_PERIODS = 3


def report_digest(path: Path) -> str:
    """SHA-256 of the report JSON without its ``host`` and ``python`` keys."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("host", None)
    doc.pop("python", None)
    return hashlib.sha256(
        json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _report_op(seed: int, work: Path) -> Callable[[], str]:
    from repro.harness import cli
    import repro.harness.report  # noqa: F401  (imported before the op starts)

    out = work / f"report-{os.getpid()}.json"

    def op() -> str:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["report", "--seed", str(seed), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"atm-repro report exited {code}")
        return str(out)

    return op


def _large_n_op(seed: int, work: Path) -> Callable[[], Dict[str, Any]]:
    from repro.core.collision import DetectionMode
    from repro.harness.bench import LARGE_BENCH_PLATFORMS
    from repro.harness.parallel import sweep_options
    from repro.harness.sweep import sweep
    from repro.obs.metrics import MetricsRegistry, recording

    platforms = list(LARGE_BENCH_PLATFORMS)

    def op() -> Dict[str, Any]:
        # The large stage of run_bench_large, without its calibration.
        with recording(MetricsRegistry()), sweep_options(pruning="on"):
            data = sweep(
                platforms, [LARGE_N], seed=seed, periods=LARGE_PERIODS,
                mode=DetectionMode.SIGNED, cache=False, trace=True,
            )
        return {"data": data, "platforms": platforms}

    return op


def large_table_digest(seed: int, outcome: Dict[str, Any]) -> str:
    """Digest of the op's deadline table in ``large_bench_table`` shape."""
    from repro import __version__
    from repro.core import constants as C
    from repro.core.trace import estimate_trace_bytes
    from repro.harness.bench import BENCH_SCHEMA_VERSION, large_bench_table

    deadline_s = float(C.PERIOD_SECONDS)
    table = []
    for platform in outcome["platforms"]:
        cell = outcome["data"].measurements[platform][0]
        task1 = [float(s) for s in cell.task1_seconds]
        tracking = [deadline_s - t for t in task1[:-1]]
        collision = deadline_s - (task1[-1] + float(cell.task23_s))
        table.append({
            "platform": platform,
            "n_aircraft": LARGE_N,
            "task1_seconds": task1,
            "task23_seconds": float(cell.task23_s),
            "tracking_margins_s": tracking,
            "collision_margin_s": collision,
            "deadline_met": bool(min(tracking + [collision]) >= 0.0),
        })
    record = {
        "schema": BENCH_SCHEMA_VERSION,
        "library_version": __version__,
        "config": {
            "n": LARGE_N, "calibration_n": None, "platforms": outcome["platforms"],
            "seed": seed, "periods": LARGE_PERIODS, "mode": "signed", "pruning": "on",
        },
        "large": {"deadline_seconds": deadline_s, "table": table},
        "memory": {"estimated_trace_bytes": int(estimate_trace_bytes(LARGE_N, LARGE_PERIODS))},
        "equivalent": None,
    }
    text = json.dumps(large_bench_table(record), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spawn(
    workload: str,
    seed: int,
    work: Path,
    env: Dict[str, str],
    *,
    trace_out: Optional[Path] = None,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one op (or only its set-up) in a child interpreter.

    Adds ``setup_s`` (spawn to ready) and, for an op, ``wall_s`` (ready
    to done) to the child's JSON line.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), workload,
           "--seed", str(seed), "--work", str(work)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} op exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    if not setup_only:
        out["wall_s"] = out["done"] - out["ready"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=("report", "large_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work = Path(args.work)

    build = _report_op if args.workload == "report" else _large_n_op
    op = build(args.seed, work)
    tracer = None
    if args.trace_out:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    outcome = op()
    done = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps({
            "spans": tracer.spans,
            "main_thread": threading.main_thread().ident,
            "start": ready,
            "end": done,
        }), encoding="utf-8")
    if args.workload == "report":
        digest = report_digest(Path(outcome))
        os.unlink(outcome)
    else:
        digest = large_table_digest(args.seed, outcome)
    print(json.dumps({"ready": ready, "done": done, "rss_mb": rss_mb, "digest": digest}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
