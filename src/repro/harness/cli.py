"""Command-line interface: regenerate any evaluation artifact.

Examples::

    atm-repro list
    atm-repro fig4
    atm-repro fig9 --ns 96 480 960 1920
    atm-repro tbl-deadline --ns 960 1920
    atm-repro describe cuda:titan-x-pascal
    atm-repro profile fig4 --backend cuda:titan-x-pascal
    atm-repro report --trace report-trace.json
    atm-repro report --jobs 4 --cache-dir .atm-repro-cache
    atm-repro report --metrics-out report.prom
    atm-repro metrics
    atm-repro dashboard --out dashboard.html
    atm-repro bench --out BENCH_trace_engine.json
    atm-repro cache stats
    atm-repro cache clear
    atm-repro serve --port 8018 --jobs 4 --cache-dir .atm-repro-cache
    atm-repro loadtest --requests 1000 --concurrency 100
    atm-repro search --family cuda --searcher genetic --out search.json
    atm-repro dashboard --search search.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..backends.registry import available_backends, resolve_backend
from ..service.config import ServiceConfig
from .figures import EXPERIMENTS, run_experiment

__all__ = ["main", "build_parser"]

_EPILOG = """\
report flags:
  --only ID [ID ...]   run a subset of experiment ids (see 'atm-repro list')
  --full               full sweeps (each experiment's defaults); the default
                       quick profile uses reduced fleet-size sweeps and
                       finishes in about ten seconds on two cores
  --seed N             master airfield seed passed to every experiment
                       (default 2018; the same seed reproduces the same
                       report bit for bit on deterministic platforms)
  --trace FILE         also write a Chrome-trace JSON of the whole run
                       (open in chrome://tracing or https://ui.perfetto.dev)
  --jobs N             shard sweep cells over N worker processes; the
                       report bytes are identical for every N (see
                       docs/parallel-and-caching.md)
  --cache-dir DIR      serve unchanged measurement cells from the result
                       cache at DIR (created on first use; default
                       .atm-repro-cache); functional traces get their own
                       tier at DIR/traces
  --no-cache           measure everything fresh, ignoring the cache
  --no-trace-replay    disable the shared functional-trace engine: every
                       cell replays its cost ledgers from a private
                       functional pass of its own instead of a trace shared
                       per fleet size (bytes identical either way; see
                       docs/performance.md)

fault tolerance (docs/robustness.md):
  --resume             resume a crashed/killed run from the checkpoint
                       journal at <cache-dir>/journal.jsonl, recomputing
                       only unfinished sweep cells (requires --cache-dir)
  --inject-faults SPEC deterministic chaos: comma-separated kind=rate
                       entries (crash, timeout, oserror, corrupt-result,
                       corrupt-trace) plus seed=N / attempts=N / hang=S,
                       e.g. "crash=0.3,timeout=0.2,seed=7"; whenever
                       retries succeed the report bytes are identical to
                       a fault-free run
  --shard-timeout S    per-shard deadline (seconds) when collecting pool
                       results; timed-out shards retry, then degrade to
                       inline execution
  --max-retries N      attempts per shard and pool rebuilds tolerated
                       before degrading to inline execution (default 3)

benchmarking:
  atm-repro bench [--out FILE] [--full] [--baseline FILE]
  times the five-backend sweep with the trace engine off/cold/warm,
  checks byte-identical output, and writes a BENCH_*.json record; with
  --baseline it exits non-zero when the speedup regresses >25%%.

  atm-repro bench --large [--large-n N] [--table-out FILE]
  the continental-scale profile: times the unpruned O(n^2) functional
  pass against the sweepline pruner (and checks the traces are
  functionally identical), then runs one pruned five-platform sweep at
  N (default 1,000,000) and writes the deadline table plus peak-memory
  figures to BENCH_large_n.json.  --table-out writes the deterministic
  wall-free table CI byte-compares.  See docs/performance.md.

  The 'report' command accepts --pruning=auto|on|off; its bytes are
  identical for every setting (the pruner is proven bit-identical).

cache maintenance:
  atm-repro cache stats [--cache-dir DIR]   entries and size on disk
                                            (result and trace tiers)
  atm-repro cache clear [--cache-dir DIR]   delete every cached cell and
                                            stored trace

profiling:
  atm-repro profile <experiment> [--backend NAME] [--n N] [--trace FILE]
  runs an experiment under the repro.obs collector and a metrics
  registry and prints the span tree (wall-clock vs modelled-time
  attribution per backend component), then the registry's counter and
  gauge series.  See docs/observability.md.

metrics & dashboard (docs/observability.md):
  atm-repro metrics [--only ID ...] [--out FILE]
  runs experiments (default tbl-deadline, quick) under the metrics
  registry and emits the full OpenMetrics exposition — deadline-margin
  histograms, miss counters, shard/cache/fault counters; also available
  as 'report --metrics-out FILE' alongside a full report run.

  atm-repro dashboard [--out FILE] [--only ID ...] [--jobs N]
  runs experiments (default fig4 fig6 tbl-deadline ext-vector — all five
  platform families) under the collector + registry and writes one
  self-contained HTML file: execution-time curves, the deadline-margin
  chart, a span flamegraph and counter panels.  No external resources.

design-space search (docs/search.md):
  atm-repro search [--spec FILE | --family F ...] [--out FILE]
  searches a parameterized device design space (per-parameter grids,
  lumos-style area/power budgets at a tech node) with a seeded searcher
  (random, genetic, halving) whose candidates are evaluated through the
  ordinary sweep harness — so --jobs, --cache-dir and --resume apply to
  candidate sweeps exactly as they do to reports.  The result JSON is
  canonical: the same spec reproduces it byte for byte.  --spec FILE
  takes a JSON SearchSpec; otherwise --family/--base/--searcher/
  --objective/--budget flags assemble one.  'dashboard --search FILE'
  charts the best-fitness trajectory.

service (docs/service.md):
  atm-repro serve [--port N] [--jobs N] [--cache-dir DIR] ...
  long-running asyncio HTTP server over the same sweep engine: POST
  /v1/cell and /v1/sweep measure cells on demand, coalescing identical
  in-flight requests, batching compatible cells into shared pool
  dispatches and running deadline admission control (429/503 carry a
  structured verdict).  Served payloads are byte-identical to the same
  cells in 'atm-repro report' output.  --port 0 binds an ephemeral
  port and prints it on stdout.  Admitted cells are journaled (fsynced)
  before they are queued; after a crash, --resume replays the journal
  so no admitted request is lost.  SIGTERM/SIGINT drain gracefully
  (healthz -> draining, new work -> 503 + Retry-After) under
  --drain-timeout, and --inject-faults adds service-layer chaos
  (reset/stall/crash/corrupt-journal).

  atm-repro loadtest [--requests N] [--concurrency N] [--deadline S]
  closed-loop load generator against a running server; records client
  wall-clock latencies into the metrics registry and prints p50/p95/p99
  (see EXPERIMENTS.md, "Service load-test disclosure").  Each request
  runs under --timeout with --max-attempts retries (capped exponential
  backoff, deterministic --jitter-seed jitter, shared half-open circuit
  breaker); terminal failures land in the summary's errors/rejections
  taxonomy.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atm-repro",
        description=(
            "Reproduce the evaluation of 'Performance Comparison of NVIDIA "
            "accelerators with SIMD, Associative, and Multi-core Processors "
            "for Air Traffic Management' (ICPP 2018)"
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids and platforms")

    describe = sub.add_parser("describe", help="describe one platform")
    describe.add_argument("platform", help="registry name, e.g. cuda:gtx-880m")

    report = sub.add_parser(
        "report", help="run the whole experiment suite and save a report"
    )
    report.add_argument("--out", default=None, help="write JSON here")
    report.add_argument(
        "--full", action="store_true", help="full sweeps (slow) instead of quick"
    )
    report.add_argument("--seed", type=int, default=2018)
    report.add_argument(
        "--only", nargs="+", default=None, help="subset of experiment ids"
    )
    report.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome-trace JSON of the whole run here",
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep shards (result bytes identical)",
    )
    report.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="memoize measurement cells in the result cache at DIR",
    )
    report.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the result cache even when --cache-dir is set",
    )
    report.add_argument(
        "--no-trace-replay",
        action="store_true",
        help="replay every cell from a private functional pass instead of"
        " a trace shared per fleet size (bytes identical)",
    )
    report.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint journal at <cache-dir>/journal.jsonl,"
        " recomputing only unfinished sweep cells (requires --cache-dir)",
    )
    report.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic chaos plan, e.g. 'crash=0.3,timeout=0.2,seed=7'"
        " (see docs/robustness.md)",
    )
    report.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-shard deadline in seconds when collecting pool results",
    )
    report.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="attempts per shard before degrading to inline execution"
        " (default 3)",
    )
    report.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's full OpenMetrics exposition here (the report"
        " JSON always embeds the deterministic snapshot)",
    )
    report.add_argument(
        "--pruning",
        choices=("auto", "on", "off"),
        default=None,
        help="candidate-pruning policy for the functional passes"
        " (default auto; report bytes identical for every setting)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run experiments under the metrics registry, emit OpenMetrics",
    )
    metrics.add_argument(
        "--only",
        nargs="+",
        default=["tbl-deadline"],
        metavar="ID",
        help="experiment ids to run (default: tbl-deadline)",
    )
    metrics.add_argument(
        "--out", default=None, metavar="FILE", help="write here instead of stdout"
    )
    metrics.add_argument("--seed", type=int, default=2018)
    metrics.add_argument(
        "--full", action="store_true", help="full sweeps instead of quick"
    )
    metrics.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )

    dashboard = sub.add_parser(
        "dashboard",
        help="run experiments and write the self-contained HTML dashboard",
    )
    dashboard.add_argument(
        "--out",
        default="dashboard.html",
        metavar="FILE",
        help="output HTML path (default dashboard.html)",
    )
    dashboard.add_argument(
        "--only",
        nargs="+",
        default=["fig4", "fig6", "tbl-deadline", "ext-vector"],
        metavar="ID",
        help="experiment ids to run (default covers all five platform"
        " families: cuda, ap, simd, mimd, vector)",
    )
    dashboard.add_argument("--seed", type=int, default=2018)
    dashboard.add_argument(
        "--full", action="store_true", help="full sweeps instead of quick"
    )
    dashboard.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    dashboard.add_argument(
        "--search",
        default=None,
        metavar="FILE",
        help="also chart the best-fitness trajectory of this"
        " 'atm-repro search --out' result JSON",
    )

    search = sub.add_parser(
        "search",
        help="design-space search over parameterized device models"
        " (docs/search.md)",
    )
    search.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON SearchSpec file; replaces the flags below",
    )
    search.add_argument(
        "--family",
        default="cuda",
        choices=["cuda", "simd", "ap", "mimd", "vector"],
        help="architecture family to search (default cuda)",
    )
    search.add_argument(
        "--base",
        default=None,
        metavar="KEY",
        help="named base config whose unsearched fields are inherited"
        " (default: the family's paper config)",
    )
    search.add_argument(
        "--searcher",
        default="genetic",
        choices=["random", "genetic", "halving"],
        help="seeded search strategy (default genetic)",
    )
    search.add_argument(
        "--objective",
        default="modelled_time",
        choices=["worst_margin", "modelled_time", "time_area", "smallest_feasible"],
        help="scalar fitness to minimize (default modelled_time)",
    )
    search.add_argument("--seed", type=int, default=2018, help="searcher RNG seed")
    search.add_argument(
        "--max-evaluations",
        type=int,
        default=24,
        metavar="N",
        help="budget of new candidate evaluations (default 24)",
    )
    search.add_argument(
        "--ns",
        type=int,
        nargs="+",
        default=[96, 480, 960],
        metavar="N",
        help="fleet-size axis per candidate (default 96 480 960)",
    )
    search.add_argument(
        "--periods", type=int, default=3, help="tracking periods per cell"
    )
    search.add_argument(
        "--area-budget",
        type=float,
        default=None,
        metavar="MM2",
        help="reject candidates above this die area (mm^2)",
    )
    search.add_argument(
        "--power-budget",
        type=float,
        default=None,
        metavar="W",
        help="reject candidates above this power draw (watts)",
    )
    search.add_argument(
        "--tech-nm",
        type=float,
        default=16.0,
        metavar="NM",
        help="technology node scaling the area/power models (default 16)",
    )
    search.add_argument(
        "--no-compare-paper",
        action="store_true",
        help="skip evaluating the family's paper configs for comparison",
    )
    search.add_argument(
        "--out", default=None, metavar="FILE", help="write the canonical result JSON"
    )
    search.add_argument(
        "--json",
        action="store_true",
        help="print the result JSON instead of the summary table",
    )
    search.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's OpenMetrics exposition (atm_search_* et al.)",
    )
    search.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for candidate sweep cells",
    )
    search.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="memoize candidate sweep cells in the result cache at DIR",
    )
    search.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the result cache even when --cache-dir is set",
    )
    search.add_argument(
        "--resume",
        action="store_true",
        help="resume candidate sweeps from the checkpoint journal at"
        " <cache-dir>/journal.jsonl (requires --cache-dir)",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark the trace engine against functional re-execution",
    )
    bench.add_argument(
        "--out",
        default="BENCH_trace_engine.json",
        metavar="FILE",
        help="write the bench record here (default BENCH_trace_engine.json)",
    )
    bench.add_argument(
        "--ns",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="fleet sizes to sweep (default: the smoke profile)",
    )
    bench.add_argument(
        "--platforms",
        nargs="+",
        default=None,
        metavar="NAME",
        help="registry names to bench (default: every backend family)",
    )
    bench.add_argument("--seed", type=int, default=2018)
    bench.add_argument(
        "--periods",
        type=int,
        default=None,
        help="tracking periods per cell (default 2; 3 with --large)",
    )
    bench.add_argument(
        "--full",
        action="store_true",
        help="use the full fleet-size profile instead of the smoke profile",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="compare against this committed BENCH_*.json; exit 1 on"
        " regression",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="allowed fractional speedup regression vs baseline (default 0.25)",
    )
    bench.add_argument(
        "--large",
        action="store_true",
        help="run the continental-scale profile instead: a calibration of"
        " the gated in-place pass against the sweepline, plus the"
        " five-platform deadline table at --large-n"
        " (writes BENCH_large_n.json unless --out is given)",
    )
    bench.add_argument(
        "--large-n",
        type=int,
        default=None,
        metavar="N",
        help="fleet size for --large (default 1,000,000)",
    )
    bench.add_argument(
        "--calibration-n",
        type=int,
        default=7680,
        metavar="N",
        help="fleet size for the in-place-vs-sweepline calibration stage"
        " of --large (default 7680)",
    )
    bench.add_argument(
        "--table-out",
        default=None,
        metavar="FILE",
        help="with --large, also write the deterministic wall-free table"
        " here (CI byte-compares two such tables)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for action, blurb in (
        ("stats", "entry count, size on disk and traffic counters"),
        ("clear", "delete every cached measurement cell"),
    ):
        p = cache_sub.add_parser(action, help=blurb)
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="cache location (default .atm-repro-cache)",
        )

    profile = sub.add_parser(
        "profile",
        help="run one experiment under the obs collector and print the span tree",
    )
    profile.add_argument("experiment", help="experiment id, e.g. fig4")
    profile.add_argument(
        "--backend",
        default=None,
        help="profile a single platform (registry name) instead of the"
        " whole experiment",
    )
    profile.add_argument(
        "--n", type=int, default=960, help="fleet size (with --backend)"
    )
    profile.add_argument(
        "--periods", type=int, default=3, help="tracking periods (with --backend)"
    )
    profile.add_argument("--seed", type=int, default=2018)
    profile.add_argument(
        "--full", action="store_true", help="full sweeps instead of quick"
    )
    profile.add_argument(
        "--trace", default=None, metavar="FILE", help="write Chrome-trace JSON here"
    )
    profile.add_argument(
        "--jsonl", default=None, metavar="FILE", help="write JSON-lines spans here"
    )

    served = ServiceConfig()
    serve = sub.add_parser(
        "serve",
        help="run the ATM-as-a-service sweep server (docs/service.md)",
    )
    serve.add_argument("--host", default=served.host, help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=served.port,
        help="TCP port; 0 binds an ephemeral port and prints it",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=served.jobs,
        help="worker processes per batched sweep dispatch",
    )
    serve.add_argument(
        "--cache-dir",
        default=served.cache_dir,
        metavar="DIR",
        help="share the on-disk result cache with batch runs"
        " (default: in-memory only)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=served.batch_window_s,
        metavar="S",
        help="seconds a batch waits for more cells after taking every"
        " queued one; 0 dispatches the backlog at once (default %(default)s)",
    )
    serve.add_argument(
        "--max-batch-cells",
        type=int,
        default=served.max_batch_cells,
        help="largest number of cells dispatched as one batch",
    )
    serve.add_argument(
        "--max-queue-cells",
        type=int,
        default=served.max_queue_cells,
        help="admission control: queue depth beyond which requests are"
        " rejected with 503 (default %(default)s)",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=served.default_deadline_s,
        metavar="S",
        help="admission deadline budget for requests that send none",
    )
    serve.add_argument(
        "--journal",
        default=served.journal_path,
        metavar="FILE",
        help="request-journal path (default: <cache-dir>/"
        "service-journal.jsonl; no journal without a cache dir)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        default=served.resume,
        help="replay the request journal: restore served cells and"
        " re-enqueue admitted-but-unserved ones (docs/service.md)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=served.drain_timeout_s,
        metavar="S",
        help="graceful-shutdown budget: seconds SIGTERM/SIGINT waits"
        " for in-flight work to flush before exiting (default %(default)s)",
    )
    serve.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="service-layer chaos: deterministic fault spec, e.g."
        " 'reset=0.1,stall=0.05,crash=0.2,corrupt-journal=0.1,seed=7'",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="closed-loop load generator against a running server",
    )
    loadtest.add_argument("--host", default="127.0.0.1")
    loadtest.add_argument("--port", type=int, default=8018)
    loadtest.add_argument(
        "--requests", type=int, default=1000, help="total requests to send"
    )
    loadtest.add_argument(
        "--concurrency",
        type=int,
        default=100,
        help="closed-loop workers == max in-flight requests",
    )
    loadtest.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-request deadline forwarded to admission control",
    )
    loadtest.add_argument(
        "--seed", type=int, default=None, help="airfield seed override"
    )
    loadtest.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="per-attempt wall-clock timeout (default 30)",
    )
    loadtest.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per request, retrying timeouts/resets/503s"
        " with capped jittered backoff (default 3; 1 = no retries)",
    )
    loadtest.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="S",
        help="base of the exponential retry backoff (default 0.05)",
    )
    loadtest.add_argument(
        "--jitter-seed",
        type=int,
        default=0,
        help="seed of the deterministic backoff jitter (default 0)",
    )
    loadtest.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the client-side OpenMetrics exposition here",
    )
    loadtest.add_argument(
        "--json",
        action="store_true",
        help="print the structured summary as JSON instead of text",
    )

    for exp_id in sorted(EXPERIMENTS):
        p = sub.add_parser(exp_id, help=f"regenerate {exp_id}")
        p.add_argument(
            "--ns",
            type=int,
            nargs="+",
            default=None,
            help="fleet sizes to sweep (experiment defaults otherwise)",
        )
        p.add_argument("--seed", type=int, default=2018, help="airfield seed")
        p.add_argument(
            "--plot",
            action="store_true",
            help="append an ASCII log-scale chart (curve figures only)",
        )
        if exp_id == "tbl-determinism":
            p.add_argument("--n", type=int, default=960, help="fleet size")
            p.add_argument("--repeats", type=int, default=3)
        if exp_id == "abl-blocksize":
            p.add_argument("--n", type=int, default=1920, help="fleet size")
        if exp_id == "abl-resolution":
            p.add_argument("--n", type=int, default=768, help="fleet size")
            p.add_argument("--cycles", type=int, default=8)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        print("experiments:")
        for exp_id in sorted(EXPERIMENTS):
            print(f"  {exp_id}")
        print("platforms:")
        for name in available_backends():
            print(f"  {name}")
        return 0

    if args.command == "metrics":
        from ..obs.metrics import MetricsRegistry, to_openmetrics
        from .report import build_report

        registry = MetricsRegistry()
        build_report(
            quick=not args.full,
            seed=args.seed,
            only=args.only,
            jobs=args.jobs,
            metrics_registry=registry,
        )
        text = to_openmetrics(registry.snapshot())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0

    if args.command == "dashboard":
        from ..obs import collecting, write_dashboard
        from ..obs.metrics import MetricsRegistry
        from .report import build_report

        registry = MetricsRegistry()
        with collecting() as collector:
            report = build_report(
                quick=not args.full,
                seed=args.seed,
                only=args.only,
                jobs=args.jobs,
                metrics_registry=registry,
            )
        search_doc = None
        if args.search:
            import json

            with open(args.search, "r", encoding="utf-8") as fh:
                search_doc = json.load(fh)
        write_dashboard(
            args.out,
            report,
            snapshot=registry.snapshot(),
            collector=collector,
            search=search_doc,
        )
        print(f"wrote {args.out}")
        return 0

    if args.command == "search":
        from pathlib import Path

        from ..core.canonical import canonical_json
        from ..obs.metrics import MetricsRegistry, recording, to_openmetrics
        from ..search.runner import (
            SearchSpec,
            load_search_spec,
            render_search,
            run_search,
        )
        from ..search.space import Budget, space_for
        from .cache import ResultCache, TraceStore

        if args.spec:
            spec = load_search_spec(args.spec)
        else:
            space = space_for(
                args.family,
                base=args.base,
                budget=Budget(
                    area_mm2=args.area_budget,
                    power_w=args.power_budget,
                    tech_nm=args.tech_nm,
                ),
            )
            spec = SearchSpec(
                space=space,
                searcher=args.searcher,
                objective=args.objective,
                seed=args.seed,
                max_evaluations=args.max_evaluations,
                ns=tuple(args.ns),
                periods=args.periods,
                compare_paper=not args.no_compare_paper,
            )
        cache = traces = journal = None
        if args.resume and (not args.cache_dir or args.no_cache):
            print(
                "--resume needs --cache-dir (the journal lives at"
                " <cache-dir>/journal.jsonl) and is incompatible with"
                " --no-cache",
                file=sys.stderr,
            )
            return 2
        if args.cache_dir and not args.no_cache:
            from ..service.journal import RequestJournal

            cache = ResultCache(args.cache_dir)
            traces = TraceStore(Path(args.cache_dir) / "traces")
            journal = RequestJournal(
                Path(args.cache_dir) / "journal.jsonl", resume=args.resume
            )
        registry = MetricsRegistry()
        with recording(registry):
            result = run_search(
                spec, jobs=args.jobs, cache=cache, traces=traces, journal=journal
            )
        text = canonical_json(result) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(to_openmetrics(registry.snapshot()))
            print(f"wrote {args.metrics_out}")
        if args.json:
            print(text, end="")
        else:
            print(render_search(result), end="")
        if journal is not None:
            js = journal.stats()
            print(
                f"journal {js['path']}: {js['resumed_cells']} cells resumed, "
                f"{js['recorded']} checkpointed, {js['dropped_lines']} torn"
                " lines dropped",
                file=sys.stderr,
            )
        return 0

    if args.command == "report":
        from pathlib import Path

        from ..obs.metrics import MetricsRegistry, to_openmetrics
        from .cache import ResultCache, TraceStore
        from .faults import RetryPolicy, parse_fault_spec
        from .report import build_report, render_report, write_report

        cache = None
        traces = None
        journal = None
        if args.resume and (not args.cache_dir or args.no_cache):
            print(
                "--resume needs --cache-dir (the journal lives at"
                " <cache-dir>/journal.jsonl) and is incompatible with"
                " --no-cache",
                file=sys.stderr,
            )
            return 2
        if args.cache_dir and not args.no_cache:
            # Only a cache dir pays for importing the service package.
            from ..service.journal import RequestJournal

            cache = ResultCache(args.cache_dir)
            traces = TraceStore(Path(args.cache_dir) / "traces")
            journal = RequestJournal(
                Path(args.cache_dir) / "journal.jsonl", resume=args.resume
            )
        faults = None
        if args.inject_faults:
            try:
                faults = parse_fault_spec(args.inject_faults)
            except ValueError as exc:
                print(f"bad --inject-faults spec: {exc}", file=sys.stderr)
                return 2
        retry = RetryPolicy(
            max_attempts=max(1, args.max_retries), timeout_s=args.shard_timeout
        )
        registry = MetricsRegistry()
        run_kwargs = dict(
            quick=not args.full,
            seed=args.seed,
            only=args.only,
            jobs=args.jobs,
            cache=cache,
            trace=False if args.no_trace_replay else None,
            traces=traces,
            retry=retry,
            faults=faults,
            journal=journal,
            pruning=args.pruning,
            metrics_registry=registry,
        )
        if args.trace:
            from ..obs import collecting, write_chrome_trace

            with collecting() as collector:
                report = build_report(**run_kwargs)
            write_chrome_trace(args.trace, collector)
            print(f"wrote {args.trace}")
        else:
            report = build_report(**run_kwargs)
        if args.out:
            write_report(args.out, report)
            print(f"wrote {args.out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(to_openmetrics(registry.snapshot()))
            print(f"wrote {args.metrics_out}")
        print(render_report(report))
        if cache is not None:
            s = cache.stats()
            print(
                f"cache {s['root']}: {s['hits']} hits, {s['misses']} misses, "
                f"{s['stores']} stored, {s['entries']} entries on disk",
                file=sys.stderr,
            )
            quarantined = s["quarantined"] + (
                traces.stats()["quarantined"] if traces is not None else 0
            )
            if quarantined:
                print(
                    f"integrity: {quarantined} corrupt entries quarantined "
                    f"under {s['root']}/quarantine",
                    file=sys.stderr,
                )
        if journal is not None:
            js = journal.stats()
            print(
                f"journal {js['path']}: {js['resumed_cells']} cells resumed, "
                f"{js['recorded']} checkpointed, {js['dropped_lines']} torn"
                " lines dropped",
                file=sys.stderr,
            )
        return 0

    if args.command == "bench":
        from .bench import (
            DEFAULT_BENCH_NS,
            LARGE_BENCH_N,
            SMOKE_BENCH_NS,
            compare_to_baseline,
            large_bench_table,
            render_bench,
            render_bench_large,
            run_bench,
            run_bench_large,
            write_bench,
        )

        periods = {} if args.periods is None else {"periods": args.periods}
        if args.large:
            import json as _json

            out = args.out
            if out == "BENCH_trace_engine.json":  # the non-large default
                out = "BENCH_large_n.json"
            result = run_bench_large(
                n=args.large_n if args.large_n is not None else LARGE_BENCH_N,
                calibration_n=args.calibration_n,
                seed=args.seed,
                platforms=args.platforms,
                **periods,
            )
            write_bench(out, result)
            print(f"wrote {out}")
            if args.table_out:
                with open(args.table_out, "w", encoding="utf-8") as fh:
                    _json.dump(
                        large_bench_table(result), fh, indent=2, sort_keys=True
                    )
                    fh.write("\n")
                print(f"wrote {args.table_out}")
            print(render_bench_large(result))
            if not result["equivalent"]:
                print(
                    "FAIL: pruned trace differs from the unpruned one",
                    file=sys.stderr,
                )
                return 1
            return 0

        ns = args.ns or (DEFAULT_BENCH_NS if args.full else SMOKE_BENCH_NS)
        result = run_bench(
            ns=ns, platforms=args.platforms, seed=args.seed, **periods
        )
        write_bench(args.out, result)
        print(f"wrote {args.out}")
        print(render_bench(result))
        if args.baseline:
            import json as _json

            with open(args.baseline, "r", encoding="utf-8") as fh:
                baseline = _json.load(fh)
            failures = compare_to_baseline(
                result, baseline, max_regression=args.max_regression
            )
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}", file=sys.stderr)
                return 1
            print(
                f"baseline {args.baseline}: speedup within "
                f"{args.max_regression:.0%} of {baseline['speedup']['cold']:.2f}x"
            )
        elif not result["equivalent"]:
            print("FAIL: stages are not byte-identical", file=sys.stderr)
            return 1
        return 0

    if args.command == "cache":
        from pathlib import Path

        from .cache import DEFAULT_CACHE_DIR, ResultCache, TraceStore

        root = args.cache_dir or DEFAULT_CACHE_DIR
        cache = ResultCache(root)
        traces = TraceStore(Path(root) / "traces")
        if args.cache_command == "stats":
            for key, value in cache.stats().items():
                print(f"{key:8s} {value}")
            print("trace tier:")
            for key, value in traces.stats().items():
                print(f"  {key:8s} {value}")
        else:
            removed_traces = traces.clear()
            removed = cache.clear()
            print(
                f"removed {removed} cached cells and {removed_traces} "
                f"stored traces from {cache.root}"
            )
        return 0

    if args.command == "profile":
        from ..obs import write_chrome_trace, write_json_lines
        from .profile import profile_experiment

        result = profile_experiment(
            args.experiment,
            backend=args.backend,
            n=args.n,
            periods=args.periods,
            seed=args.seed,
            quick=not args.full,
        )
        if args.trace:
            write_chrome_trace(args.trace, result.collector)
            print(f"wrote {args.trace}")
        if args.jsonl:
            write_json_lines(args.jsonl, result.collector)
            print(f"wrote {args.jsonl}")
        print(result.render())
        return 0

    if args.command == "serve":
        from ..service import run_server
        from .faults import parse_fault_spec

        if args.resume and not (args.cache_dir or args.journal):
            print(
                "serve: --resume needs a journal location; pass"
                " --cache-dir DIR or --journal FILE",
                file=sys.stderr,
            )
            return 2
        faults = None
        if args.inject_faults:
            try:
                faults = parse_fault_spec(args.inject_faults)
            except ValueError as exc:
                print(f"bad --inject-faults spec: {exc}", file=sys.stderr)
                return 2
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            batch_window_s=args.batch_window,
            max_batch_cells=args.max_batch_cells,
            max_queue_cells=args.max_queue_cells,
            default_deadline_s=args.default_deadline,
            journal_path=args.journal,
            resume=args.resume,
            drain_timeout_s=args.drain_timeout,
            faults=faults,
        )
        return run_server(config)

    if args.command == "loadtest":
        import json as _json

        from ..service import LoadgenOptions, render_summary, run_loadgen

        options = LoadgenOptions(
            host=args.host,
            port=args.port,
            concurrency=args.concurrency,
            requests=args.requests,
            deadline_s=args.deadline,
            seed=args.seed,
            timeout_s=args.timeout,
            max_attempts=args.max_attempts,
            backoff_s=args.backoff,
            jitter_seed=args.jitter_seed,
        )
        try:
            summary = run_loadgen(options, metrics_out=args.metrics_out)
        except (ConnectionError, OSError) as exc:
            print(
                f"loadtest: cannot reach {args.host}:{args.port} ({exc});"
                " is 'atm-repro serve' running?",
                file=sys.stderr,
            )
            return 2
        if args.metrics_out:
            print(f"wrote {args.metrics_out}")
        if args.json:
            print(_json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_summary(summary))
        return 0

    if args.command == "describe":
        info = resolve_backend(args.platform).describe()
        width = max(len(k) for k in info)
        for key, value in info.items():
            print(f"{key.ljust(width)}  {value}")
        return 0

    kwargs = {"seed": args.seed}
    if args.ns is not None:
        if args.command in ("tbl-determinism", "abl-blocksize"):
            print("--ns is not used by this experiment", file=sys.stderr)
        else:
            kwargs["ns"] = args.ns
    if args.command == "tbl-determinism":
        kwargs.update(n=args.n, repeats=args.repeats)
    if args.command == "abl-blocksize":
        kwargs["n"] = args.n
    if args.command == "abl-resolution":
        kwargs["n"] = args.n
        kwargs["major_cycles"] = args.cycles
        kwargs.pop("ns", None)

    result = run_experiment(args.command, **kwargs)
    if getattr(args, "plot", False) and hasattr(result, "series"):
        print(result.render(plot=True))
    else:
        print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
