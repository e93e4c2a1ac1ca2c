"""Continental-scale driver: the five-platform deadline table at n=10⁶.

Unlike the ``bench_*`` pytest-benchmark modules, this is a plain
script — the full profile runs for minutes and emits a committed
artifact, so it is driven explicitly rather than on every benchmark
run::

    PYTHONPATH=src python benchmarks/bench_large_n.py --out BENCH_large_n.json

``--table-out`` additionally writes the deterministic, wall-free
projection (:func:`repro.harness.bench.large_bench_table`); the CI
smoke job runs the profile twice at n=10⁵ and ``cmp``'s the two tables
byte for byte.  Equivalent CLI: ``atm-repro bench --large``.

See docs/performance.md ("Large-n regime") for what the profile
measures and why its table is reproducible to the byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.collision import DetectionMode
from repro.harness.bench import (
    LARGE_BENCH_N,
    large_bench_table,
    render_bench_large,
    run_bench_large,
    write_bench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Large-n pruned bench: deadline table at continental scale."
    )
    parser.add_argument(
        "--n", type=int, default=LARGE_BENCH_N,
        help=f"fleet size (default {LARGE_BENCH_N:,})",
    )
    parser.add_argument(
        "--calibration-n", type=int, default=7680,
        help="fleet size for the in-place-vs-sweepline calibration stage",
    )
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--periods", type=int, default=3)
    parser.add_argument(
        "--mode", choices=[m.value for m in DetectionMode], default="signed",
    )
    parser.add_argument(
        "--out", default="BENCH_large_n.json",
        help="output path for the full record (default BENCH_large_n.json)",
    )
    parser.add_argument(
        "--table-out", default=None,
        help="also write the deterministic wall-free table here (CI cmp)",
    )
    args = parser.parse_args(argv)

    result = run_bench_large(
        n=args.n,
        calibration_n=args.calibration_n,
        seed=args.seed,
        periods=args.periods,
        mode=DetectionMode(args.mode),
    )
    print(render_bench_large(result))
    write_bench(args.out, result)
    print(f"wrote {args.out}")
    if args.table_out:
        with open(args.table_out, "w", encoding="utf-8") as fh:
            json.dump(large_bench_table(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.table_out}")
    return 0 if result["equivalent"] else 1


if __name__ == "__main__":
    sys.exit(main())
