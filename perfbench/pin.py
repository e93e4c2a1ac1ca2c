"""Regenerate ``pins.json``: the output digest and traced call counts of
each batch workload at each pinned op seed.

    python3 perfbench/pin.py

Run it from the repository root only when the program's output changes
on purpose; the benchmark fails every op whose digest or traced counts
differ from these pins.  Each seed's op runs twice, untraced and
traced, and the two digests must agree.
"""

from __future__ import annotations

import json
import os
import shutil

import run
from run import batch, layers


#: Input seeds whose outputs are pinned: each workload's default and
#: held-out seed first.
PINNED_SEEDS = (2018, 2019, 2020, 2021)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=run.child_path())
    work = run.WORK_ROOT / f"pin-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    pins = {}
    try:
        for workload in ("report", "large_n"):
            entries = {}
            for seed in PINNED_SEEDS:
                plain = batch.spawn(workload, seed, work, env)
                spans_file = work / "spans.json"
                traced = batch.spawn(workload, seed, work, env, trace_out=spans_file)
                if plain["digest"] != traced["digest"]:
                    raise SystemExit(f"{workload} seed {seed}: tracing changed the output")
                dump = json.loads(spans_file.read_text(encoding="utf-8"))
                metrics = layers.layer_metrics(
                    dump["spans"], wall_s=traced["wall_s"],
                    main_thread=dump["main_thread"], overhead_s=0.0,
                )
                entries[str(seed)] = {
                    "digest": plain["digest"],
                    "calls": layers.exact_counts(metrics),
                }
                print(f"{workload} seed {seed}: {plain['digest']} ({plain['wall_s']:.2f} s)")
            pins[workload] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
