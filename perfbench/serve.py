"""Launch ``atm-repro serve`` with the layers' entry points wrapped.

``python perfbench/serve.py --trace-out FILE -- serve --port 0 ...``
installs the tracer inside the server process, runs the CLI with the
arguments after ``--``, and writes the recorded spans to FILE once the
server has drained and returned.  The timed runs start the CLI directly
and never load this file.
"""

from __future__ import annotations

import argparse
import json
import threading
from pathlib import Path

import layers
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from repro.harness import cli

    tracer = Tracer()
    layers.install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps({
            "spans": tracer.spans,
            "main_thread": threading.main_thread().ident,
        }), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
