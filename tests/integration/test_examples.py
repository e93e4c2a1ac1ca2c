"""Every script in examples/ runs as ``__main__`` to a clean exit.

The examples are the library's only non-test callers of the façades,
``run_schedule`` and the schedule result accessors.  Each runs in its
own interpreter (``-B``: no bytecode written under ``src/``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: the full capacity search of realtime_feasibility.py takes ~9 s.
ARGS = {"realtime_feasibility.py": ["--fast"]}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_cleanly(script):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-B", str(script), *ARGS.get(script.name, [])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
