"""Execute the Python code blocks embedded in the documentation.

Every ```python block in the checked documents runs, in order, in one
shared namespace per document (later blocks may build on earlier ones,
as they do when a reader follows the page top to bottom).  Marked
``docs`` so the check can be invoked alone: ``make docs-check`` /
``pytest -m docs``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: documents whose ```python blocks must execute cleanly.
CHECKED_DOCS = (
    "docs/architecture.md",
    "docs/observability.md",
    "docs/parallel-and-caching.md",
    "docs/performance.md",
    "docs/robustness.md",
    "docs/search.md",
    "docs/service.md",
)

_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def extract_python_blocks(path: Path):
    return _BLOCK_RE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.docs
@pytest.mark.parametrize("relpath", CHECKED_DOCS)
def test_document_code_blocks_execute(relpath):
    path = REPO_ROOT / relpath
    blocks = extract_python_blocks(path)
    assert blocks, f"{relpath} has no ```python blocks to check"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        code = compile(block, f"<{relpath} block {i}>", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"{relpath} block {i} raised {exc!r}:\n{block}")


@pytest.mark.docs
def test_readme_lists_every_cli_subcommand():
    """The README's CLI reference table must cover every subcommand."""
    import argparse

    from repro.harness.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    commands = set(subparsers.choices)
    assert commands, "CLI exposes no subcommands?"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = {name for name in commands if f"`{name}`" not in readme}
    assert not missing, (
        f"README.md CLI reference is missing subcommands: {sorted(missing)}"
    )


@pytest.mark.docs
def test_documented_span_names_exist():
    """Span names cited in the docs must match what backends emit."""
    from repro.backends.registry import resolve_backend
    from repro.core.radar import generate_radar_frame
    from repro.core.setup import setup_flight
    from repro.obs import collecting

    emitted = set()
    for name in ("cuda:titan-x-pascal", "ap:staran", "mimd:xeon-16",
                 "simd:clearspeed-csx600", "vector:xeon-phi-7250", "reference"):
        backend = resolve_backend(name)
        fleet = setup_flight(96, 2018)
        frame = generate_radar_frame(fleet, 2018, 0)
        with collecting() as c:
            backend.track_and_correlate(fleet, frame)
            backend.detect_and_resolve(fleet)
        emitted |= set(c.span_names())

    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    cited = set(re.findall(r"`((?:task|core|reference|cuda|simd|ap|mimd|vector)\.[\w.]+|task1|task23)`", text))
    # wildcard families and setup-only spans are cited but not emitted here
    uncheckable = {
        n for n in cited if "*" in n
    } | {"cuda.kernel.SetupFlight", "cuda.transfer.drone_struct"}
    missing = cited - uncheckable - emitted
    assert not missing, f"docs cite spans nothing emits: {sorted(missing)}"


#: documents a reader takes claims about the repository from.
CLAIMING_DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    *sorted(f"docs/{p.name}" for p in (REPO_ROOT / "docs").glob("*.md")),
)

_BENCH_FILE_RE = re.compile(r"\bBENCH_\w+\.json\b")


def committed_bench_claims(text: str):
    """``BENCH_*.json`` names in sentences that call something committed."""
    prose = " ".join(text.split())
    for sentence in re.split(r"(?<=[.!?])\s+", prose):
        if re.search(r"\bcommitted\b", sentence, re.IGNORECASE):
            yield from _BENCH_FILE_RE.findall(sentence)


def test_committed_bench_claims_finds_the_named_file():
    text = "See the\ncommitted `BENCH_x.json`.  `make y` writes `BENCH_y.json`."
    assert list(committed_bench_claims(text)) == ["BENCH_x.json"]


@pytest.mark.docs
@pytest.mark.parametrize("relpath", CLAIMING_DOCS)
def test_bench_records_called_committed_exist(relpath):
    """A doc may call a ``BENCH_*.json`` record committed only if it is."""
    text = (REPO_ROOT / relpath).read_text(encoding="utf-8")
    missing = sorted(
        name
        for name in set(committed_bench_claims(text))
        if not (REPO_ROOT / name).is_file()
    )
    assert not missing, (
        f"{relpath} calls {missing} committed, but no such file exists"
    )


@pytest.mark.docs
def test_service_tuning_table_lists_every_serve_flag_with_its_default():
    """docs/service.md's "Tuning knobs" table names every ``serve`` flag,
    with the parser's default: a number or a string as the parser has
    it, and words (``off``, ``in-memory only``, a derived path) for a
    flag that defaults to nothing."""
    import argparse

    from repro.harness.cli import build_parser

    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    serve = subparsers.choices["serve"]
    text = (REPO_ROOT / "docs" / "service.md").read_text(encoding="utf-8")
    table = text.split("## Tuning knobs", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1].strip("`")
    flags = [
        max(action.option_strings, key=len)
        for action in serve._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert sorted(rows) == sorted(flags)
    for action in serve._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag, default = max(action.option_strings, key=len), action.default
        documented = rows[flag]
        if default is None or default is False:
            assert not documented[:1].isdigit(), (flag, documented)
        elif isinstance(default, str):
            assert documented == default, (flag, documented)
        else:
            assert float(documented.split()[0]) == default, (flag, documented)
