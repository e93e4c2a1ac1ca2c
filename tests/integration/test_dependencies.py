"""The declared runtime dependencies are exactly what the package imports.

``pyproject.toml`` names the distributions ``pip install`` pulls in; a
name there that nothing imports is dead weight on every install, and a
third-party import missing from it breaks a clean install.  The file is
read without ``tomllib``, which Python 3.10 lacks.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def declared_dependencies() -> set:
    """The names in ``[project].dependencies``, version specifiers dropped."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)^\[", text, re.M | re.S).group(1)
    array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)
    entries = re.findall(r"[\"']([^\"']+)[\"']", array.group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", entry).group(0).lower() for entry in entries}


def third_party_imports() -> set:
    """Top-level names imported under ``src/repro``, minus the standard
    library and the package itself."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "repro"}


def test_declared_dependencies_are_the_imported_ones():
    assert third_party_imports() == declared_dependencies()
