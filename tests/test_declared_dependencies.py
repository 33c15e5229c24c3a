"""Every third-party module ``src/repro`` imports is a declared dependency.

A clean ``pip install .`` installs only what ``pyproject.toml`` lists
under ``[project] dependencies``; an undeclared import fails at import
time on such an install even when a developer machine happens to have
the module.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _declared() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, "pyproject.toml has no [project] dependencies list"
    names = set()
    for req in re.findall(r"[\"']([^\"']+)[\"']", match.group(1)):
        name = re.match(r"[A-Za-z0-9_.-]+", req).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _imported() -> dict[str, str]:
    """Top-level module -> first file importing it (absolute imports)."""
    found: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_declared_list_is_read():
    assert "numpy" in _declared()


def test_every_third_party_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | _declared()
    undeclared = {
        top: where for top, where in _imported().items() if top not in allowed
    }
    assert not undeclared, (
        f"imported but not in pyproject.toml dependencies: {undeclared}"
    )
