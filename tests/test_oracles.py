"""The oracles stay independent of the package they check."""

from __future__ import annotations

import ast
from pathlib import Path

import oracles


def test_oracles_import_nothing_from_the_package():
    # Agreement with an oracle is evidence only while the oracle shares no
    # code with the package: no import of lgk, and no relative import.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            modules.append(node.module)
    assert modules
    assert not [m for m in modules if m == "lgk" or m.startswith("lgk.")]
