"""Every module of the package uses what it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import lgk

PACKAGE = Path(lgk.__file__).resolve().parent


def annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations, such as ``"Spec | System"``: the
    annotation of an argument or an annotated assignment, or a return."""
    names = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                parsed = ast.parse(annotation.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | annotation_names(tree)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    # __init__ imports to re-export, so it is the one module left out.
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 5
    assert [entry for path in modules for entry in unused_imports(path)] == []
