"""Every name the package, its tests and the benchmark scripts import is
used (stdlib ``ast`` only; no linter is assumed to be installed)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "crossdoc").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


def _quoted_names(annotation: ast.AST) -> set[str]:
    """Names inside quoted annotations, which the tree holds as strings."""
    return {name.id
            for node in ast.walk(annotation) if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(name, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _quoted_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _quoted_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _quoted_names(node.annotation)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\n"
        "import math\n"
        "from typing import Iterable\n"
        "@dataclass\n"
        "class A:\n"
        "    x: 'Iterable[int]'\n"
    )
    assert unused_imports(source) == ["line 1: field", "line 2: math"]


def test_train_imports_no_audit_names():
    """``train`` holds the pipeline; the gradient audit, which alone needs
    the ``cross_modal`` blocks, ``finite_diff_check`` and the op namespace,
    lives in ``gradcheck``."""
    tree = ast.parse((ROOT / "src" / "crossdoc" / "train.py").read_text())
    imports = [(node.module, alias.name, alias.asname) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [entry for entry in imports if entry[0] == "cross_modal"] == []
    assert [entry for entry in imports if entry[1] == "finite_diff_check"] == []
    assert (None, "autodiff", "ad") not in imports
