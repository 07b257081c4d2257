"""Every name the package, its tests and the benchmark scripts import is
used (stdlib ``ast`` only; no linter is assumed to be installed), every
third-party module they import is declared in ``pyproject.toml``, and the
package imports nothing it does not need."""

import ast
import os
import re
import subprocess
import sys
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


def third_party_imports(paths) -> set[str]:
    """Top-level modules ``paths`` import that are neither stdlib, the
    package itself, nor a module beside one of ``paths``."""
    local = {"crossdoc"} | {path.stem for path in paths}
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - local - set(sys.stdlib_module_names)


def test_tests_and_bench_import_only_declared_dependencies():
    """A fresh ``pip install -e .[dev]`` can run every test and benchmark
    script: each third-party module they import is named in the project's
    ``dependencies`` or its ``dev`` extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", requirement).group().lower().replace("-", "_")
                for requirement in project["dependencies"] + project["optional-dependencies"]["dev"]}
    paths = [path for path in SOURCES if path.parent.name in ("tests", "bench")]
    assert third_party_imports(paths) - declared == set()


def test_cli_import_leaves_scipy_out():
    """numpy is the one numeric dependency: importing the CLI, which every
    command does, loads no scipy module."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import crossdoc.cli, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True)
