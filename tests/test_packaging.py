"""Packaging: the version is declared once, in ``repro.__version__``, every
public package's ``__all__`` names something that exists, and every public
function and class has a caller outside the tests."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _toml_tables(text: str) -> dict[str, dict[str, str]]:
    """Top-level ``key = value`` lines of every table, values unparsed.

    A line-based reader rather than ``tomllib`` so the test also runs on
    Python 3.10; continuation lines of multi-line values are ignored.
    """
    tables: dict[str, dict[str, str]] = {}
    current = tables.setdefault("", {})
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = tables.setdefault(stripped.strip("[]").strip(), {})
        elif "=" in stripped and not stripped.startswith(("'", '"')):
            key, value = stripped.split("=", 1)
            current[key.strip()] = value.strip()
    return tables


def test_pyproject_declares_no_static_version():
    tables = _toml_tables(PYPROJECT.read_text())
    assert "version" not in tables["project"]
    assert '"version"' in tables["project"]["dynamic"]
    assert tables["tool.setuptools.dynamic"]["version"] == '{ attr = "repro.__version__" }'


PUBLIC_PACKAGES = [
    "repro",
    "repro.sim",
    "repro.nn",
    "repro.serve",
    "repro.devices",
    "repro.variations",
    "repro.obs",
    "repro.utils",
    "repro.tuning",
    "repro.arch",
]


@pytest.mark.parametrize("name", PUBLIC_PACKAGES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


#: Trees whose code counts as a caller; their ``tests`` directories do not.
CALLER_TREES = ("src", "examples", "perfbench")
KEPT_MARKER = "# Kept as a test"


def _sources(tree: str) -> list[Path]:
    return sorted(
        path for path in (ROOT / tree).rglob("*.py") if "tests" not in path.relative_to(ROOT).parts
    )


def test_every_public_function_and_class_has_a_caller():
    """A public module-level def is named outside itself, or marked as kept for the tests.

    Imports and ``__all__`` strings are not uses, so a package re-export does
    not count. Methods are not checked: protocols and ``getattr`` reach them
    by name.
    """
    uses: dict[str, list[tuple[Path, int]]] = {}
    for tree in CALLER_TREES:
        for path in _sources(tree):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, []).append((path, node.lineno))
    orphans = []
    for path in _sources("src"):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text, str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in uses.get(node.name, ())
            ):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if first > 1 and lines[first - 2].strip().startswith(KEPT_MARKER):
                continue
            orphans.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not orphans, (
        f"no caller outside the tests; delete, or mark {KEPT_MARKER!r} with a reason: {orphans}"
    )
