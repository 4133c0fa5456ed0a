"""Packaging: the version is declared once, in ``repro.__version__``, and
every public package's ``__all__`` names something that exists."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
