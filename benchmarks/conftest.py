"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper via the
corresponding :mod:`repro.experiments` driver, times it with
pytest-benchmark, prints the reproduced artefact (run with ``-s`` to see the
tables), and asserts the qualitative claims the paper makes about it.
"""

from __future__ import annotations

import pytest

from repro.nn.zoo import build_all_models
from repro.sim import compare_accelerators


@pytest.fixture(scope="session")
def models():
    """The four full-size Table-I models (built once for the whole session)."""
    return build_all_models()


@pytest.fixture(scope="session")
def comparison(models):
    """Full photonic-accelerator comparison used by Fig. 7/8 and Table III."""
    return compare_accelerators(models=models)
