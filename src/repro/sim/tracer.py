"""Workload tracing: a type-checked ``model.workloads()``.

Every caller in :mod:`repro` asks a model for its per-layer dot-product
workloads with ``model.workloads()`` directly.  Execution tracing -- Chrome
trace-event timelines of serving runs, sweeps, and studies -- lives in
:mod:`repro.obs.tracing`.
"""

from __future__ import annotations

from repro.nn.layers import LayerWorkload
from repro.nn.model import Sequential, SiameseModel


# Kept because perfbench's serving workloads import it from here.
def trace_model(model: Sequential | SiameseModel) -> list[LayerWorkload]:
    """Per-layer dot-product workloads of a model (one inference).

    For a :class:`SiameseModel` the workloads already account for both twin
    branches (a pair inference runs the trunk twice).
    """
    if isinstance(model, (Sequential, SiameseModel)):
        return model.workloads()
    raise TypeError(
        f"expected a Sequential or SiameseModel, got {type(model).__name__}"
    )
