"""End-to-end performance simulator: DNN models x photonic accelerators.

This is the reproduction's equivalent of the paper's "custom CrossLight
accelerator simulator in Python": it traces the dot-product workloads of the
Table-I DNN models and runs them through the analytic accelerator models
(CrossLight variants, DEAP-CNN, HolyLight), producing per-model
:class:`repro.arch.metrics.InferenceReport` records and the Table III-style
averages.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.arch.accelerator import CrossLightAccelerator, PhotonicAccelerator
from repro.arch.metrics import AggregateReport, InferenceReport, aggregate
from repro.baselines.deap_cnn import DeapCnnAccelerator
from repro.baselines.holylight import HolyLightAccelerator
from repro.nn.model import Sequential, SiameseModel
from repro.nn.zoo import build_all_models


@dataclass(frozen=True)
class ComparisonResult:
    """Aggregate reports of several accelerators over the same model set."""

    aggregates: tuple[AggregateReport, ...]

    def by_name(self, accelerator_name: str) -> AggregateReport:
        """The aggregate report of a given accelerator."""
        for report in self.aggregates:
            if report.accelerator == accelerator_name:
                return report
        raise KeyError(f"no aggregate report for accelerator {accelerator_name!r}")


def simulate_model(
    accelerator: PhotonicAccelerator, model: Sequential | SiameseModel
) -> InferenceReport:
    """Inference report of one model on one accelerator."""
    name = model.name if hasattr(model, "name") else type(model).__name__
    return accelerator.simulate_workloads(model.workloads(), name)


def simulate_models(
    accelerator: PhotonicAccelerator,
    models: Mapping[object, Sequential | SiameseModel]
    | Iterable[Sequential | SiameseModel]
    | Sequential
    | SiameseModel
    | None = None,
) -> AggregateReport:
    """Aggregate report of an accelerator across a set of models.

    ``models`` may be any mapping (values are simulated in the caller's
    insertion order -- keys are never sorted, so string- or enum-keyed
    collections work), a plain iterable of models, or a single model (which
    is auto-wrapped, so ad-hoc calls and the serving study don't need
    one-element collections).  ``None`` uses the four Table-I models.
    """
    if models is None:
        models = build_all_models()
    elif isinstance(models, (Sequential, SiameseModel)):
        models = [models]
    ordered = list(models.values()) if isinstance(models, Mapping) else list(models)
    reports = [simulate_model(accelerator, model) for model in ordered]
    return aggregate(reports)


def default_accelerators() -> tuple[PhotonicAccelerator, ...]:
    """The photonic accelerators compared in Fig. 7/8 and Table III.

    Order matches the paper's tables: DEAP-CNN, HolyLight, then the four
    CrossLight variants from least to most optimized.
    """
    return (
        DeapCnnAccelerator(),
        HolyLightAccelerator(),
        *CrossLightAccelerator.all_variants(),
    )


def compare_accelerators(
    accelerators: tuple[PhotonicAccelerator, ...] | None = None,
    models: dict[int, Sequential | SiameseModel] | None = None,
) -> ComparisonResult:
    """Simulate every accelerator on every model and aggregate the results."""
    accelerators = accelerators or default_accelerators()
    models = models or build_all_models()
    aggregates = tuple(simulate_models(acc, models) for acc in accelerators)
    return ComparisonResult(aggregates=aggregates)
