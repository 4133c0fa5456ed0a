"""Experiment drivers, one per table/figure of the paper's evaluation.

Every driver is a *registered experiment* (see :mod:`repro.study`): it
declares a frozen config dataclass whose defaults are the paper settings and
registers a runner with the :func:`repro.study.experiment` decorator.  The
single front door is the ``repro`` CLI (``python -m repro``)::

    repro list                  # every experiment and its paper artefact
    repro describe fig5         # auto-generated config flags
    repro run fig5 --json       # structured StudyReport
    repro run --all --out out/  # full paper regeneration manifest

Each module also exposes ``run()`` returning structured result objects
(used by the tests and benchmarks); the text report of a study is
``run_experiment(name, ...).to_text()`` from :mod:`repro.study`.

Driver modules are imported lazily: ``from repro.experiments import
serving_study`` works as before, but ``import repro.experiments`` alone no
longer pays for a dozen eager module imports.  The canonical name -> module
manifest lives in :data:`repro.study.registry.EXPERIMENT_MODULES`.
"""

import importlib

__all__ = [
    "ablation",
    "device_dse",
    "fig4_thermal",
    "fig5_resolution_accuracy",
    "fig6_design_space",
    "fig7_power",
    "fig8_epb",
    "resolution_analysis",
    "serving_faults",
    "serving_study",
    "table1_models",
    "table2_devices",
    "table3_summary",
]


def __getattr__(name: str):
    """Import driver modules on first attribute access (PEP 562)."""
    if name in __all__:
        module = importlib.import_module(f"{__name__}.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
