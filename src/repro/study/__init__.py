"""Declarative experiment registry, typed run-configs, and study runner.

This package is the single front door to every paper artefact the
reproduction regenerates.  An experiment is *data*: a name, a frozen
:class:`StudyConfig` dataclass whose defaults are the paper settings, and a
runner returning a structured result plus its text rendering.  Drivers in
:mod:`repro.experiments` register themselves with the :func:`experiment`
decorator; the :class:`StudyRunner` owns the cross-cutting options (seed,
worker pool, artifact emission accounting); :mod:`repro.study.cli` exposes
it all as ``python -m repro`` / ``repro``.

Programmatic use::

    from repro.study import run_experiment

    report = run_experiment("fig5", epochs=4)
    print(report.to_text())            # the text table `repro run fig5` prints
    payload = report.to_json()         # schema-stable machine-readable form

Registering a new experiment is ~30 lines in a driver module::

    @dataclass(frozen=True)
    class MyConfig(StudyConfig):
        n_points: int = 10

    @experiment("my_study", config=MyConfig, title="...", artefact="...")
    def _study(config: MyConfig, ctx: RunContext):
        result = run(n_points=config.n_points)
        return result, render_text(result)

(plus one manifest line in :data:`repro.study.registry.EXPERIMENT_MODULES`).
"""

from repro.study.config import ConfigField, StudyConfig, precision_field
from repro.study.registry import (
    EXPERIMENT_MODULES,
    Experiment,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
)
from repro.study.report import SCHEMA_VERSION, StudyReport
from repro.study.runner import RunContext, StudyRunner, run_experiment

__all__ = [
    "EXPERIMENT_MODULES",
    "SCHEMA_VERSION",
    "ConfigField",
    "Experiment",
    "RunContext",
    "StudyConfig",
    "StudyReport",
    "StudyRunner",
    "all_experiments",
    "experiment",
    "experiment_names",
    "get_experiment",
    "precision_field",
    "run_experiment",
]
