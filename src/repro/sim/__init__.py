"""Performance/energy simulation of DNN models on photonic accelerators.

* :mod:`repro.sim.tracer` -- :func:`~repro.sim.tracer.trace_model`, a
  type-checked ``model.workloads()``.
* :mod:`repro.sim.simulator` -- runs models through accelerator models and
  aggregates Table III-style metrics.
* :mod:`repro.sim.noise` -- the composable noise-channel stack (protocol,
  concrete quantization/drift/FPV/crosstalk channels, ordered composition).
* :mod:`repro.sim.photonic_inference` -- functional inference through a
  noise-channel stack, plus seeded Monte-Carlo accuracy sweeps.
* :mod:`repro.sim.sweep` -- the unified parameter-sweep engine (grid
  spaces, per-point records, one reusable process pool, memoization) every
  experiment driver runs on.
* :mod:`repro.sim.results` -- plain-text table formatting for reports.
"""

from repro.sim.noise import (
    FPVDriftChannel,
    InterChannelCrosstalkChannel,
    NoiseChannel,
    NoiseStack,
    QuantizationChannel,
    ResidualDriftChannel,
    ThermalCrosstalkChannel,
    default_noise_stack,
    ensemble_apply,
)
from repro.sim.photonic_inference import (
    EnsembleInferenceEngine,
    MonteCarloAccuracy,
    PhotonicInferenceResult,
    accuracy_vs_residual_drift,
    clear_ideal_accuracy_cache,
    evaluate_ensemble,
    ideal_model_accuracy,
    monte_carlo_accuracy,
)
from repro.sim.results import format_table
from repro.sim.simulator import (
    ComparisonResult,
    compare_accelerators,
    default_accelerators,
    simulate_model,
    simulate_models,
)
from repro.sim.sweep import (
    SweepExecutor,
    SweepPoint,
    SweepResult,
    grid,
    memoize,
    plan_chunks,
    run_sweep,
)
from repro.sim.tracer import trace_model

__all__ = [
    "ComparisonResult",
    "EnsembleInferenceEngine",
    "FPVDriftChannel",
    "InterChannelCrosstalkChannel",
    "MonteCarloAccuracy",
    "NoiseChannel",
    "NoiseStack",
    "PhotonicInferenceResult",
    "QuantizationChannel",
    "ResidualDriftChannel",
    "SweepExecutor",
    "SweepPoint",
    "SweepResult",
    "ThermalCrosstalkChannel",
    "accuracy_vs_residual_drift",
    "clear_ideal_accuracy_cache",
    "default_noise_stack",
    "ensemble_apply",
    "evaluate_ensemble",
    "grid",
    "ideal_model_accuracy",
    "memoize",
    "monte_carlo_accuracy",
    "plan_chunks",
    "run_sweep",
    "compare_accelerators",
    "default_accelerators",
    "format_table",
    "simulate_model",
    "simulate_models",
    "trace_model",
]
