"""CrossLight reproduction: a cross-layer silicon photonic DNN accelerator.

This package is a from-scratch Python reproduction of *CrossLight: A
Cross-Layer Optimized Silicon Photonic Neural Network Accelerator*
(Sunny, Mirza, Nikdast, Pasricha -- DAC 2021).  It contains:

* :mod:`repro.devices` -- silicon photonic / optoelectronic device models
  (microrings, microdisks, waveguides, lasers, converters) with the paper's
  Table II parameters and loss budget;
* :mod:`repro.variations` -- fabrication-process-variation and thermal
  crosstalk models, including a finite-difference heat solver standing in
  for Lumerical HEAT and the waveguide-width design-space exploration;
* :mod:`repro.tuning` -- thermo-optic, electro-optic, TED, and hybrid MR
  tuning circuits;
* :mod:`repro.crosstalk` -- inter-channel crosstalk and resolution analysis
  (paper Eqs. 8-10);
* :mod:`repro.nn` -- a pure-NumPy DNN substrate (layers, training,
  quantization, synthetic datasets, the Table I model zoo) replacing the
  paper's TensorFlow/QKeras stack;
* :mod:`repro.arch` -- the CrossLight architecture (VDP units, vector
  decomposition, power/latency/area/EPB models, the four evaluated variants);
* :mod:`repro.baselines` -- DEAP-CNN, HolyLight, and electronic platform
  reference models;
* :mod:`repro.sim` -- the performance/energy simulator mapping DNN workloads
  onto accelerator models;
* :mod:`repro.experiments` -- one driver per paper table/figure;
* :mod:`repro.obs` -- opt-in observability (metrics registry, Chrome
  trace-event timelines, event-loop profiling) threaded through serving,
  sweeps, and studies without perturbing any result.

Quick start::

    from repro.arch import CrossLightAccelerator
    from repro.nn import build_model
    from repro.sim import simulate_model

    accelerator = CrossLightAccelerator.from_variant("cross_opt_ted")
    report = simulate_model(accelerator, build_model(1))
    print(report.fps, report.epb_pj_per_bit)

Accuracy under a custom stack of non-idealities::

    from repro import NoiseStack, QuantizationChannel, FPVDriftChannel
    from repro import monte_carlo_accuracy

    stack = NoiseStack([QuantizationChannel(16), FPVDriftChannel()])
    result = monte_carlo_accuracy(model, test_x, test_y, stack, seeds=8)
    print(result.mean_accuracy, result.std_accuracy)

Request-level serving simulation (:mod:`repro.serve`)::

    from repro import BatchPolicy, PoissonTraffic, serve_trace

    report = serve_trace(model, accelerator,
                         PoissonTraffic(rate_rps=1e5, duration_s=0.05),
                         BatchPolicy(max_batch_size=8, max_wait_s=100e-6))
    print(report.throughput_rps, report.p99_latency_s)

Paper artefacts through the experiment registry (:mod:`repro.study`, also
the ``repro`` / ``python -m repro`` CLI)::

    from repro import run_experiment

    report = run_experiment("table2_devices")
    print(report.to_text())        # the paper-table text rendering
    payload = report.to_json()     # schema-stable machine-readable form

Observability (:mod:`repro.obs`; also ``repro run <study> --trace/--metrics
--profile``)::

    from repro import Observability, StudyRunner

    obs = Observability.enabled(profiler=True)
    with StudyRunner(obs=obs) as runner:
        report = runner.run("serving_faults")
    obs.tracer.write("trace.json")      # open at https://ui.perfetto.dev
    print(obs.metrics.to_prometheus())
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
)
from repro.sim.photonic_inference import (
    EnsembleInferenceEngine,
    MonteCarloAccuracy,
    PhotonicInferenceResult,
    accuracy_vs_residual_drift,
    evaluate_ensemble,
    monte_carlo_accuracy,
)
from repro.obs import LoopProfiler, MetricsRegistry, Observability, Tracer
from repro.serve import (
    BatchPolicy,
    BurstyTraffic,
    FaultModel,
    PoissonTraffic,
    RetryPolicy,
    ServingReport,
    ServingRuntime,
    TraceTraffic,
    serve_trace,
)
from repro.study import (
    Experiment,
    RunContext,
    StudyConfig,
    StudyReport,
    StudyRunner,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
    run_experiment,
)

__version__ = "1.5.0"

__all__ = [
    "BatchPolicy",
    "BurstyTraffic",
    "EnsembleInferenceEngine",
    "Experiment",
    "FPVDriftChannel",
    "FaultModel",
    "InterChannelCrosstalkChannel",
    "LoopProfiler",
    "MetricsRegistry",
    "MonteCarloAccuracy",
    "NoiseChannel",
    "NoiseStack",
    "Observability",
    "PhotonicInferenceResult",
    "PoissonTraffic",
    "QuantizationChannel",
    "ResidualDriftChannel",
    "RetryPolicy",
    "RunContext",
    "ServingReport",
    "ServingRuntime",
    "StudyConfig",
    "StudyReport",
    "StudyRunner",
    "ThermalCrosstalkChannel",
    "TraceTraffic",
    "Tracer",
    "__version__",
    "accuracy_vs_residual_drift",
    "all_experiments",
    "default_noise_stack",
    "evaluate_ensemble",
    "experiment",
    "experiment_names",
    "get_experiment",
    "monte_carlo_accuracy",
    "run_experiment",
    "serve_trace",
]
