"""Discrete-event serving runtime over simulated CrossLight fleets.

This package turns the repository's *offline* evaluation stack into an
*online* one: instead of scoring static datasets, it serves a stream of
requests arriving over simulated time through seeded traffic generators,
dynamic micro-batching, and a worker pool of analytic accelerator models --
the request-level view (queueing, batching, tail latency, shedding) that
datacenter-inference studies evaluate and the ROADMAP's
"heavy traffic from millions of users" north star requires.

* :mod:`repro.serve.clock` -- deterministic event queue and simulated clock;
* :mod:`repro.serve.events` -- request columns, request/batch records and
  event payloads;
* :mod:`repro.serve.traffic` -- seeded arrival processes (steady Poisson,
  bursty Markov-modulated, trace replay);
* :mod:`repro.serve.batcher` -- admission queues and the dynamic
  micro-batcher (max batch size, max-wait deadline, shedding backpressure);
* :mod:`repro.serve.workers` -- the accelerator fleet (batch latency/energy
  via :meth:`~repro.arch.accelerator.PhotonicAccelerator.batch_latency_s`,
  optional functional outputs through per-worker noise stacks);
* :mod:`repro.serve.metrics` -- SLO metrics and :class:`ServingReport`;
* :mod:`repro.serve.faults` -- seeded fault injection (crash/repair,
  thermal throttle, permanent drain) and the lost-batch
  :class:`RetryPolicy`, with availability/goodput degradation metrics;
* :mod:`repro.serve.runtime` -- the event loop and :func:`serve_trace`.

Quick start::

    from repro.arch import CrossLightAccelerator
    from repro.nn import build_model
    from repro.serve import BatchPolicy, PoissonTraffic, serve_trace

    report = serve_trace(
        build_model(1),
        CrossLightAccelerator.from_variant("cross_opt_ted"),
        PoissonTraffic(rate_rps=100_000, duration_s=0.05),
        BatchPolicy(max_batch_size=8, max_wait_s=100e-6),
        n_workers=2,
        seed=0,
    )
    print(report.summary())
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.clock import EventQueue, SimulationClock
from repro.serve.events import Batch, Request, RequestColumns, TraceEvent
from repro.serve.faults import FaultInjector, FaultModel, RetryPolicy
from repro.serve.metrics import (
    FailureRecord,
    MetricsCollector,
    RequestRecord,
    RunColumns,
    ServingReport,
)
from repro.serve.runtime import ServingRuntime, requests_from_traffic, serve_trace
from repro.serve.traffic import (
    BurstyTraffic,
    PoissonTraffic,
    TraceTraffic,
    TrafficProcess,
)
from repro.serve.workers import AcceleratorWorker, WorkerPool

__all__ = [
    "AcceleratorWorker",
    "Batch",
    "BatchPolicy",
    "BurstyTraffic",
    "EventQueue",
    "FailureRecord",
    "FaultInjector",
    "FaultModel",
    "MetricsCollector",
    "MicroBatcher",
    "PoissonTraffic",
    "Request",
    "RequestColumns",
    "RequestRecord",
    "RetryPolicy",
    "RunColumns",
    "ServingReport",
    "ServingRuntime",
    "SimulationClock",
    "TraceEvent",
    "TraceTraffic",
    "TrafficProcess",
    "WorkerPool",
    "requests_from_traffic",
    "serve_trace",
]
