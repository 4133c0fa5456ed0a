"""`repro.obs`: unified observability for serving, sweeps, and studies.

Three pillars, all off by default and all read-only with respect to
simulated state:

* **metrics** (:mod:`repro.obs.metrics`) -- a deterministic
  :class:`MetricsRegistry` of counters/gauges/log-bucket histograms,
  exportable as stable JSON or Prometheus text format; the memoization
  caches report through it.
* **tracing** (:mod:`repro.obs.tracing`) -- a :class:`Tracer` emitting
  Chrome trace-event JSON timelines (open in Perfetto): per-worker batch /
  throttle / downtime spans on the *simulated* timebase, request
  queue-wait/service async spans, fault/retry/shed instants.
* **profiling** (:mod:`repro.obs.profiler`) -- a :class:`LoopProfiler`
  measuring the *wall-clock* event-loop hot path: per-handler timing
  histograms, events/sec, ``EventQueue`` push/pop costs.

An :class:`Observability` bundle carries any subset of the three through
the stack (``ServingRuntime(..., obs=...)``, ``StudyRunner(..., obs=...)``,
``python -m repro run <study> --trace/--metrics/--profile``).  The
invariant, asserted by the byte-identity tests: enabling observability
never changes a single simulated result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    cache_collector,
    log_buckets,
)
from .profiler import InstrumentedEventQueue, LoopProfiler
from .tracing import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InstrumentedEventQueue",
    "LoopProfiler",
    "MetricSample",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "cache_collector",
    "log_buckets",
]


@dataclass
class Observability:
    """An optional bundle of the three pillars, threaded through the stack.

    Every field may independently be ``None`` (that pillar disabled).  The
    sweep and study layers guard each instrumentation site with a plain
    attribute test -- ``if obs is not None and obs.tracer is not None:
    ...`` -- so a disabled pillar costs one comparison.  The serving loop
    has no such sites: its metrics and trace are projected from the
    finished :class:`~repro.serve.metrics.ServingReport` after the loop,
    and only the profiler, which times the handlers, runs inside it.
    ``obs=None`` (the default everywhere) costs nothing on any hot path.
    """

    metrics: MetricsRegistry | None = None
    tracer: Tracer | None = None
    profiler: LoopProfiler | None = None
    #: Extra labels stamped onto metrics written by this bundle's users
    #: (e.g. the study name), letting one registry hold several runs.
    labels: dict[str, str] = field(default_factory=dict)

    @classmethod
    def enabled(
        cls,
        *,
        metrics: bool = True,
        tracer: bool = True,
        profiler: bool = False,
        labels: dict[str, str] | None = None,
    ) -> "Observability":
        """A bundle with fresh instances of the selected pillars.

        The metrics registry is created with the cache collector attached,
        so cache accounting is always part of an enabled snapshot; when the
        profiler is also enabled its ``profile.*`` samples are merged into
        the registry's exports the same way.
        """
        bundle = cls(
            metrics=MetricsRegistry(collectors=(cache_collector,)) if metrics else None,
            tracer=Tracer() if tracer else None,
            profiler=LoopProfiler() if profiler else None,
            labels=dict(labels or {}),
        )
        if bundle.metrics is not None and bundle.profiler is not None:
            bundle.metrics.register_collector(bundle.profiler.samples)
        return bundle

    def label(self, **extra: str) -> dict[str, str]:
        """This bundle's labels merged with ``extra`` (for metric calls)."""
        merged = dict(self.labels)
        merged.update({k: str(v) for k, v in extra.items()})
        return merged
