"""SLO metrics collection and the serving report.

The serving runtime reduces a whole discrete-event run to one immutable
:class:`ServingReport`: per-request latency records, per-batch dispatch
records, the deterministic event trace, and the derived service-level
metrics datacenter-inference studies report -- delivered throughput, tail
latency percentiles (p50/p95/p99), energy per request, fleet utilisation,
and shed rate.

Fault injection (:mod:`repro.serve.faults`) adds the degradation-side
metrics: retries, terminal failures, batches lost to crashes and the busy
time/energy they wasted, per-worker downtime and availability, and
*goodput* -- completions that needed no retry, the delivered work a
fault-free fleet would also have delivered.

Conservation is a first-class invariant: every request that arrived is
accounted for exactly once as completed, shed, **failed**, still queued, or
in flight (:attr:`ServingReport.conserved`).  :meth:`MetricsCollector.
finalize` *checks* the invariant and refuses to produce a report that
violates it, so an accounting bug in the event loop fails loudly instead of
producing quietly-wrong SLO numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.events import Batch, Request, TraceEvent


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Lifecycle timestamps of one completed request.

    Slotted like :class:`~repro.serve.events.Request`.  The public
    constructor checks the timestamp order; :meth:`unchecked` is the
    collector's path, whose records are ordered by construction.
    """

    request_id: int
    model: str
    arrival_s: float
    dispatch_s: float
    completion_s: float
    batch_id: int
    worker_id: int
    batch_size: int

    def __post_init__(self) -> None:
        if not (self.arrival_s <= self.dispatch_s <= self.completion_s):
            raise ValueError(
                "request timestamps must be ordered arrival <= dispatch <= "
                f"completion, got {self.arrival_s}, {self.dispatch_s}, "
                f"{self.completion_s}"
            )

    @staticmethod
    def unchecked(
        request: Request,
        dispatch_s: float,
        completion_s: float,
        batch_id: int,
        worker_id: int,
        batch_size: int,
    ) -> "RequestRecord":
        """The record of ``request`` completing in a batch, without the check.

        A request is dispatched no earlier than it arrived and completes a
        positive latency after dispatch, so a record the event loop builds
        is ordered without checking.
        """
        record = _new_object(RequestRecord)
        _set_request_id(record, request.request_id)
        _set_model(record, request.model)
        _set_arrival_s(record, request.arrival_s)
        _set_dispatch_s(record, dispatch_s)
        _set_completion_s(record, completion_s)
        _set_batch_id(record, batch_id)
        _set_worker_id(record, worker_id)
        _set_batch_size(record, batch_size)
        return record

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to batch completion."""
        return self.completion_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Time spent waiting in the admission queue before dispatch."""
        return self.dispatch_s - self.arrival_s


_new_object = object.__new__
(
    _set_request_id, _set_model, _set_arrival_s, _set_dispatch_s,
    _set_completion_s, _set_batch_id, _set_worker_id, _set_batch_size,
) = (
    RequestRecord.request_id.__set__,
    RequestRecord.model.__set__,
    RequestRecord.arrival_s.__set__,
    RequestRecord.dispatch_s.__set__,
    RequestRecord.completion_s.__set__,
    RequestRecord.batch_id.__set__,
    RequestRecord.worker_id.__set__,
    RequestRecord.batch_size.__set__,
)


@dataclass(frozen=True)
class FailureRecord:
    """One request that exhausted its retry budget (terminal ``failed``)."""

    request_id: int
    model: str
    arrival_s: float
    failed_s: float
    attempts: int

    def __post_init__(self) -> None:
        if self.failed_s < self.arrival_s:
            raise ValueError(
                f"request {self.request_id} failed at {self.failed_s}, before "
                f"its arrival at {self.arrival_s}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


@dataclass(frozen=True)
class ServingReport:
    """Everything one serving run produced, plus derived SLO metrics."""

    accelerator: str
    models: tuple[str, ...]
    traffic: str
    policy: str
    n_workers: int
    power_w: float
    duration_s: float
    horizon_s: float
    n_arrivals: int
    n_shed: int
    n_queued_end: int
    n_in_flight_end: int
    requests: tuple[RequestRecord, ...]
    batches: tuple[Batch, ...]
    worker_busy_s: tuple[float, ...]
    peak_queue_depth: int
    event_trace: tuple[TraceEvent, ...]
    outputs: dict[int, int] | None = field(default=None, compare=False)
    # --- fault / degradation extensions (all zero without fault injection) ---
    faults: str = "none"
    worker_power_w: tuple[float, ...] = ()
    worker_downtime_s: tuple[float, ...] = ()
    failures: tuple[FailureRecord, ...] = ()
    n_retries: int = 0
    n_lost_batches: int = 0
    n_retried_completions: int = 0
    wasted_busy_s: float = 0.0
    wasted_energy_j: float = 0.0
    # --- event-loop throughput (ROADMAP item 3's hot-path baseline) ---
    #: Events the loop processed; deterministic, so it participates in
    #: report equality like any other simulated quantity.
    events_processed: int = 0
    #: Wall-clock seconds the loop took.  Machine-dependent, hence
    #: ``compare=False`` -- two identical simulations on different
    #: machines still compare equal.
    wall_time_s: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------------ #
    # Conservation
    # ------------------------------------------------------------------ #
    @property
    def n_completed(self) -> int:
        """Requests whose batch finished inside the run."""
        return len(self.requests)

    @property
    def n_failed(self) -> int:
        """Requests that exhausted their retry budget (terminal failures)."""
        return len(self.failures)

    @property
    def backlog_end(self) -> int:
        """Requests admitted but unfinished at the horizon (queued + in flight)."""
        return self.n_queued_end + self.n_in_flight_end

    @property
    def conserved(self) -> bool:
        """Whether every arrival is accounted for exactly once.

        The full invariant, failures included::

            arrivals == completed + shed + failed + queued + in_flight
        """
        return self.n_arrivals == (
            self.n_completed
            + self.n_shed
            + self.n_failed
            + self.n_queued_end
            + self.n_in_flight_end
        )

    # ------------------------------------------------------------------ #
    # Latency
    # ------------------------------------------------------------------ #
    @property
    def latencies_s(self) -> np.ndarray:
        """Per-completed-request end-to-end latencies, in completion order."""
        return np.asarray([record.latency_s for record in self.requests])

    def latency_percentile_s(self, percentile: float) -> float:
        """Latency percentile over completed requests (NaN when none)."""
        if not self.requests:
            return float("nan")
        return float(np.percentile(self.latencies_s, percentile))

    @property
    def p50_latency_s(self) -> float:
        """Median end-to-end latency."""
        return self.latency_percentile_s(50.0)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile end-to-end latency."""
        return self.latency_percentile_s(95.0)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile end-to-end latency (the headline SLO tail)."""
        return self.latency_percentile_s(99.0)

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency over completed requests."""
        if not self.requests:
            return float("nan")
        return float(np.mean(self.latencies_s))

    # ------------------------------------------------------------------ #
    # Throughput / utilisation / energy
    # ------------------------------------------------------------------ #
    @property
    def offered_rps(self) -> float:
        """Arrival rate actually offered over the traffic window."""
        return self.n_arrivals / self.duration_s

    @property
    def throughput_rps(self) -> float:
        """Delivered throughput: completions per second of simulated horizon."""
        return self.n_completed / self.horizon_s if self.horizon_s > 0 else 0.0

    @property
    def service_throughput_rps(self) -> float:
        """Capacity actually achieved while busy: completions per busy second.

        This is the batching-efficiency metric: with the fleet saturated it
        equals delivered throughput, and at partial load it isolates what
        the configured batch geometry could sustain from how much traffic
        happened to arrive.
        """
        busy = sum(self.worker_busy_s)
        return self.n_completed / busy if busy > 0 else 0.0

    @property
    def utilisation(self) -> float:
        """Fraction of fleet capacity spent serving (busy time / horizon)."""
        if self.horizon_s <= 0:
            return 0.0
        return sum(self.worker_busy_s) / (self.n_workers * self.horizon_s)

    @property
    def goodput_rps(self) -> float:
        """First-attempt completions per second of simulated horizon.

        Completions that needed one or more retries are excluded: they were
        delivered, but only after consuming extra fleet capacity, so
        goodput isolates the work a fault-free fleet would also have
        delivered.  Without faults, ``goodput_rps == throughput_rps``.
        """
        if self.horizon_s <= 0:
            return 0.0
        return (self.n_completed - self.n_retried_completions) / self.horizon_s

    @property
    def worker_availability(self) -> tuple[float, ...]:
        """Per-worker fraction of the horizon spent in service."""
        if self.horizon_s <= 0 or not self.worker_downtime_s:
            return tuple(1.0 for _ in range(self.n_workers))
        return tuple(
            1.0 - downtime / self.horizon_s for downtime in self.worker_downtime_s
        )

    @property
    def availability(self) -> float:
        """Fleet-mean fraction of the horizon workers were in service."""
        per_worker = self.worker_availability
        return sum(per_worker) / len(per_worker) if per_worker else 1.0

    @property
    def failed_rate(self) -> float:
        """Fraction of arrivals that terminally failed (retries exhausted)."""
        return self.n_failed / self.n_arrivals if self.n_arrivals else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals rejected by admission control."""
        return self.n_shed / self.n_arrivals if self.n_arrivals else 0.0

    @property
    def total_energy_j(self) -> float:
        """Accelerator energy of all completed batches (busy-time energy)."""
        return float(sum(batch.energy_j for batch in self.batches))

    @property
    def energy_per_request_j(self) -> float:
        """Busy-time energy per completed request."""
        if not self.requests:
            return float("nan")
        return self.total_energy_j / self.n_completed

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests fused per dispatch."""
        if not self.batches:
            return float("nan")
        return self.n_completed / len(self.batches)

    @property
    def events_per_sec(self) -> float:
        """Wall-clock event-loop throughput: events processed per wall second.

        The number ROADMAP item 3's event-loop rewrite is measured by.
        Machine-dependent by nature; 0.0 when wall time was too short to
        resolve.
        """
        if self.wall_time_s <= 0:
            return 0.0
        return self.events_processed / self.wall_time_s

    @property
    def deadline_dispatch_fraction(self) -> float:
        """Fraction of batches dispatched by deadline rather than filling."""
        if not self.batches:
            return float("nan")
        return sum(batch.deadline_triggered for batch in self.batches) / len(self.batches)

    def summary(self) -> str:
        """One-paragraph human-readable digest of the run.

        Fault statistics are appended only when the run actually saw
        faults, so fault-free summaries read exactly as they always did.
        """
        text = (
            f"{self.accelerator} x{self.n_workers} serving {'/'.join(self.models)} "
            f"under {self.traffic} with {self.policy}: "
            f"{self.n_completed}/{self.n_arrivals} completed "
            f"({self.n_shed} shed, {self.backlog_end} backlogged), "
            f"throughput {self.throughput_rps:,.0f} rps, "
            f"p50/p95/p99 latency "
            f"{self.p50_latency_s * 1e6:.1f}/{self.p95_latency_s * 1e6:.1f}/"
            f"{self.p99_latency_s * 1e6:.1f} us, "
            f"{self.energy_per_request_j * 1e6:.1f} uJ/request, "
            f"utilisation {self.utilisation:.1%}, "
            f"mean batch {self.mean_batch_size:.2f}"
        )
        if self.faults != "none":
            text += (
                f"; {self.faults}: availability {self.availability:.1%}, "
                f"goodput {self.goodput_rps:,.0f} rps, "
                f"{self.n_lost_batches} batches lost, {self.n_retries} retries, "
                f"{self.n_failed} failed"
            )
        return text


class MetricsCollector:
    """Accumulates per-run records and finalizes them into a report."""

    def __init__(self) -> None:
        self.n_arrivals = 0
        self.n_shed = 0
        self.n_retries = 0
        self.n_lost_batches = 0
        self.n_retried_completions = 0
        self.wasted_busy_s = 0.0
        self.wasted_energy_j = 0.0
        self._requests: list[RequestRecord] = []
        self._batches: list[Batch] = []
        self._failures: list[FailureRecord] = []

    def record_arrival(self, request: Request) -> None:
        """Count one offered request (admitted or shed)."""
        self.n_arrivals += 1

    def record_shed(self, request: Request) -> None:
        """Count one rejected request."""
        self.n_shed += 1

    def record_retry(self, request: Request) -> None:
        """Count one request re-queued after its batch was lost."""
        self.n_retries += 1

    def record_failed(self, request: Request, failed_s: float, attempts: int) -> None:
        """Record one request whose retry budget is exhausted (terminal)."""
        self._failures.append(
            FailureRecord(
                request_id=request.request_id,
                model=request.model,
                arrival_s=request.arrival_s,
                failed_s=failed_s,
                attempts=attempts,
            )
        )

    def record_lost_batch(
        self, batch: Batch, *, wasted_busy_s: float, wasted_energy_j: float
    ) -> None:
        """Account a batch killed mid-flight by a worker crash.

        The batch produced nothing (its requests retry or fail), but the
        partial busy time and energy it burned before the crash are real
        fleet costs and are tracked as *wasted* capacity.
        """
        self.n_lost_batches += 1
        self.wasted_busy_s += wasted_busy_s
        self.wasted_energy_j += wasted_energy_j

    def record_batch(self, batch: Batch, n_retried: int = 0) -> None:
        """Record a completed batch and its requests' lifecycle records.

        ``n_retried`` counts how many of the batch's requests had previously
        lost a batch to a crash -- they complete normally but are excluded
        from goodput.
        """
        self._batches.append(batch)
        self.n_retried_completions += n_retried
        record = RequestRecord.unchecked
        dispatch_s, completion_s = batch.dispatch_s, batch.completion_s
        batch_id, worker_id, size = batch.batch_id, batch.worker_id, batch.size
        self._requests += [
            record(request, dispatch_s, completion_s, batch_id, worker_id, size)
            for request in batch.requests
        ]

    def finalize(
        self,
        *,
        accelerator: str,
        models: tuple[str, ...],
        traffic: str,
        policy: str,
        n_workers: int,
        power_w: float,
        duration_s: float,
        horizon_s: float,
        n_queued_end: int,
        n_in_flight_end: int,
        worker_busy_s: tuple[float, ...],
        peak_queue_depth: int,
        event_trace: tuple[TraceEvent, ...],
        outputs: dict[int, int] | None,
        faults: str = "none",
        worker_power_w: tuple[float, ...] = (),
        worker_downtime_s: tuple[float, ...] = (),
        events_processed: int = 0,
        wall_time_s: float = 0.0,
    ) -> ServingReport:
        """Freeze the accumulated records into a :class:`ServingReport`.

        Raises
        ------
        RuntimeError
            If the conservation invariant ``arrivals == completed + shed +
            failed + queued + in_flight`` does not hold -- an event-loop
            accounting bug must fail loudly, never produce a report.
        """
        report = ServingReport(
            accelerator=accelerator,
            models=models,
            traffic=traffic,
            policy=policy,
            n_workers=n_workers,
            power_w=power_w,
            duration_s=duration_s,
            horizon_s=horizon_s,
            n_arrivals=self.n_arrivals,
            n_shed=self.n_shed,
            n_queued_end=n_queued_end,
            n_in_flight_end=n_in_flight_end,
            requests=tuple(self._requests),
            batches=tuple(self._batches),
            worker_busy_s=worker_busy_s,
            peak_queue_depth=peak_queue_depth,
            event_trace=event_trace,
            outputs=outputs,
            faults=faults,
            worker_power_w=worker_power_w,
            worker_downtime_s=worker_downtime_s,
            failures=tuple(self._failures),
            n_retries=self.n_retries,
            n_lost_batches=self.n_lost_batches,
            n_retried_completions=self.n_retried_completions,
            wasted_busy_s=self.wasted_busy_s,
            wasted_energy_j=self.wasted_energy_j,
            events_processed=events_processed,
            wall_time_s=wall_time_s,
        )
        if not report.conserved:
            raise RuntimeError(
                "request conservation violated: "
                f"{report.n_arrivals} arrivals != {report.n_completed} completed "
                f"+ {report.n_shed} shed + {report.n_failed} failed "
                f"+ {report.n_queued_end} queued + {report.n_in_flight_end} in flight"
            )
        return report
