"""SLO metrics collection and the serving report.

The serving runtime reduces a whole discrete-event run to one immutable
:class:`ServingReport`.  The :class:`MetricsCollector` accumulates the run
batch by batch into :class:`RunColumns` -- per-request and per-batch
arrays plus the non-arrival trace entries -- from which the report builds
per-request latency records, per-batch dispatch records, the deterministic
event trace, and the derived service-level metrics datacenter-inference
studies report -- delivered throughput, tail latency percentiles
(p50/p95/p99), energy per request, fleet utilisation, and shed rate.

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
from functools import cached_property

import numpy as np

from repro.serve.events import Batch, Request, RequestColumns, TraceEvent


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Lifecycle timestamps of one completed request.

    Slotted like :class:`~repro.serve.events.Request`; the constructor
    checks the timestamp order.
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

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to batch completion."""
        return self.completion_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Time spent waiting in the admission queue before dispatch."""
        return self.dispatch_s - self.arrival_s


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


@dataclass(frozen=True, eq=False)
class RunColumns:
    """The record of one serving run, as columns.

    Requests are rows of ``requests`` in the order the loop offered them
    (arrival order, ties in list order).  Batches are indexed by batch id
    (dispatch order, lost batches included); batch ``b`` served the rows
    ``members[member_offsets[b]:member_offsets[b + 1]]``, so a retried
    request appears once per attempt.  ``completed`` lists batch ids in
    completion order.  The event trace keeps only its non-arrival entries:
    ``trace_entries[j]`` follows the first ``trace_cursor[j]`` arrival
    entries, and every offered row contributes one ``"arrival"`` (or
    ``"shed"``) entry at its arrival time.  Equality is element-wise.
    """

    requests: RequestColumns
    shed: np.ndarray
    batch_model: np.ndarray
    batch_worker: np.ndarray
    dispatch_s: np.ndarray
    latency_s: np.ndarray
    energy_j: np.ndarray
    deadline_triggered: np.ndarray
    member_offsets: np.ndarray
    members: np.ndarray
    completed: np.ndarray
    trace_cursor: np.ndarray
    trace_entries: tuple[tuple, ...]

    _ARRAYS = (
        "shed", "batch_model", "batch_worker", "dispatch_s", "latency_s", "energy_j",
        "deadline_triggered", "member_offsets", "members", "completed", "trace_cursor",
    )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunColumns):
            return NotImplemented
        return (
            self.requests == other.requests
            and self.trace_entries == other.trace_entries
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in self._ARRAYS
            )
        )

    def completed_members(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows of every completed request in completion order, and their batches."""
        sizes = np.diff(self.member_offsets)[self.completed]
        batch_of = np.repeat(self.completed, sizes)
        first = np.repeat(self.member_offsets[self.completed] - (np.cumsum(sizes) - sizes), sizes)
        return self.members[first + np.arange(batch_of.size)], batch_of

    def trace_segments(self):
        """The event trace as ``(start, stop, entry)`` steps, in loop order.

        Each step is the arrival entries of rows ``[start, stop)`` followed
        by the non-arrival ``entry`` (``None`` in the final step).
        """
        start = 0
        for stop, entry in zip(self.trace_cursor.tolist(), self.trace_entries):
            yield start, stop, entry
            start = stop
        yield start, len(self.requests), None


@dataclass(frozen=True)
class ServingReport:
    """Everything one serving run produced, plus derived SLO metrics.

    The run record is held as :class:`RunColumns`.  :attr:`requests`,
    :attr:`batches` and :attr:`event_trace` are per-item views built from
    it on each access and not kept, so reading them never doubles the
    record; :attr:`latencies_s` is built on first access.  Reports compare
    and pickle through the columns.
    """

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
    #: Compared, but left out of the hash (arrays are unhashable): equal
    #: reports still hash equal.
    columns: RunColumns = field(hash=False)
    worker_busy_s: tuple[float, ...]
    peak_queue_depth: int
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
    # Per-item views of the columns
    # ------------------------------------------------------------------ #
    @cached_property
    def _completed_members(self) -> tuple[np.ndarray, np.ndarray]:
        return self.columns.completed_members()

    def _completed_items(self) -> tuple[list[tuple], list[int], list[float]]:
        """The completed batches and their requests as Python values.

        Returns ``(batches, ids, arrivals)``: per completed batch, in
        completion order, ``(batch_id, model, worker_id, dispatch_s,
        latency_s, energy_j, deadline_triggered, start, stop)``, where
        ``[start, stop)`` are its requests in the per-request lists.
        """
        columns = self.columns
        completed = columns.completed
        stops = np.cumsum(np.diff(columns.member_offsets)[completed])
        batches = zip(
            completed.tolist(),
            [self.models[code] for code in columns.batch_model[completed].tolist()],
            columns.batch_worker[completed].tolist(),
            columns.dispatch_s[completed].tolist(),
            columns.latency_s[completed].tolist(),
            columns.energy_j[completed].tolist(),
            columns.deadline_triggered[completed].tolist(),
            [0, *stops[:-1].tolist()],
            stops.tolist(),
        )
        rows, _ = self._completed_members
        requests = columns.requests
        return (
            list(batches),
            requests.request_id[rows].tolist(),
            requests.arrival_s[rows].tolist(),
        )

    @property
    def requests(self) -> tuple[RequestRecord, ...]:
        """Lifecycle records of the completed requests, in completion order."""
        batches, ids, arrivals = self._completed_items()
        records = []
        for batch_id, model, worker_id, dispatch_s, latency_s, _, _, start, stop in batches:
            completion_s = dispatch_s + latency_s
            records += [
                RequestRecord(ids[i], model, arrivals[i], dispatch_s, completion_s,
                              batch_id, worker_id, stop - start)
                for i in range(start, stop)
            ]
        return tuple(records)

    @property
    def batches(self) -> tuple[Batch, ...]:
        """The completed batches, in completion order."""
        batches, ids, arrivals = self._completed_items()
        rows, _ = self._completed_members
        input_index = self.columns.requests.input_index[rows].tolist()
        return tuple(
            Batch(
                batch_id=batch_id,
                model=model,
                requests=tuple(
                    Request(ids[i], model, arrivals[i],
                            None if input_index[i] < 0 else input_index[i])
                    for i in range(start, stop)
                ),
                dispatch_s=dispatch_s,
                worker_id=worker_id,
                latency_s=latency_s,
                energy_j=energy_j,
                deadline_triggered=deadline_triggered,
            )
            for batch_id, model, worker_id, dispatch_s, latency_s, energy_j,
            deadline_triggered, start, stop in batches
        )

    @property
    def event_trace(self) -> tuple[TraceEvent, ...]:
        """One :class:`TraceEvent` per state transition, in loop order."""
        columns = self.columns
        ids = columns.requests.request_id.tolist()
        times = columns.requests.arrival_s.tolist()
        shed = columns.shed.tolist()
        trace = []
        for start, stop, entry in columns.trace_segments():
            trace += [
                TraceEvent(times[row], "shed" if shed[row] else "arrival", ids[row])
                for row in range(start, stop)
            ]
            if entry is not None:
                trace.append(TraceEvent(*entry))
        return tuple(trace)

    # ------------------------------------------------------------------ #
    # Conservation
    # ------------------------------------------------------------------ #
    @property
    def n_completed(self) -> int:
        """Requests whose batch finished inside the run."""
        return self._completed_members[0].size

    @property
    def n_batches(self) -> int:
        """Batches that completed inside the run."""
        return self.columns.completed.size

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
    @cached_property
    def latencies_s(self) -> np.ndarray:
        """Per-completed-request end-to-end latencies, in completion order."""
        columns = self.columns
        rows, batch_of = self._completed_members
        completion_s = columns.dispatch_s[batch_of] + columns.latency_s[batch_of]
        return completion_s - columns.requests.arrival_s[rows]

    @property
    def queue_waits_s(self) -> np.ndarray:
        """Per-completed-request admission-queue waits, in completion order."""
        columns = self.columns
        rows, batch_of = self._completed_members
        return columns.dispatch_s[batch_of] - columns.requests.arrival_s[rows]

    def latency_percentile_s(self, percentile: float) -> float:
        """Latency percentile over completed requests (NaN when none)."""
        if not self.n_completed:
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
    def shed_rate(self) -> float:
        """Fraction of arrivals rejected by admission control."""
        return self.n_shed / self.n_arrivals if self.n_arrivals else 0.0

    @property
    def total_energy_j(self) -> float:
        """Accelerator energy of all completed batches (busy-time energy)."""
        columns = self.columns
        return float(sum(columns.energy_j[columns.completed].tolist()))

    @property
    def energy_per_request_j(self) -> float:
        """Busy-time energy per completed request."""
        if not self.n_completed:
            return float("nan")
        return self.total_energy_j / self.n_completed

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests fused per dispatch."""
        if not self.n_batches:
            return float("nan")
        return self.n_completed / self.n_batches

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
        if not self.n_batches:
            return float("nan")
        columns = self.columns
        return (
            int(np.count_nonzero(columns.deadline_triggered[columns.completed]))
            / self.n_batches
        )

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
    """Accumulates one run's record, batch by batch, and finalizes it.

    Nothing here is per request: a dispatch appends one row to the batch
    columns (its members as one index array), a completion appends its
    batch id, and the trace keeps only non-arrival entries, each tagged
    with the number of arrivals offered before it was written.
    """

    def __init__(self) -> None:
        self.n_retries = 0
        self.n_lost_batches = 0
        self.n_retried_completions = 0
        self.wasted_busy_s = 0.0
        self.wasted_energy_j = 0.0
        #: Per-batch columns, indexed by batch id (the event loop reads them).
        self.batch_model: list[int] = []
        self.batch_worker: list[int] = []
        self.dispatch_s: list[float] = []
        self.latency_s: list[float] = []
        self.energy_j: list[float] = []
        self.deadline_triggered: list[bool] = []
        self.members: list[np.ndarray] = []
        self._completed: list[int] = []
        #: Non-arrival trace entries, each with the number of arrivals
        #: offered before it was written.
        self.trace_cursor: list[int] = []
        self.trace_entries: list[tuple] = []
        self._failures: list[FailureRecord] = []

    def record_dispatch(
        self,
        model: int,
        worker_id: int,
        dispatch_s: float,
        latency_s: float,
        energy_j: float,
        deadline_triggered: bool,
        members: np.ndarray,
    ) -> int:
        """Record one dispatched batch of request rows; returns its batch id."""
        batch_id = len(self.members)
        self.batch_model.append(model)
        self.batch_worker.append(worker_id)
        self.dispatch_s.append(dispatch_s)
        self.latency_s.append(latency_s)
        self.energy_j.append(energy_j)
        self.deadline_triggered.append(deadline_triggered)
        self.members.append(members)
        return batch_id

    def record_completion(self, batch_id: int, n_retried: int = 0) -> None:
        """Record a completed batch.

        ``n_retried`` counts how many of the batch's requests had previously
        lost a batch to a crash -- they complete normally but are excluded
        from goodput.
        """
        self._completed.append(batch_id)
        self.n_retried_completions += n_retried

    def record_retry(self) -> None:
        """Count one request re-queued after its batch was lost."""
        self.n_retries += 1

    def record_failed(self, record: FailureRecord) -> None:
        """Record one request whose retry budget is exhausted (terminal)."""
        self._failures.append(record)

    def record_lost_batch(self, *, wasted_busy_s: float, wasted_energy_j: float) -> None:
        """Account a batch killed mid-flight by a worker crash.

        The batch produced nothing (its requests retry or fail), but the
        partial busy time and energy it burned before the crash are real
        fleet costs and are tracked as *wasted* capacity.
        """
        self.n_lost_batches += 1
        self.wasted_busy_s += wasted_busy_s
        self.wasted_energy_j += wasted_energy_j

    def finalize(
        self,
        *,
        requests: RequestColumns,
        shed: np.ndarray,
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
        outputs: dict[int, int] | None,
        faults: str = "none",
        worker_power_w: tuple[float, ...] = (),
        worker_downtime_s: tuple[float, ...] = (),
        events_processed: int = 0,
        wall_time_s: float = 0.0,
    ) -> ServingReport:
        """Freeze the accumulated record into a :class:`ServingReport`.

        ``requests`` are the offered requests in the order the loop took
        them, and ``shed`` flags the ones admission rejected.

        Raises
        ------
        RuntimeError
            If the conservation invariant ``arrivals == completed + shed +
            failed + queued + in_flight`` does not hold -- an event-loop
            accounting bug must fail loudly, never produce a report.
        """
        sizes = [members.size for members in self.members]
        columns = RunColumns(
            requests=requests,
            shed=shed,
            batch_model=np.asarray(self.batch_model, dtype=np.intp),
            batch_worker=np.asarray(self.batch_worker, dtype=np.intp),
            dispatch_s=np.asarray(self.dispatch_s, dtype=float),
            latency_s=np.asarray(self.latency_s, dtype=float),
            energy_j=np.asarray(self.energy_j, dtype=float),
            deadline_triggered=np.asarray(self.deadline_triggered, dtype=bool),
            member_offsets=np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))),
            members=np.concatenate([np.empty(0, dtype=np.intp), *self.members]),
            completed=np.asarray(self._completed, dtype=np.intp),
            trace_cursor=np.asarray(self.trace_cursor, dtype=np.intp),
            trace_entries=tuple(self.trace_entries),
        )
        report = ServingReport(
            accelerator=accelerator,
            models=models,
            traffic=traffic,
            policy=policy,
            n_workers=n_workers,
            power_w=power_w,
            duration_s=duration_s,
            horizon_s=horizon_s,
            n_arrivals=len(requests),
            n_shed=int(np.count_nonzero(shed)),
            n_queued_end=n_queued_end,
            n_in_flight_end=n_in_flight_end,
            columns=columns,
            worker_busy_s=worker_busy_s,
            peak_queue_depth=peak_queue_depth,
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
