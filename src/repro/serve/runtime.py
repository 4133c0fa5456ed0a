"""The serving runtime: traffic -> queues -> micro-batches -> fleet.

:class:`ServingRuntime` is the deterministic discrete-event loop composing
the other :mod:`repro.serve` pieces: seeded traffic produces
:class:`~repro.serve.events.Request` arrivals, per-model
:class:`~repro.serve.batcher.MicroBatcher` queues form dynamic micro-batches
under a :class:`~repro.serve.batcher.BatchPolicy`, and a
:class:`~repro.serve.workers.WorkerPool` of simulated accelerators prices
every dispatch with the analytic
:meth:`~repro.arch.accelerator.PhotonicAccelerator.batch_latency_s` model
(optionally also producing functional outputs through per-worker noise
stacks).  The run reduces to one :class:`~repro.serve.metrics.ServingReport`.

Dispatch discipline (the usual dynamic-batching rule):

* a **full** batch dispatches as soon as a worker is idle;
* a **partial** batch dispatches only when its head request's
  ``max_wait_s`` deadline has expired (and a worker is idle);
* with every worker busy, dispatch re-arbitration happens at the next
  batch completion;
* arbitration runs only on a state change that can make a dispatch legal:
  an arrival that fills a batch, an expiring deadline, a worker finishing,
  returning from repair or losing its batch, or a retry re-forming a full
  batch;
* across models, the queue whose head has waited longest goes first
  (FIFO fairness; ties break on model name, then the event order).

With a :class:`~repro.serve.faults.FaultInjector` attached, worker
lifecycle events (crash/repair, thermal throttle, permanent drain) join the
same event queue: a crash loses the in-flight batch (its requests retry
under the :class:`~repro.serve.faults.RetryPolicy` or terminally fail), a
throttled worker's dispatches are priced at its derate, and a down worker
is skipped by dispatch arbitration until repaired.

:func:`serve_trace` is the one-call entry point for the common single-model
scenario; drive :class:`ServingRuntime` directly for multi-model fleets.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.arch.accelerator import PhotonicAccelerator
from repro.nn.model import Sequential, SiameseModel
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.clock import (
    COMPLETION_PRIORITY,
    DEADLINE_PRIORITY,
    RETRY_PRIORITY,
    EventQueue,
    SimulationClock,
)
from repro.serve.events import (
    Batch,
    CompletionEvent,
    DeadlineEvent,
    Request,
    RetryEvent,
    ThrottleEndEvent,
    ThrottleStartEvent,
    TraceEvent,
    WorkerDownEvent,
    WorkerUpEvent,
)
from repro.serve.faults import FaultInjector, FaultModel, RetryPolicy
from repro.serve.metrics import MetricsCollector, ServingReport
from repro.serve.traffic import TrafficProcess
from repro.serve.workers import AcceleratorWorker, WorkerPool
from repro.sim.noise import NoiseStack
from repro.sim.photonic_inference import PhotonicInferenceEngine
from repro.sim.tracer import trace_model
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs uses clock)
    from repro.obs import Observability

_new_tuple = tuple.__new__


def _entry(*fields) -> TraceEvent:
    """A loop-internal :class:`TraceEvent`.

    The loop writes only known kinds at float times, so its entries skip
    ``TraceEvent.__new__``'s per-entry kind lookup and float conversion.
    """
    return _new_tuple(TraceEvent, fields)


def requests_from_traffic(
    traffic: TrafficProcess,
    model: str,
    seed: int = 0,
    *,
    start_id: int = 0,
    n_inputs: int | None = None,
) -> list[Request]:
    """Materialise a traffic process into :class:`Request` records.

    ``n_inputs`` attaches a dataset index to each request (round-robin over
    the dataset) so workers with inference engines can compute functional
    outputs.

    Window-edge rejection happens here, at materialisation: an arrival at
    or beyond ``traffic.duration_s`` is a contract violation of the traffic
    process itself, so it raises immediately with the process named, rather
    than surfacing later as an obscure event-loop error.  The window and
    the sign are checked once on the whole array, which is what lets the
    records themselves skip :class:`Request`'s per-instance check.
    """
    times = np.asarray(traffic.arrival_times(np.random.default_rng(seed)), dtype=float)
    late = times[times >= traffic.duration_s]
    if late.size:
        raise ValueError(
            f"traffic process {traffic.describe()} produced an arrival "
            f"at {float(late[0])}s, at or beyond its {traffic.duration_s}s window"
        )
    negative = times[times < 0]
    if negative.size:
        raise ValueError(f"arrival_s must be >= 0, got {float(negative[0])}")
    return [
        Request.unchecked(
            request_id, model, time, None if n_inputs is None else request_id % n_inputs
        )
        for request_id, time in zip(range(start_id, start_id + times.size), times.tolist())
    ]


class ServingRuntime:
    """Deterministic discrete-event serving loop over a simulated fleet.

    Parameters
    ----------
    workloads:
        Per-model layer workloads (``name -> trace_model(model)``); every
        model named by a request must appear here.
    accelerator:
        The analytic accelerator model every fleet worker wraps.
    policy:
        Micro-batching policy shared by all per-model queues.
    n_workers:
        Fleet size.
    functional:
        Optional ``name -> (model object, input array)`` mapping; when a
        model appears here, every dispatched batch of it also runs the
        actual inputs through the dispatching worker's inference engine
        and the report carries per-request predicted classes.
    engines:
        Per-worker inference engines (length ``n_workers``); required only
        when ``functional`` models are served.  Seeding each worker's
        engine differently models per-device noise diversity across the
        fleet.
    faults:
        Optional fault injection: a :class:`~repro.serve.faults.FaultInjector`
        (or a bare :class:`~repro.serve.faults.FaultModel`, wrapped with the
        injector's default seed).  A disabled model is a provable no-op --
        the report, event trace included, matches a run with no injector.
    retry:
        Policy for requests whose batch a crash destroyed (default:
        :class:`~repro.serve.faults.RetryPolicy` defaults).  Only consulted
        when faults are active.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  The handlers
        write only the run record (event trace and report); the
        ``serve.runtime.*`` metrics and the Perfetto timeline (simulated
        seconds = trace microseconds; one "thread" per worker) are
        projected from the finished report after the loop, so they cannot
        change a simulated result.  The profiler is the one pillar inside
        the loop: it times each handler on the wall clock.
    """

    def __init__(
        self,
        workloads: Mapping[str, list],
        accelerator: PhotonicAccelerator,
        policy: BatchPolicy,
        *,
        n_workers: int = 1,
        functional: Mapping[str, tuple[Sequential, np.ndarray]] | None = None,
        engines: list[PhotonicInferenceEngine] | None = None,
        faults: FaultInjector | FaultModel | None = None,
        retry: RetryPolicy | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        check_positive_int("n_workers", n_workers)
        if not workloads:
            raise ValueError("at least one model's workloads are required")
        self.accelerator = accelerator
        self.policy = policy
        if isinstance(faults, FaultModel):
            faults = FaultInjector(faults)
        if faults is not None and not isinstance(faults, FaultInjector):
            raise TypeError(
                f"faults must be a FaultInjector or FaultModel, got "
                f"{type(faults).__name__}"
            )
        self.injector = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.functional = dict(functional) if functional else {}
        if engines is not None and len(engines) != n_workers:
            raise ValueError(
                f"got {len(engines)} engines for {n_workers} workers"
            )
        if self.functional and engines is None:
            raise ValueError("functional serving requires per-worker engines")
        unknown = set(self.functional) - set(workloads)
        if unknown:
            raise ValueError(f"functional models not in workloads: {sorted(unknown)}")
        self.pool = WorkerPool(
            [
                AcceleratorWorker(
                    worker_id,
                    accelerator,
                    engine=None if engines is None else engines[worker_id],
                )
                for worker_id in range(n_workers)
            ],
            workloads,
        )
        # Ordered model list makes cross-queue tie-breaking deterministic.
        self._batchers = {
            name: MicroBatcher(name, policy) for name in workloads
        }
        self._ran = False
        self.obs = obs

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        requests: list[Request],
        duration_s: float,
        *,
        drain: bool = True,
        traffic_description: str = "trace",
    ) -> ServingReport:
        """Serve ``requests`` and reduce the run to a :class:`ServingReport`.

        ``requests`` need not be sorted: the loop takes them in arrival
        order, and requests with equal ``arrival_s`` arrive in list order.
        An arrival runs after every scheduled event (completion, fault,
        retry, deadline) at the same instant, so a worker freed at ``t`` is
        idle for an arrival at ``t``.

        ``drain=True`` keeps serving after the traffic window until every
        admitted request completes (the report horizon extends to the last
        completion); ``drain=False`` cuts the run at ``duration_s``,
        leaving late work counted as queued/in-flight backlog -- the
        saturation-detection mode.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if self._ran:
            # Workers and engines carry consumed state (busy time, RNG
            # streams); a fresh runtime keeps every run reproducible.
            raise RuntimeError("a ServingRuntime instance runs once; build a fresh one")
        self._ran = True
        for model in {request.model for request in requests}:
            if model not in self._batchers:
                raise KeyError(f"no workloads registered for model {model!r}")
        clock = SimulationClock()
        profiler = self.obs.profiler if self.obs is not None else None
        queue = profiler.instrument_queue() if profiler is not None else EventQueue()
        metrics = MetricsCollector()
        trace: list[TraceEvent] = []
        outputs: dict[int, int] = {}
        self._next_batch_id = 0
        self._last_completion_s = 0.0
        # Fault bookkeeping (touched only when an enabled injector is
        # attached, so the fault-free hot loop stays unchanged).
        self._faults_active = self.injector is not None and self.injector.enabled
        self._in_flight: dict[int, Batch] = {}
        self._lost_batches: set[int] = set()
        self._attempts: dict[int, int] = {}
        self._retried: set[int] = set()
        if self._faults_active:
            self.injector.schedule(queue, len(self.pool), duration_s)

        # Arrivals never enter the event queue: a cursor over the stably
        # sorted requests is merged against the queue head, and an arrival
        # goes first only when it is strictly earlier.
        arrivals = sorted(requests, key=attrgetter("arrival_s"))
        n_arrivals = len(arrivals)
        next_arrival = 0
        arrival_s = arrivals[0].arrival_s if arrivals else 0.0
        events_processed = 0
        if profiler is not None:
            profiler.start()
        wall_ns0 = time.perf_counter_ns()
        while True:
            event_s = queue.peek_time_s()
            if next_arrival < n_arrivals and (event_s is None or arrival_s < event_s):
                time_s = arrival_s
                payload = arrivals[next_arrival]
                next_arrival += 1
                if next_arrival < n_arrivals:
                    arrival_s = arrivals[next_arrival].arrival_s
            elif event_s is not None:
                time_s = event_s
                payload = None
            else:
                break
            if not drain and time_s > duration_s:
                break
            if payload is None:
                payload = queue.pop()[3]
            clock.advance_to(time_s)
            events_processed += 1
            if profiler is None:
                self._process_event(payload, clock, queue, metrics, trace, outputs)
            else:
                t0 = time.perf_counter_ns()
                self._process_event(payload, clock, queue, metrics, trace, outputs)
                kind = "ArrivalEvent" if isinstance(payload, Request) else type(payload).__name__
                profiler.record(kind, time.perf_counter_ns() - t0)
        wall_time_s = (time.perf_counter_ns() - wall_ns0) * 1e-9
        if profiler is not None:
            profiler.stop()

        pending = queue.drain()
        # A lost batch's stale CompletionEvent is not work in flight -- its
        # requests are already accounted as retried (queued) or failed.
        n_in_flight = sum(
            entry[3].batch.size
            for entry in pending
            if isinstance(entry[3], CompletionEvent)
            and entry[3].batch.batch_id not in self._lost_batches
        )
        # A retry still waiting out its backoff at the cutoff is queued
        # work: admitted, not in flight, not yet terminal.
        n_queued = sum(len(batcher) for batcher in self._batchers.values()) + sum(
            1 for entry in pending if isinstance(entry[3], RetryEvent)
        )
        # The drained horizon ends at the last *completion*, not the clock:
        # a stale deadline wake-up armed for an already-dispatched head may
        # tick the clock past the final result and must not stretch the
        # window throughput and utilisation are measured over.
        horizon_s = max(duration_s, self._last_completion_s) if drain else duration_s
        worker_power_w = self.pool.power_w_per_worker
        # Homogeneous fleets (the only kind this runtime builds) report the
        # exact per-worker power; a heterogeneous pool would fall back to
        # the fleet mean, with worker_power_w carrying the truth.
        power_w = (
            worker_power_w[0]
            if len(set(worker_power_w)) == 1
            else sum(worker_power_w) / len(worker_power_w)
        )
        report = metrics.finalize(
            accelerator=self.accelerator.name,
            models=tuple(self._batchers),
            traffic=traffic_description,
            policy=self.policy.describe(),
            n_workers=len(self.pool),
            power_w=power_w,
            duration_s=duration_s,
            horizon_s=horizon_s,
            n_queued_end=n_queued,
            n_in_flight_end=n_in_flight,
            worker_busy_s=self.pool.busy_s_per_worker,
            peak_queue_depth=max(
                batcher.peak_depth for batcher in self._batchers.values()
            ),
            event_trace=tuple(trace),
            outputs=outputs if self.functional else None,
            faults=self.injector.describe() if self._faults_active else "none",
            worker_power_w=worker_power_w,
            worker_downtime_s=self.pool.downtime_s_per_worker(horizon_s),
            events_processed=events_processed,
            wall_time_s=wall_time_s,
        )
        if self.obs is not None:
            _observe(self.obs, report, requests, self.retry.backoff_s)
        return report

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _process_event(self, payload, clock, queue, metrics, trace, outputs) -> None:
        """Dispatch one arrival or popped event to its handler (the loop body)."""
        if isinstance(payload, Request):
            self._handle_arrival(payload, clock, queue, metrics, trace)
        elif isinstance(payload, CompletionEvent):
            self._handle_completion(
                payload.batch, clock, queue, metrics, trace, outputs
            )
        elif isinstance(payload, DeadlineEvent):
            self._handle_deadline(payload, clock, queue, metrics, trace, outputs)
        elif isinstance(payload, WorkerDownEvent):
            self._handle_worker_down(payload, clock, queue, metrics, trace)
        elif isinstance(payload, WorkerUpEvent):
            self._handle_worker_up(payload, clock, queue, trace)
        elif isinstance(payload, ThrottleStartEvent):
            self._handle_throttle_start(payload, clock, trace)
        elif isinstance(payload, ThrottleEndEvent):
            self._handle_throttle_end(payload, clock, trace)
        elif isinstance(payload, RetryEvent):
            self._handle_retry(payload, clock, queue, trace)
        else:  # pragma: no cover - the loop schedules only these kinds
            raise TypeError(f"unknown event payload {payload!r}")

    def _handle_arrival(self, request, clock, queue, metrics, trace) -> None:
        metrics.record_arrival(request)
        now = clock.now_s
        batcher = self._batchers[request.model]
        if not batcher.offer(request, now):
            metrics.record_shed(request)
            trace.append(_entry(now, "shed", request.request_id))
            return
        trace.append(_entry(now, "arrival", request.request_id))
        depth = len(batcher)
        if depth == 1:
            # New queue head: arm its max-wait deadline wake-up.
            queue.push(
                batcher.head_deadline_s,
                DEADLINE_PRIORITY,
                DeadlineEvent(request.model, request.request_id),
            )
        if depth == self.policy.max_batch_size:
            # Re-arbitrate only when this arrival filled a batch.  Every
            # other handler leaves no legal (batch, idle worker) pair behind
            # it, and every same-instant completion, fault, retry and
            # deadline has already run, so an arrival that leaves its queue
            # short of a full batch cannot make a dispatch legal.
            self._dispatch_ready(clock, queue, trace)

    def _handle_deadline(self, event, clock, queue, metrics, trace, outputs) -> None:
        # Advisory wake-up: the armed head may already have dispatched in a
        # full batch, so only act when the queue really holds a due batch.
        batcher = self._batchers[event.model]
        if batcher.due(clock.now_s):
            self._dispatch_ready(clock, queue, trace)

    def _handle_completion(self, batch, clock, queue, metrics, trace, outputs) -> None:
        n_retried = 0
        if self._faults_active:
            if batch.batch_id in self._lost_batches:
                # The worker crashed mid-flight; the batch produced nothing
                # and its requests already flowed into retry/fail.
                self._lost_batches.discard(batch.batch_id)
                return
            self._in_flight.pop(batch.worker_id, None)
            if self._retried:
                n_retried = sum(
                    1
                    for request in batch.requests
                    if request.request_id in self._retried
                )
        metrics.record_batch(batch, n_retried)
        self.pool.workers[batch.worker_id].record_completion(batch.latency_s, batch.size)
        self._last_completion_s = clock.now_s
        trace.append(_entry(clock.now_s, "complete", batch.batch_id))
        functional = self.functional.get(batch.model)
        if functional is not None:
            model, inputs = functional
            worker = self.pool.workers[batch.worker_id]
            indices = [request.input_index for request in batch.requests]
            if any(index is None for index in indices):
                raise ValueError(
                    f"functional model {batch.model!r} received requests "
                    "without input_index"
                )
            predictions = worker.predict(model, inputs[indices])
            for request, prediction in zip(batch.requests, predictions):
                outputs[request.request_id] = int(prediction)
        self._dispatch_ready(clock, queue, trace)

    # ------------------------------------------------------------------ #
    # Fault handlers
    # ------------------------------------------------------------------ #
    def _handle_worker_down(self, event, clock, queue, metrics, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.state == "down":
            # A drain landing during an outage makes it permanent; a crash
            # scheduled before the drain existed is a harmless no-op.
            if event.cause == "drain":
                worker.drained = True
            return
        worker.mark_down(clock.now_s, drained=event.cause == "drain")
        trace.append(
            _entry(clock.now_s, "worker_down", event.worker_id, event.cause)
        )
        batch = self._in_flight.pop(event.worker_id, None)
        if batch is None:
            return
        # The in-flight batch dies with the worker: its completion event is
        # disarmed, the partial busy time/energy it burned is real (wasted)
        # fleet cost, and its requests retry or terminally fail.
        self._lost_batches.add(batch.batch_id)
        elapsed_s = clock.now_s - batch.dispatch_s
        worker.record_lost(elapsed_s, clock.now_s)
        metrics.record_lost_batch(
            batch,
            wasted_busy_s=elapsed_s,
            wasted_energy_j=worker.power_w * elapsed_s,
        )
        trace.append(
            _entry(clock.now_s, "batch_lost", batch.batch_id, worker.worker_id, batch.size)
        )
        self._retry_or_fail(batch, clock, queue, metrics, trace)
        # Every synchronous retry is back in its queue now; a survivor may
        # be idle, and a re-formed full batch must not wait for a deadline.
        self._dispatch_ready(clock, queue, trace)

    def _handle_worker_up(self, event, clock, queue, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.state != "down" or not worker.mark_up(clock.now_s):
            return  # stale repair: the worker was drained in the meantime
        trace.append(_entry(clock.now_s, "worker_up", event.worker_id))
        self._dispatch_ready(clock, queue, trace)

    def _handle_throttle_start(self, event, clock, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.throttle(event.derate, event.episode):
            trace.append(_entry(clock.now_s, "throttle_start", event.worker_id, event.derate))

    def _handle_throttle_end(self, event, clock, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.unthrottle(event.episode):
            trace.append(_entry(clock.now_s, "throttle_end", event.worker_id))

    def _handle_retry(self, event, clock, queue, trace) -> None:
        # Re-admission after backoff.  A *due* head waits for the deadline
        # wake-up armed by _requeue_front -- it fires at this same instant
        # but *after* every same-time retry (RETRY_PRIORITY beats
        # DEADLINE_PRIORITY), so a lost batch re-forms as one batch rather
        # than dribbling out one single-request dispatch per retry event.
        # A re-formed *full* batch, however, dispatches immediately: full
        # batches never wait, and no deadline wake-up would catch one whose
        # head is not yet due.
        trace.append(_entry(clock.now_s, "readmit", event.request.request_id))
        self._requeue_front(event.request, clock, queue)
        if self._batchers[event.request.model].has_full_batch():
            self._dispatch_ready(clock, queue, trace)

    def _retry_or_fail(self, batch, clock, queue, metrics, trace) -> None:
        """Route every request of a lost batch into retry or terminal failure.

        Requests are walked in *reverse* batch order: each retried request
        re-enters at the queue head, so the original FIFO order survives
        the round trip.
        """
        backoff_s = self.retry.backoff_s
        for request in reversed(batch.requests):
            attempts = self._attempts.get(request.request_id, 1)
            if attempts >= self.retry.max_attempts:
                metrics.record_failed(request, clock.now_s, attempts)
                trace.append(
                    _entry(clock.now_s, "failed", request.request_id, attempts)
                )
                continue
            metrics.record_retry(request)
            self._retried.add(request.request_id)
            trace.append(
                _entry(clock.now_s, "retry", request.request_id, attempts)
            )
            if backoff_s > 0:
                queue.push(
                    clock.now_s + backoff_s, RETRY_PRIORITY, RetryEvent(request)
                )
            else:
                self._requeue_front(request, clock, queue)

    def _requeue_front(self, request, clock, queue) -> None:
        batcher = self._batchers[request.model]
        batcher.requeue_front(request)
        # The retried request is the new queue head and its original
        # max-wait deadline is long past, so the wake-up fires "now" --
        # giving it (and everything queued behind it) immediate dispatch
        # priority as soon as a worker is free.
        queue.push(
            max(clock.now_s, batcher.head_deadline_s),
            DEADLINE_PRIORITY,
            DeadlineEvent(request.model, request.request_id),
        )

    # ------------------------------------------------------------------ #
    # Dispatch arbitration
    # ------------------------------------------------------------------ #
    def _dispatch_ready(self, clock, queue, trace) -> None:
        """Dispatch every (batch, idle worker) pairing currently legal."""
        now = clock.now_s
        while True:
            worker = self.pool.idle_worker(now)
            if worker is None:
                return
            candidates = [
                batcher
                for batcher in self._batchers.values()
                if batcher.dispatchable(now)
            ]
            if not candidates:
                return
            batcher = min(
                candidates, key=lambda b: (b.head.arrival_s, b.model)
            )
            self._dispatch_batch(batcher, worker, clock, queue, trace)

    def _dispatch_batch(self, batcher, worker, clock, queue, trace) -> None:
        now = clock.now_s
        requests, deadline_triggered = batcher.pop_batch(now)
        latency_s = self.pool.batch_latency_s(worker, batcher.model, len(requests))
        if worker.derate != 1.0:
            # Thermal throttle: the episode's derate is priced into batches
            # *dispatched* during it (in-flight batches keep their price).
            latency_s *= worker.derate
        batch = Batch(
            batch_id=self._next_batch_id,
            model=batcher.model,
            requests=requests,
            dispatch_s=now,
            worker_id=worker.worker_id,
            latency_s=latency_s,
            energy_j=worker.batch_energy_j(latency_s),
            deadline_triggered=deadline_triggered,
        )
        self._next_batch_id += 1
        worker.dispatch(latency_s, now)
        if self._faults_active:
            self._in_flight[worker.worker_id] = batch
            for request in requests:
                self._attempts[request.request_id] = (
                    self._attempts.get(request.request_id, 0) + 1
                )
        queue.push(batch.completion_s, COMPLETION_PRIORITY, CompletionEvent(batch))
        trace.append(
            _entry(now, "dispatch", batch.batch_id, worker.worker_id, batch.size, batch.model)
        )
        head = batcher.head
        if head is not None:
            # Re-arm the wake-up for the new queue head (it may already be
            # past due, in which case the event fires immediately "now").
            queue.push(
                max(now, batcher.head_deadline_s),
                DEADLINE_PRIORITY,
                DeadlineEvent(batcher.model, head.request_id),
            )


def _observe(
    obs: "Observability",
    report: ServingReport,
    requests: list[Request],
    backoff_s: float,
) -> None:
    """Project a finished run onto ``obs``'s metrics registry and tracer.

    The metrics and the Perfetto trace are pure functions of the report and
    the served requests, so enabling them cannot change a simulated result.
    One pass over ``report.event_trace`` replays each model's queue depth
    (an admitted arrival, a zero-backoff ``retry`` and a ``readmit`` add
    one; a dispatch removes its batch) and emits every trace event at the
    entry that produced it, so the export's ``(ts, emission order)`` sort
    reproduces the loop's own order.  Simulated seconds are the trace
    timebase; the runtime is thread 0 and worker ``w`` is thread ``w + 1``.

    Throttle and downtime episodes are emitted as ``X`` spans when they
    close (at the matching end event, or at the horizon): a crash during a
    throttle interleaves the two, which nested ``B``/``E`` spans on one
    thread cannot represent.
    """
    models = {request.request_id: request.model for request in requests}
    depth = dict.fromkeys(report.models, 0)
    tracer = obs.tracer
    if tracer is not None:
        pid = tracer.new_process(
            f"serve {report.accelerator} x{report.n_workers}: {report.traffic}"
        )
        tracer.thread_name(pid, 0, "runtime")
        for worker_id in range(report.n_workers):
            tracer.thread_name(pid, worker_id + 1, f"worker-{worker_id}")
        batches = {batch.batch_id: batch for batch in report.batches}
        dispatched: dict[int, tuple[float, str]] = {}
        throttled: dict[int, tuple[float, float]] = {}
        down: dict[int, tuple[float, str]] = {}
    for now_s, kind, *ids in report.event_trace:
        model = None
        if kind == "dispatch":
            model = ids[3]
            depth[model] -= ids[2]
        elif kind in ("arrival", "readmit") or (kind == "retry" and backoff_s == 0):
            model = models[ids[0]]
            depth[model] += 1
        if tracer is None:
            continue
        if kind == "shed":
            tracer.instant(
                now_s, kind, pid, 0, args={"request": ids[0], "model": models[ids[0]]}
            )
        elif kind in ("retry", "failed"):
            tracer.instant(
                now_s, kind, pid, 0, args={"request": ids[0], "attempts": ids[1]}
            )
        elif kind == "dispatch":
            dispatched[ids[0]] = (now_s, model)
        elif kind == "complete":
            batch = batches[ids[0]]
            tid = batch.worker_id + 1
            tracer.complete(
                batch.dispatch_s, batch.latency_s,
                f"{batch.model} x{batch.size}", pid, tid,
                args={
                    "batch": batch.batch_id,
                    "deadline_triggered": batch.deadline_triggered,
                    "energy_j": batch.energy_j,
                },
            )
            for request in batch.requests:
                tracer.async_span(
                    request.arrival_s, batch.dispatch_s, "queue", "request",
                    request.request_id, pid,
                )
                tracer.async_span(
                    batch.dispatch_s, batch.completion_s, "service", "request",
                    request.request_id, pid, tid,
                )
        elif kind == "batch_lost":
            batch_id, worker_id, size = ids
            dispatch_s, batch_model = dispatched[batch_id]
            tracer.complete(
                dispatch_s, now_s - dispatch_s, f"{batch_model} x{size} (lost)",
                pid, worker_id + 1, args={"batch": batch_id},
            )
        elif kind == "throttle_start":
            throttled[ids[0]] = (now_s, ids[1])
        elif kind in ("throttle_end", "worker_down"):
            # A crash cancels the worker's throttle episode too.
            episode = throttled.pop(ids[0], None)
            if episode is not None:
                start_s, derate = episode
                tracer.complete(
                    start_s, now_s - start_s, f"throttle x{derate:g}", pid, ids[0] + 1
                )
            if kind == "worker_down":
                down[ids[0]] = (now_s, ids[1])
                tracer.instant(now_s, ids[1], pid, ids[0] + 1)
        elif kind == "worker_up":
            start_s, cause = down.pop(ids[0])
            tracer.complete(start_s, now_s - start_s, f"down ({cause})", pid, ids[0] + 1)
        if model is not None:
            tracer.counter(now_s, f"queue:{model}", pid, 0, {"depth": depth[model]})
    if tracer is not None:
        horizon_s = report.horizon_s
        for episodes, label in ((throttled, "throttle x{:g}"), (down, "down ({})")):
            for worker_id, (start_s, detail) in sorted(episodes.items()):
                tracer.complete(
                    start_s, max(horizon_s, start_s) - start_s,
                    label.format(detail), pid, worker_id + 1,
                )

    registry = obs.metrics
    if registry is None:
        return
    labels = obs.label(accelerator=report.accelerator)
    for name, value, description in (
        ("arrivals", report.n_arrivals, "requests offered"),
        ("shed", report.n_shed, "requests rejected by admission"),
        ("completed", report.n_completed, "requests served"),
        ("batches", len(report.batches), "batches completed"),
        ("retries", report.n_retries, "crash-lost requests requeued"),
        ("failures", report.n_failed, "requests terminally failed"),
        ("lost_batches", report.n_lost_batches, "batches lost to crashes"),
        ("events_processed", report.events_processed,
         "discrete events the loop processed"),
    ):
        registry.counter(f"serve.runtime.{name}", labels, help=description).inc(value)
    latency = registry.histogram(
        "serve.runtime.latency_s", labels,
        help="end-to-end request latency (simulated seconds)",
    )
    queue_wait = registry.histogram(
        "serve.runtime.queue_wait_s", labels,
        help="admission-queue wait before dispatch (simulated seconds)",
    )
    for record in report.requests:
        latency.observe(record.latency_s)
        queue_wait.observe(record.queue_wait_s)
    for model, final_depth in depth.items():
        registry.gauge(
            "serve.runtime.queue_depth", {**labels, "model": model},
            help="requests waiting in the model's admission queue",
        ).set(final_depth)
    registry.gauge(
        "serve.runtime.wall_time_s", labels,
        help="wall-clock seconds the event loop took",
    ).inc(report.wall_time_s)
    registry.gauge(
        "serve.runtime.peak_queue_depth", labels,
        help="deepest any admission queue got",
    ).set(report.peak_queue_depth)


def serve_trace(
    model: Sequential | SiameseModel,
    accelerator: PhotonicAccelerator,
    traffic: TrafficProcess,
    policy: BatchPolicy,
    *,
    n_workers: int = 1,
    seed: int = 0,
    drain: bool = True,
    inputs: np.ndarray | None = None,
    noise_stack: NoiseStack | None = None,
    activation_bits: int | None = None,
    faults: FaultInjector | FaultModel | None = None,
    retry: RetryPolicy | None = None,
    obs: "Observability | None" = None,
) -> ServingReport:
    """Serve one model's simulated traffic and return the full report.

    This is the top-level serving API: it materialises ``traffic`` with the
    given ``seed``, builds a fleet of ``n_workers`` simulated accelerators,
    runs the discrete-event loop to completion (arrivals always drain), and
    reduces everything to a :class:`~repro.serve.metrics.ServingReport`.

    Parameters
    ----------
    model:
        The served DNN; only its layer workloads are needed unless
        ``inputs`` is given.
    accelerator:
        Analytic accelerator model each fleet worker wraps.
    traffic:
        Seeded arrival process (:mod:`repro.serve.traffic`).
    policy:
        Micro-batching policy (:class:`~repro.serve.batcher.BatchPolicy`).
    n_workers:
        Fleet size.
    seed:
        Master seed: drives the traffic draw and offsets each worker's
        inference-engine seed (worker ``w`` gets ``seed + w``), so one
        integer reproduces the entire scenario.
    drain:
        ``True`` serves every admitted request to completion; ``False``
        cuts at the traffic window and reports the backlog (saturation
        probing).
    inputs:
        Optional input dataset; when given (requires a
        :class:`~repro.nn.model.Sequential` model), requests cycle through
        it and the report's ``outputs`` maps request ids to predicted
        classes computed through each worker's noise stack.
    noise_stack:
        Noise stack for the functional path (default: noiseless).
    activation_bits:
        Activation resolution of the functional path.
    faults:
        Optional fault injection.  A bare
        :class:`~repro.serve.faults.FaultModel` is wrapped in a
        :class:`~repro.serve.faults.FaultInjector` seeded with the master
        ``seed``, so one integer still reproduces the entire scenario,
        faults included; pass an injector directly to pin an independent
        fault seed.
    retry:
        Retry policy for requests lost to crashes (defaults apply when
        faults are active).
    obs:
        Optional :class:`~repro.obs.Observability` bundle (metrics /
        tracing / profiling); guaranteed not to change the report.
    """
    name = model.name if hasattr(model, "name") else type(model).__name__
    workloads = {name: trace_model(model)}
    functional = None
    engines = None
    if inputs is not None:
        if not isinstance(model, Sequential):
            raise TypeError(
                "functional serving needs a Sequential model, got "
                f"{type(model).__name__}"
            )
        inputs = np.asarray(inputs)
        functional = {name: (model, inputs)}
        stack = noise_stack if noise_stack is not None else NoiseStack(())
        engines = [
            PhotonicInferenceEngine.from_stack(
                stack, activation_bits=activation_bits, seed=seed + worker_id
            )
            for worker_id in range(n_workers)
        ]
    if isinstance(faults, FaultModel):
        faults = FaultInjector(faults, seed=seed)
    runtime = ServingRuntime(
        workloads,
        accelerator,
        policy,
        n_workers=n_workers,
        functional=functional,
        engines=engines,
        faults=faults,
        retry=retry,
        obs=obs,
    )
    requests = requests_from_traffic(
        traffic,
        name,
        seed,
        n_inputs=None if inputs is None else inputs.shape[0],
    )
    return runtime.run(
        requests,
        traffic.duration_s,
        drain=drain,
        traffic_description=traffic.describe(),
    )
