"""The serving runtime: traffic -> queues -> micro-batches -> fleet.

:class:`ServingRuntime` is the deterministic discrete-event loop composing
the other :mod:`repro.serve` pieces: seeded traffic produces
:class:`~repro.serve.events.RequestColumns` of arrivals, one FIFO
:class:`~repro.serve.batcher.MicroBatcher` per model forms dynamic
micro-batches under a :class:`~repro.serve.batcher.BatchPolicy`, and a
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

Arrivals are admitted in *spans*.  Between two scheduled events (a
completion, deadline, fault or retry) only three kinds of arrival change
the state of the loop: one that makes its queue non-empty (it arms the
head's deadline), one that fills a batch (it re-arbitrates), and one that
brings its queue to ``max_queue_depth`` (every later arrival of that model
is shed until the next scheduled event).  The loop finds the next such
arrival with ``bisect`` over each model's arrival rows and offers
everything before it to the model's batcher as one span, so its work is
per batch, not per request.

With a :class:`~repro.serve.faults.FaultInjector` attached, worker
lifecycle events (crash/repair, thermal throttle, permanent drain) join the
same event queue: a crash loses the in-flight batch (its requests retry
under the :class:`~repro.serve.faults.RetryPolicy` or terminally fail), a
throttled worker's dispatches are priced at its derate, and a down worker
is skipped by dispatch arbitration until repaired.  Retried requests wait
in a small deque ahead of their queue's ranges.

:func:`serve_trace` is the one-call entry point for the common single-model
scenario; drive :class:`ServingRuntime` directly for multi-model fleets.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Iterable, Mapping
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
    CompletionEvent,
    DeadlineEvent,
    Request,
    RequestColumns,
    RetryEvent,
    ThrottleEndEvent,
    ThrottleStartEvent,
    WorkerDownEvent,
    WorkerUpEvent,
)
from repro.serve.faults import FaultInjector, FaultModel, RetryPolicy
from repro.serve.metrics import FailureRecord, MetricsCollector, ServingReport
from repro.serve.traffic import TrafficProcess
from repro.serve.workers import AcceleratorWorker, WorkerPool
from repro.sim.noise import NoiseStack
from repro.sim.photonic_inference import EnsembleInferenceEngine
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs uses clock)
    from repro.obs import Observability


def requests_from_traffic(
    traffic: TrafficProcess,
    model: str,
    seed: int = 0,
    *,
    start_id: int = 0,
    n_inputs: int | None = None,
) -> RequestColumns:
    """Materialise a traffic process into :class:`RequestColumns`.

    Request ids run from ``start_id`` in arrival order.  ``n_inputs``
    attaches a dataset index to each request (round-robin over the dataset)
    so workers with inference engines can compute functional outputs.

    Window-edge rejection happens here, at materialisation: an arrival at
    or beyond ``traffic.duration_s`` is a contract violation of the traffic
    process itself, so it raises immediately with the process named, rather
    than surfacing later as an obscure event-loop error.
    """
    times = np.asarray(traffic.arrival_times(np.random.default_rng(seed)), dtype=float)
    late = times[times >= traffic.duration_s]
    if late.size:
        raise ValueError(
            f"traffic process {traffic.describe()} produced an arrival "
            f"at {float(late[0])}s, at or beyond its {traffic.duration_s}s window"
        )
    request_id = np.arange(start_id, start_id + times.size, dtype=np.int64)
    return RequestColumns(
        request_id,
        times,
        np.zeros(times.size, dtype=np.intp),
        np.full(times.size, -1) if n_inputs is None else request_id % n_inputs,
        (model,),
    )


class ServingRuntime:
    """Deterministic discrete-event serving loop over a simulated fleet.

    Parameters
    ----------
    workloads:
        Per-model layer workloads (``name -> model.workloads()``); every
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
        Per-worker one-member
        :class:`~repro.sim.photonic_inference.EnsembleInferenceEngine`
        objects (length ``n_workers``); required only when ``functional``
        models are served.  Seeding each worker's engine differently models
        per-device noise diversity across the fleet.  A member seeded with
        an ``np.random.Generator`` advances that stream once per completed
        batch, so every batch draws a fresh weight realisation; an integer
        seed would replay the same realisation on every batch.
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
        write only the run record; the ``serve.runtime.*`` metrics and the
        Perfetto timeline (simulated seconds = trace microseconds; one
        "thread" per worker) are projected from the finished report after
        the loop, so they cannot change a simulated result.  The profiler
        is the one pillar inside the loop: it times each span of arrivals
        and each event handler on the wall clock.
    """

    def __init__(
        self,
        workloads: Mapping[str, list],
        accelerator: PhotonicAccelerator,
        policy: BatchPolicy,
        *,
        n_workers: int = 1,
        functional: Mapping[str, tuple[Sequential, np.ndarray]] | None = None,
        engines: list[EnsembleInferenceEngine] | None = None,
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
        self._models = tuple(workloads)
        self._handlers = {
            CompletionEvent: self._handle_completion,
            DeadlineEvent: self._handle_deadline,
            WorkerDownEvent: self._handle_worker_down,
            WorkerUpEvent: self._handle_worker_up,
            ThrottleStartEvent: self._handle_throttle_start,
            ThrottleEndEvent: self._handle_throttle_end,
            RetryEvent: self._handle_retry,
        }
        self._ran = False
        self.obs = obs

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        requests: RequestColumns | Iterable[Request],
        duration_s: float,
        *,
        drain: bool = True,
        traffic_description: str = "trace",
    ) -> ServingReport:
        """Serve ``requests`` and reduce the run to a :class:`ServingReport`.

        ``requests`` are :class:`RequestColumns` or any iterable of
        :class:`Request` (converted to columns first); they need not be
        sorted.  The loop takes them in arrival order, and requests with
        equal ``arrival_s`` arrive in input order.  An arrival runs after
        every scheduled event (completion, fault, retry, deadline) at the
        same instant, so a worker freed at ``t`` is idle for an arrival at
        ``t``.

        Arrivals are admitted in spans: the loop jumps its arrival cursor
        to the next arrival that arms a deadline, fills a batch or fills
        its queue, or to the next scheduled event, whichever comes first,
        and admits (or, at a full queue, sheds) every arrival before it at
        once.  Each arrival still counts as one processed event.

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
        columns = self._admission_order(RequestColumns.from_requests(requests))
        n_requests = len(columns)
        arrival_s = columns.arrival_s
        arrivals = self._arrivals = arrival_s.tolist()
        self._request_id = columns.request_id
        self._input_index = columns.input_index
        queues = self._queues = [
            MicroBatcher(name, self.policy, arrivals, np.flatnonzero(columns.model == code))
            for code, name in enumerate(self._models)
        ]
        self._queue_of = {queue.model: queue for queue in queues}
        self._row_model = columns.model
        clock = SimulationClock()
        profiler = self.obs.profiler if self.obs is not None else None
        queue = self._queue = profiler.instrument_queue() if profiler is not None else EventQueue()
        metrics = self._metrics = MetricsCollector()
        self._trace_cursor = metrics.trace_cursor
        self._trace_entries = metrics.trace_entries
        self._outputs: dict[int, int] = {}
        self._last_completion_s = 0.0
        self._cursor = 0
        # Fault bookkeeping (touched only when an enabled injector is
        # attached).
        self._faults_active = self.injector is not None and self.injector.enabled
        self._in_flight: dict[int, int] = {}
        self._lost_batches: set[int] = set()
        self._attempts = np.zeros(n_requests, dtype=np.intp)
        self._retried = np.zeros(n_requests, dtype=bool)
        if self._faults_active:
            self.injector.schedule(queue, len(self.pool), duration_s)

        shed = np.zeros(n_requests, dtype=bool)
        max_batch_size = self.policy.max_batch_size
        max_wait_s = self.policy.max_wait_s
        handlers = self._handlers
        # Under drain=False nothing after the window runs, arrivals included.
        last_arrival = (
            n_requests if drain else int(arrival_s.searchsorted(duration_s, side="right"))
        )
        # The heap is read directly: its head is looked at once per step.
        heap = queue._heap
        cursor = events_processed = 0
        if profiler is not None:
            profiler.start()
        wall_ns0 = time.perf_counter_ns()
        while True:
            event_s = heap[0][0] if heap else None
            if event_s is None:
                limit = last_arrival
            elif cursor < last_arrival and arrivals[cursor] < event_s:
                limit = bisect_left(arrivals, event_s, cursor, last_arrival)
            else:
                limit = cursor
            if cursor < limit:
                # A span: every arrival strictly before the next event, up
                # to and including the first one that changes the loop's
                # state.
                span_ns0 = time.perf_counter_ns() if profiler is not None else 0
                stop, changed, changed_count = limit, None, 0
                for model_queue in queues:
                    count = model_queue.arrivals_until_change()
                    if count is not None:
                        index = model_queue.n_offered + count - 1
                        positions = model_queue.positions
                        if index < len(positions) and positions[index] < stop:
                            stop, changed, changed_count = positions[index], model_queue, count
                span_start = cursor
                for model_queue in queues:
                    if model_queue is changed:
                        count = changed_count
                    else:
                        offered = model_queue.n_offered
                        count = bisect_left(model_queue.positions, stop, offered) - offered
                    if count and not model_queue.offer(count):
                        offered = model_queue.n_offered
                        shed[model_queue.rows[offered - count:offered]] = True
                cursor = stop
                if changed is not None:
                    now = clock.advance_to(arrivals[cursor])
                    cursor += 1
                    self._cursor = cursor
                    if changed.depth == 1:
                        # New queue head: arm its max-wait deadline wake-up.
                        queue.push(
                            now + max_wait_s, DEADLINE_PRIORITY,
                            DeadlineEvent(changed.model, self._request_id.item(cursor - 1)),
                        )
                    if changed.depth == max_batch_size:
                        # Every same-instant completion, fault, retry and
                        # deadline has already run and left no legal
                        # (batch, idle worker) pair behind, so only an
                        # arrival that fills a batch can make one.
                        self._dispatch_ready(now)
                self._cursor = cursor
                events_processed += cursor - span_start
                if profiler is not None:
                    profiler.record(
                        "ArrivalEvent", time.perf_counter_ns() - span_ns0, cursor - span_start
                    )
                continue
            if event_s is None or (not drain and event_s > duration_s):
                break
            payload = queue.pop()[3]
            now = clock.advance_to(event_s)
            events_processed += 1
            if profiler is None:
                handlers[type(payload)](payload, now)
            else:
                t0 = time.perf_counter_ns()
                handlers[type(payload)](payload, now)
                profiler.record(type(payload).__name__, time.perf_counter_ns() - t0)
        wall_time_s = (time.perf_counter_ns() - wall_ns0) * 1e-9
        if profiler is not None:
            profiler.stop()

        pending = queue.drain()
        # A lost batch's stale CompletionEvent is not work in flight -- its
        # requests are already accounted as retried (queued) or failed.
        n_in_flight = sum(
            metrics.members[entry[3].batch_id].size
            for entry in pending
            if isinstance(entry[3], CompletionEvent)
            and entry[3].batch_id not in self._lost_batches
        )
        # A retry still waiting out its backoff at the cutoff is queued
        # work: admitted, not in flight, not yet terminal.
        n_queued = sum(model_queue.depth for model_queue in queues) + sum(
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
            requests=columns.take(slice(0, cursor)),
            shed=shed[:cursor],
            accelerator=self.accelerator.name,
            models=self._models,
            traffic=traffic_description,
            policy=self.policy.describe(),
            n_workers=len(self.pool),
            power_w=power_w,
            duration_s=duration_s,
            horizon_s=horizon_s,
            n_queued_end=n_queued,
            n_in_flight_end=n_in_flight,
            worker_busy_s=self.pool.busy_s_per_worker,
            peak_queue_depth=max(model_queue.peak_depth for model_queue in queues),
            outputs=self._outputs if self.functional else None,
            faults=self.injector.describe() if self._faults_active else "none",
            worker_power_w=worker_power_w,
            worker_downtime_s=self.pool.downtime_s_per_worker(horizon_s),
            events_processed=events_processed,
            wall_time_s=wall_time_s,
        )
        if self.obs is not None:
            _observe(self.obs, report, self.retry.backoff_s)
        return report

    def _admission_order(self, columns: RequestColumns) -> RequestColumns:
        """``columns`` stably sorted by arrival, coded by this runtime's models."""
        for code in np.unique(columns.model).tolist():
            if columns.models[code] not in self._models:
                raise KeyError(f"no workloads registered for model {columns.models[code]!r}")
        order = np.argsort(columns.arrival_s, kind="stable")
        return columns.recoded(self._models).take(order)

    def _trace(self, *entry) -> None:
        """Write one non-arrival trace entry at the current arrival cursor."""
        self._trace_cursor.append(self._cursor)
        self._trace_entries.append(entry)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _handle_deadline(self, event, now) -> None:
        # Advisory wake-up: the armed head may already have dispatched in a
        # full batch, so only act when the queue really holds a due batch.
        if self._queue_of[event.model].due(now):
            self._dispatch_ready(now)

    def _handle_completion(self, event, now) -> None:
        batch_id = event.batch_id
        metrics = self._metrics
        members = metrics.members[batch_id]
        worker = self.pool.workers[metrics.batch_worker[batch_id]]
        n_retried = 0
        if self._faults_active:
            if batch_id in self._lost_batches:
                # The worker crashed mid-flight; the batch produced nothing
                # and its requests already flowed into retry/fail.
                self._lost_batches.discard(batch_id)
                return
            self._in_flight.pop(worker.worker_id, None)
            if metrics.n_retries:
                n_retried = int(np.count_nonzero(self._retried[members]))
        metrics.record_completion(batch_id, n_retried)
        worker.record_completion(metrics.latency_s[batch_id], members.size)
        self._last_completion_s = now
        self._trace(now, "complete", batch_id)
        model = self._models[metrics.batch_model[batch_id]]
        functional = self.functional.get(model) if self.functional else None
        if functional is not None:
            model_object, inputs = functional
            indices = self._input_index[members]
            if np.any(indices < 0):
                raise ValueError(
                    f"functional model {model!r} received requests "
                    "without input_index"
                )
            predictions = worker.predict(model_object, inputs[indices])
            for request_id, prediction in zip(
                self._request_id[members].tolist(), predictions.tolist()
            ):
                self._outputs[request_id] = int(prediction)
        self._dispatch_ready(now)

    # ------------------------------------------------------------------ #
    # Fault handlers
    # ------------------------------------------------------------------ #
    def _handle_worker_down(self, event, now) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.state == "down":
            # A drain landing during an outage makes it permanent; a crash
            # scheduled before the drain existed is a harmless no-op.
            if event.cause == "drain":
                worker.drained = True
            return
        worker.mark_down(now, drained=event.cause == "drain")
        self._trace(now, "worker_down", event.worker_id, event.cause)
        batch_id = self._in_flight.pop(event.worker_id, None)
        if batch_id is None:
            return
        # The in-flight batch dies with the worker: its completion event is
        # disarmed, the partial busy time/energy it burned is real (wasted)
        # fleet cost, and its requests retry or terminally fail.
        metrics = self._metrics
        members = metrics.members[batch_id]
        self._lost_batches.add(batch_id)
        elapsed_s = now - metrics.dispatch_s[batch_id]
        worker.record_lost(elapsed_s, now)
        metrics.record_lost_batch(
            wasted_busy_s=elapsed_s, wasted_energy_j=worker.power_w * elapsed_s
        )
        self._trace(now, "batch_lost", batch_id, worker.worker_id, members.size)
        self._retry_or_fail(members, now)
        # Every synchronous retry is back in its queue now; a survivor may
        # be idle, and a re-formed full batch must not wait for a deadline.
        self._dispatch_ready(now)

    def _handle_worker_up(self, event, now) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.state != "down" or not worker.mark_up(now):
            return  # stale repair: the worker was drained in the meantime
        self._trace(now, "worker_up", event.worker_id)
        self._dispatch_ready(now)

    def _handle_throttle_start(self, event, now) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.throttle(event.derate, event.episode):
            self._trace(now, "throttle_start", event.worker_id, event.derate)

    def _handle_throttle_end(self, event, now) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.unthrottle(event.episode):
            self._trace(now, "throttle_end", event.worker_id)

    def _handle_retry(self, event, now) -> None:
        # Re-admission after backoff.  A *due* head waits for the deadline
        # wake-up armed by _requeue_front -- it fires at this same instant
        # but *after* every same-time retry (RETRY_PRIORITY beats
        # DEADLINE_PRIORITY), so a lost batch re-forms as one batch rather
        # than dribbling out one single-request dispatch per retry event.
        # A re-formed *full* batch, however, dispatches immediately: full
        # batches never wait, and no deadline wake-up would catch one whose
        # head is not yet due.
        self._trace(now, "readmit", self._request_id.item(event.row))
        if self._requeue_front(event.row, now).has_full_batch():
            self._dispatch_ready(now)

    def _retry_or_fail(self, members: np.ndarray, now: float) -> None:
        """Route every request of a lost batch into retry or terminal failure.

        Requests are walked in *reverse* batch order: each retried request
        re-enters at the queue head, so the original FIFO order survives
        the round trip.
        """
        backoff_s = self.retry.backoff_s
        metrics = self._metrics
        for row in reversed(members.tolist()):
            attempts = self._attempts.item(row)
            request_id = self._request_id.item(row)
            if attempts >= self.retry.max_attempts:
                metrics.record_failed(
                    FailureRecord(
                        request_id=request_id,
                        model=self._models[self._row_model.item(row)],
                        arrival_s=self._arrivals[row],
                        failed_s=now,
                        attempts=attempts,
                    )
                )
                self._trace(now, "failed", request_id, attempts)
                continue
            metrics.record_retry()
            self._retried[row] = True
            self._trace(now, "retry", request_id, attempts)
            if backoff_s > 0:
                self._queue.push(now + backoff_s, RETRY_PRIORITY, RetryEvent(row))
            else:
                self._requeue_front(row, now)

    def _requeue_front(self, row: int, now: float) -> MicroBatcher:
        model_queue = self._queues[self._row_model.item(row)]
        model_queue.requeue_front(row)
        # The retried request is the new queue head and its original
        # max-wait deadline is long past, so the wake-up fires "now" --
        # giving it (and everything queued behind it) immediate dispatch
        # priority as soon as a worker is free.
        self._queue.push(
            max(now, model_queue.head_deadline_s),
            DEADLINE_PRIORITY,
            DeadlineEvent(model_queue.model, self._request_id.item(row)),
        )
        return model_queue

    # ------------------------------------------------------------------ #
    # Dispatch arbitration
    # ------------------------------------------------------------------ #
    def _dispatch_ready(self, now) -> None:
        """Dispatch every (batch, idle worker) pairing currently legal."""
        arrivals = self._arrivals
        while True:
            worker = self.pool.idle_worker(now)
            if worker is None:
                return
            best = best_key = None
            for code, model_queue in enumerate(self._queues):
                if model_queue.depth and model_queue.dispatchable(now):
                    key = (arrivals[model_queue.head], model_queue.model)
                    if best is None or key < best_key:
                        best, best_key = code, key
            if best is None:
                return
            self._dispatch_batch(best, worker, now)

    def _dispatch_batch(self, code, worker, now) -> None:
        model_queue = self._queues[code]
        members, deadline_triggered = model_queue.pop_batch(now)
        size = members.size
        latency_s = self.pool.batch_latency_s(worker, model_queue.model, size)
        if worker.derate != 1.0:
            # Thermal throttle: the episode's derate is priced into batches
            # *dispatched* during it (in-flight batches keep their price).
            latency_s *= worker.derate
        batch_id = self._metrics.record_dispatch(
            code, worker.worker_id, now, latency_s,
            worker.batch_energy_j(latency_s), deadline_triggered, members,
        )
        worker.dispatch(latency_s, now)
        if self._faults_active:
            self._in_flight[worker.worker_id] = batch_id
            self._attempts[members] += 1
        queue = self._queue
        queue.push(now + latency_s, COMPLETION_PRIORITY, CompletionEvent(batch_id))
        self._trace(now, "dispatch", batch_id, worker.worker_id, size, model_queue.model)
        if model_queue.depth:
            # Re-arm the wake-up for the new queue head (it may already be
            # past due, in which case the event fires immediately "now").
            queue.push(
                max(now, model_queue.head_deadline_s),
                DEADLINE_PRIORITY,
                DeadlineEvent(model_queue.model, self._request_id.item(model_queue.head)),
            )


def _observe(obs: "Observability", report: ServingReport, backoff_s: float) -> None:
    """Project a finished run onto ``obs``'s metrics registry and tracer.

    The metrics and the Perfetto trace are pure functions of the report, so
    enabling them cannot change a simulated result.  Queue depth is
    replayed from the columns with ``np.cumsum``: in event-trace order, an
    admitted arrival, a zero-backoff ``retry`` and a ``readmit`` add one to
    their model's queue and a dispatch removes its batch.  The tracer
    emits every trace event at the entry that produced it, so the export's
    ``(ts, emission order)`` sort reproduces the loop's own order.
    Simulated seconds are the trace timebase; the runtime is thread 0 and
    worker ``w`` is thread ``w + 1``.

    Throttle and downtime episodes are emitted as ``X`` spans when they
    close (at the matching end event, or at the horizon): a crash during a
    throttle interleaves the two, which nested ``B``/``E`` spans on one
    thread cannot represent.
    """
    tracer, registry = obs.tracer, obs.metrics
    if tracer is None and registry is None:
        return
    columns = report.columns
    requests = columns.requests
    n_rows, n_entries = len(requests), len(columns.trace_entries)
    # Per trace entry (arrivals first, then the others): queue-depth change
    # and the model it applies to (-1: none).
    delta = np.concatenate(((~columns.shed).astype(int), np.zeros(n_entries, dtype=int)))
    model = np.concatenate((requests.model, np.full(n_entries, -1, dtype=np.intp)))
    model_of = None
    for j, (_, kind, *ids) in enumerate(columns.trace_entries, start=n_rows):
        if kind == "dispatch":
            delta[j] = -ids[2]
            model[j] = report.models.index(ids[3])
        elif kind == "readmit" or (kind == "retry" and backoff_s == 0):
            if model_of is None:
                model_of = dict(zip(requests.request_id.tolist(), requests.model.tolist()))
            delta[j] = 1
            model[j] = model_of[ids[0]]
    if tracer is not None:
        # Position of each of the entries above in event-trace order, and
        # each one's queue depth after it: a running sum per model, in
        # that order.
        order = np.concatenate((
            np.arange(n_rows) + np.searchsorted(columns.trace_cursor, np.arange(n_rows), "right"),
            columns.trace_cursor + np.arange(n_entries),
        ))
        by_order = np.argsort(order)
        in_order_delta, in_order_model = delta[by_order], model[by_order]
        depth = np.zeros(order.size, dtype=int)
        for code in range(len(report.models)):
            mask = in_order_model == code
            depth[mask] = np.cumsum(in_order_delta * mask)[mask]
        _emit_trace(tracer, report, model.tolist(), depth[order].tolist())

    if registry is None:
        return
    labels = obs.label(accelerator=report.accelerator)
    for name, value, description in (
        ("arrivals", report.n_arrivals, "requests offered"),
        ("shed", report.n_shed, "requests rejected by admission"),
        ("completed", report.n_completed, "requests served"),
        ("batches", report.n_batches, "batches completed"),
        ("retries", report.n_retries, "crash-lost requests requeued"),
        ("failures", report.n_failed, "requests terminally failed"),
        ("lost_batches", report.n_lost_batches, "batches lost to crashes"),
        ("events_processed", report.events_processed,
         "discrete events the loop processed"),
    ):
        registry.counter(f"serve.runtime.{name}", labels, help=description).inc(value)
    registry.histogram(
        "serve.runtime.latency_s", labels,
        help="end-to-end request latency (simulated seconds)",
    ).observe_many(report.latencies_s)
    registry.histogram(
        "serve.runtime.queue_wait_s", labels,
        help="admission-queue wait before dispatch (simulated seconds)",
    ).observe_many(report.queue_waits_s)
    final_depth = np.bincount(model[model >= 0], delta[model >= 0], len(report.models))
    for name, depth_end in zip(report.models, final_depth.tolist()):
        registry.gauge(
            "serve.runtime.queue_depth", {**labels, "model": name},
            help="requests waiting in the model's admission queue",
        ).set(int(depth_end))
    registry.gauge(
        "serve.runtime.wall_time_s", labels,
        help="wall-clock seconds the event loop took",
    ).inc(report.wall_time_s)
    registry.gauge(
        "serve.runtime.peak_queue_depth", labels,
        help="deepest any admission queue got",
    ).set(report.peak_queue_depth)


def _emit_trace(tracer, report: ServingReport, model, depth) -> None:
    """Emit the run's Perfetto timeline, one step per event-trace entry.

    ``model`` and ``depth`` hold, for every request row and then every
    non-arrival trace entry, the model code it applies to (``-1``: none)
    and that model's queue depth after it.  Arrival rows between two other
    entries are emitted in bulk.
    """
    columns = report.columns
    names = report.models
    pid = tracer.new_process(
        f"serve {report.accelerator} x{report.n_workers}: {report.traffic}"
    )
    tracer.thread_name(pid, 0, "runtime")
    for worker_id in range(report.n_workers):
        tracer.thread_name(pid, worker_id + 1, f"worker-{worker_id}")
    request_ids = columns.requests.request_id.tolist()
    arrivals_s = columns.requests.arrival_s.tolist()
    n_rows = len(request_ids)
    shed_rows = np.flatnonzero(columns.shed).tolist()
    offsets = columns.member_offsets.tolist()
    dispatch_s = columns.dispatch_s.tolist()
    latency_s = columns.latency_s.tolist()
    energy_j = columns.energy_j.tolist()
    batch_model = columns.batch_model.tolist()
    batch_worker = columns.batch_worker.tolist()
    deadline_triggered = columns.deadline_triggered.tolist()
    counter_names = [f"queue:{name}" for name in names]

    sample_names = [counter_names[code] for code in model[:n_rows]]
    sample_values = [{"depth": queue_depth} for queue_depth in depth[:n_rows]]

    def arrivals(start: int, stop: int) -> None:
        # Admitted arrivals are counter samples, shed ones instants.
        shed_index = bisect_left(shed_rows, start)
        while shed_index < len(shed_rows) and shed_rows[shed_index] < stop:
            row = shed_rows[shed_index]
            tracer.counters(
                pid, 0, arrivals_s[start:row], sample_names[start:row],
                sample_values[start:row],
            )
            tracer.instant(
                arrivals_s[row], "shed", pid, 0,
                args={"request": request_ids[row], "model": names[model[row]]},
            )
            start, shed_index = row + 1, shed_index + 1
        tracer.counters(
            pid, 0, arrivals_s[start:stop], sample_names[start:stop],
            sample_values[start:stop],
        )

    # Every completed request's queue span then service span, in
    # completion order.
    rows, batch_of = columns.completed_members()
    served_s = columns.dispatch_s[batch_of]
    span_starts = np.empty((rows.size, 2))
    span_starts[:, 0] = columns.requests.arrival_s[rows]
    span_starts[:, 1] = served_s
    span_ends = np.empty((rows.size, 2))
    span_ends[:, 0] = served_s
    span_ends[:, 1] = served_s + columns.latency_s[batch_of]
    span_tids = np.zeros((rows.size, 2), dtype=int)
    span_tids[:, 1] = columns.batch_worker[batch_of] + 1
    span_starts, span_ends, span_tids = (
        array.ravel().tolist() for array in (span_starts, span_ends, span_tids)
    )
    span_ids = np.repeat(columns.requests.request_id[rows], 2).tolist()
    span_names = ["queue", "service"] * rows.size
    span_end = 0

    throttled: dict[int, tuple[float, float]] = {}
    down: dict[int, tuple[float, str]] = {}
    for j, (start, stop, entry) in enumerate(columns.trace_segments(), start=n_rows):
        if start < stop:
            arrivals(start, stop)
        if entry is None:
            break
        now_s, kind, *ids = entry
        if kind in ("retry", "failed"):
            tracer.instant(
                now_s, kind, pid, 0, args={"request": ids[0], "attempts": ids[1]}
            )
        elif kind == "complete":
            batch_id = ids[0]
            size = offsets[batch_id + 1] - offsets[batch_id]
            tracer.complete(
                dispatch_s[batch_id], latency_s[batch_id],
                f"{names[batch_model[batch_id]]} x{size}", pid, batch_worker[batch_id] + 1,
                args={
                    "batch": batch_id,
                    "deadline_triggered": deadline_triggered[batch_id],
                    "energy_j": energy_j[batch_id],
                },
            )
            span_start, span_end = span_end, span_end + 2 * size
            tracer.async_spans(
                pid, "request", span_starts[span_start:span_end],
                span_ends[span_start:span_end], span_names[span_start:span_end],
                span_ids[span_start:span_end], span_tids[span_start:span_end],
            )
        elif kind == "batch_lost":
            batch_id, worker_id, size = ids
            start_s = dispatch_s[batch_id]
            tracer.complete(
                start_s, now_s - start_s, f"{names[batch_model[batch_id]]} x{size} (lost)",
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
        if model[j] >= 0:
            tracer.counter(now_s, counter_names[model[j]], pid, 0, {"depth": depth[j]})
    horizon_s = report.horizon_s
    for episodes, label in ((throttled, "throttle x{:g}"), (down, "down ({})")):
        for worker_id, (start_s, detail) in sorted(episodes.items()):
            tracer.complete(
                start_s, max(horizon_s, start_s) - start_s,
                label.format(detail), pid, worker_id + 1,
            )


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
    workloads = {name: model.workloads()}
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
            EnsembleInferenceEngine(
                stack,
                [np.random.default_rng(seed + worker_id)],
                activation_bits=activation_bits,
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
