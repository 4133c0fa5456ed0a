"""Simulated accelerator workers and the fleet pool.

Each :class:`AcceleratorWorker` wraps one :class:`~repro.arch.accelerator.\
PhotonicAccelerator`: the accelerator's analytic model prices every
dispatched micro-batch (latency via
:meth:`~repro.arch.accelerator.PhotonicAccelerator.batch_latency_s`, energy
as busy-time x total power), and an optional one-member
:class:`~repro.sim.photonic_inference.EnsembleInferenceEngine` produces
*functional* outputs -- actual logits through the worker's own noise stack,
so a fleet models per-device FPV diversity by seeding each worker's engine
differently.

Each worker also carries an **availability state machine** -- ``up``,
``throttled``, or ``down`` -- driven by the fault-injection events of
:mod:`repro.serve.faults`.  A ``down`` worker is invisible to dispatch
arbitration; a ``throttled`` worker keeps serving but prices every batch
dispatched during the episode at ``derate`` times its nominal latency.
Down intervals are recorded as ``(start, end)`` pairs and clamped to the
report horizon at finalize, so per-worker downtime and availability are
exact even when a repair lands beyond the measurement window.

:class:`WorkerPool` owns the fleet, arbitrates idleness deterministically
(lowest worker id first), and memoizes the ``(model, batch size) -> latency``
table so the event loop prices repeat dispatches in O(1).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.arch.accelerator import PhotonicAccelerator
from repro.nn.layers import LayerWorkload
from repro.sim.photonic_inference import EnsembleInferenceEngine


class AcceleratorWorker:
    """One serving worker: a simulated accelerator plus optional inference.

    Parameters
    ----------
    worker_id:
        Stable identity used for deterministic idle-worker selection and
        for report attribution.
    accelerator:
        The analytic performance/power model pricing this worker's batches.
        Workers of one fleet may share an accelerator object (it is only
        read) or wrap differently configured instances.
    engine:
        Optional one-member functional-inference engine, seeded with an
        ``np.random.Generator``.  When present, completed batches run their
        actual inputs through the engine's noise stack; each prediction
        advances the Generator in batch *completion* order (the order the
        runtime processes results), so a fixed seed replays identical
        outputs.
    """

    def __init__(
        self,
        worker_id: int,
        accelerator: PhotonicAccelerator,
        engine: EnsembleInferenceEngine | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.accelerator = accelerator
        self.engine = engine
        self.power_w = accelerator.total_power_w
        self.busy_until_s = 0.0
        self.busy_s = 0.0
        self.n_batches = 0
        self.n_requests = 0
        # Availability state machine (driven by repro.serve.faults events).
        self.state = "up"  # "up" | "throttled" | "down"
        self.derate = 1.0
        self.drained = False
        self.n_down_events = 0
        self._down_intervals: list[list[float | None]] = []
        self._throttle_episode: int | None = None

    @property
    def available(self) -> bool:
        """Whether the worker is in service (up or throttled, not down)."""
        return self.state != "down"

    def idle(self, now_s: float) -> bool:
        """Whether the worker can accept a dispatch at ``now_s``."""
        return self.state != "down" and now_s >= self.busy_until_s

    def mark_down(self, now_s: float, *, drained: bool = False) -> None:
        """Take the worker out of service (crash, or permanent drain)."""
        if self.state == "down":
            raise RuntimeError(f"worker {self.worker_id} is already down")
        self.state = "down"
        self.derate = 1.0
        self._throttle_episode = None
        self.drained = self.drained or drained
        self.n_down_events += 1
        self._down_intervals.append([now_s, None])

    def mark_up(self, now_s: float) -> bool:
        """Return a repaired worker to service; False if it was drained."""
        if self.state != "down":
            raise RuntimeError(f"worker {self.worker_id} is not down")
        if self.drained:
            # A stale repair for an outage that a later drain superseded.
            return False
        self._down_intervals[-1][1] = now_s
        self.state = "up"
        return True

    def throttle(self, derate: float, episode: int) -> bool:
        """Enter a thermal-throttle episode; False when down (skipped)."""
        if self.state == "down":
            return False
        self.state = "throttled"
        self.derate = derate
        self._throttle_episode = episode
        return True

    def unthrottle(self, episode: int) -> bool:
        """Leave a throttle episode; False for stale/superseded episodes."""
        if self.state != "throttled" or self._throttle_episode != episode:
            return False
        self.state = "up"
        self.derate = 1.0
        self._throttle_episode = None
        return True

    def downtime_s(self, horizon_s: float) -> float:
        """Total out-of-service time within ``[0, horizon_s]``."""
        total = 0.0
        for start, end in self._down_intervals:
            clamped_end = horizon_s if end is None else min(end, horizon_s)
            total += max(0.0, clamped_end - min(start, horizon_s))
        return total

    def dispatch(self, latency_s: float, now_s: float) -> float:
        """Occupy the worker with one batch; returns the completion time."""
        if not self.idle(now_s):
            raise RuntimeError(
                f"worker {self.worker_id} dispatched at {now_s} while busy "
                f"until {self.busy_until_s} (state {self.state})"
            )
        self.busy_until_s = now_s + latency_s
        return self.busy_until_s

    def record_lost(self, elapsed_s: float, now_s: float) -> None:
        """Account the partial busy time of a batch lost to a crash.

        The worker genuinely burned ``elapsed_s`` seconds on the doomed
        batch, so it counts toward busy time (and therefore utilisation --
        fault runs honestly show capacity spent on work that was thrown
        away); the interrupted dispatch no longer occupies the worker.
        """
        self.busy_s += elapsed_s
        self.busy_until_s = now_s

    def record_completion(self, latency_s: float, batch_size: int) -> None:
        """Accrue one finished batch into the worker's served statistics.

        Busy time is accounted here, at *completion*, not at dispatch: a
        cut-off run (``drain=False``) then never counts work that finishes
        beyond the horizon, keeping utilisation <= 1 and the busy-time
        metrics consistent with the completed-batch energy accounting.
        """
        self.busy_s += latency_s
        self.n_batches += 1
        self.n_requests += batch_size

    def batch_energy_j(self, latency_s: float) -> float:
        """Energy of one batch: the accelerator's power over the busy window."""
        return self.power_w * latency_s

    def predict(self, model, inputs: np.ndarray) -> np.ndarray:
        """Functional outputs (argmax class per input) via the worker engine."""
        if self.engine is None:
            raise RuntimeError(
                f"worker {self.worker_id} has no inference engine attached"
            )
        logits = self.engine.predict(model, inputs, batch_size=inputs.shape[0])
        return np.argmax(logits[0], axis=1)


class WorkerPool:
    """A fleet of workers plus the memoized batch-latency table.

    Parameters
    ----------
    workers:
        The fleet, in worker-id order.
    workloads:
        Per-model layer workloads (``model name -> model.workloads()``) used
        to price batches.  All workers are assumed able to serve every
        model (the per-batch weight reprogramming is already part of
        :meth:`~repro.arch.accelerator.PhotonicAccelerator.batch_latency_s`).
    """

    def __init__(
        self,
        workers: Sequence[AcceleratorWorker],
        workloads: Mapping[str, list[LayerWorkload]],
    ) -> None:
        workers = list(workers)
        if not workers:
            raise ValueError("a worker pool needs at least one worker")
        ids = [worker.worker_id for worker in workers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"worker ids must be unique, got {ids}")
        self.workers = workers
        self.workloads = dict(workloads)
        self._latency_table: dict[tuple[int, str, int], float] = {}

    def __len__(self) -> int:
        return len(self.workers)

    def idle_worker(self, now_s: float) -> AcceleratorWorker | None:
        """The dispatchable worker with the lowest id, or ``None``.

        Deterministic (lowest id first) and availability-aware: a ``down``
        worker is skipped no matter how long it has been free, and a
        ``throttled`` worker is offered work normally (its derate is priced
        into the dispatch latency instead).
        """
        for worker in self.workers:
            if worker.idle(now_s):
                return worker
        return None

    def batch_latency_s(
        self, worker: AcceleratorWorker, model: str, batch_size: int
    ) -> float:
        """Memoized batch latency of ``model`` at ``batch_size`` on ``worker``."""
        key = (worker.worker_id, model, batch_size)
        latency = self._latency_table.get(key)
        if latency is None:
            latency = worker.accelerator.batch_latency_s(
                self.workloads[model], batch_size
            )
            self._latency_table[key] = latency
        return latency

    @property
    def busy_s_per_worker(self) -> tuple[float, ...]:
        """Per-worker busy time, in worker-id order."""
        return tuple(worker.busy_s for worker in self.workers)

    @property
    def power_w_per_worker(self) -> tuple[float, ...]:
        """Per-worker accelerator power, in worker-id order."""
        return tuple(worker.power_w for worker in self.workers)

    def downtime_s_per_worker(self, horizon_s: float) -> tuple[float, ...]:
        """Per-worker downtime within the horizon, in worker-id order."""
        return tuple(worker.downtime_s(horizon_s) for worker in self.workers)
