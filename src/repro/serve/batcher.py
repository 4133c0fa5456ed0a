"""Admission queue and dynamic micro-batcher.

The batcher implements the classic dynamic-batching policy of DNN serving
systems: requests for one model queue FIFO, and a batch dispatches when

* the queue holds a **full batch** (``max_batch_size`` requests) and a
  worker is free -- full batches never wait; or
* the **oldest queued request** has waited ``max_wait_s`` (its *deadline*)
  and a worker is free -- partial batches dispatch rather than letting the
  head request's latency grow unboundedly at low load.

Backpressure is admission control: when ``max_queue_depth`` is set, a
request arriving at a full queue is **shed** (rejected immediately) instead
of growing the queue without bound -- the shed rate is a first-class metric
of the serving report.

Each model gets its own :class:`MicroBatcher` (batches never mix models,
since a model switch reprograms the accelerator's weight banks); the
runtime arbitrates across batchers by oldest queue head.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic micro-batching policy knobs.

    Parameters
    ----------
    max_batch_size:
        Largest number of requests fused into one accelerator dispatch.
    max_wait_s:
        Deadline: the longest a queue head may wait for its batch to fill
        before a partial batch is dispatched.
    max_queue_depth:
        Admission limit per model queue; arrivals beyond it are shed.
        ``None`` leaves the queue unbounded (no shedding).
    """

    max_batch_size: int = 8
    max_wait_s: float = 100e-6
    max_queue_depth: int | None = None

    def __post_init__(self) -> None:
        check_positive_int("max_batch_size", self.max_batch_size)
        check_positive("max_wait_s", self.max_wait_s)
        if self.max_queue_depth is not None:
            check_positive_int("max_queue_depth", self.max_queue_depth)

    def describe(self) -> str:
        """One-line policy description used in serving reports."""
        depth = "inf" if self.max_queue_depth is None else str(self.max_queue_depth)
        return (
            f"batch(max={self.max_batch_size}, wait={self.max_wait_s:g}s, "
            f"queue={depth})"
        )


class MicroBatcher:
    """FIFO admission queue + batch-forming logic for one model.

    The batcher serves the model's *arrival stream*, known up front:
    ``arrival_s`` maps a request row to its arrival time, and ``rows``
    lists the model's rows in ascending order, which is arrival order
    (default: every row of ``arrival_s``).  :meth:`offer` takes the stream's next arrivals as one
    span.  Admitted arrivals wait as ``[start, stop)`` ranges of stream
    positions (a shed span leaves a gap between ranges) and retried rows
    wait in a small deque ahead of them, so the queue does its work per
    span and per batch, not per request.

    The batcher holds no clock of its own: the runtime passes the current
    simulated time into every decision method, which keeps the class
    trivially testable (property tests drive it with synthetic times).
    """

    __slots__ = (
        "model", "policy", "arrival_s", "rows", "positions", "n_offered", "n_shed",
        "depth", "peak_depth", "_front", "_ranges", "_max_batch_size", "_max_wait_s",
        "_max_queue_depth",
    )

    def __init__(
        self,
        model: str,
        policy: BatchPolicy,
        arrival_s: Sequence[float],
        rows: np.ndarray | None = None,
    ) -> None:
        self.model = model
        self.policy = policy
        self.arrival_s = arrival_s
        self.rows = (
            np.arange(len(arrival_s)) if rows is None else np.asarray(rows, dtype=np.intp)
        )
        #: ``rows`` as a list, for ``bisect``.
        self.positions = self.rows.tolist()
        #: Arrivals of the stream taken so far (admitted or shed).
        self.n_offered = 0
        self.n_shed = 0
        #: Requests currently waiting (not yet dispatched).
        self.depth = 0
        self.peak_depth = 0
        self._front: deque[int] = deque()
        self._ranges: deque[list[int]] = deque()
        # The policy is frozen; its knobs are read on every decision.
        self._max_batch_size = policy.max_batch_size
        self._max_wait_s = policy.max_wait_s
        self._max_queue_depth = policy.max_queue_depth

    def __len__(self) -> int:
        return self.depth

    def arrivals_until_change(self) -> int | None:
        """How many more arrivals until one changes the queue's state.

        That arrival makes the queue non-empty (arming the head deadline),
        fills a batch, or brings the queue to ``max_queue_depth`` (every
        later one is shed).  ``None`` when no arrival can: the queue is
        full, or already holds a full batch with no admission limit.
        """
        depth = self.depth
        if depth == 0:
            return 1
        max_batch_size = self._max_batch_size
        max_queue_depth = self._max_queue_depth
        if max_queue_depth is not None:
            if depth >= max_queue_depth:
                return None
            if depth >= max_batch_size:
                return max_queue_depth - depth
            return min(max_batch_size, max_queue_depth) - depth
        return max_batch_size - depth if depth < max_batch_size else None

    def offer(self, count: int = 1) -> bool:
        """Take the stream's next ``count`` arrivals as one span.

        Admits them all (True) or, at a full queue, sheds them all (False).
        A span may not cross the admission limit: cut it at
        :meth:`arrivals_until_change`.
        """
        start = self.n_offered
        stop = start + count
        if stop > len(self.positions):
            raise IndexError(
                f"offer of {count} arrivals past the end of the {self.model!r} stream"
            )
        depth_limit = self._max_queue_depth
        if depth_limit is not None:
            if self.depth >= depth_limit:
                self.n_offered = stop
                self.n_shed += count
                return False
            if self.depth + count > depth_limit:
                raise ValueError(
                    f"span of {count} arrivals crosses the {self.model!r} "
                    f"admission limit (depth {self.depth}, limit {depth_limit})"
                )
        self.n_offered = stop
        ranges = self._ranges
        if ranges and ranges[-1][1] == start:
            ranges[-1][1] = stop
        else:
            ranges.append([start, stop])
        self.depth += count
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth
        return True

    def requeue_front(self, row: int) -> None:
        """Re-admit a retried request row at the *head* of the queue.

        Used by the fault/retry path: a request whose batch was lost to a
        worker crash had already been admitted (and has been waiting since
        its original arrival), so it re-enters at the front to preserve
        approximate FIFO order and is **not** subject to the
        ``max_queue_depth`` admission limit -- shedding an already-admitted
        request would turn a recoverable fault into a spurious rejection
        and break arrival conservation.
        """
        position = bisect_left(self.positions, row, 0, self.n_offered)
        if position == self.n_offered or self.positions[position] != row:
            raise ValueError(
                f"row {row} is not an offered request of the {self.model!r} stream"
            )
        self._front.appendleft(row)
        self.depth += 1
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth

    @property
    def head(self) -> int | None:
        """The row of the oldest waiting request, or ``None`` when empty."""
        if self._front:
            return self._front[0]
        return self.positions[self._ranges[0][0]] if self._ranges else None

    @property
    def head_deadline_s(self) -> float | None:
        """Time at which the queue head's max-wait deadline expires."""
        head = self.head
        if head is None:
            return None
        return self.arrival_s[head] + self._max_wait_s

    def has_full_batch(self) -> bool:
        """Whether a full ``max_batch_size`` batch is waiting."""
        return self.depth >= self._max_batch_size

    def due(self, now_s: float) -> bool:
        """Whether the queue head has reached its max-wait deadline.

        The comparison is exact: the runtime schedules its deadline events
        at this same :attr:`head_deadline_s` float, so an event firing "at
        the deadline" always observes itself as due -- no epsilon needed.
        """
        return self.depth > 0 and now_s >= self.arrival_s[self.head] + self._max_wait_s

    def dispatchable(self, now_s: float) -> bool:
        """Whether a batch (full or deadline-expired partial) should dispatch."""
        depth = self.depth
        if depth >= self._max_batch_size:
            return True
        return depth > 0 and now_s >= self.arrival_s[self.head] + self._max_wait_s

    def pop_batch(self, now_s: float) -> tuple[np.ndarray, bool]:
        """Remove the next batch; return its rows and whether its deadline forced it.

        The batch is the oldest ``min(depth, max_batch_size)`` requests --
        never more than ``max_batch_size``, the invariant the property
        tests pin.  Popping is only legal when :meth:`dispatchable` holds.
        """
        if not self.depth:
            raise IndexError(f"pop_batch on the empty {self.model!r} queue")
        if not self.dispatchable(now_s):
            raise RuntimeError(
                f"batch for {self.model!r} popped before it was full or due "
                f"(depth {self.depth}, now {now_s})"
            )
        deadline_triggered = self.depth < self._max_batch_size
        size = min(self.depth, self._max_batch_size)
        self.depth -= size
        parts = []
        front = self._front
        while front and size:
            parts.append(front.popleft())
            size -= 1
        if parts:
            parts = [np.asarray(parts, dtype=np.intp)]
        ranges = self._ranges
        while size:
            span = ranges[0]
            start, stop = span
            take = min(size, stop - start)
            parts.append(self.rows[start:start + take])
            if take == stop - start:
                ranges.popleft()
            else:
                span[0] = start + take
            size -= take
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)), deadline_triggered
