"""Event and record types of the serving runtime.

The discrete-event loop merges request arrivals, taken in arrival order
from :class:`RequestColumns`, with the events it schedules: batch
deadlines, batch completions, and -- when a
:class:`~repro.serve.faults.FaultInjector` is attached -- worker lifecycle
transitions (crash/repair, thermal throttle, permanent drain) and retry
re-admissions.  The run record is columnar; :class:`Request`,
:class:`Batch` and, in :mod:`repro.serve.metrics`, the per-request latency
records are frozen per-item views the report builds from it on demand.
Event payloads are named tuples: immutable, and cheap to build once per
scheduled event.

The runtime also keeps a flat *event trace*: one :class:`TraceEvent` per
observable state transition, ``(time_s, kind, *ids)``.  Two runs are
behaviourally identical iff their traces are equal, which is exactly what
the determinism tests assert.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class TraceEvent(tuple):
    """One event-trace entry: a typed view over ``(time_s, kind, *ids)``.

    ``TraceEvent`` subclasses :class:`tuple`, so entries compare, hash, and
    render exactly like the plain tuples earlier reports carried -- old
    readers (and old golden traces) keep working unchanged -- while tests
    and tools get a schema: :attr:`time_s`, :attr:`kind`, and the
    kind-specific :attr:`ids` tail.

    Kinds and their id tails:

    * ``"arrival"`` / ``"shed"`` -- ``(request_id,)``
    * ``"dispatch"`` -- ``(batch_id, worker_id, batch_size, model)``
    * ``"complete"`` -- ``(batch_id,)``
    * ``"worker_down"`` -- ``(worker_id, cause)`` (``"crash"``/``"drain"``)
    * ``"worker_up"`` -- ``(worker_id,)``
    * ``"throttle_start"`` -- ``(worker_id, derate)``
    * ``"throttle_end"`` -- ``(worker_id,)``
    * ``"batch_lost"`` -- ``(batch_id, worker_id, batch_size)``
    * ``"retry"`` -- ``(request_id, attempt)`` (the attempt that was lost)
    * ``"readmit"`` -- ``(request_id,)`` (a retry re-entering its queue
      after a non-zero backoff; zero-backoff retries re-enter at ``"retry"``)
    * ``"failed"`` -- ``(request_id, attempts)`` (total attempts consumed)
    """

    __slots__ = ()

    KINDS = frozenset(
        {
            "arrival",
            "shed",
            "dispatch",
            "complete",
            "worker_down",
            "worker_up",
            "throttle_start",
            "throttle_end",
            "batch_lost",
            "retry",
            "readmit",
            "failed",
        }
    )

    def __new__(cls, time_s: float, kind: str, *ids) -> "TraceEvent":
        if kind not in cls.KINDS:
            raise ValueError(f"unknown trace-event kind {kind!r}")
        return super().__new__(cls, (float(time_s), kind, *ids))

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild the entry through __new__(*self).
        return tuple(self)

    @property
    def time_s(self) -> float:
        """Simulated time of the transition."""
        return self[0]

    @property
    def kind(self) -> str:
        """The transition kind (see the class docstring)."""
        return self[1]

    @property
    def ids(self) -> tuple:
        """The kind-specific id tail of the entry."""
        return tuple(self[2:])


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request flowing through the serving system.

    Slotted, so a request list holds no per-request ``__dict__``.  The
    serving loop itself works on :class:`RequestColumns`; a ``Request`` is
    the per-request view of one of their rows.
    """

    request_id: int
    model: str
    arrival_s: float
    input_index: int | None = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if self.input_index is not None and self.input_index < 0:
            raise ValueError(f"input_index must be >= 0, got {self.input_index}")


class RequestColumns(Sequence):
    """Requests stored as columns; indexing yields :class:`Request` views.

    ``request_id``, ``arrival_s``, ``model`` (a code into ``models``) and
    ``input_index`` (``-1`` where a request has none) are parallel arrays,
    so a 100k-request workload is four arrays rather than 100k objects.
    Construction checks them as :class:`Request` does, once per array.
    Slicing returns columns; ``+`` concatenates with columns or with any
    iterable of requests (a plain list on either side); :meth:`append`
    adds one request.  Models are merged by name, in first-seen order.
    Equality compares the columns.
    """

    _COLUMNS = ("request_id", "arrival_s", "model", "input_index")
    __slots__ = _COLUMNS + ("models",)

    def __init__(
        self,
        request_id: np.ndarray,
        arrival_s: np.ndarray,
        model: np.ndarray,
        input_index: np.ndarray,
        models: tuple[str, ...],
    ) -> None:
        self.request_id = np.asarray(request_id, dtype=np.int64)
        self.arrival_s = np.asarray(arrival_s, dtype=float)
        self.model = np.asarray(model, dtype=np.intp)
        self.input_index = np.asarray(input_index, dtype=np.int64)
        self.models = tuple(models)
        negative = self.arrival_s[self.arrival_s < 0]
        if negative.size:
            raise ValueError(f"arrival_s must be >= 0, got {negative.item(0)}")
        invalid = self.input_index[self.input_index < -1]
        if invalid.size:
            raise ValueError(f"input_index must be >= 0 (-1: none), got {invalid.item(0)}")

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "RequestColumns":
        """The columns of ``requests`` (columns are returned unchanged)."""
        if isinstance(requests, RequestColumns):
            return requests
        requests = list(requests)
        codes: dict[str, int] = {}
        for request in requests:
            codes.setdefault(request.model, len(codes))
        return cls(
            [request.request_id for request in requests],
            [request.arrival_s for request in requests],
            [codes[request.model] for request in requests],
            [-1 if request.input_index is None else request.input_index
             for request in requests],
            tuple(codes),
        )

    def __len__(self) -> int:
        return self.request_id.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequestColumns):
            return NotImplemented
        return self.models == other.models and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self._COLUMNS
        )

    __hash__ = None  # mutable: append() replaces the columns

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        input_index = self.input_index.item(index)
        return Request(
            self.request_id.item(index),
            self.models[self.model.item(index)],
            self.arrival_s.item(index),
            None if input_index < 0 else input_index,
        )

    def __iter__(self):
        models = self.models
        for request_id, arrival_s, model, input_index in zip(
            self.request_id.tolist(), self.arrival_s.tolist(),
            self.model.tolist(), self.input_index.tolist(),
        ):
            yield Request(
                request_id, models[model], arrival_s,
                None if input_index < 0 else input_index,
            )

    def take(self, rows: np.ndarray) -> "RequestColumns":
        """The requests at ``rows``, in that order."""
        return RequestColumns(
            self.request_id[rows], self.arrival_s[rows], self.model[rows],
            self.input_index[rows], self.models,
        )

    def recoded(self, models: tuple[str, ...]) -> "RequestColumns":
        """The same requests with model codes into ``models``.

        A model missing from ``models`` gets code ``-1``.
        """
        if models == self.models:
            return self
        codes = np.asarray(
            [models.index(name) if name in models else -1 for name in self.models],
            dtype=np.intp,
        )
        return RequestColumns(
            self.request_id, self.arrival_s, codes[self.model], self.input_index, models
        )

    def __add__(self, other) -> "RequestColumns":
        other = RequestColumns.from_requests(other)
        models = self.models + tuple(m for m in other.models if m not in self.models)
        first, second = self.recoded(models), other.recoded(models)
        return RequestColumns(
            *(
                np.concatenate((getattr(first, name), getattr(second, name)))
                for name in self._COLUMNS
            ),
            models,
        )

    def __radd__(self, other) -> "RequestColumns":
        return RequestColumns.from_requests(other) + self

    def append(self, request: Request) -> None:
        """Add ``request`` at the end."""
        joined = self + [request]
        for name in self.__slots__:
            setattr(self, name, getattr(joined, name))


@dataclass(frozen=True)
class Batch:
    """One micro-batch dispatched to (and executed by) an accelerator worker."""

    batch_id: int
    model: str
    requests: tuple[Request, ...]
    dispatch_s: float
    worker_id: int
    latency_s: float
    energy_j: float
    deadline_triggered: bool

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch must contain at least one request")
        if self.latency_s <= 0:
            raise ValueError(f"latency_s must be positive, got {self.latency_s}")

    @property
    def size(self) -> int:
        """Number of requests fused into this dispatch."""
        return len(self.requests)

    @property
    def completion_s(self) -> float:
        """Simulated time at which the batch's results are available."""
        return self.dispatch_s + self.latency_s


class DeadlineEvent(NamedTuple):
    """The max-wait deadline of a queue head expires.

    Deadline events are advisory wake-ups: the handler re-checks the queue
    (the armed head may already have dispatched as part of a full batch), so
    stale events are harmless no-ops and no cancellation machinery is
    needed.
    """

    model: str
    request_id: int


class CompletionEvent(NamedTuple):
    """A worker finishes batch ``batch_id`` and becomes available again."""

    batch_id: int


class WorkerDownEvent(NamedTuple):
    """A worker leaves service: a crash or a permanent drain.

    A crash repairs after an exponentially distributed outage (a matching
    :class:`WorkerUpEvent` is scheduled by the fault injector); a drain is
    terminal -- the worker never returns, even if a stale repair event for
    an earlier crash fires later.
    """

    worker_id: int
    cause: str = "crash"  # "crash" | "drain"


class WorkerUpEvent(NamedTuple):
    """A crashed worker finishes repair and rejoins the fleet."""

    worker_id: int


class ThrottleStartEvent(NamedTuple):
    """A transient thermal-throttle episode begins on a worker.

    While throttled the worker keeps serving, but every batch *dispatched*
    during the episode takes ``derate`` times its nominal latency (batches
    already in flight keep the latency they were priced at).  Episodes
    carry a per-worker sequence number so a stale end event (the worker
    crashed mid-episode and was repaired) is a harmless no-op.
    """

    worker_id: int
    derate: float
    episode: int


class ThrottleEndEvent(NamedTuple):
    """A thermal-throttle episode ends (advisory; checked against state)."""

    worker_id: int
    episode: int


class RetryEvent(NamedTuple):
    """A request from a lost batch re-enters its admission queue.

    Scheduled only when the :class:`~repro.serve.faults.RetryPolicy` has a
    non-zero backoff; zero-backoff retries re-queue synchronously at the
    crash instant instead.  ``row`` indexes the run's request columns.
    """

    row: int
