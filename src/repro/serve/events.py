"""Event and record types of the serving runtime.

The discrete-event loop merges request arrivals, taken in arrival order
from the request list, with the events it schedules: batch deadlines, batch
completions, and -- when a :class:`~repro.serve.faults.FaultInjector` is
attached -- worker lifecycle transitions (crash/repair, thermal throttle,
permanent drain) and retry re-admissions.  It produces two durable records:
:class:`Batch` (one accelerator dispatch) and, in :mod:`repro.serve.metrics`,
per-request latency records.  Everything here is a frozen dataclass so
records can be collected into hashable, comparable report tuples.

The runtime also keeps a flat *event trace*: one :class:`TraceEvent` per
observable state transition, ``(time_s, kind, *ids)``.  Two runs are
behaviourally identical iff their traces are equal, which is exactly what
the determinism tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    Slotted, so a 100k-request run holds no per-request ``__dict__``.  The
    public constructor validates; :meth:`unchecked` is the bulk path for
    callers that have already validated the arrival times.
    """

    request_id: int
    model: str
    arrival_s: float
    input_index: int | None = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")

    @staticmethod
    def unchecked(
        request_id: int, model: str, arrival_s: float, input_index: int | None
    ) -> "Request":
        """A request built without ``__init__`` or its check.

        Only for arrival times already known to be ``>= 0``, such as an
        arrival array :func:`~repro.serve.runtime.requests_from_traffic`
        checked as a whole.  Writing the slots directly is about twice as
        fast as the frozen ``__init__``.
        """
        request = _new_object(Request)
        _set_request_id(request, request_id)
        _set_model(request, model)
        _set_arrival_s(request, arrival_s)
        _set_input_index(request, input_index)
        return request


_new_object = object.__new__
_set_request_id, _set_model, _set_arrival_s, _set_input_index = (
    Request.request_id.__set__,
    Request.model.__set__,
    Request.arrival_s.__set__,
    Request.input_index.__set__,
)


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


@dataclass(frozen=True)
class DeadlineEvent:
    """The max-wait deadline of a queue head expires.

    Deadline events are advisory wake-ups: the handler re-checks the queue
    (the armed head may already have dispatched as part of a full batch), so
    stale events are harmless no-ops and no cancellation machinery is
    needed.
    """

    model: str
    request_id: int


@dataclass(frozen=True)
class CompletionEvent:
    """A worker finishes a batch and becomes available again."""

    batch: Batch


@dataclass(frozen=True)
class WorkerDownEvent:
    """A worker leaves service: a crash or a permanent drain.

    A crash repairs after an exponentially distributed outage (a matching
    :class:`WorkerUpEvent` is scheduled by the fault injector); a drain is
    terminal -- the worker never returns, even if a stale repair event for
    an earlier crash fires later.
    """

    worker_id: int
    cause: str = "crash"  # "crash" | "drain"


@dataclass(frozen=True)
class WorkerUpEvent:
    """A crashed worker finishes repair and rejoins the fleet."""

    worker_id: int


@dataclass(frozen=True)
class ThrottleStartEvent:
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


@dataclass(frozen=True)
class ThrottleEndEvent:
    """A thermal-throttle episode ends (advisory; checked against state)."""

    worker_id: int
    episode: int


@dataclass(frozen=True)
class RetryEvent:
    """A request from a lost batch re-enters its admission queue.

    Scheduled only when the :class:`~repro.serve.faults.RetryPolicy` has a
    non-zero backoff; zero-backoff retries re-queue synchronously at the
    crash instant instead.
    """

    request: Request
