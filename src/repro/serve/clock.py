"""Deterministic discrete-event simulation core: clock and event queue.

The serving runtime advances simulated time by processing timestamped events
in a strict total order.  Determinism is the load-bearing property -- the
tests assert that two runs with the same seed produce *identical* event
traces -- so the ordering is fully specified:

1. earlier ``time_s`` first;
2. at equal times, lower ``priority`` first (completions free their worker
   before a same-instant deadline looks for one);
3. at equal time and priority, insertion order (a monotonically increasing
   sequence number assigned by :meth:`EventQueue.push`).

Request arrivals do not enter the queue.  The runtime takes them, in
spans, from the stably sorted request columns and merges them against the
queue head, an arrival going first only when it is strictly earlier: at
equal times an arrival runs after every queued event, and arrivals keep
input order.

No wall-clock time, thread, or other nondeterministic source is involved
anywhere in the loop.
"""

from __future__ import annotations

import heapq
from typing import Any

#: Event priorities at equal timestamps (lower runs first; a same-instant
#: arrival runs after all of them).  A batch completion at time ``t`` must
#: free its worker before a deadline or arrival at the same ``t`` checks for
#: idle capacity.  Fault transitions (worker death, repair, throttling) run
#: after completions -- a batch finishing at the very instant its worker
#: dies counts as completed -- but before deadlines and arrivals, so
#: same-instant dispatch decisions always observe the post-fault fleet
#: state.  Retry re-admissions land between faults and deadlines: a request
#: re-queued at ``t`` is already back in its queue when the deadline/arrival
#: arbitration at ``t`` runs.
COMPLETION_PRIORITY = 0
FAULT_PRIORITY = 1
RETRY_PRIORITY = 2
DEADLINE_PRIORITY = 3


class SimulationClock:
    """Monotonic simulated-time holder for one discrete-event run."""

    def __init__(self, start_s: float = 0.0) -> None:
        self._now_s = float(start_s)

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_s

    def advance_to(self, time_s: float) -> float:
        """Move the clock forward to ``time_s`` (never backwards)."""
        if time_s < self._now_s:
            raise ValueError(
                f"cannot advance clock backwards: {time_s} < {self._now_s}"
            )
        self._now_s = float(time_s)
        return self._now_s


class EventQueue:
    """Min-heap of ``(time_s, priority, seq, payload)`` entries.

    The three-part key makes the pop order a deterministic total order (see
    the module docstring); ``payload`` is never compared, so any object --
    including unorderable dataclasses -- can be scheduled.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time_s: float, priority: int, payload: Any) -> int:
        """Schedule ``payload`` at ``time_s``; returns its sequence number."""
        if time_s < 0:
            raise ValueError(f"event time must be >= 0, got {time_s}")
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (float(time_s), int(priority), seq, payload))
        return seq

    def pop(self) -> tuple[float, int, int, Any]:
        """Remove and return the earliest ``(time_s, priority, seq, payload)``."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        return heapq.heappop(self._heap)

    def drain(self) -> list[tuple[float, int, int, Any]]:
        """Remove and return all remaining entries in pop order."""
        remaining = [heapq.heappop(self._heap) for _ in range(len(self._heap))]
        return remaining
