"""Wall-clock event-loop profiler: where does the serving hot path spend time?

ROADMAP item 3 wants the event loop made several times faster; this module
produces the data that justifies (and later validates) that work.  A
:class:`LoopProfiler` measures the *wall-clock* cost of the discrete-event
machinery itself:

* per-event-kind handler timing -- one fixed-log-bucket histogram per
  payload type (``CompletionEvent``, ``DeadlineEvent``, ...), so the profile
  says which handler dominates.  Arrivals never enter the event queue: the
  runtime admits them in spans (every arrival up to the next one that
  changes the loop's state, or the next scheduled event), and each span is
  one ``ArrivalEvent`` sample, however many arrivals it took;
* whole-loop throughput -- events processed per wall second between
  :meth:`LoopProfiler.start` and :meth:`LoopProfiler.stop`.  Every
  arrival counts as one event, as does every popped event, so
  ``events_processed`` matches the report's;
* :class:`~repro.serve.clock.EventQueue` push/pop costs, captured by
  swapping in an :class:`InstrumentedEventQueue` subclass.

Everything here observes wall time only; nothing reads or writes simulated
state, so profiling cannot perturb a run (the byte-identity tests assert
this).  Timings use :func:`time.perf_counter_ns` and are recorded in
seconds into the shared machine-independent bucket layout
(:data:`~repro.obs.metrics.DEFAULT_TIME_BUCKETS`) -- the *counts* are
machine-dependent (it is a wall-clock profile), the *schema* never is.
"""

from __future__ import annotations

import time
from typing import Any

from repro.serve.clock import EventQueue

from .metrics import DEFAULT_TIME_BUCKETS, Histogram, MetricSample

__all__ = ["InstrumentedEventQueue", "LoopProfiler"]


class LoopProfiler:
    """Accumulates wall-clock timings for one or more event-loop runs.

    Usage: the runtime calls :meth:`start` before its loop, wraps each
    handler dispatch in :func:`time.perf_counter_ns` and feeds the elapsed
    nanoseconds to :meth:`record`, and calls :meth:`stop` after.  Results
    read back via :meth:`summary` (JSON-ready), :meth:`table` (the README's
    per-handler profile), or :meth:`samples` (registry-style samples).
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        self._buckets = buckets
        self._handlers: dict[str, Histogram] = {}
        self._queue_ops: dict[str, Histogram] = {}
        self._events = 0
        self._wall_ns = 0
        self._started_ns: int | None = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Open a wall-clock measurement window (one per ``run()``)."""
        self._started_ns = time.perf_counter_ns()

    def stop(self) -> None:
        """Close the window, accumulating its wall time."""
        if self._started_ns is None:
            raise RuntimeError("LoopProfiler.stop() without start()")
        self._wall_ns += time.perf_counter_ns() - self._started_ns
        self._started_ns = None

    def record(self, kind: str, elapsed_ns: int, n_events: int = 1) -> None:
        """Record one handler invocation for event ``kind`` covering ``n_events``."""
        hist = self._handlers.get(kind)
        if hist is None:
            hist = Histogram(
                "profile.handler_s", (("kind", kind),), buckets=self._buckets
            )
            self._handlers[kind] = hist
        hist.observe(elapsed_ns * 1e-9)
        self._events += n_events

    def record_queue_op(self, op: str, elapsed_ns: int) -> None:
        """Record one ``EventQueue`` ``push``/``pop`` (fed by the subclass)."""
        hist = self._queue_ops.get(op)
        if hist is None:
            hist = Histogram(
                "profile.queue_op_s", (("op", op),), buckets=self._buckets
            )
            self._queue_ops[op] = hist
        hist.observe(elapsed_ns * 1e-9)

    def instrument_queue(self) -> "InstrumentedEventQueue":
        """A fresh :class:`EventQueue` whose push/pop report to this profiler."""
        return InstrumentedEventQueue(self)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    @property
    def events_processed(self) -> int:
        """Events the recorded handler invocations covered so far."""
        return self._events

    @property
    def wall_time_s(self) -> float:
        """Total wall time across closed measurement windows."""
        return self._wall_ns * 1e-9

    @property
    def events_per_sec(self) -> float:
        """Wall-clock event-loop throughput (0.0 before any window closes)."""
        return self._events / self.wall_time_s if self._wall_ns else 0.0

    def summary(self) -> dict[str, Any]:
        """JSON-ready profile: throughput plus per-kind and queue-op stats."""
        def stats(hist: Histogram) -> dict[str, Any]:
            return {
                "count": hist.count,
                "total_s": hist.sum,
                "mean_s": hist.mean if hist.count else 0.0,
                "p50_s": hist.quantile(0.5) if hist.count else 0.0,
                "p99_s": hist.quantile(0.99) if hist.count else 0.0,
            }

        return {
            "events_processed": self._events,
            "wall_time_s": self.wall_time_s,
            "events_per_sec": self.events_per_sec,
            "handlers": {
                kind: stats(hist) for kind, hist in sorted(self._handlers.items())
            },
            "queue_ops": {
                op: stats(hist) for op, hist in sorted(self._queue_ops.items())
            },
        }

    def table(self) -> str:
        """The per-handler profile as a markdown table (README-ready).

        Rows are sorted by total time descending -- the first row is where
        the hot-path rewrite should start.
        """
        rows = [
            (kind, hist.count, hist.sum, hist.mean)
            for kind, hist in self._handlers.items()
        ] + [
            (f"EventQueue.{op}", hist.count, hist.sum, hist.mean)
            for op, hist in self._queue_ops.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        lines = [
            "| handler | calls | total | mean/call | share |",
            "| --- | ---: | ---: | ---: | ---: |",
        ]
        total_s = sum(row[2] for row in rows) or 1.0
        for kind, count, total, mean in rows:
            lines.append(
                f"| `{kind}` | {count} | {total * 1e3:.2f} ms"
                f" | {mean * 1e6:.2f} us | {100 * total / total_s:.1f}% |"
            )
        return "\n".join(lines)

    def samples(self) -> list[MetricSample]:
        """Registry-style samples (merged into metrics exports when enabled)."""
        out = [hist.sample() for hist in self._handlers.values()]
        out += [hist.sample() for hist in self._queue_ops.values()]
        out.append(
            MetricSample(
                "profile.events_processed", "counter", (), float(self._events)
            )
        )
        out.append(
            MetricSample("profile.wall_time_s", "gauge", (), self.wall_time_s)
        )
        out.append(
            MetricSample("profile.events_per_sec", "gauge", (), self.events_per_sec)
        )
        out.sort(key=lambda s: (s.name, s.labels))
        return out

    def write(self, path) -> None:
        """Write :meth:`summary` as JSON to ``path``."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.summary(), indent=2) + "\n")


class InstrumentedEventQueue(EventQueue):
    """An :class:`EventQueue` that reports push/pop wall costs to a profiler.

    Behaviourally identical to the base queue -- same ordering, same
    sequence numbers -- so swapping it in cannot change a simulation.
    """

    def __init__(self, profiler: LoopProfiler) -> None:
        super().__init__()
        self._profiler = profiler

    def push(self, time_s: float, priority: int, payload: Any) -> int:
        t0 = time.perf_counter_ns()
        seq = super().push(time_s, priority, payload)
        self._profiler.record_queue_op("push", time.perf_counter_ns() - t0)
        return seq

    def pop(self) -> tuple[float, int, int, Any]:
        t0 = time.perf_counter_ns()
        entry = super().pop()
        self._profiler.record_queue_op("pop", time.perf_counter_ns() - t0)
        return entry
