"""Execution tracing in Chrome trace-event JSON (Perfetto-openable).

A :class:`Tracer` collects *spans* (durations) and *instant events* into
the `Chrome trace-event format`_ -- the JSON timeline that
``chrome://tracing`` and https://ui.perfetto.dev open directly.  The
serving runtime maps **simulated** time onto the trace timebase (one trace
microsecond per simulated microsecond): each
:class:`~repro.serve.workers.AcceleratorWorker` becomes a trace "thread"
carrying its batch-execution, throttle, downtime, and drain spans; each
request becomes a nestable async span split into queue-wait and service
phases; faults, retries, and sheds land as instant events.  Wall-clock
sections (study runs, sweep chunks) go onto their own clearly-named
processes so the two timebases never share a track.

It records *execution timelines*; the *workload structure* (dot-product
shapes) of a DNN model comes from ``model.workloads()``.

Event phases used (the schema test pins exactly these):

* ``X`` -- complete span (``ts`` + ``dur``), e.g. one batch execution or
  one throttle/downtime episode;
* ``b``/``e`` -- nestable async spans correlated by ``(cat, id)`` across
  threads, used for request lifetimes;
* ``i`` -- instant events (faults, sheds, retries);
* ``C`` -- counter series (queue depth over time);
* ``M`` -- metadata naming processes and threads.

.. _Chrome trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import time
from typing import Any

__all__ = ["Tracer"]

#: Trace-timebase microseconds per second.
_US = 1e6


class Tracer:
    """Collects Chrome trace events; export with :meth:`to_json`/:meth:`write`.

    One tracer may span several runs/scenarios: :meth:`new_process`
    allocates a fresh ``pid`` (a separate named track group), so a whole
    study session -- every serving scenario plus the wall-clock sweep
    timeline -- lands in one trace file without id collisions.

    All ``*_s`` timestamps are seconds in the caller's timebase (simulated
    or wall); they are scaled to trace microseconds.  Export sorts
    by timestamp (metadata first), so events may be emitted out of order --
    the serving runtime emits a batch's span at *completion* time, when its
    true extent is known.
    """

    def __init__(self) -> None:
        self._events: list[tuple] = []
        self._meta: list[dict[str, Any]] = []
        self._next_pid = 1
        self._pids: dict[str, int] = {}
        self._wall_epoch: float | None = None

    def __len__(self) -> int:
        blocks = {"counters": 1, "spans": 2}  # events per element of a block
        return len(self._meta) + sum(
            blocks[event[0]] * len(event[3]) if event[0] in blocks else 1
            for event in self._events
        )

    # ------------------------------------------------------------------ #
    # Track management
    # ------------------------------------------------------------------ #
    def new_process(self, name: str) -> int:
        """Allocate a fresh ``pid`` and name its track group."""
        pid = self._next_pid
        self._next_pid += 1
        self._meta.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )
        return pid

    def process(self, name: str) -> int:
        """The pid named ``name``, allocating it on first use.

        Unlike :meth:`new_process` (always fresh), this memoizes by name, so
        repeated callers -- every sweep of a session reporting onto the
        ``"sim.sweep (wall)"`` track, say -- share one track group.
        """
        pid = self._pids.get(name)
        if pid is None:
            pid = self._pids[name] = self.new_process(name)
        return pid

    def wall_now(self) -> float:
        """Seconds since this tracer's wall epoch (first call defines 0).

        Wall-clock sections (study runs, sweep chunks) use this as their
        timebase so spans from different callers line up on one timeline.
        Keep wall tracks on their own processes, named ``"... (wall)"`` --
        they must never share a track with simulated-time spans.
        """
        now = time.perf_counter()
        if self._wall_epoch is None:
            self._wall_epoch = now
        return now - self._wall_epoch

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        """Name one thread track within a process."""
        self._meta.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )

    # ------------------------------------------------------------------ #
    # Event emission
    # ------------------------------------------------------------------ #
    # Single events are stored as ``(ts_us, ph, name, pid, tid, cat, extra,
    # args)`` tuples (``extra``: an X span's duration, an async event's id)
    # and become trace-event dicts only on export.  The bulk emitters store
    # their parallel sequences as one ``("counters", ...)`` or
    # ``("spans", ...)`` block, split into events on export, so a traced
    # serving run spends no per-request step on its request spans.
    def complete(
        self,
        ts_s: float,
        dur_s: float,
        name: str,
        pid: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        """One ``X`` span: a duration whose extent is known at emission."""
        self._events.append(
            (ts_s * _US, "X", name, pid, tid, None, max(0.0, dur_s) * _US, args)
        )

    def instant(
        self,
        ts_s: float,
        name: str,
        pid: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        """A thread-scoped ``i`` instant event (faults, sheds, retries)."""
        self._events.append((ts_s * _US, "i", name, pid, tid, None, None, args))

    def counter(
        self, ts_s: float, name: str, pid: int, tid: int, values: dict[str, float]
    ) -> None:
        """A ``C`` counter sample (rendered as an area chart over time)."""
        self._events.append((ts_s * _US, "C", name, pid, tid, None, None, dict(values)))

    def counters(self, pid: int, tid: int, ts_s, names, values) -> None:
        """``C`` samples from parallel sequences, in order.

        The sequences and each ``values`` dict (a sample's ``args``) are
        kept, not copied: do not change them afterwards.
        """
        self._events.append(("counters", pid, tid, ts_s, names, values))

    def async_spans(self, pid: int, cat: str, starts_s, ends_s, names, ids, tids) -> None:
        """``b``/``e`` pairs of category ``cat`` from parallel sequences, in order.

        The sequences are kept, not copied: do not change them afterwards.
        """
        self._events.append(("spans", pid, cat, starts_s, ends_s, names, ids, tids))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """The trace as a JSON-object-format Chrome trace.

        Metadata events lead; real events follow sorted by ``(ts, emission
        order)``, so ``ts`` is monotonic within the payload -- the property
        the schema test asserts and some viewers silently rely on.
        """
        ordered = sorted(self._expanded(), key=lambda keyed: keyed[:3])
        return {
            "traceEvents": self._meta + [_event_dict(*event) for *_, event in ordered],
            "displayTimeUnit": "ms",
        }

    def _expanded(self):
        """Every stored event as ``(ts_us, index, sub, event)``, blocks split.

        ``index`` is the emission order and ``sub`` the order within a
        block, so sorting on the first three fields orders by time, then by
        emission.
        """
        for index, event in enumerate(self._events):
            if event[0] == "counters":
                _, pid, tid, ts_s, names, values = event
                for sub, (ts, name, value) in enumerate(zip(ts_s, names, values)):
                    ts_us = ts * _US
                    yield ts_us, index, sub, (ts_us, "C", name, pid, tid, None, None, value)
            elif event[0] == "spans":
                _, pid, cat, starts_s, ends_s, names, ids, tids = event
                for sub, (start, end, name, correlation_id, tid) in enumerate(
                    zip(starts_s, ends_s, names, ids, tids)
                ):
                    start_us, end_us = start * _US, end * _US
                    yield start_us, index, 2 * sub, (
                        start_us, "b", name, pid, tid, cat, correlation_id, None
                    )
                    yield end_us, index, 2 * sub + 1, (
                        end_us, "e", name, pid, tid, cat, correlation_id, None
                    )
            else:
                yield event[0], index, 0, event

    def to_json(self, indent: int | None = None) -> str:
        """The trace serialised as JSON (compact by default; traces are big)."""
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path) -> None:
        """Write the trace JSON to ``path`` (open it in Perfetto)."""
        from pathlib import Path

        Path(path).write_text(self.to_json() + "\n")


def _event_dict(ts, ph, name, pid, tid, cat, extra, args) -> dict[str, Any]:
    """The trace-event dict of one stored event tuple."""
    if ph == "C":
        return {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid, "args": args}
    if ph == "X":
        event = {"name": name, "ph": ph, "ts": ts, "dur": extra, "pid": pid, "tid": tid}
    elif ph == "i":
        event = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid, "s": "t"}
    else:
        event = {
            "name": name, "cat": cat, "ph": ph, "id": extra,
            "ts": ts, "pid": pid, "tid": tid,
        }
    if args:
        event["args"] = args
    return event
