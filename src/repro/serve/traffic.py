"""Seeded request-arrival processes for the serving simulator.

Every traffic generator maps a NumPy :class:`~numpy.random.Generator` to a
sorted array of arrival times inside ``[0, duration_s)``; the serving
runtime turns those into :class:`~repro.serve.events.Request` records.  The
same generator state always produces the same arrivals, so a ``seed``
pins an entire serving scenario end to end.

Three processes cover the usual serving-evaluation shapes:

* :class:`PoissonTraffic` -- steady memoryless load at a fixed rate;
* :class:`BurstyTraffic` -- a two-state Markov-modulated Poisson process
  (exponentially distributed dwell times in a base-rate and a burst-rate
  state), the standard bursty-load model;
* :class:`TraceTraffic` -- replay of explicit arrival timestamps (measured
  production traces, adversarial patterns, test fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_positive


def _poisson_arrivals(
    rng: np.random.Generator, rate_rps: float, start_s: float, end_s: float
) -> np.ndarray:
    """Exponential-gap arrivals at ``rate_rps`` within ``[start_s, end_s)``.

    Consumes the generator exactly as drawing one gap at a time until an
    arrival lands at or past ``end_s`` would (``k`` arrivals use ``k + 1``
    gaps), so interleaved processes (the bursty generator switching states)
    keep the same draw sequence -- and therefore the same trace.  The gaps
    are drawn in chunks from a saved generator state; once the cut is
    known the state is restored and exactly ``k + 1`` gaps are redrawn.
    ``np.cumsum`` adds left to right, so every arrival time is the same
    float the one-gap-at-a-time sum produces.
    """
    scale = 1.0 / rate_rps
    state = rng.bit_generator.state
    expected = rate_rps * (end_s - start_s)
    chunk = int(expected + 4.0 * np.sqrt(expected)) + 16
    times = np.cumsum(np.concatenate(([start_s], rng.exponential(scale, size=chunk))))[1:]
    while times[-1] < end_s:
        more = np.cumsum(np.concatenate(([times[-1]], rng.exponential(scale, size=chunk))))
        times = np.concatenate((times, more[1:]))
    n_arrivals = int(np.searchsorted(times, end_s, side="left"))
    rng.bit_generator.state = state
    rng.exponential(scale, size=n_arrivals + 1)
    return times[:n_arrivals]


class TrafficProcess:
    """Base class for arrival processes.

    Sub-classes set ``duration_s`` and implement :meth:`arrival_times`;
    :meth:`generate` is the seeded convenience entry point.
    """

    duration_s: float

    def arrival_times(self, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times in ``[0, duration_s)`` drawn from ``rng``."""
        raise NotImplementedError

    def generate(self, seed: int = 0) -> np.ndarray:
        """Arrival times from a fresh ``default_rng(seed)`` stream."""
        return self.arrival_times(np.random.default_rng(seed))

    def describe(self) -> str:
        """One-line description used in serving reports."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonTraffic(TrafficProcess):
    """Steady Poisson arrivals: exponential gaps at a constant rate."""

    rate_rps: float
    duration_s: float

    def __post_init__(self) -> None:
        check_positive("rate_rps", self.rate_rps)
        check_positive("duration_s", self.duration_s)

    def arrival_times(self, rng: np.random.Generator) -> np.ndarray:
        return _poisson_arrivals(rng, self.rate_rps, 0.0, self.duration_s)

    def describe(self) -> str:
        return f"poisson(rate={self.rate_rps:g}rps, duration={self.duration_s:g}s)"


@dataclass(frozen=True)
class BurstyTraffic(TrafficProcess):
    """Two-state Markov-modulated Poisson process (base load + bursts).

    The process starts in the base state; dwell times in each state are
    exponential with the given means, and arrivals within a dwell window
    are Poisson at that state's rate.
    """

    base_rate_rps: float
    burst_rate_rps: float
    duration_s: float
    mean_base_dwell_s: float
    mean_burst_dwell_s: float

    def __post_init__(self) -> None:
        check_positive("base_rate_rps", self.base_rate_rps)
        check_positive("burst_rate_rps", self.burst_rate_rps)
        check_positive("duration_s", self.duration_s)
        check_positive("mean_base_dwell_s", self.mean_base_dwell_s)
        check_positive("mean_burst_dwell_s", self.mean_burst_dwell_s)
        if self.burst_rate_rps < self.base_rate_rps:
            raise ValueError(
                "burst_rate_rps must be >= base_rate_rps, got "
                f"{self.burst_rate_rps} < {self.base_rate_rps}"
            )

    def arrival_times(self, rng: np.random.Generator) -> np.ndarray:
        chunks = [np.empty(0)]
        t = 0.0
        bursting = False
        while t < self.duration_s:
            mean_dwell = self.mean_burst_dwell_s if bursting else self.mean_base_dwell_s
            rate = self.burst_rate_rps if bursting else self.base_rate_rps
            dwell_end = min(t + rng.exponential(mean_dwell), self.duration_s)
            chunks.append(_poisson_arrivals(rng, rate, t, dwell_end))
            t = dwell_end
            bursting = not bursting
        return np.concatenate(chunks)

    def describe(self) -> str:
        return (
            f"bursty(base={self.base_rate_rps:g}rps, burst={self.burst_rate_rps:g}rps, "
            f"dwell={self.mean_base_dwell_s:g}s/{self.mean_burst_dwell_s:g}s, "
            f"duration={self.duration_s:g}s)"
        )


@dataclass(frozen=True)
class TraceTraffic(TrafficProcess):
    """Replay of explicit arrival timestamps (seed-independent)."""

    times_s: tuple[float, ...]
    duration_s: float = field(default=0.0)

    def __init__(self, times_s, duration_s: float | None = None) -> None:
        times = tuple(float(t) for t in times_s)
        if not times:
            raise ValueError("a trace must contain at least one arrival")
        if any(t < 0 for t in times):
            raise ValueError("trace arrival times must be >= 0")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace arrival times must be sorted ascending")
        if duration_s is None:
            duration_s = float(np.nextafter(times[-1], np.inf))
        if duration_s <= times[-1]:
            raise ValueError(
                f"duration_s must exceed the last arrival, got {duration_s} "
                f"<= {times[-1]}"
            )
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "duration_s", float(duration_s))

    def arrival_times(self, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self.times_s)

    def describe(self) -> str:
        return (
            f"trace(n={len(self.times_s)}, duration={self.duration_s:g}s)"
        )
