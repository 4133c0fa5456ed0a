"""Unified parameter-sweep engine for the experiment drivers.

Every result in the paper is a *sweep*: drift vs. accuracy, pitch vs. tuning
power, bank size vs. resolution, a (N, K, n, m) design-space grid.  Before
this module each experiment driver hand-rolled its own loop; they now all run
on the same engine, which gives them, for free:

* **declarative parameter spaces** -- :func:`grid` (cartesian product)
  builds the point lists the drivers iterate;
* **per-point result records** -- :class:`SweepPoint` keeps the parameters
  next to the value they produced, and :class:`SweepResult` returns the
  values in sweep order;
* **one process pool** -- pass a :class:`SweepExecutor` to :func:`run_sweep`
  to fan independent points out across its warm worker processes (the
  evaluation function and its arguments must then be picklable, i.e.
  module-level functions or :func:`functools.partial` over them); without
  one the sweep runs serially in this process;
* **memoization of expensive shared sub-results** -- :func:`memoize`
  (re-exported from :mod:`repro.utils.cache`) caches quantities many points
  share, such as thermal-crosstalk matrices and TED eigendecompositions
  keyed by ``(n_rings, pitch)``, or ideal-accuracy baselines reused across
  every drift point of an accuracy sweep.

Example
-------
>>> from repro.sim.sweep import grid, run_sweep
>>> result = run_sweep(lambda x, y: x * y, grid(x=(1, 2), y=(10, 20)))
>>> result.values
(10, 20, 20, 40)
>>> [point.params["x"] for point in result]
[1, 1, 2, 2]
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.utils.cache import CacheInfo, memoize

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from repro.obs import Observability

__all__ = [
    "CacheInfo",
    "SweepExecutor",
    "SweepPoint",
    "SweepResult",
    "grid",
    "memoize",
    "plan_chunks",
    "run_sweep",
]


# ---------------------------------------------------------------------- #
# Chunk planning
# ---------------------------------------------------------------------- #
def plan_chunks(
    n_items: int, n_chunks: int | None = None, chunk_size: int | None = None
) -> list[range]:
    """Split ``range(n_items)`` into contiguous, near-equal chunks.

    This is the one chunking policy shared by everything that bounds work or
    memory by splitting an axis: the ensemble inference engine chunking its
    member axis, :func:`repro.sim.photonic_inference.monte_carlo_accuracy`
    spreading seed chunks over a process pool, and :class:`SweepExecutor`
    batching sweep points per worker task.

    Parameters
    ----------
    n_items:
        Total number of items (``0`` yields no chunks).
    n_chunks:
        Desired number of chunks; capped at ``n_items`` and sized within one
        item of each other (``numpy.array_split`` semantics), preserving
        order.
    chunk_size:
        Alternative spelling: maximum items per chunk.  Exactly one of
        ``n_chunks`` / ``chunk_size`` must be given.

    Returns
    -------
    list of range
        Contiguous index ranges covering ``0..n_items`` in order.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if (n_chunks is None) == (chunk_size is None):
        raise ValueError("pass exactly one of n_chunks / chunk_size")
    if n_items == 0:
        return []
    if chunk_size is not None:
        check = int(chunk_size)
        if check < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        return [range(start, min(start + check, n_items)) for start in range(0, n_items, check)]
    count = min(int(n_chunks), n_items)
    if count < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    base, extra = divmod(n_items, count)
    chunks: list[range] = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        chunks.append(range(start, stop))
        start = stop
    return chunks


# ---------------------------------------------------------------------- #
# Parameter spaces
# ---------------------------------------------------------------------- #
def grid(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named parameter axes, as keyword dictionaries.

    The first axis varies slowest (matching the nested-loop order the
    experiment drivers used before the refactor), so ``grid(a=(1, 2),
    b=(3, 4))`` yields ``a=1,b=3``, ``a=1,b=4``, ``a=2,b=3``, ``a=2,b=4``.
    """
    if not axes:
        raise ValueError("grid requires at least one axis")
    names = list(axes)
    values = [list(axis) for axis in axes.values()]
    for name, axis in zip(names, values):
        if not axis:
            raise ValueError(f"grid axis {name!r} is empty")
    return [dict(zip(names, combo)) for combo in itertools.product(*values)]


# ---------------------------------------------------------------------- #
# Result records
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a sweep: its parameters and its value."""

    index: int
    params: dict[str, Any]
    value: Any


@dataclass(frozen=True)
class SweepResult:
    """Ordered collection of evaluated sweep points."""

    points: tuple[SweepPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def values(self) -> tuple[Any, ...]:
        """Evaluation results in sweep order."""
        return tuple(point.value for point in self.points)

    def value_array(self, extract: Callable[[Any], Any] | None = None) -> np.ndarray:
        """The per-point values (optionally projected) as a NumPy array."""
        if extract is None:
            return np.asarray(self.values)
        return np.asarray([extract(value) for value in self.values])


# ---------------------------------------------------------------------- #
# Engine
# ---------------------------------------------------------------------- #
def _evaluate_chunk(
    fn: Callable[..., Any], chunk: list[dict[str, Any]]
) -> tuple[list[Any], float]:
    """Evaluate a contiguous chunk of points in one worker task.

    Also reports the chunk's wall time, from which the pool-utilisation
    gauge is computed when observability is enabled.
    """
    t0 = time.perf_counter()
    values = [fn(**point) for point in chunk]
    return values, time.perf_counter() - t0


class SweepExecutor:
    """The process pool every parallel sweep runs on.

    A ``SweepExecutor`` owns one
    :class:`~concurrent.futures.ProcessPoolExecutor`, created lazily on first
    use and kept alive until :meth:`shutdown` (it is also a context manager),
    so the many sweeps of a session -- Monte-Carlo studies per model,
    repeated drift scans, the experiment drivers run back to back -- reuse
    warm workers instead of paying start-up each time.
    :class:`~repro.study.runner.StudyRunner` holds one per session.

    Because the pool outlives any single sweep, points are batched into
    :func:`plan_chunks` chunks and the evaluation function is shipped once
    per chunk (not once per point), keeping the IPC overhead at
    ``O(n_workers)`` rather than ``O(n_points)``.

    Example
    -------
    >>> with SweepExecutor(n_workers=4) as executor:
    ...     for model in models:
    ...         run_sweep(fn, points(model), executor=executor)
    """

    def __init__(self, n_workers: int) -> None:
        if isinstance(n_workers, bool) or not isinstance(n_workers, int):
            raise TypeError(f"n_workers must be an int, got {n_workers!r}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def map(
        self,
        fn: Callable[..., Any],
        point_params: Sequence[dict[str, Any]],
        obs: "Observability | None" = None,
    ) -> list[Any]:
        """Evaluate ``fn(**point)`` for every point, preserving input order.

        With an :class:`~repro.obs.Observability` bundle attached, per-chunk
        wall times come back from the workers and feed ``sim.sweep.chunk_s``
        histograms plus the ``sim.sweep.pool_utilisation`` gauge (summed
        chunk busy time over ``n_workers`` x elapsed wall time).
        """
        if len(point_params) <= 1:
            return [fn(**point) for point in point_params]
        pool = self._ensure_pool()
        # A few chunks per worker balances load without re-pickling fn often.
        chunks = plan_chunks(len(point_params), n_chunks=self.n_workers * 4)
        t0 = time.perf_counter()
        futures = [
            pool.submit(_evaluate_chunk, fn, [point_params[i] for i in chunk])
            for chunk in chunks
        ]
        results = [future.result() for future in futures]
        elapsed_s = time.perf_counter() - t0
        registry = obs.metrics if obs is not None else None
        if registry is not None:
            labels = obs.label()
            chunk_hist = registry.histogram(
                "sim.sweep.chunk_s", labels, help="wall time per pool chunk"
            )
            busy_s = 0.0
            for _, chunk_elapsed_s in results:
                chunk_hist.observe(chunk_elapsed_s)
                busy_s += chunk_elapsed_s
            registry.counter(
                "sim.sweep.chunks", labels, help="pool chunks executed"
            ).inc(len(chunks))
            if elapsed_s > 0:
                registry.gauge(
                    "sim.sweep.pool_utilisation", labels,
                    help="summed chunk busy time / (n_workers x elapsed wall time)",
                ).set(busy_s / (self.n_workers * elapsed_s))
        return [value for values, _ in results for value in values]

    def shutdown(self) -> None:
        """Stop the pool's workers (the executor can be reused afterwards)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


def run_sweep(
    fn: Callable[..., Any],
    params: Sequence[Mapping[str, Any]] | Iterable[Mapping[str, Any]],
    executor: SweepExecutor | None = None,
    obs: "Observability | None" = None,
) -> SweepResult:
    """Evaluate ``fn`` at every parameter point and collect the results.

    Parameters
    ----------
    fn:
        Evaluation function, called as ``fn(**point)`` for each point.  With
        an ``executor`` it must be picklable (a module-level function or a
        :func:`functools.partial` over one), as must its arguments and
        results.
    params:
        Iterable of keyword dictionaries, typically built with :func:`grid`.
    executor:
        ``None`` (the default, and the right choice for cheap points)
        evaluates serially in this process.  A :class:`SweepExecutor` fans
        the points out over its warm worker pool; results still come back
        in sweep order.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Metrics record
        points evaluated, per-point wall times (serial sweeps), per-chunk
        wall times and pool utilisation (executor sweeps); the tracer gets
        one wall-clock span per sweep (and per point, when serial) on the
        ``"sim.sweep (wall)"`` track.  Evaluation results are unaffected.

    Returns
    -------
    SweepResult
        One :class:`SweepPoint` per input point, in input order.
    """
    point_params: list[dict[str, Any]] = []
    for point in params:
        if not isinstance(point, Mapping):
            raise TypeError(
                f"sweep points must be mappings of keyword arguments, got {type(point).__name__}"
            )
        point_params.append(dict(point))

    registry = obs.metrics if obs is not None else None
    tracer = obs.tracer if obs is not None else None
    sweep_start_s = tracer.wall_now() if tracer is not None else 0.0
    t0 = time.perf_counter()

    if executor is not None:
        values = executor.map(fn, point_params, obs=obs)
    elif registry is not None or tracer is not None:
        point_hist = (
            registry.histogram(
                "sim.sweep.point_s", obs.label(),
                help="wall time per serially evaluated sweep point",
            )
            if registry is not None
            else None
        )
        pid = tracer.process("sim.sweep (wall)") if tracer is not None else 0
        values = []
        for index, point in enumerate(point_params):
            start_s = tracer.wall_now() if tracer is not None else 0.0
            p0 = time.perf_counter()
            values.append(fn(**point))
            elapsed_s = time.perf_counter() - p0
            if point_hist is not None:
                point_hist.observe(elapsed_s)
            if tracer is not None:
                tracer.complete(
                    start_s, elapsed_s, f"point {index}", pid, 1,
                    args={k: repr(v) for k, v in point.items()},
                )
    else:
        values = [fn(**point) for point in point_params]

    if registry is not None:
        labels = obs.label()
        registry.counter(
            "sim.sweep.points", labels, help="sweep points evaluated"
        ).inc(len(point_params))
        registry.counter(
            "sim.sweep.sweeps", labels, help="sweeps executed"
        ).inc()
        registry.gauge(
            "sim.sweep.wall_time_s", labels,
            help="cumulative wall time spent inside run_sweep",
        ).inc(time.perf_counter() - t0)
    if tracer is not None:
        tracer.complete(
            sweep_start_s, time.perf_counter() - t0,
            f"sweep x{len(point_params)}",
            tracer.process("sim.sweep (wall)"), 0,
            args={"points": len(point_params), "serial": executor is None},
        )

    return SweepResult(
        points=tuple(
            SweepPoint(index=index, params=point, value=value)
            for index, (point, value) in enumerate(zip(point_params, values))
        )
    )
