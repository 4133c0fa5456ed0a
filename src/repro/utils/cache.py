"""Shared-result memoization for sweep-style workloads.

Parameter sweeps (drift vs. accuracy, pitch vs. tuning power, design-space
grids) repeatedly evaluate expensive sub-results that depend on only a small
tuple of parameters: thermal-crosstalk matrices and their eigendecompositions
keyed by ``(n_rings, pitch)``, ideal-accuracy baselines keyed by the model and
dataset, and so on.  :func:`memoize` provides a small, thread-safe LRU cache
for such functions, with ``lru_cache``-style introspection so tests and
benchmarks can assert cache behaviour (hit counts, eviction).

This module deliberately lives in :mod:`repro.utils` -- importing nothing
from the device/sim/experiment layers -- so that device- and tuning-layer
modules can memoize shared sub-results without import cycles.  The public
sweep API re-exports it from :mod:`repro.sim.sweep`.

Notes
-----
* Cached values are returned by reference; callers must treat them as
  immutable (array-returning functions should mark their result read-only
  with ``array.setflags(write=False)``).
* When a memoized function is shipped to a process pool each worker process
  holds its own cache; memoization still pays off within a worker but hit
  statistics are per-process.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["CacheInfo", "iter_cache_infos", "memoize"]


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of a memoized function's cache statistics."""

    hits: int
    misses: int
    currsize: int
    maxsize: int


# Every @memoize()-wrapped function registers itself here (keyed by
# qualified name), so session-level tooling -- the study runner's report
# envelope, diagnostics -- can account cache behaviour across the whole
# process without knowing which modules memoize what.  Values are weak:
# a memoized function created inside another function (tests do this)
# drops out of the registry when it is garbage-collected instead of
# leaking; two live functions sharing a qualname keep the last-registered
# one, which module-level definitions never hit.
_CACHE_REGISTRY: "weakref.WeakValueDictionary[str, Callable]" = weakref.WeakValueDictionary()
_CACHE_REGISTRY_LOCK = threading.Lock()


def iter_cache_infos() -> list[tuple[str, CacheInfo]]:
    """``(module.qualname, CacheInfo)`` for every live memoized function.

    This is the primitive the metrics layer's cache collector reads
    (:func:`repro.obs.metrics.cache_collector`); the source of truth stays
    inside each wrapper, so surfacing the numbers costs the cache hot path
    nothing.  Sorted by name for stable iteration.
    """
    with _CACHE_REGISTRY_LOCK:
        functions = sorted(_CACHE_REGISTRY.items())
    return [(name, fn.cache_info()) for name, fn in functions]


def memoize(maxsize: int = 128) -> Callable:
    """Decorate a function with a thread-safe LRU cache.

    Unlike :func:`functools.lru_cache` the wrapper computes misses *outside*
    the lock, so a slow computation (an eigendecomposition, a model
    evaluation) does not serialise unrelated cache lookups from other
    threads.

    Parameters
    ----------
    maxsize:
        Maximum number of cached entries; the least recently used entry is
        evicted first.  Must be a positive integer.

    Returns
    -------
    Callable
        A decorator.  The wrapped function gains ``cache_info()`` and
        ``cache_clear()`` methods.  All arguments of the wrapped function
        must be hashable.
    """
    if callable(maxsize):  # pragma: no cover - guard against bare @memoize
        raise TypeError("memoize requires parentheses: use @memoize() or @memoize(maxsize=N)")
    if not isinstance(maxsize, int) or isinstance(maxsize, bool) or maxsize <= 0:
        raise ValueError(f"maxsize must be a positive int, got {maxsize!r}")

    def decorator(fn: Callable) -> Callable:
        cache: OrderedDict[Any, Any] = OrderedDict()
        lock = threading.Lock()
        stats = {"hits": 0, "misses": 0}
        sentinel = object()

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
            with lock:
                value = cache.get(key, sentinel)
                if value is not sentinel:
                    cache.move_to_end(key)
                    stats["hits"] += 1
                    return value
            value = fn(*args, **kwargs)
            with lock:
                stats["misses"] += 1
                cache[key] = value
                cache.move_to_end(key)
                while len(cache) > maxsize:
                    cache.popitem(last=False)
            return value

        def cache_info() -> CacheInfo:
            with lock:
                return CacheInfo(
                    hits=stats["hits"],
                    misses=stats["misses"],
                    currsize=len(cache),
                    maxsize=maxsize,
                )

        def cache_clear() -> None:
            with lock:
                cache.clear()
                stats["hits"] = 0
                stats["misses"] = 0

        wrapper.cache_info = cache_info
        wrapper.cache_clear = cache_clear
        with _CACHE_REGISTRY_LOCK:
            _CACHE_REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = wrapper
        return wrapper

    return decorator
