"""Deterministic metrics substrate: counters, gauges, and log-bucket histograms.

A :class:`MetricsRegistry` is the one place every layer of the stack --
the serving runtime (``serve.runtime.*``), the sweep engine
(``sim.sweep.*``), the study runner (``study.runner.*``), and the
memoization caches (``cache.*``) -- reports its accounting.  Three metric
kinds cover the stack's needs:

* :class:`Counter` -- monotonically increasing event counts (arrivals,
  dispatches, cache hits);
* :class:`Gauge` -- last-written values (queue depth, pool utilisation,
  wall time of the most recent run);
* :class:`Histogram` -- distribution sketches over **fixed log-spaced
  buckets** (:func:`log_buckets`), so two machines observing the same
  values produce byte-identical bucket layouts and, for simulated-time
  observations, byte-identical counts.  Only the *observations* of
  wall-clock histograms are machine-dependent; the schema never is.

Registries export two ways: :meth:`MetricsRegistry.to_json` (stable,
sorted JSON for report envelopes and artefact files) and
:meth:`MetricsRegistry.to_prometheus` (Prometheus text exposition format,
dots mapped to underscores), so the same snapshot feeds both offline
analysis and scrape-style tooling.

*Collectors* bridge metrics whose source of truth lives elsewhere: a
registered collector is called at snapshot time and returns extra samples.
The memoization caches of :mod:`repro.utils.cache` are surfaced this way
(``cache.hits`` / ``cache.misses`` / ``cache.size`` counters labelled by
function), making the registry the unified read surface for cache
accounting without adding a single instruction to the cache hot path.

This module imports only the standard library plus
:mod:`repro.utils.cache` (itself stdlib-only), so any layer may depend on
it without import cycles.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "cache_collector",
    "log_buckets",
]


def log_buckets(
    lo: float, hi: float, per_decade: int = 4
) -> tuple[float, ...]:
    """Fixed log-spaced histogram bucket bounds, machine-independent.

    Returns the upper bounds ``lo * 10**(k/per_decade)`` for ``k = 0 ..``
    until ``hi`` is reached (inclusive), computed from integer exponents so
    every machine derives the exact same floats.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n_steps = math.ceil(round(per_decade * math.log10(hi / lo), 9))
    return tuple(lo * 10 ** (k / per_decade) for k in range(n_steps + 1))


#: Default bucket layout for wall-clock durations in seconds: 100 ns to
#: 10 s, four buckets per decade.  Fixed so profiles from different
#: machines share one schema.
DEFAULT_TIME_BUCKETS = log_buckets(1e-7, 10.0, per_decade=4)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named metric instance with immutable labels."""

    kind = "untyped"

    def __init__(self, name: str, labels: _LabelKey, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help

    def sample(self) -> "MetricSample":
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: _LabelKey, help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only increase, got inc({amount})")
        self.value += amount

    def sample(self) -> "MetricSample":
        return MetricSample(
            name=self.name, kind=self.kind, labels=self.labels,
            value=self.value, help=self.help,
        )


class Gauge(Metric):
    """A last-written value."""

    kind = "gauge"

    def __init__(self, name: str, labels: _LabelKey, help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Write the gauge's current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount

    def sample(self) -> "MetricSample":
        return MetricSample(
            name=self.name, kind=self.kind, labels=self.labels,
            value=self.value, help=self.help,
        )


class Histogram(Metric):
    """A distribution over fixed bucket upper bounds (plus +Inf overflow).

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    (non-cumulative per bucket); ``counts[-1]`` is the +Inf overflow.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: _LabelKey,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {buckets}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """Record every value of ``values``, exactly as one :meth:`observe` each.

        The sum accumulates left to right (``np.cumsum``), the order the
        one-at-a-time path adds in.
        """
        values = np.asarray(values, dtype=float)
        if not values.size:
            return
        counts = np.bincount(
            np.searchsorted(self.bounds, values, side="left"), minlength=len(self.counts)
        )
        self.counts = [old + new for old, new in zip(self.counts, counts.tolist())]
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        self.count += values.size

    @property
    def mean(self) -> float:
        """Mean of the observations (NaN when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the ``q`` quantile (NaN when empty).

        Coarse by construction (resolution = the bucket layout) but
        machine-independent: the answer is always one of the fixed bounds
        (or +Inf for overflow mass).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        seen = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            seen += bucket_count
            if seen >= rank:
                return bound
        return float("inf")

    def sample(self) -> "MetricSample":
        return MetricSample(
            name=self.name, kind=self.kind, labels=self.labels,
            value=None, help=self.help, buckets=self.bounds,
            counts=tuple(self.counts), sum=self.sum, count=self.count,
        )


class MetricSample:
    """One exported metric instance (a snapshot, detached from its source)."""

    __slots__ = ("name", "kind", "labels", "value", "help", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        kind: str,
        labels: _LabelKey = (),
        value: float | None = None,
        help: str = "",
        buckets: tuple[float, ...] = (),
        counts: tuple[int, ...] = (),
        sum: float = 0.0,
        count: int = 0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.labels = labels
        self.value = value
        self.help = help
        self.buckets = buckets
        self.counts = counts
        self.sum = sum
        self.count = count

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (histograms carry buckets/counts/sum/count)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "labels": {k: v for k, v in self.labels},
        }
        if self.kind == "histogram":
            payload.update(
                buckets=list(self.buckets),
                counts=list(self.counts),
                sum=self.sum,
                count=self.count,
            )
        else:
            payload["value"] = self.value
        return payload


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus grammar."""
    sanitized = _PROM_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_labels(labels: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{v.replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in pairs
    )
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """Deterministic in-process metrics registry.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call with a ``(name, labels)`` pair creates the instrument, later calls
    return the same object, so call sites need no registration ceremony.
    A ``(name, labels)`` pair is permanently bound to its first kind;
    re-requesting it as a different kind raises.

    Snapshots (:meth:`collect`, :meth:`to_json`, :meth:`to_prometheus`)
    are sorted by ``(name, labels)``, so exports are byte-stable across
    runs that made the same observations.
    """

    def __init__(self, collectors: Iterable[Callable[[], Iterable[MetricSample]]] = ()) -> None:
        self._metrics: dict[tuple[str, _LabelKey], Metric] = {}
        self._collectors: list[Callable[[], Iterable[MetricSample]]] = list(collectors)

    # ------------------------------------------------------------------ #
    # Instrument creation
    # ------------------------------------------------------------------ #
    def _get(self, cls: type, name: str, labels: dict | None, help: str, **kwargs) -> Any:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], help=help, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} with labels {dict(key[1])} already registered "
                f"as a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, labels: dict | None = None, help: str = "") -> Counter:
        """Get or create the :class:`Counter` at ``(name, labels)``."""
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, labels: dict | None = None, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` at ``(name, labels)``."""
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: dict | None = None,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Get or create the :class:`Histogram` at ``(name, labels)``."""
        return self._get(Histogram, name, labels, help, buckets=buckets)

    def register_collector(self, collector: Callable[[], Iterable[MetricSample]]) -> None:
        """Add a snapshot-time sample source (e.g. the memoization caches)."""
        self._collectors.append(collector)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def get(self, name: str, labels: dict | None = None) -> Metric | None:
        """The live instrument at ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, labels: dict | None = None) -> float:
        """Scalar value of a counter/gauge (0.0 when absent)."""
        metric = self.get(name, labels)
        value = getattr(metric, "value", None)
        return 0.0 if value is None else float(value)

    def collect(self, prefix: str = "") -> list[MetricSample]:
        """Snapshot every sample (own instruments + collectors), sorted.

        ``prefix`` filters by metric-name prefix (``"cache."`` selects the
        cache accounting, ``"serve."`` the runtime's metrics, ...).
        """
        samples = [metric.sample() for metric in self._metrics.values()]
        for collector in self._collectors:
            samples.extend(collector())
        if prefix:
            samples = [s for s in samples if s.name.startswith(prefix)]
        samples.sort(key=lambda s: (s.name, s.labels))
        return samples

    def to_dict(self, prefix: str = "") -> dict[str, Any]:
        """The snapshot as a JSON-ready dict (``{"metrics": [...]}``)."""
        return {"metrics": [sample.to_dict() for sample in self.collect(prefix)]}

    def to_json(self, prefix: str = "", indent: int | None = 2) -> str:
        """The snapshot serialised as stable JSON."""
        return json.dumps(self.to_dict(prefix), indent=indent)

    def to_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format.

        Dotted names map to underscores; counters gain the conventional
        ``_total`` suffix; histograms expand into cumulative ``_bucket``
        series plus ``_sum`` and ``_count``.
        """
        lines: list[str] = []
        seen_headers: set[str] = set()
        for sample in self.collect():
            base = _prom_name(sample.name)
            prom_kind = sample.kind if sample.kind != "untyped" else "gauge"
            name = base + "_total" if sample.kind == "counter" else base
            if base not in seen_headers:
                seen_headers.add(base)
                if sample.help:
                    lines.append(f"# HELP {name} {sample.help}")
                lines.append(f"# TYPE {name} {prom_kind}")
            if sample.kind == "histogram":
                cumulative = 0
                for bound, bucket_count in zip(sample.buckets, sample.counts):
                    cumulative += bucket_count
                    lines.append(
                        f"{base}_bucket"
                        f"{_prom_labels(sample.labels, (('le', repr(float(bound))),))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{base}_bucket{_prom_labels(sample.labels, (('le', '+Inf'),))}"
                    f" {sample.count}"
                )
                lines.append(f"{base}_sum{_prom_labels(sample.labels)} {_fmt(sample.sum)}")
                lines.append(f"{base}_count{_prom_labels(sample.labels)} {sample.count}")
            else:
                lines.append(f"{name}{_prom_labels(sample.labels)} {_fmt(sample.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path) -> None:
        """Write the snapshot to ``path``: ``.prom`` -> text format, else JSON."""
        from pathlib import Path

        path = Path(path)
        if path.suffix == ".prom":
            path.write_text(self.to_prometheus())
        else:
            path.write_text(self.to_json() + "\n")


# --------------------------------------------------------------------------- #
# Cache accounting bridge
# --------------------------------------------------------------------------- #
def cache_collector() -> list[MetricSample]:
    """Samples of every live memoized function's cache accounting.

    The source of truth stays inside each :func:`repro.utils.cache.memoize`
    wrapper (zero overhead added to the cache hot path); this collector
    surfaces it as ``cache.hits`` / ``cache.misses`` counters and
    ``cache.size`` / ``cache.maxsize`` gauges labelled ``fn=<module.qualname>``.
    """
    from repro.utils.cache import iter_cache_infos

    samples: list[MetricSample] = []
    for name, info in iter_cache_infos():
        labels = (("fn", name),)
        samples.append(MetricSample("cache.hits", "counter", labels, float(info.hits)))
        samples.append(MetricSample("cache.misses", "counter", labels, float(info.misses)))
        samples.append(MetricSample("cache.size", "gauge", labels, float(info.currsize)))
        samples.append(MetricSample("cache.maxsize", "gauge", labels, float(info.maxsize)))
    return samples
