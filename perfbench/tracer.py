"""Wall-clock spans around the program's layer entry points, from outside.

The tracer wraps public functions and methods of ``repro`` with timers while
it is installed and puts the originals back when it is removed.  Nothing in
``src/`` knows about it.  A module-level function imported by name into other
modules (``from repro.sim.sweep import run_sweep``) is rebound in every loaded
module that holds the original object, and modules imported while the tracer
is installed pick up the wrapper from the defining module.

Spans stay in memory: per-name totals (calls, inclusive and self time), the
inclusive time of the outermost call of each layer group, and up to
``MAX_SPANS`` raw spans that :meth:`Tracer.write_chrome_trace` writes out at
the end.  Self time is inclusive time minus the time spent in nested wrapped
calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: Modules whose attributes are scanned when a wrapped function is rebound.
REBIND_PREFIXES = ("repro", "perfbench", "__main__")
#: Raw spans kept for the Chrome trace; totals keep counting past it.
MAX_SPANS = 200_000


@dataclass
class Target:
    """One wrapped callable: ``owner.attr`` recorded under ``name``.

    ``owner`` is a class (the method is replaced on the class) or a module
    (the function is replaced there and in every module holding it).
    ``on_result(args, result)`` returns counter increments for the call.
    """

    name: str
    owner: Any
    attr: str
    on_result: Callable[[tuple, Any], dict[str, float]] | None = None

    @property
    def group(self) -> str:
        """The layer the span belongs to: the first two name components."""
        return ".".join(self.name.split(".")[:2])


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(s for s in _subclasses(sub) if s not in found)
    return found


def layer_targets() -> list[Target]:
    """The layer boundaries the benchmark's per-layer metrics are built from."""
    import repro.experiments  # noqa: F401  (loads every accelerator subclass)
    from repro.arch.accelerator import PhotonicAccelerator
    from repro.nn.backend import ComputeBackend
    from repro.nn.model import Sequential
    from repro.serve import runtime
    from repro.serve.metrics import MetricsCollector
    from repro.sim import noise, sweep
    from repro.sim.photonic_inference import EnsembleInferenceEngine

    targets: list[Target] = []

    def methods(prefix: str, base: type, names: tuple[str, ...]) -> None:
        for cls in _subclasses(base):
            for attr in names:
                if attr in vars(cls):
                    targets.append(Target(f"{prefix}.{attr}", cls, attr))

    methods("nn.backend", ComputeBackend, ("matmul", "batched_matmul", "im2col", "col2im"))
    methods("nn.model", Sequential, ("fit", "forward", "backward"))
    noise_classes = [
        value for value in vars(noise).values()
        if isinstance(value, type) and value.__module__ == noise.__name__
    ]
    for cls in noise_classes:
        for attr in ("apply", "apply_many", "apply_stacked", "apply_fanout"):
            if attr in vars(cls):
                targets.append(Target(f"sim.noise.{attr}", cls, attr))
    targets.append(
        Target(
            "sim.photonic_inference.perturbed_weight_stacks",
            EnsembleInferenceEngine, "perturbed_weight_stacks",
        )
    )
    targets.append(
        Target(
            "sim.photonic_inference.predict", EnsembleInferenceEngine, "predict",
            on_result=lambda args, _: {"sim.photonic_inference.members": args[0].n_members},
        )
    )
    targets.append(
        Target(
            "sim.sweep.run_sweep", sweep, "run_sweep",
            on_result=lambda _, result: {"sim.sweep.points": len(result.points)},
        )
    )
    methods("arch.accelerator", PhotonicAccelerator, ("batch_latency_s",))
    targets.append(Target("serve.runtime.requests_from_traffic", runtime, "requests_from_traffic"))
    targets.append(Target("serve.runtime.run", runtime.ServingRuntime, "run"))
    targets.append(Target("serve.metrics.finalize", MetricsCollector, "finalize"))
    return targets


class Tracer:
    """Installs timers on :class:`Target` callables and aggregates spans.

    Use as a context manager; leaving the block restores every original.
    Single-threaded: the span stack is shared by all calls.
    """

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive time of calls with no enclosing call of the same group.
        self.group_incl_s: dict[str, float] = defaultdict(float)
        #: Inclusive time of calls with no enclosing wrapped call at all.
        self.outermost_s = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped_spans = 0
        self._stack: list[float] = []
        self._group_depth: dict[str, int] = defaultdict(int)
        self._origin = time.perf_counter()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Install / restore
    # ------------------------------------------------------------------ #
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, group, on_result = target.name, target.group, target.on_result
        stack, group_depth = self._stack, self._group_depth
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            group_depth[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                children = stack.pop()
                group_depth[group] -= 1
                self._record(name, group, start, end, children)
            if on_result is not None:
                for key, value in on_result(args, result).items():
                    self.counters[key] += value
            return result

        return traced

    def _record(self, name: str, group: str, start: float, end: float, children: float) -> None:
        incl = end - start
        self.calls[name] += 1
        self.incl_s[name] += incl
        self.self_s[name] += incl - children
        if self._group_depth[group] == 0:
            self.group_incl_s[group] += incl
        if self._stack:
            self._stack[-1] += incl
        else:
            self.outermost_s += incl
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, len(self._stack)))
        else:
            self.dropped_spans += 1

    def install(self) -> "Tracer":
        for target in self.targets:
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, original)
            if isinstance(target.owner, type):
                setattr(target.owner, target.attr, wrapper)
                self._restore.append((target.owner, target.attr, original))
            else:
                for module, attr in _holders(original):
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))
                # Modules imported later may hold the wrapper too.
                self._restore.append((None, target.attr, (original, wrapper)))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if owner is None:
                original, wrapper = original
                for module, name in _holders(wrapper):
                    setattr(module, name, original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def write_chrome_trace(self, path) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self._origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"depth": depth},
            }
            for name, start, end, depth in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "droppedSpans": self.dropped_spans}, handle)


def _holders(obj: Any) -> list[tuple[Any, str]]:
    """Every ``(module, attribute)`` of a loaded program module holding ``obj``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(REBIND_PREFIXES):
            continue
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if value is obj:
                found.append((module, attr))
    return found
