"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_poisson --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced operations with operations under the
layer tracer, reports the per-layer metrics of the traced ones per operation,
takes ``trace.overhead_frac`` from the two halves, and requires every traced
digest to equal the untraced ones.  Every run prints one ``name value unit`` line per
metric and ends with one JSON line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

It also writes its full record (metrics, digests, provenance) to
``.perfbench/<workload>-seed<seed>-trace<t>.json``, which ``compare.py``
reads, and a traced run writes its spans next to it as a Chrome trace.
``--update-digests`` stores the digests of a seed-0 run as the reference that
later seed-0 runs must reproduce.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"
#: The seed whose output digests are committed in ``reference_digests.json``.
REFERENCE_SEED = 0
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

STUDIES = (
    "ablation", "device_dse", "fig4", "fig5", "fig6", "fig7", "fig8",
    "resolution_analysis", "serving_faults", "serving_study", "table1_models",
    "table2_devices", "table3_summary",
)

PER_LAYER = {
    **{f"nn.backend.{op}.{stat}": unit
       for op in ("matmul", "batched_matmul", "im2col", "col2im")
       for stat, unit in (("self_s", "s"), ("calls", "count"))},
    "nn.model.fit.incl_s": "s",
    "nn.model.fit.self_s": "s",
    "nn.model.fit.calls": "count",
    "nn.model.forward.incl_s": "s",
    "nn.model.backward.incl_s": "s",
    **{f"sim.noise.{entry}.calls": "count"
       for entry in ("apply", "apply_many", "apply_stacked", "apply_fanout")},
    "sim.noise.incl_s": "s",
    "sim.photonic_inference.perturbed_weight_stacks.incl_s": "s",
    "sim.photonic_inference.predict.incl_s": "s",
    "sim.photonic_inference.predict.self_s": "s",
    "sim.photonic_inference.members": "count",
    "sim.photonic_inference.ideal_accuracy.hit_ratio": "frac",
    "sim.sweep.run_sweep.incl_s": "s",
    "sim.sweep.run_sweep.calls": "count",
    "sim.sweep.points": "count",
    **{f"study.{name}.wall_s": "s" for name in STUDIES},
    "utils.cache.hit_ratio": "frac",
    "arch.accelerator.batch_latency_s.incl_s": "s",
    "arch.accelerator.batch_latency_s.calls": "count",
    "serve.runtime.requests_from_traffic.incl_s": "s",
    "serve.runtime.run.incl_s": "s",
    "serve.runtime.loop_s": "s",
    "serve.runtime.events": "count",
    "serve.runtime.events_per_s": "1/s",
    "serve.runtime.batches_per_event": "frac",
    "serve.metrics.finalize.incl_s": "s",
    "serve.batcher.mean_batch_size": "count",
    "serve.batcher.deadline_dispatch_frac": "frac",
    "serve.batcher.peak_queue_depth": "count",
    "serve.workers.utilisation": "frac",
    "serve.workers.queue_wait_p50_us": "us",
    "serve.faults.retries": "count",
    "serve.faults.lost_batches": "count",
    "serve.faults.shed": "count",
    "serve.faults.failed": "count",
    "serve.faults.wasted_busy_frac": "frac",
    "sim_p99_latency_us": "us",
    "sim_energy_per_request_uj": "uJ",
    "sim_goodput_frac": "frac",
    "sim_mean_accuracy": "frac",
    "sim_accuracy_loss": "frac",
    "trace.overhead_frac": "frac",
}

#: Printed on untraced runs beside the end-to-end metrics, where they apply.
WORKLOAD_METRICS = {
    "error_rate": "frac",
    "requests_per_s": "1/s",
    "inferences_per_s": "1/s",
    "sim_p99_latency_us": "us",
    "sim_energy_per_request_uj": "uJ",
    "sim_goodput_frac": "frac",
    "sim_mean_accuracy": "frac",
    "sim_accuracy_loss": "frac",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("run_all", "serve_poisson", "serve_faults", "noise_mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true",
                        help="store this seed-0 run's digests as the reference")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #
def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked from the library."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _git_sha() -> str | None:
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha() -> str:
    """Content hash of ``src/``: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    from repro.nn.backend import active_backend, resolve_precision

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "backend": active_backend().name,
        "precision": resolve_precision(None).name,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
def import_seconds(modules: tuple[str, ...]) -> float:
    """Median seconds a fresh interpreter takes to import ``modules``."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(time.perf_counter() - start)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=IMPORT_TIMEOUT_S, check=True, cwd=ROOT,
        )
        samples.append(float(result.stdout.split()[-1]))
    return statistics.median(samples)


def measure(workload, state, seconds: float, reference, tracer=None):
    """Run operations until ``seconds`` have passed.

    Returns ``(traced, seconds, outcome)`` per operation.  With a tracer,
    operations alternate untraced and traced, so both halves see the same
    caches and the same host load, and every traced digest must equal the
    untraced ones.
    """
    runs, first_digests = [], None
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(runs) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            output = workload.op(state)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        outcome = workload.check(state, output, reference)
        del output
        if first_digests is None:
            first_digests = outcome.digests
        elif outcome.digests != first_digests:
            outcome.problems.append(
                "digests differ between operations of one run"
                + (" (traced against untraced)" if tracer is not None else "")
            )
            outcome.failed = outcome.attempted
        runs.append((traced, elapsed, outcome))
        if time.perf_counter() >= deadline and (tracer is None or len(runs) >= 2):
            return runs


def _hit_ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def cache_counts() -> dict[str, float]:
    from repro.sim import photonic_inference
    from repro.utils.cache import iter_cache_infos

    infos = [info for _, info in iter_cache_infos()]
    ideal = photonic_inference._IDEAL_ACCURACY_CACHE
    return {
        "memo_hits": sum(info.hits for info in infos),
        "memo_misses": sum(info.misses for info in infos),
        "ideal_hits": ideal.hits,
        "ideal_misses": ideal.misses,
    }


def per_layer_metrics(tracer, traced_outcomes, cache_delta, overhead) -> dict:
    """Per-operation layer metrics of the traced operations."""
    n_ops = len(traced_outcomes)
    stats = {"incl_s": tracer.incl_s, "self_s": tracer.self_s, "calls": tracer.calls}
    values = {name: 0.0 for name in PER_LAYER}
    for name in values:
        base, _, stat = name.rpartition(".")
        if stat in stats and base in tracer.calls:
            values[name] = stats[stat][base] / n_ops
    values["sim.noise.incl_s"] = tracer.group_incl_s["sim.noise"] / n_ops
    for key in ("sim.photonic_inference.members", "sim.sweep.points"):
        values[key] = tracer.counters[key] / n_ops
    values["sim.photonic_inference.ideal_accuracy.hit_ratio"] = _hit_ratio(
        cache_delta["ideal_hits"], cache_delta["ideal_misses"]
    )
    values["utils.cache.hit_ratio"] = _hit_ratio(
        cache_delta["memo_hits"], cache_delta["memo_misses"]
    )
    last = traced_outcomes[-1]
    for key, value in last.sim.items():
        if key in values:
            values[key] = float(value)
    for key in last.host:
        values[key] = statistics.mean(
            outcome.host[key] for outcome in traced_outcomes if key in outcome.host
        )
    loop_s = values["serve.runtime.loop_s"]
    values["serve.runtime.events_per_s"] = values["serve.runtime.events"] / loop_s if loop_s else 0.0
    values["trace.overhead_frac"] = overhead
    return values


def run(args) -> dict:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    import_s = import_seconds(workload.imports)
    for module in workload.imports:
        __import__(module)
    build_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.build(args.seed)
        build_samples.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(build_samples)

    reference = None
    if args.seed == REFERENCE_SEED and not args.update_digests and REFERENCE_FILE.exists():
        reference = json.loads(REFERENCE_FILE.read_text()).get(args.workload)

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, layer_targets

        tracer = Tracer(layer_targets())
    caches_before = cache_counts()
    runs = measure(workload, state, args.seconds, reference, tracer)
    cache_delta = {key: value - caches_before[key] for key, value in cache_counts().items()}
    times = [elapsed for _, elapsed, _ in runs]
    outcomes = [outcome for _, _, outcome in runs]
    untraced_s = statistics.median(elapsed for traced, elapsed, _ in runs if not traced)
    record = {"provenance": provenance(args.workload, args.seed, args.trace)}
    if tracer is not None:
        traced_s = [elapsed for traced, elapsed, _ in runs if traced]
        metrics = per_layer_metrics(
            tracer,
            [outcome for traced, _, outcome in runs if traced],
            cache_delta,
            overhead=statistics.median(traced_s) / untraced_s - 1.0,
        )
        units = PER_LAYER
        record["outermost_s"] = tracer.outermost_s
        record["traced_wall_s"] = sum(traced_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_chrome_trace(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": untraced_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    workload_metrics = {"error_rate": failed / attempted, **outcomes[-1].sim}
    if tracer is None and workload.throughput_metric is not None:
        workload_metrics[workload.throughput_metric] = outcomes[-1].items / untraced_s
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        operations=len(times),
        op_seconds=times,
        op_traced=[traced for traced, _, _ in runs],
        setup={"import_s": import_s, "build_s": build_samples},
        metrics={name: {"value": metrics[name], "unit": units[name]} for name in units},
        workload_metrics={
            name: {"value": workload_metrics[name], "unit": unit}
            for name, unit in WORKLOAD_METRICS.items()
            if workload_metrics.get(name) is not None
        },
        digests=outcomes[0].digests,
        problems=[problem for outcome in outcomes for problem in outcome.problems],
    )
    OUT_DIR.mkdir(exist_ok=True)
    record_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=2))
    if args.update_digests and args.seed == REFERENCE_SEED and not args.trace:
        stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        stored[args.workload] = outcomes[0].digests
        REFERENCE_FILE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    record = run(args)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"operations={record['operations']}")
    for section in ("metrics", "workload_metrics"):
        for name, entry in record[section].items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
