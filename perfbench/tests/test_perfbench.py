"""Tests of the benchmark itself: workloads at reduced scale, the tracer, the
output checks, and the agreement between ``BENCHMARK.json`` and ``run.py``.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.tracer import Target, Tracer, layer_targets  # noqa: E402

#: Cheap studies that still exercise the run_all path end to end.
SMOKE_STUDIES = ("table1_models", "fig4", "fig7")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a size that runs in a second or two."""
    monkeypatch.setattr(workloads, "N_REQUESTS", 3000)
    monkeypatch.setattr(workloads, "MC_MEMBERS", 6)
    monkeypatch.setattr(workloads, "MC_INPUTS", 16)
    monkeypatch.setattr(workloads, "TRAIN_SAMPLES", 64)
    monkeypatch.setattr(workloads, "TRAIN_EPOCHS", 1)
    from repro.study import registry

    monkeypatch.setattr(registry, "experiment_names", lambda: SMOKE_STUDIES)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_traced_equals_untraced(small, name):
    workload = workloads.WORKLOADS[name]
    state = workload.build(seed=3)
    ((traced, _, untraced),) = bench.measure(workload, state, 0.0, reference=None)
    assert not traced
    assert untraced.failed == 0, untraced.problems
    assert untraced.attempted >= 1 and untraced.digests
    assert (untraced.items >= 1) == (workload.throughput_metric is not None)

    tracer = Tracer(layer_targets())
    runs = bench.measure(workload, state, 0.0, reference=None, tracer=tracer)
    assert [traced for traced, _, _ in runs] == [False, True]
    (_, traced_s, traced_outcome) = runs[1]
    assert traced_outcome.digests == untraced.digests
    assert all(outcome.failed == 0 for _, _, outcome in runs)

    for name_ in tracer.calls:
        assert tracer.self_s[name_] <= tracer.incl_s[name_] + 1e-9
    assert tracer.outermost_s <= traced_s
    no_cache_traffic = dict.fromkeys(bench.cache_counts(), 0)
    metrics = bench.per_layer_metrics(tracer, [traced_outcome], no_cache_traffic, 0.0)
    assert set(metrics) == set(bench.PER_LAYER)
    if name.startswith("serve_"):
        assert all(metrics[key] == 0 for key in metrics
                   if key.startswith(("nn.", "sim.noise.")))
        assert metrics["serve.runtime.events"] > 0
    if name == "noise_mc":
        assert metrics["nn.model.fit.calls"] == 0
        assert metrics["sim.noise.incl_s"] > 0


def test_serve_faults_counters_fire_only_under_faults(small):
    counts = {}
    for name in ("serve_poisson", "serve_faults"):
        workload = workloads.WORKLOADS[name]
        state = workload.build(seed=1)
        counts[name] = workload.check(state, workload.op(state), None).sim
    assert counts["serve_poisson"]["serve.faults.retries"] == 0
    assert counts["serve_poisson"]["serve.faults.lost_batches"] == 0
    assert counts["serve_faults"]["serve.faults.retries"] > 0
    assert counts["serve_faults"]["serve.faults.lost_batches"] > 0


def test_reference_digest_mismatch_fails_the_operation(small):
    workload = workloads.WORKLOADS["serve_poisson"]
    state = workload.build(seed=0)
    outcome = workload.check(state, workload.op(state), {"report": "0" * 64})
    assert outcome.failed == 1
    assert any("reference" in problem for problem in outcome.problems)


def _fake_report(records):
    return types.SimpleNamespace(records=records, to_text=lambda: "", envelope={})


def test_invariant_checks_catch_bad_study_output():
    good = [{"model_index": 1, "bits": [1, 16], "accuracy": [0.1, 0.6]}]
    flat = [{"model_index": 2, "bits": [1, 16], "accuracy": [0.5, 0.5]}]
    assert workloads.RunAll._problems("fig5", _fake_report(good)) == []
    assert workloads.RunAll._problems("fig5", _fake_report(flat))
    out_of_range = {"drift_accuracy": [{"accuracy": 1.2, "resolution_bits": 16}]}
    assert workloads.RunAll._problems("ablation", _fake_report(out_of_range))
    assert workloads.RunAll._problems("fig6", RuntimeError("boom"))


def test_tracer_self_time_and_restore():
    module = types.ModuleType("perfbench_tracer_probe")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    holder = types.ModuleType("perfbench_tracer_holder")
    holder.inner = inner  # the function imported by name elsewhere
    sys.modules[holder.__name__] = holder
    try:
        targets = [Target("probe.inner", module, "inner"), Target("probe.outer", module, "outer")]
        start = time.perf_counter()
        with Tracer(targets) as tracer:
            assert holder.inner is not inner
            module.outer()
            module.inner()
        wall = time.perf_counter() - start
        assert module.inner is inner and module.outer is outer and holder.inner is inner
    finally:
        del sys.modules[module.__name__], sys.modules[holder.__name__]
    assert tracer.calls == {"probe.inner": 2, "probe.outer": 1}
    (nested,) = [end - start for name, start, end, depth in tracer.spans if depth == 1]
    assert tracer.self_s["probe.outer"] == pytest.approx(
        tracer.incl_s["probe.outer"] - nested, abs=1e-9
    )
    assert tracer.outermost_s <= wall
    assert tracer.group_incl_s["probe.inner"] == pytest.approx(tracer.incl_s["probe.inner"])


def test_layer_targets_are_restored():
    from repro.experiments import fig5_resolution_accuracy
    from repro.nn.model import Sequential
    from repro.sim import sweep

    original_sweep, original_fit = sweep.run_sweep, Sequential.fit
    with Tracer(layer_targets()):
        assert fig5_resolution_accuracy.run_sweep is not original_sweep
        assert sweep.run_sweep is fig5_resolution_accuracy.run_sweep
        assert Sequential.fit is not original_fit
    assert fig5_resolution_accuracy.run_sweep is original_sweep
    assert sweep.run_sweep is original_sweep
    assert Sequential.fit is original_fit


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_poisson",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout
