"""Benchmark OBS: the observability overhead gate.

Runs the same fault-heavy serving scenario twice -- observability off and
fully on (metrics + tracer + profiler) -- and holds two lines:

* **relative budget** (asserted here, machine-independent): the obs-on run
  may not cost more than ``OVERHEAD_BUDGET`` times the obs-off run, so
  instrumentation stays cheap enough to leave on for any diagnostic run;
* **absolute floor** (held by ``compare.py`` against the committed
  ``BENCH_PR6.json``): both variants are tracked hot-path benchmarks, so a
  slowdown of either one -- the serving loop itself, or the instrumentation
  layer -- fails CI like any other hot-path regression.

The byte-identity contract (obs-on results == obs-off results) is asserted
in ``tests/test_obs.py``; here only the cost is measured, on a scenario
that exercises every kind of event the projection replays (arrivals,
batches, crashes, repairs, throttles, retries).
"""

from __future__ import annotations

import time

from repro.experiments.serving_study import build_accelerator
from repro.nn.zoo import build_model
from repro.obs import Observability
from repro.serve import BatchPolicy, FaultModel, PoissonTraffic, RetryPolicy, serve_trace

#: Maximum allowed obs-on / obs-off wall-time ratio.  Measured at 1.5-1.7x
#: on a 2-core x86-64 host (metrics + trace + profile all enabled on a
#: fault-heavy run): the in-loop profiler plus the post-run projection of
#: the metrics and trace.  2.5x leaves headroom for CI machine noise
#: without letting the instrumentation grow unnoticed.
OVERHEAD_BUDGET = 2.5

_SCENARIO = dict(n_workers=3, seed=7)


def _serve_once(model, accelerator, obs=None):
    return serve_trace(
        model,
        accelerator,
        PoissonTraffic(rate_rps=150_000.0, duration_s=0.004),
        BatchPolicy(max_batch_size=8, max_wait_s=100e-6, max_queue_depth=64),
        faults=FaultModel(
            crash_mtbf_s=1.5e-3, repair_mttr_s=0.3e-3,
            throttle_mtbf_s=1.0e-3, throttle_duration_s=0.5e-3,
            throttle_derate=2.0,
        ),
        retry=RetryPolicy(),
        obs=obs,
        **_SCENARIO,
    )


def test_serving_obs_off_smoke(benchmark):
    model, accelerator = build_model(1), build_accelerator("Cross_opt_TED")
    report = benchmark.pedantic(
        _serve_once, args=(model, accelerator), rounds=3, iterations=1
    )
    assert report.n_completed > 0


def test_serving_obs_on_smoke(benchmark):
    model, accelerator = build_model(1), build_accelerator("Cross_opt_TED")

    def run():
        # A fresh bundle per round: accumulating one trace across rounds
        # would make later rounds pay for earlier rounds' event lists.
        return _serve_once(
            model, accelerator, Observability.enabled(profiler=True)
        )

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.n_completed > 0
    assert report.events_per_sec > 0


def test_obs_overhead_within_budget():
    """Relative gate: full instrumentation stays under OVERHEAD_BUDGET x."""
    model, accelerator = build_model(1), build_accelerator("Cross_opt_TED")

    def timed(obs) -> float:
        t0 = time.perf_counter()
        _serve_once(model, accelerator, obs)
        return time.perf_counter() - t0

    _serve_once(model, accelerator)  # warm caches off the clock
    # The two sides alternate, so a drift in host speed lands on both of them
    # rather than on whichever side happened to run during it.
    off_runs, on_runs = [], []
    for _ in range(5):
        off_runs.append(timed(None))
        on_runs.append(timed(Observability.enabled(profiler=True)))
    off_s, on_s = min(off_runs), min(on_runs)
    ratio = on_s / off_s
    print(f"\nobs overhead: off {off_s * 1e3:.2f} ms, on {on_s * 1e3:.2f} ms "
          f"({ratio:.2f}x, budget {OVERHEAD_BUDGET}x)")
    assert ratio <= OVERHEAD_BUDGET, (
        f"observability overhead {ratio:.2f}x exceeds the {OVERHEAD_BUDGET}x budget"
    )
