"""Closed-form queueing oracles for the serving runtime.

The determinism and byte-identity suites check the simulator against
itself; these tests check it against results it did not produce.  One
worker with ``max_batch_size=1`` serving Poisson arrivals is an M/D/1
queue whose service time is the accelerator's single-request latency S,
so its mean queue wait must match Pollaczek-Khinchine::

    Wq = rho * S / (2 * (1 - rho))

Successive waits are strongly correlated, so the comparison uses a
batch-means confidence interval: the run's waits (in arrival order, which
a FIFO single server completes in) are cut into 20 contiguous batches and
the interval is the batch means' 99% Student-t interval.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.accelerator import CrossLightAccelerator
from repro.nn.zoo import build_model
from repro.serve import BatchPolicy, PoissonTraffic, serve_trace
from repro.sim.tracer import trace_model

N_REQUESTS = 20_000
N_BATCHES = 20
#: Two-sided 99% Student-t quantile with N_BATCHES - 1 = 19 degrees of freedom.
T_99 = 2.861


@pytest.fixture(scope="module")
def lenet():
    return build_model(1)


@pytest.fixture(scope="module")
def crosslight():
    return CrossLightAccelerator.from_variant("cross_opt_ted")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rho", [0.5, 0.7])
def test_md1_queue_wait_matches_pollaczek_khinchine(lenet, crosslight, rho, seed):
    service_s = crosslight.batch_latency_s(trace_model(lenet), 1)
    rate_rps = rho / service_s
    report = serve_trace(
        lenet,
        crosslight,
        PoissonTraffic(rate_rps=rate_rps, duration_s=N_REQUESTS / rate_rps),
        BatchPolicy(max_batch_size=1),
        n_workers=1,
        seed=seed,
    )
    assert report.n_completed == report.n_arrivals

    waits = np.asarray([record.queue_wait_s for record in report.requests])
    batch_means = np.asarray(
        [chunk.mean() for chunk in np.array_split(waits, N_BATCHES)]
    )
    half_width = T_99 * batch_means.std(ddof=1) / np.sqrt(N_BATCHES)
    expected = rho * service_s / (2.0 * (1.0 - rho))
    assert abs(batch_means.mean() - expected) <= half_width

    # Every completion is one single-request batch of exactly S busy seconds.
    assert report.utilisation * report.horizon_s == pytest.approx(
        report.n_completed * service_s, rel=1e-9
    )
