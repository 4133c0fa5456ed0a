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

Little's law needs no distributional assumption: over a drained run the
time integral of the queue depth equals the summed queue waits, so the
time-averaged depth L equals the arrival rate times the mean wait, L = lambda W.
The depth is replayed from the event trace (an arrival adds one request, a
dispatch removes its batch) and the waits come from the request records,
so the check ties the loop's arrival and dispatch ordering to its records.

The saturation edge: with full batches, a fleet of ``n`` workers serves at
most ``n * B / batch_latency_s(B)`` requests per second.  Cut off at the
traffic window (``drain=False``), a run at 0.95 of that capacity ends with
a small backlog however long it runs, while at 1.05 the backlog grows with
the horizon as ``arrivals - capacity * horizon``; with a bounded queue the
same excess is shed instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.accelerator import CrossLightAccelerator
from repro.nn.zoo import build_model
from repro.serve import (
    BatchPolicy,
    PoissonTraffic,
    ServingRuntime,
    requests_from_traffic,
    serve_trace,
)

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
    service_s = crosslight.batch_latency_s(lenet.workloads(), 1)
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


def _queue_depth_integral(report) -> float:
    """Time integral of the total queue depth, replayed from the event trace."""
    integral, depth, last_s = 0.0, 0, 0.0
    for entry in report.event_trace:
        integral += depth * (entry.time_s - last_s)
        last_s = entry.time_s
        if entry.kind == "arrival":
            depth += 1
        elif entry.kind == "dispatch":
            depth -= entry.ids[2]
    assert depth == 0
    return integral


def _two_model_run(crosslight, seed):
    models = build_model(1), build_model(2)
    runtime = ServingRuntime(
        {model.name: model.workloads() for model in models},
        crosslight,
        BatchPolicy(max_batch_size=8, max_wait_s=20e-6),
        n_workers=4,
    )
    requests = requests_from_traffic(
        PoissonTraffic(rate_rps=600_000.0, duration_s=0.01), models[0].name, seed
    ) + requests_from_traffic(
        PoissonTraffic(rate_rps=8_000.0, duration_s=0.01), models[1].name,
        seed + 100, start_id=1_000_000,
    )
    return runtime.run(requests, 0.01)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fleet", ["one_model", "two_model"])
def test_littles_law_on_replayed_queue_depth(lenet, crosslight, fleet, seed):
    if fleet == "one_model":
        report = serve_trace(
            lenet,
            crosslight,
            PoissonTraffic(rate_rps=1.2e6, duration_s=0.01),
            BatchPolicy(max_batch_size=8, max_wait_s=20e-6),
            n_workers=4,
            seed=seed,
        )
    else:
        report = _two_model_run(crosslight, seed)
    assert report.n_completed == report.n_arrivals > 5_000
    assert report.n_shed == report.n_failed == 0

    area = _queue_depth_integral(report)
    waits = [record.queue_wait_s for record in report.requests]
    assert area > 0
    assert area == pytest.approx(sum(waits), rel=1e-9)

    horizon_s = report.horizon_s
    mean_depth = area / horizon_s
    arrival_rate = report.n_arrivals / horizon_s
    assert mean_depth == pytest.approx(arrival_rate * np.mean(waits), rel=1e-9)


# --------------------------------------------------------------------------- #
# Saturation edge
# --------------------------------------------------------------------------- #
SATURATION_BATCH = 8
SATURATION_WORKERS = 2
SATURATION_REQUESTS = 20_000


def _cut_off_run(lenet, crosslight, load, n_requests, seed, max_queue_depth=None):
    """A ``drain=False`` run at ``load`` times the full-batch fleet capacity.

    Returns the report and the excess ``arrivals - capacity * horizon``:
    the work a fleet serving at capacity throughout leaves undone.
    """
    capacity_rps = SATURATION_WORKERS * SATURATION_BATCH / crosslight.batch_latency_s(
        lenet.workloads(), SATURATION_BATCH
    )
    rate_rps = load * capacity_rps
    duration_s = n_requests / rate_rps
    report = serve_trace(
        lenet,
        crosslight,
        PoissonTraffic(rate_rps=rate_rps, duration_s=duration_s),
        # Batches fill long before the head's deadline, so every dispatch
        # is a full batch and the capacity above is the fleet's capacity.
        BatchPolicy(
            max_batch_size=SATURATION_BATCH,
            max_wait_s=50.0 * SATURATION_BATCH / rate_rps,
            max_queue_depth=max_queue_depth,
        ),
        n_workers=SATURATION_WORKERS,
        seed=seed,
        drain=False,
    )
    assert report.conserved
    assert report.deadline_dispatch_fraction == 0.0
    return report, report.n_arrivals - capacity_rps * duration_s


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backlog_stays_bounded_below_capacity(lenet, crosslight, seed):
    fleet_batch = SATURATION_WORKERS * SATURATION_BATCH
    for n_requests in (SATURATION_REQUESTS, 2 * SATURATION_REQUESTS):
        report, excess = _cut_off_run(lenet, crosslight, 0.95, n_requests, seed)
        assert excess < -0.04 * n_requests
        assert report.backlog_end <= 10 * fleet_batch


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backlog_grows_linearly_above_capacity(lenet, crosslight, seed):
    fleet_batch = SATURATION_WORKERS * SATURATION_BATCH
    backlogs = []
    for n_requests in (SATURATION_REQUESTS, 2 * SATURATION_REQUESTS):
        report, excess = _cut_off_run(lenet, crosslight, 1.05, n_requests, seed)
        # The fleet idles only while the backlog first builds up.
        assert abs(report.backlog_end - excess) <= 0.1 * excess + fleet_batch
        backlogs.append(report.backlog_end)
    assert 1.6 <= backlogs[1] / backlogs[0] <= 2.4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_queue_sheds_the_excess_above_capacity(lenet, crosslight, seed):
    fleet_batch = SATURATION_WORKERS * SATURATION_BATCH
    depth = 256
    sheds = []
    for n_requests in (SATURATION_REQUESTS, 2 * SATURATION_REQUESTS):
        report, excess = _cut_off_run(lenet, crosslight, 1.05, n_requests, seed, depth)
        assert report.peak_queue_depth == depth
        assert report.backlog_end <= depth + fleet_batch
        assert abs(report.n_shed + report.backlog_end - excess) <= 0.1 * excess + fleet_batch
        sheds.append(report.n_shed)
    assert 1.6 <= sheds[1] / sheds[0] <= 2.6
