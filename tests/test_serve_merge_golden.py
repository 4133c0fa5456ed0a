"""Golden digests of the serving run record where arrivals meet other events.

The runtime merges the request list, in arrival order, against its event
queue: at equal times every completion, fault, retry and deadline event runs
before an arrival, and arrivals at one instant keep their list order.  These
digests pin the whole run record -- every :class:`ServingReport` field and
the event trace -- over scenarios built to stress that merge:

* ``duplicate_times`` -- a :class:`TraceTraffic` replay in which most
  timestamps repeat;
* ``exact_instants`` -- arrivals placed exactly on a batch-completion
  instant and exactly on a max-wait deadline instant, where arriving before
  instead of after the other event changes the batch that forms;
* ``two_model_unsorted`` -- a two-model fleet fed an interleaved list that
  is not sorted by ``arrival_s``, with cross-model timestamp ties;
* ``cutoff`` -- a saturated ``drain=False`` run cut at the traffic window;
* ``faulty_backoff`` -- crashes and throttles with a 30 us retry backoff.

The digests were captured while arrivals still went through the event
queue as heap entries, so they are an independent reference for any other
merge.  Floats are rounded to nine significant digits before hashing (the
convention of ``test_obs_golden.py``); every id, kind and count is exact.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.arch.accelerator import CrossLightAccelerator
from repro.nn.zoo import build_model
from repro.serve import (
    BatchPolicy,
    FaultInjector,
    FaultModel,
    PoissonTraffic,
    Request,
    RetryPolicy,
    ServingRuntime,
    TraceTraffic,
    requests_from_traffic,
    serve_trace,
)

POLICY = BatchPolicy(max_batch_size=4, max_wait_s=50e-6)
DURATION_S = 0.003
SEEDS = (0, 2)
FAULTY = FaultModel(
    crash_mtbf_s=0.5e-3, repair_mttr_s=0.2e-3,
    throttle_mtbf_s=1.0e-3, throttle_duration_s=0.4e-3, throttle_derate=2.0,
)


@pytest.fixture(scope="module")
def models():
    return build_model(1), build_model(2)


@pytest.fixture(scope="module")
def crosslight():
    return CrossLightAccelerator.from_variant("cross_opt_ted")


def _runtime(models, accelerator, *, n_models=1, n_workers=2):
    return ServingRuntime(
        {model.name: model.workloads() for model in models[:n_models]},
        accelerator, POLICY, n_workers=n_workers,
    )


def _duplicate_times(models, accelerator, seed):
    """Replayed timestamps, most of them repeated two or three times."""
    rng = np.random.default_rng(seed)
    times = PoissonTraffic(rate_rps=60_000.0, duration_s=DURATION_S).generate(seed)
    traffic = TraceTraffic(
        np.repeat(times, rng.integers(1, 4, size=times.size)), duration_s=DURATION_S
    )
    return serve_trace(models[0], accelerator, traffic, POLICY, n_workers=2, seed=seed)


def exact_instant_requests(models, accelerator, seed):
    """Poisson requests plus six arrivals placed on other events' instants.

    Arrivals are added in increasing time order, each at an instant read
    from a run over the requests chosen so far: a run's events before time
    ``t`` do not depend on arrivals at ``t`` or later, so each added arrival
    lands exactly on its instant in the final run too.  Even steps pick a
    batch-completion instant; odd steps pick the instant a partial batch
    dispatched at its head's max-wait deadline.
    """
    name = models[0].name
    requests = requests_from_traffic(
        PoissonTraffic(rate_rps=50_000.0, duration_s=DURATION_S), name, seed
    )
    instants = []
    after_s = 0.2 * DURATION_S
    for step in range(6):
        report = _runtime(models, accelerator).run(list(requests), DURATION_S)
        if step % 2 == 0:
            candidates = [batch.completion_s for batch in report.batches]
        else:
            candidates = [
                batch.dispatch_s
                for batch in report.batches
                if batch.deadline_triggered
                and batch.dispatch_s
                == batch.requests[0].arrival_s + POLICY.max_wait_s
            ]
        instant = min(t for t in candidates if t > after_s)
        instants.append(instant)
        requests.append(
            Request(request_id=1_000_000 + step, model=name, arrival_s=instant)
        )
        after_s = instant + 0.1 * DURATION_S
    return requests, instants


def _exact_instants(models, accelerator, seed):
    requests, _ = exact_instant_requests(models, accelerator, seed)
    return _runtime(models, accelerator).run(requests, DURATION_S)


def unsorted_two_model_requests(models, seed):
    """An interleaved, unsorted two-model list with cross-model time ties."""
    first = requests_from_traffic(
        PoissonTraffic(rate_rps=40_000.0, duration_s=DURATION_S), models[0].name, seed
    )
    second = requests_from_traffic(
        PoissonTraffic(rate_rps=40_000.0, duration_s=DURATION_S), models[1].name,
        seed + 100, start_id=100_000,
    )
    # Every fifth first-model request gets a second-model twin at the same
    # instant, placed before it in the list for even twins and after it for
    # odd ones, so ties must break by list order in both directions.
    twins = [
        Request(request_id=200_000 + i, model=models[1].name, arrival_s=r.arrival_s)
        for i, r in enumerate(first[::5])
    ]
    return twins[::2] + first[1::2] + second[::-1] + first[::2] + twins[1::2]


def _two_model_unsorted(models, accelerator, seed):
    return _runtime(models, accelerator, n_models=2).run(
        unsorted_two_model_requests(models, seed), DURATION_S
    )


def _cutoff(models, accelerator, seed):
    return serve_trace(
        models[0], accelerator, PoissonTraffic(rate_rps=400_000.0, duration_s=DURATION_S),
        POLICY, n_workers=2, seed=seed, drain=False,
    )


def _faulty_backoff(models, accelerator, seed):
    return serve_trace(
        models[0], accelerator, PoissonTraffic(rate_rps=100_000.0, duration_s=DURATION_S),
        POLICY, n_workers=2, seed=seed, faults=FaultInjector(FAULTY, seed=seed),
        retry=RetryPolicy(backoff_s=30e-6),
    )


SCENARIOS = {
    "duplicate_times": _duplicate_times,
    "exact_instants": _exact_instants,
    "two_model_unsorted": _two_model_unsorted,
    "cutoff": _cutoff,
    "faulty_backoff": _faulty_backoff,
}


def _rounded(value):
    """``value`` with every float rounded to nine significant digits."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def record_payload(report) -> dict:
    """Every simulated field of ``report`` as JSON-ready plain data."""
    return {
        "scalars": [
            report.accelerator, list(report.models), report.traffic, report.policy,
            report.n_workers, report.power_w, report.duration_s, report.horizon_s,
            report.n_arrivals, report.n_shed, report.n_queued_end,
            report.n_in_flight_end, report.peak_queue_depth, report.faults,
            report.n_retries, report.n_lost_batches, report.n_retried_completions,
            report.wasted_busy_s, report.wasted_energy_j, report.events_processed,
        ],
        "workers": [
            list(report.worker_busy_s), list(report.worker_power_w),
            list(report.worker_downtime_s),
        ],
        "requests": [
            [r.request_id, r.model, r.arrival_s, r.dispatch_s, r.completion_s,
             r.batch_id, r.worker_id, r.batch_size]
            for r in report.requests
        ],
        "batches": [
            [b.batch_id, b.model, [r.request_id for r in b.requests], b.dispatch_s,
             b.worker_id, b.latency_s, b.energy_j, b.deadline_triggered]
            for b in report.batches
        ],
        "failures": [
            [f.request_id, f.model, f.arrival_s, f.failed_s, f.attempts]
            for f in report.failures
        ],
        "outputs": report.outputs,
    }


def digests(models, accelerator, scenario: str, seed: int) -> dict[str, str]:
    """sha256 of the report's fields and of its event trace."""
    report = SCENARIOS[scenario](models, accelerator, seed)

    def sha(payload) -> str:
        return hashlib.sha256(
            json.dumps(_rounded(payload), sort_keys=True).encode()
        ).hexdigest()

    return {
        "report": sha(record_payload(report)),
        "trace": sha([list(entry) for entry in report.event_trace]),
    }


GOLDEN: dict[str, dict[int, dict[str, str]]] = {
    "cutoff": {
        0: {
            "report": "94d5a879b7f53239d6c692b1e485ba9186645c2843b9a6582cc5e273d0afe2fa",
            "trace": "c698b30e256efa4288de7b8250cf5f5fab3695c1e06e591de44f8044693ce793",
        },
        2: {
            "report": "9798f1c902c7573dc8b46581176f575c7f54a57cba36d704d57b5fe0194f3b73",
            "trace": "4b3d8a1890b9a99ed760416561d52f9efc16c1a9e9c5087192ea3d385c2d41fe",
        },
    },
    "duplicate_times": {
        0: {
            "report": "a89bfe39ee1e4f3d85d158dffbb86e57f634b5f7576ac7497266861d465d6d79",
            "trace": "cf31dcc4f377d418f55b53e56c7e5c057b4da23b002eb9fce1645e4c309b251c",
        },
        2: {
            "report": "5a5ad41ab1cc8ecd08e3b437fddec551a3df4787b36482395a4af96c1a898fe9",
            "trace": "7701388b88a31bbd873a0f407903469dffd50fcb1bc4eb48147f8999a6777bde",
        },
    },
    "exact_instants": {
        0: {
            "report": "cb5786ddb011871179223592838d0ce340943d24006039321da45cefaeacf81a",
            "trace": "2ba54e4172f626eeb519097c11d8ae4e1a1f196330f558b6c1b67bcac10555f7",
        },
        2: {
            "report": "6cd9428a9b72530e0cf16a923009226fded3fb8fcb4d7dd7bb538a1235a03ac6",
            "trace": "27abf8974b5bb757e788895627baffc9578dad197bbb75b10c0ae178d7f8697b",
        },
    },
    "faulty_backoff": {
        0: {
            "report": "a5003e36c6f7599dcd65074f7a49cc989e3bd16fc21aabe6c006983e2bb0c24e",
            "trace": "b34162abd2bbaaaab66b0e64df6094511424461774f89c0b08d553dc1c60a360",
        },
        2: {
            "report": "45716c06acbf74b44dc546bceb415b1844c02820fcbfcde1d66d56f02ca3bd2c",
            "trace": "5d4d3f90e1f9be7e0f7b694451ec64045928454e3f34118e7061cd5fc478a277",
        },
    },
    "two_model_unsorted": {
        0: {
            "report": "488fb71948686885fa7d1dd283f8f3124589319e507f6d335e7868fd1d25f5d6",
            "trace": "a0c706eba98b0b125495e13e9484955b50e0022c76ed77a988eabee3dd20d4f8",
        },
        2: {
            "report": "df188cd4e570476549394c9ec4070772e8cfb9b092bdf7c9e59a83f25be23de9",
            "trace": "9a0381810a760184a7cdd1ef95869cdb6b06a4632b47767dfdb8eea3824a1bfe",
        },
    },
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_record_matches_golden(models, crosslight, scenario, seed):
    assert digests(models, crosslight, scenario, seed) == GOLDEN[scenario][seed]


def test_golden_covers_every_scenario_and_seed():
    assert set(GOLDEN) == set(SCENARIOS)
    assert all(set(by_seed) == set(SEEDS) for by_seed in GOLDEN.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_instants_land_on_other_events(models, crosslight, seed):
    """The scenario really stresses the merge: each added arrival coincides
    with the completion or deadline dispatch it was placed on."""
    requests, instants = exact_instant_requests(models, crosslight, seed)
    report = _runtime(models, crosslight).run(requests, DURATION_S)
    completions = {batch.completion_s for batch in report.batches}
    deadline_dispatches = {
        batch.dispatch_s for batch in report.batches if batch.deadline_triggered
    }
    assert all(instant in completions for instant in instants[::2])
    assert all(instant in deadline_dispatches for instant in instants[1::2])


@pytest.mark.parametrize("seed", SEEDS)
def test_scenarios_hold_their_premise(models, crosslight, seed):
    """Ties and out-of-order entries are present, and the fault and cut-off
    scenarios actually retry and cut."""
    times = [r.arrival_s for r in unsorted_two_model_requests(models, seed)]
    assert times != sorted(times)
    assert len(set(times)) < len(times)
    faulty = _faulty_backoff(models, crosslight, seed)
    assert faulty.n_retries > 0
    assert any(entry.kind == "readmit" for entry in faulty.event_trace)
    assert _cutoff(models, crosslight, seed).backlog_end > 0
    arrivals = [
        entry.time_s
        for entry in _duplicate_times(models, crosslight, seed).event_trace
        if entry.kind == "arrival"
    ]
    assert len(set(arrivals)) < len(arrivals)
