"""Golden digests of the serving runtime's observability output.

``test_obs.py`` proves that observability never changes a simulated result;
these digests pin the observability output itself -- the ``serve.*`` metrics
snapshot and the full Chrome trace -- over a grid of serving scenarios that
covers fault-free runs, crashes with synchronous and delayed retries, a
cut-off (``drain=False``) saturated run, and a two-model fleet with
shedding, backoff and a tight retry budget.

The digests were captured while the metrics and trace were still written
from inside the event-loop handlers, so they are an independent reference
for any implementation that derives them some other way.  A deliberate
change to either export updates the digests and says why.

Floats are rounded to nine significant digits before hashing, so a last-bit
difference in host arithmetic cannot flip a digest while any real change in
a timestamp, duration or histogram sum still does.
``serve.runtime.wall_time_s`` is wall-clock and is left out.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.arch.accelerator import CrossLightAccelerator
from repro.nn.zoo import build_model
from repro.obs import Observability
from repro.serve import (
    BatchPolicy,
    FaultInjector,
    FaultModel,
    PoissonTraffic,
    RetryPolicy,
    ServingRuntime,
    requests_from_traffic,
    serve_trace,
)

FAULTY = FaultModel(
    crash_mtbf_s=1.5e-3, repair_mttr_s=0.3e-3,
    throttle_mtbf_s=1.0e-3, throttle_duration_s=0.5e-3, throttle_derate=2.0,
)
POLICY = BatchPolicy(max_batch_size=8, max_wait_s=100e-6, max_queue_depth=64)
DURATION_S = 0.004
SEEDS = (0, 2)


@pytest.fixture(scope="module")
def models():
    return build_model(1), build_model(2)


@pytest.fixture(scope="module")
def crosslight():
    return CrossLightAccelerator.from_variant("cross_opt_ted")


def _serve(models, accelerator, seed, obs, *, rate_rps, faults=None,
           retry=None, drain=True):
    return serve_trace(
        models[0], accelerator, PoissonTraffic(rate_rps=rate_rps, duration_s=DURATION_S),
        POLICY, n_workers=2, seed=seed, faults=faults, retry=retry, drain=drain,
        obs=obs,
    )


def _two_model(models, accelerator, seed, obs):
    """Two models on one fleet: shedding, backoff and ``max_attempts=2``."""
    runtime = ServingRuntime(
        {model.name: model.workloads() for model in models},
        accelerator,
        BatchPolicy(max_batch_size=4, max_wait_s=50e-6, max_queue_depth=12),
        n_workers=2,
        faults=FaultInjector(FAULTY, seed=seed),
        retry=RetryPolicy(max_attempts=2, backoff_s=20e-6),
        obs=obs,
    )
    requests = sorted(
        requests_from_traffic(
            PoissonTraffic(rate_rps=40_000.0, duration_s=DURATION_S),
            models[0].name, seed=seed,
        )
        + requests_from_traffic(
            PoissonTraffic(rate_rps=40_000.0, duration_s=DURATION_S),
            models[1].name, seed=seed + 100, start_id=100_000,
        ),
        key=lambda request: (request.arrival_s, request.request_id),
    )
    return runtime.run(requests, DURATION_S, traffic_description="two-model golden")


SCENARIOS = {
    "fault_free": lambda m, a, s, o: _serve(m, a, s, o, rate_rps=120_000.0),
    "faulty_retry": lambda m, a, s, o: _serve(
        m, a, s, o, rate_rps=120_000.0, faults=FAULTY, retry=RetryPolicy()
    ),
    "faulty_backoff": lambda m, a, s, o: _serve(
        m, a, s, o, rate_rps=120_000.0, faults=FAULTY,
        retry=RetryPolicy(backoff_s=30e-6),
    ),
    "cutoff": lambda m, a, s, o: _serve(
        m, a, s, o, rate_rps=400_000.0, faults=FAULTY, retry=RetryPolicy(),
        drain=False,
    ),
    "two_model": _two_model,
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


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(_rounded(payload), sort_keys=True).encode()
    ).hexdigest()


def digests(models, accelerator, scenario: str, seed: int) -> dict[str, str]:
    """sha256 of the ``serve.`` metrics snapshot and of the Chrome trace."""
    obs = Observability.enabled()
    SCENARIOS[scenario](models, accelerator, seed, obs)
    metrics = [
        sample
        for sample in obs.metrics.to_dict("serve.")["metrics"]
        if sample["name"] != "serve.runtime.wall_time_s"
    ]
    return {"metrics": _sha(metrics), "trace": _sha(obs.tracer.to_dict())}


GOLDEN: dict[str, dict[int, dict[str, str]]] = {
    "cutoff": {
        0: {
            "metrics": "d4b86ca167230b9d1652437394192faceca7718474a9846c5f49d7ea1ee4e888",
            "trace": "db3a4a19fe80fe3ed2b9013d7b74c12086225f7638b69fb92ebe3cb3c0271e18",
        },
        2: {
            "metrics": "bb92d47dc82019684b9391157e06f0c10ac90315200c94b46a6838fe0c4ec6de",
            "trace": "3855d9d6d605c43cae773cf1ecbe4587b109a72fc3029af2a13bd7170d66483b",
        },
    },
    "fault_free": {
        0: {
            "metrics": "e91c7f281d4bf86796d5cc682f3f128869428da470a440205a175c4fca3452e0",
            "trace": "e505df290a156423a5fc7a7983f39c73ee32123c9766d090c6d47e5b18454fc3",
        },
        2: {
            "metrics": "e0f3e01af6b55de640a97e384e12a54b59de4bbce99ba6b31d3c0713a890cc32",
            "trace": "d4714f215df11859bcd2f711ad58157ddbd86fe550690cdad21f0741fd020850",
        },
    },
    "faulty_backoff": {
        0: {
            "metrics": "d8abb7a91f608d5fd284933c2dcbd811d2725623c1ab92fea118f086d5ff8e33",
            "trace": "1a0582fb142ebe48eae6ec126fb45c0cd69da1916423c2d52f6e64ffcaacbcb6",
        },
        2: {
            "metrics": "4f3ac35549357e6894cd8a2d403515ea3ba179f8477ab4900e96131a3c76af04",
            "trace": "b91bab380bc30b6b3720be7179ef6a8ee8bec60e216e799a5455769f414524e0",
        },
    },
    "faulty_retry": {
        0: {
            "metrics": "360ceff7221a5936a7aa53f9aaad7eca078dcfde30d759e5e2caed1d0a763ce5",
            "trace": "62ee403b395f0d42f1bc8ea40954bbc0c5d5b03f4ec13db3f58350bf7975567d",
        },
        2: {
            "metrics": "bdec0534b970d9f0c1df2b508baf01238d5c12eece66f8075b3282f50d07826e",
            "trace": "67231d7282a8b1266ba41aaef05c0ff80ce5dc6a38273f17e632ef2464ac261e",
        },
    },
    "two_model": {
        0: {
            "metrics": "170d5493269a80839e7d1a97aa852f1d59096e413ab0158814ca3b4867b22002",
            "trace": "bdc93b8a6e0c2dc4b49468afc742c617db01917128a99f985d70b958d58569c9",
        },
        2: {
            "metrics": "5ee4332669beefeef1e0e52691c4673faaae2278edcd1ca36fa8cf641997df51",
            "trace": "b24303db4d79e64af0872f7e77e9d3c2b88a6fc34d766b788998465acfda5b64",
        },
    },
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_obs_output_matches_golden(models, crosslight, scenario, seed):
    assert digests(models, crosslight, scenario, seed) == GOLDEN[scenario][seed]


def test_golden_covers_every_scenario_and_seed():
    assert set(GOLDEN) == set(SCENARIOS)
    assert all(set(by_seed) == set(SEEDS) for by_seed in GOLDEN.values())
