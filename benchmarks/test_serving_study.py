"""Benchmark E-SERVE: smoke-run the request-level serving study.

Regenerates the serving study at benchmark scale and asserts its headline
qualitative claims: the batching frontier is monotone (larger max-batch
buys service capacity and costs tail latency), CrossLight dominates the
photonic baselines on energy per request at equal load, and the
saturation probe brackets every accelerator's analytic capacity.
"""

from __future__ import annotations

from repro.experiments import serving_study


def test_serving_study_smoke(benchmark):
    result = benchmark.pedantic(
        serving_study.run,
        kwargs={"max_batches": (1, 4, 16), "n_requests": 800},
        rounds=1,
        iterations=1,
    )

    # Batching frontier: monotone capacity/latency/energy on every design.
    for name in serving_study.ACCELERATOR_BUILDERS:
        points = result.batch_sweep_for(name)
        assert [p.max_batch for p in points] == [1, 4, 16]
        capacity = [p.service_throughput_rps for p in points]
        p99 = [p.p99_latency_s for p in points]
        energy = [p.energy_per_request_j for p in points]
        assert all(b > a for a, b in zip(capacity, capacity[1:]))
        assert all(b > a for a, b in zip(p99, p99[1:]))
        assert all(b < a for a, b in zip(energy, energy[1:]))

    # Equal absolute load: CrossLight wins energy per request outright.
    crosslight = result.equal_load_for("Cross_opt_TED")
    deap = result.equal_load_for("DEAP_CNN")
    holylight = result.equal_load_for("Holylight")
    assert crosslight.energy_per_request_j < holylight.energy_per_request_j / 3
    assert crosslight.energy_per_request_j < deap.energy_per_request_j / 20
    assert all(point.stable for point in result.equal_load)

    # Saturation: the measured sustainable-rate edge sits below the analytic
    # capacity, and the capacity ordering follows the architectures.
    for name in serving_study.ACCELERATOR_BUILDERS:
        saturation = result.saturation_for(name)
        assert 0.0 < saturation.max_sustainable_rps <= saturation.capacity_rps
        assert any(not point.stable for point in saturation.points)
    assert (
        result.saturation_for("Cross_opt_TED").max_sustainable_rps
        > result.saturation_for("Holylight").max_sustainable_rps
        > result.saturation_for("DEAP_CNN").max_sustainable_rps
    )
