"""Benchmark: ablation studies of CrossLight's individual design choices.

Not a paper figure, but the natural decomposition of the paper's contribution:
wavelength reuse, bank sizing, hybrid tuning latency, and the accuracy impact
of uncompensated drift, each isolated.
"""

from __future__ import annotations

from repro.experiments import ablation


def test_ablation_studies(benchmark):
    result = benchmark.pedantic(
        ablation.run, kwargs={"include_drift_accuracy": True}, rounds=1, iterations=1
    )

    # Wavelength reuse reduces laser power for FC-sized units.
    assert result.wavelength_reuse.saving_ratio > 1.5

    # The 15-MRs-per-bank operating point keeps 16-bit resolution; doubling
    # the bank size loses resolution and costs laser power.
    by_size = {p.mrs_per_bank: p for p in result.bank_size_sweep}
    assert by_size[15].resolution_bits >= 16
    assert by_size[30].resolution_bits < 16
    assert by_size[30].laser_power_w > by_size[15].laser_power_w

    # Hybrid (EO) weight imprinting is orders of magnitude faster per cycle
    # than thermo-optic imprinting.
    assert result.tuning_latency.speedup > 50.0

    # Accuracy is preserved at small residual drift and degrades once the
    # uncompensated drift approaches the design's full FPV drift.
    drift_results = {r.residual_drift_nm: r for r in result.drift_accuracy}
    assert drift_results[0.0].accuracy_loss <= 0.05
    assert drift_results[2.1].accuracy <= drift_results[0.0].accuracy
