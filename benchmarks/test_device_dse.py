"""Benchmark E-DEV: regenerate the Section IV.A device design exploration."""

from __future__ import annotations

from repro.experiments import device_dse


def test_device_design_space_exploration(benchmark):
    result = benchmark(device_dse.run)

    # The exploration selects the paper's 400 nm / 800 nm design point.
    assert result.best.input_waveguide_width_nm == 400.0
    assert result.best.ring_waveguide_width_nm == 800.0
    # Calibrated drifts reproduce the paper's 7.1 nm -> 2.1 nm (~70 %) result.
    assert abs(result.conventional_drift_nm - 7.1) < 0.2
    assert abs(result.optimized_drift_nm - 2.1) < 0.15
    assert abs(result.drift_reduction_percent - 70.0) < 4.0
