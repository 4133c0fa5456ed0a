"""Benchmark E-F4: regenerate Fig. 4 (thermal crosstalk and tuning power)."""

from __future__ import annotations

import numpy as np

from repro.experiments import fig4_thermal


def test_fig4_crosstalk_and_tuning_power(benchmark):
    result = benchmark(fig4_thermal.run)

    # Orange curve: phase crosstalk ratio decays monotonically with distance.
    assert np.all(np.diff(result.crosstalk_ratio) < 0)
    # Solid-blue curve: TED per-MR tuning power has its minimum at 5 um,
    # the spacing CrossLight adopts.
    assert result.optimal_pitch_um == 5.0
    # Dotted-blue curve: naive (no-TED) tuning power is always at least the
    # TED power, and substantially higher near the operating point.
    assert np.all(result.naive_power_per_mr_mw >= result.ted_power_per_mr_mw - 1e-9)
    at_5um = list(result.pitch_um).index(5.0)
    assert result.naive_power_per_mr_mw[at_5um] > 3 * result.ted_power_per_mr_mw[at_5um]
