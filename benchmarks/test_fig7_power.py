"""Benchmark E-F7: regenerate Fig. 7 (power consumption comparison)."""

from __future__ import annotations

from repro.experiments import fig7_power


def test_fig7_power_comparison(benchmark):
    rows = benchmark(fig7_power.run)

    power = {row.name: row.power_w for row in rows}

    # Stacking the optimizations reduces power monotonically.
    assert (
        power["Cross_base"]
        > power["Cross_base_TED"]
        > power["Cross_opt"]
        > power["Cross_opt_TED"]
    )
    # The best variant undercuts both photonic baselines and the CPU/GPU
    # platforms, but remains above the edge/mobile electronic accelerators
    # (the paper's Fig. 7 observation).
    assert power["Cross_opt_TED"] < power["DEAP_CNN"]
    assert power["Cross_opt_TED"] < power["Holylight"]
    assert power["Cross_opt_TED"] < power["P100"]
    assert power["Cross_opt_TED"] < power["IXP 9282"]
    assert power["Cross_opt_TED"] < power["AMD-TR"]
    assert power["Cross_opt_TED"] > power["Edge TPU"]
    assert power["Cross_opt_TED"] > power["Null Hop"]
