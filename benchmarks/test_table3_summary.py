"""Benchmark E-T3: regenerate Table III (average EPB and kFPS/W)."""

from __future__ import annotations

from repro.experiments import table3_summary


def test_table3_summary(benchmark, models):
    result = benchmark.pedantic(
        table3_summary.run, kwargs={"models": models}, rounds=1, iterations=1
    )

    # The reproduced table contains every platform of the paper's Table III.
    names = {row.name for row in result.rows}
    assert {
        "P100",
        "IXP 9282",
        "AMD-TR",
        "DaDianNao",
        "Edge TPU",
        "Null Hop",
        "DEAP_CNN",
        "Holylight",
        "Cross_base",
        "Cross_base_TED",
        "Cross_opt",
        "Cross_opt_TED",
    } <= names

    # EPB ordering among the photonic accelerators matches the paper.
    epb = {row.name: row.avg_epb_pj_per_bit for row in result.rows}
    assert (
        epb["DEAP_CNN"]
        > epb["Holylight"]
        > epb["Cross_base"]
        > epb["Cross_base_TED"]
        > epb["Cross_opt"]
        > epb["Cross_opt_TED"]
    )

    # Headline improvement factors in the paper's regime.
    assert 4.0 < result.epb_improvement_over_holylight() < 30.0
    assert 8.0 < result.perf_per_watt_improvement_over_holylight() < 35.0
    assert result.epb_improvement_over_deap() > 100.0
