"""Benchmark E-RES: regenerate the Section V.B resolution analysis."""

from __future__ import annotations

from repro.experiments import resolution_analysis


def test_resolution_analysis(benchmark):
    result = benchmark(resolution_analysis.run)

    # CrossLight sustains 16 bits at the paper's 15-MRs-per-bank operating
    # point; DEAP-CNN and HolyLight are limited to ~4 and ~2 bits.
    assert result.crosslight.resolution_bits >= 16
    assert result.deap_cnn.resolution_bits == 4
    assert result.holylight.resolution_bits == 2
    assert result.max_bank_size_for_16_bits >= 15
    # Packing more MRs per bank eventually costs resolution.
    bits = result.bank_size_sweep["resolution_bits"]
    assert bits[-1] < bits[14]
