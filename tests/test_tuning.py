"""Unit tests for the tuning circuits: TO, EO, TED, and the hybrid policy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CONVENTIONAL_MR, EO_TUNING, OPTIMIZED_MR, TO_TUNING
from repro.tuning import (
    ConventionalTOTuningPolicy,
    ElectroOpticTuner,
    HybridTuningPolicy,
    ThermalEigenmodeDecomposition,
    ThermoOpticTuner,
    tuning_power_vs_pitch,
)
from repro.variations import ThermalCrosstalkModel


class TestThermoOpticTuner:
    def test_full_fsr_shift_costs_quoted_power(self):
        tuner = ThermoOpticTuner(fsr_nm=18.0)
        assert tuner.power_for_shift_w(18.0) == pytest.approx(27.5e-3)

    def test_power_linear_in_shift(self):
        tuner = ThermoOpticTuner(fsr_nm=18.0)
        assert tuner.power_for_shift_w(9.0) == pytest.approx(27.5e-3 / 2)

    def test_shift_beyond_range_rejected(self):
        tuner = ThermoOpticTuner(fsr_nm=18.0)
        with pytest.raises(ValueError):
            tuner.power_for_shift_w(20.0)

    def test_energy_includes_hold_time(self):
        tuner = ThermoOpticTuner(fsr_nm=18.0)
        short = tuner.energy_for_shift_j(2.0, hold_time_s=1e-6)
        long = tuner.energy_for_shift_j(2.0, hold_time_s=1e-3)
        assert long > short

    def test_table2_latency(self):
        assert ThermoOpticTuner().latency_s == pytest.approx(4e-6)


class TestElectroOpticTuner:
    def test_power_per_nm_matches_table2(self):
        tuner = ElectroOpticTuner()
        assert tuner.power_for_shift_w(1.0) == pytest.approx(4e-6)

    def test_small_shift_cheap_compared_to_to(self):
        eo = ElectroOpticTuner()
        to = ThermoOpticTuner(fsr_nm=18.0)
        assert eo.power_for_shift_w(0.5) < to.power_for_shift_w(0.5) / 100

    def test_eo_range_limited(self):
        tuner = ElectroOpticTuner(max_shift_nm=1.5)
        assert tuner.can_compensate(1.0)
        assert not tuner.can_compensate(3.0)
        with pytest.raises(ValueError):
            tuner.power_for_shift_w(3.0)

    def test_vectorised_power(self):
        tuner = ElectroOpticTuner()
        shifts = np.array([0.1, 0.5, 1.0])
        np.testing.assert_allclose(tuner.power_for_shifts_w(shifts), 4e-6 * shifts)

    def test_table2_latency(self):
        assert ElectroOpticTuner().latency_s == pytest.approx(20e-9)


class TestTED:
    def test_ted_cheaper_than_naive_at_tight_pitch(self):
        ted = ThermalEigenmodeDecomposition()
        result = ted.solve(np.full(10, np.pi / 2), pitch_um=5.0)
        assert result.naive_total_power_w > 2.0 * result.ted_total_power_w

    def test_ted_and_naive_converge_at_large_pitch(self):
        ted = ThermalEigenmodeDecomposition()
        result = ted.solve(np.full(10, np.pi / 2), pitch_um=500.0)
        assert result.ted_total_power_w == pytest.approx(
            result.naive_total_power_w, rel=0.05
        )

    def test_ted_powers_are_non_negative(self):
        ted = ThermalEigenmodeDecomposition()
        rng = np.random.default_rng(0)
        phases = np.clip(rng.normal(1.0, 0.4, size=12), 0.0, None)
        result = ted.solve(phases, pitch_um=3.0)
        assert np.all(result.ted_powers_w >= 0)

    def test_eigenmodes_of_crosstalk_matrix(self):
        ted = ThermalEigenmodeDecomposition()
        eigenvalues, eigenvectors = ted.eigenmodes(8, 5.0)
        assert np.all(eigenvalues > 0)  # positive definite
        # Orthonormal eigenbasis.
        np.testing.assert_allclose(eigenvectors.T @ eigenvectors, np.eye(8), atol=1e-9)

    def test_solve_rejects_negative_phases(self):
        ted = ThermalEigenmodeDecomposition()
        with pytest.raises(ValueError):
            ted.solve(np.array([0.5, -0.1]), pitch_um=5.0)

    def test_fig4_sweep_minimum_at_5um(self):
        pitches = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 20.0, 50.0])
        sweep = tuning_power_vs_pitch(pitches)
        minimum = pitches[int(np.argmin(sweep["ted_power_per_mr_w"]))]
        assert minimum == pytest.approx(5.0)

    def test_fig4_sweep_naive_always_at_least_ted(self):
        pitches = np.linspace(2.0, 60.0, 15)
        sweep = tuning_power_vs_pitch(pitches)
        assert np.all(sweep["naive_power_per_mr_w"] >= sweep["ted_power_per_mr_w"] - 1e-12)

    def test_uniform_bank_power_scales_with_drift_phase(self):
        ted = ThermalEigenmodeDecomposition()
        small = ted.uniform_bank_power_w(15, 5.0, 0.3, use_ted=True)
        large = ted.uniform_bank_power_w(15, 5.0, 0.9, use_ted=True)
        assert large > small


def _kms_inverse(n: int, rho: float) -> np.ndarray:
    """Closed-form inverse of the Kac-Murdock-Szego matrix ``K[i, j] = rho**|i - j|``."""
    inverse = (1.0 + rho**2) * np.eye(n) - rho * (np.eye(n, k=1) + np.eye(n, k=-1))
    inverse[0, 0] = inverse[-1, -1] = 1.0
    return inverse / (1.0 - rho**2)


# Equal pitch makes the thermal crosstalk matrix K[i, j] = rho**|i - j| with
# rho = exp(-pitch / L), whose inverse is tridiagonal.
BANKS = {
    "n": st.integers(min_value=2, max_value=64),
    "pitch_um": st.floats(min_value=3.0, max_value=20.0),
    "decay_length_um": st.floats(min_value=3.0, max_value=15.0),
}


class TestTEDClosedForm:
    """Fig. 4's TED and naive powers against the Kac-Murdock-Szego closed forms."""

    @settings(max_examples=40, deadline=None)
    @given(**BANKS, phase=st.floats(min_value=0.1, max_value=2.0 * np.pi))
    def test_uniform_bank_power(self, n, pitch_um, decay_length_um, phase):
        crosstalk = ThermalCrosstalkModel(decay_length_um=decay_length_um)
        ted = ThermalEigenmodeDecomposition(crosstalk=crosstalk)
        rho = np.exp(-pitch_um / decay_length_um)
        scale = phase / crosstalk.self_heating_phase_per_watt
        k = np.arange(1, n)
        # The row sums of K^-1: 1 / (1 + rho) at both ends, (1 - rho) / (1 + rho) inside.
        assert ted.uniform_bank_power_w(n, pitch_um, phase) == pytest.approx(
            scale * (2 + (n - 2) * (1 - rho)) / (1 + rho), rel=1e-12
        )
        # Naive tuning pays every ring's own phase plus all the phase its
        # neighbours inject: the row sums of K.
        assert ted.uniform_bank_power_w(n, pitch_um, phase, use_ted=False) == pytest.approx(
            scale * (n + 2 * np.sum((n - k) * rho**k)), rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(**BANKS, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_heater_powers_are_the_kms_inverse(self, n, pitch_um, decay_length_um, seed):
        crosstalk = ThermalCrosstalkModel(decay_length_um=decay_length_um)
        rho = np.exp(-pitch_um / decay_length_um)
        # Phases within a factor 1 + 0.9 (1 - rho)^2 / (2 rho) of each other
        # keep every row of K^-1 phi positive, so no heater power clips at 0.
        spread = 0.9 * (1 - rho) ** 2 / (2 * rho)
        phases = 1.0 + spread * np.random.default_rng(seed).random(n)
        expected = _kms_inverse(n, rho) @ phases / crosstalk.self_heating_phase_per_watt
        assert np.all(expected > 0)
        np.testing.assert_allclose(
            crosstalk.heater_powers_for_phase(phases, pitch_um), expected, rtol=1e-10
        )


class TestHybridPolicy:
    def test_mechanism_selection(self):
        policy = HybridTuningPolicy()
        assert policy.mechanism_for_shift(0.5) == "EO"
        assert policy.mechanism_for_shift(5.0) == "TO"
        with pytest.raises(ValueError):
            policy.mechanism_for_shift(50.0)

    def test_default_pitch_follows_ted_choice(self):
        assert HybridTuningPolicy(use_ted=True).mr_pitch_um == pytest.approx(5.0)
        assert HybridTuningPolicy(use_ted=False).mr_pitch_um == pytest.approx(120.0)

    def test_optimized_design_needs_less_boot_power(self):
        optimized = HybridTuningPolicy(mr_design=OPTIMIZED_MR)
        conventional = HybridTuningPolicy(mr_design=CONVENTIONAL_MR)
        assert optimized.boot_compensation_power_w(15) < conventional.boot_compensation_power_w(15)

    def test_hybrid_plan_faster_and_cheaper_than_conventional(self):
        hybrid = HybridTuningPolicy(mr_design=OPTIMIZED_MR, use_ted=True).plan_bank(15)
        conventional = ConventionalTOTuningPolicy(mr_design=OPTIMIZED_MR).plan_bank(15)
        assert hybrid.update_latency_s < conventional.update_latency_s
        assert hybrid.dynamic_eo_power_w < conventional.dynamic_eo_power_w
        assert hybrid.update_latency_s == pytest.approx(EO_TUNING.latency_s)
        assert conventional.update_latency_s == pytest.approx(TO_TUNING.latency_s)

    def test_plan_total_power_is_sum_of_parts(self):
        plan = HybridTuningPolicy().plan_bank(10)
        assert plan.total_power_w == pytest.approx(
            plan.static_to_power_w + plan.dynamic_eo_power_w
        )

    def test_ted_reduces_boot_power_at_5um(self):
        crosstalk = ThermalCrosstalkModel()
        with_ted = HybridTuningPolicy(use_ted=True, mr_pitch_um=5.0, crosstalk=crosstalk)
        without = HybridTuningPolicy(use_ted=False, mr_pitch_um=5.0, crosstalk=crosstalk)
        assert with_ted.boot_compensation_power_w(15) < without.boot_compensation_power_w(15)
