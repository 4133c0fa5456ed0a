"""Unit tests for fabrication-process-variation and thermal models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import CONVENTIONAL_MR, OPTIMIZED_MR
from repro.variations import (
    HeatSolver1D,
    ProcessVariationModel,
    StackProperties,
    ThermalCrosstalkModel,
    best_design,
    drift_reduction_percent,
    evaluate_design,
    expected_fpv_drift_nm,
    explore_design_space,
    fit_decay_length_um,
    sample_banked_drifts,
    width_sensitivity_nm_per_nm,
)


class TestFPVModel:
    def test_calibrated_drifts_match_paper(self):
        assert expected_fpv_drift_nm(CONVENTIONAL_MR) == pytest.approx(7.1, abs=0.15)
        assert expected_fpv_drift_nm(OPTIMIZED_MR) == pytest.approx(2.1, abs=0.1)

    def test_drift_reduction_is_about_70_percent(self):
        assert drift_reduction_percent() == pytest.approx(70.0, abs=3.0)

    def test_wider_ring_waveguide_is_less_sensitive(self):
        assert width_sensitivity_nm_per_nm(OPTIMIZED_MR) < width_sensitivity_nm_per_nm(
            CONVENTIONAL_MR
        )

    def test_drift_scales_with_wafer_sigma(self):
        tight = ProcessVariationModel(width_sigma_nm=1.0)
        loose = ProcessVariationModel(width_sigma_nm=8.0)
        assert expected_fpv_drift_nm(OPTIMIZED_MR, loose) > expected_fpv_drift_nm(
            OPTIMIZED_MR, tight
        )

    def test_sampler_is_reproducible_and_scaled(self):
        sigma = expected_fpv_drift_nm(OPTIMIZED_MR) / 3.0
        first = sample_banked_drifts(np.random.default_rng(7), 100, sigma)
        second = sample_banked_drifts(np.random.default_rng(7), 100, sigma)
        np.testing.assert_array_equal(first, second)
        unit = sample_banked_drifts(np.random.default_rng(7), 100, 1.0)
        np.testing.assert_allclose(first, sigma * unit)

    def test_sampler_conventional_has_larger_spread(self):
        def mean_abs_drift(design) -> float:
            sigma = expected_fpv_drift_nm(design) / 3.0
            drifts = sample_banked_drifts(
                np.random.default_rng(0), 1000, sigma, bank_correlation=0.0
            )
            return float(np.mean(np.abs(drifts)))

        assert expected_fpv_drift_nm(CONVENTIONAL_MR) > expected_fpv_drift_nm(OPTIMIZED_MR)
        assert mean_abs_drift(CONVENTIONAL_MR) > mean_abs_drift(OPTIMIZED_MR)

    def test_sampler_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            sample_banked_drifts(np.random.default_rng(0), 10, 1.0, bank_correlation=1.5)


class TestBankedDriftMoments:
    """``sample_banked_drifts`` moments against the model's closed forms.

    Each draw is reshaped to ``(trials, 4)``: two banks of two rings per
    row, every row independent.  With ``trials`` rows the sample variance
    has standard error ``sigma**2 * sqrt(2 / trials)``, a correlation ``r``
    near ``rho`` has standard error ``(1 - rho**2) / sqrt(trials)``, and the
    bounds allow five standard errors on each of a fixed set of seeds.
    """

    TRIALS = 20_000
    SIGMA_NM = 0.7
    RHO = 0.8

    def _rows(self, seed: int) -> np.ndarray:
        drifts = sample_banked_drifts(
            np.random.default_rng(seed),
            4 * self.TRIALS,
            self.SIGMA_NM,
            bank_size=2,
            bank_correlation=self.RHO,
        )
        return drifts.reshape(self.TRIALS, 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_marginal_std_is_sigma(self, seed):
        variances = self._rows(seed).var(axis=0, ddof=1) / self.SIGMA_NM**2
        np.testing.assert_array_less(np.abs(variances - 1.0), 5 * np.sqrt(2 / self.TRIALS))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_bank_correlation_is_bank_correlation(self, seed):
        rows = self._rows(seed)
        bound = 5 * (1 - self.RHO**2) / np.sqrt(self.TRIALS)
        for first, second in ((0, 1), (2, 3)):
            r = np.corrcoef(rows[:, first], rows[:, second])[0, 1]
            assert abs(r - self.RHO) < bound

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_between_bank_correlation_is_zero(self, seed):
        rows = self._rows(seed)
        for first, second in ((0, 2), (1, 3)):
            r = np.corrcoef(rows[:, first], rows[:, second])[0, 1]
            assert abs(r) < 5 / np.sqrt(self.TRIALS)


class TestThermalCrosstalk:
    def test_coupling_decays_exponentially(self):
        model = ThermalCrosstalkModel(decay_length_um=7.0)
        assert model.coupling(0.0) == pytest.approx(1.0)
        assert model.coupling(7.0) == pytest.approx(np.exp(-1.0))
        assert model.coupling(70.0) < 1e-4

    def test_crosstalk_matrix_symmetric_unit_diagonal(self):
        model = ThermalCrosstalkModel()
        matrix = model.crosstalk_matrix(8, 5.0)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_phase_from_powers_roundtrip(self):
        model = ThermalCrosstalkModel()
        target = np.array([0.5, 0.8, 0.3, 0.6])
        powers = model.heater_powers_for_phase(target, pitch_um=30.0)
        realised = model.phase_from_heater_powers(powers, pitch_um=30.0)
        np.testing.assert_allclose(realised, target, rtol=1e-6)

    def test_negative_distance_rejected(self):
        model = ThermalCrosstalkModel()
        with pytest.raises(ValueError):
            model.coupling(-1.0)


class TestHeatSolver:
    def test_profile_peaks_at_heater_and_decays(self):
        solver = HeatSolver1D()
        profile = solver.solve(10e-3)
        grid = solver.grid_um
        center_temp = solver.temperature_at(profile, 0.0)
        far_temp = solver.temperature_at(profile, 100.0)
        assert center_temp > 0
        assert far_temp < 0.2 * center_temp
        assert profile[np.argmin(np.abs(grid))] == pytest.approx(center_temp, rel=1e-6)

    def test_profile_scales_linearly_with_power(self):
        solver = HeatSolver1D()
        low = solver.solve(5e-3)
        high = solver.solve(10e-3)
        np.testing.assert_allclose(high, 2 * low, rtol=1e-6)

    def test_fitted_decay_length_matches_analytic(self):
        stack = StackProperties()
        fitted = fit_decay_length_um()
        assert fitted == pytest.approx(stack.analytic_decay_length_um, rel=0.25)

    def test_fitted_decay_length_near_model_default(self):
        # The analytic crosstalk model default (7 um) should be consistent
        # with the heat-solver calibration to within a couple of micrometres.
        assert abs(fit_decay_length_um() - ThermalCrosstalkModel().decay_length_um) < 2.0

    def test_invalid_fit_range_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_length_um(fit_range_um=(10.0, 5.0))


class TestDeviceDesignSpace:
    def test_best_design_is_400_800(self):
        winner = best_design()
        assert winner.input_waveguide_width_nm == pytest.approx(400.0)
        assert winner.ring_waveguide_width_nm == pytest.approx(800.0)

    def test_exploration_sorted_by_figure_of_merit(self):
        candidates = explore_design_space()
        foms = [c.figure_of_merit for c in candidates]
        assert foms == sorted(foms)

    def test_drift_decreases_with_ring_width(self):
        narrow = evaluate_design(400.0, 400.0)
        wide = evaluate_design(400.0, 800.0)
        assert wide.fpv_drift_nm < narrow.fpv_drift_nm

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError):
            best_design(candidates=[])
