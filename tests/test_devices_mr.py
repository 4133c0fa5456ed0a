"""Unit tests for the microring resonator device model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import CONVENTIONAL_MR, OPTIMIZED_MR, MicroringResonator


class TestMRSpectrum:
    def test_on_resonance_transmission_is_extinction_limited(self):
        mr = MicroringResonator.optimized(extinction_ratio_db=20.0)
        assert mr.through_transmission(mr.resonance_nm) == pytest.approx(0.01, abs=1e-6)

    def test_far_off_resonance_transmission_is_near_unity(self):
        mr = MicroringResonator.optimized()
        half_fsr_away = mr.resonance_nm + mr.fsr_nm / 2.0
        assert mr.through_transmission(half_fsr_away) > 0.99

    def test_transmission_bounded_in_unit_interval(self):
        mr = MicroringResonator.optimized()
        wavelengths = np.linspace(1500.0, 1600.0, 2001)
        transmission = mr.through_transmission(wavelengths)
        assert np.all(transmission >= mr.min_transmission - 1e-12)
        assert np.all(transmission <= 1.0 + 1e-12)

    def test_fsr_periodicity(self):
        mr = MicroringResonator.optimized()
        t_here = mr.through_transmission(mr.resonance_nm + 0.3)
        t_next_order = mr.through_transmission(mr.resonance_nm + 0.3 + mr.fsr_nm)
        assert t_here == pytest.approx(t_next_order, rel=1e-9)

    def test_drop_is_complement_of_through(self):
        mr = MicroringResonator.optimized()
        wl = mr.resonance_nm + 0.05
        assert mr.drop_transmission(wl) == pytest.approx(1.0 - mr.through_transmission(wl))

    def test_fwhm_matches_q_definition(self):
        mr = MicroringResonator.optimized()
        assert mr.fwhm_nm == pytest.approx(mr.resonance_nm / mr.quality_factor)

    def test_half_transmission_at_half_width(self):
        mr = MicroringResonator.optimized(extinction_ratio_db=30.0)
        at_half_width = mr.through_transmission(mr.resonance_nm + mr.fwhm_nm / 2.0)
        # At one half-width the Lorentzian is at half depth.
        expected = 1.0 - (1.0 - mr.min_transmission) / 2.0
        assert at_half_width == pytest.approx(expected, rel=1e-9)


class TestMRTuning:
    def test_resonance_shift_accumulates_and_resets(self):
        mr = MicroringResonator.optimized()
        mr.apply_resonance_shift(0.5)
        mr.apply_resonance_shift(0.25)
        assert mr.resonance_nm == pytest.approx(mr.design.resonance_nm + 0.75)
        mr.reset_shift()
        assert mr.resonance_nm == pytest.approx(mr.design.resonance_nm)

    def test_temperature_shift_is_about_0p07_nm_per_kelvin(self):
        mr = MicroringResonator.optimized()
        shift = mr.shift_for_temperature_change(1.0)
        assert 0.05 < shift < 0.1

    def test_detuning_for_transmission_inverts_lorentzian(self):
        mr = MicroringResonator.optimized()
        for target in (0.1, 0.3, 0.5, 0.8, 0.95):
            detuning = mr.detuning_for_transmission(target)
            realised = mr.through_transmission(mr.resonance_nm + detuning)
            assert realised == pytest.approx(target, abs=1e-9)

    def test_detuning_monotone_in_target(self):
        mr = MicroringResonator.optimized()
        targets = np.linspace(0.05, 0.99, 30)
        detunings = [mr.detuning_for_transmission(t) for t in targets]
        assert all(b >= a for a, b in zip(detunings, detunings[1:]))

    def test_detuning_for_full_transmission_is_half_fsr(self):
        mr = MicroringResonator.optimized()
        assert mr.detuning_for_transmission(1.0) == pytest.approx(mr.fsr_nm / 2.0)

    def test_detuning_rejects_out_of_range_target(self):
        mr = MicroringResonator.optimized()
        with pytest.raises(ValueError):
            mr.detuning_for_transmission(1.5)

    def test_drift_error_zero_without_drift(self):
        mr = MicroringResonator.optimized()
        assert mr.transmission_error_from_drift(0.5, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_drift_error_grows_with_drift(self):
        mr = MicroringResonator.optimized()
        small = mr.transmission_error_from_drift(0.5, 0.01)
        large = mr.transmission_error_from_drift(0.5, 0.1)
        assert large > small > 0.0


class TestMRDesigns:
    def test_design_points_match_paper_drift(self):
        assert CONVENTIONAL_MR.fpv_drift_nm == pytest.approx(7.1)
        assert OPTIMIZED_MR.fpv_drift_nm == pytest.approx(2.1)

    def test_optimized_design_waveguide_widths(self):
        assert OPTIMIZED_MR.input_waveguide_width_nm == pytest.approx(400.0)
        assert OPTIMIZED_MR.ring_waveguide_width_nm == pytest.approx(800.0)

    def test_paper_q_and_fsr(self):
        assert OPTIMIZED_MR.quality_factor == pytest.approx(8000.0)
        assert OPTIMIZED_MR.fsr_nm == pytest.approx(18.0)

    def test_footprint_positive(self):
        mr = MicroringResonator.conventional()
        assert mr.footprint_um2 > 0

    def test_invalid_extinction_ratio_rejected(self):
        with pytest.raises(ValueError):
            MicroringResonator.optimized(extinction_ratio_db=-3.0)
