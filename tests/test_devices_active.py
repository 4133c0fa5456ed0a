"""Unit tests for active devices: lasers, the Table II receiver and VCSEL
figures, microdisks, and ADC/DAC converters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import (
    PD_SENSITIVITY_DBM,
    PHOTODETECTOR,
    TIA,
    VCSEL,
    LaserSource,
    Microdisk,
    adc_channel,
    dac_channel,
    required_laser_power_dbm,
)


class TestLaserPowerModel:
    def test_equation7_structure(self):
        # P_laser = S_detector + loss + 10 log10(N_lambda)
        power = required_laser_power_dbm(photonic_loss_db=5.0, n_wavelengths=10)
        assert power == pytest.approx(PD_SENSITIVITY_DBM + 5.0 + 10.0)

    def test_single_wavelength_has_no_wdm_penalty(self):
        power = required_laser_power_dbm(photonic_loss_db=3.0, n_wavelengths=1)
        assert power == pytest.approx(PD_SENSITIVITY_DBM + 3.0)

    def test_power_monotone_in_loss(self):
        laser = LaserSource(n_wavelengths=15)
        powers = [laser.optical_power_watt(loss) for loss in np.linspace(0.0, 30.0, 20)]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_power_monotone_in_wavelength_count(self):
        powers = [LaserSource(n_wavelengths=n).optical_power_watt(5.0) for n in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_3db_more_loss_doubles_power(self):
        laser = LaserSource(n_wavelengths=4)
        base = laser.optical_power_watt(5.0)
        more = laser.optical_power_watt(8.0103)
        assert more == pytest.approx(2 * base, rel=1e-3)

    def test_laser_source_electrical_exceeds_optical(self):
        laser = LaserSource(n_wavelengths=15, wall_plug_efficiency=0.25)
        optical = laser.optical_power_watt(6.0)
        electrical = laser.electrical_power_watt(6.0)
        assert electrical == pytest.approx(optical / 0.25)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            required_laser_power_dbm(-1.0, 4)
        with pytest.raises((TypeError, ValueError)):
            required_laser_power_dbm(1.0, 0)


class TestPhotodetectors:
    def test_table2_values_wired_in(self):
        assert PHOTODETECTOR.latency_s == pytest.approx(5.8e-12)
        assert PHOTODETECTOR.power_w == pytest.approx(2.8e-3)
        assert TIA.latency_s == pytest.approx(0.15e-9)
        assert TIA.power_w == pytest.approx(7.2e-3)


class TestModulators:
    def test_vcsel_table2_values(self):
        assert VCSEL.latency_s == pytest.approx(10e-9)
        assert VCSEL.power_w == pytest.approx(0.66e-3)


class TestMicrodisk:
    def test_devices_for_16_bits_is_8(self):
        disk = Microdisk(bits_per_device=2)
        assert disk.devices_for_resolution(16) == 8

    def test_ganged_loss_scales_with_devices(self):
        disk = Microdisk()
        assert disk.ganged_loss_db(16) == pytest.approx(8 * disk.insertion_loss_db)
        assert disk.ganged_loss_db(2) == pytest.approx(disk.insertion_loss_db)

    def test_microdisk_lossier_than_mr_through(self):
        from repro.devices import DEFAULT_LOSSES

        assert Microdisk().insertion_loss_db > DEFAULT_LOSSES.mr_through_db

    def test_microdisk_smaller_than_mr(self):
        from repro.devices import MicroringResonator

        assert Microdisk().footprint_um2 < MicroringResonator.optimized().footprint_um2


class TestConverters:
    def test_dac_adc_constructors(self):
        assert dac_channel().kind == "DAC"
        assert adc_channel(8).resolution_bits == 8

    def test_conversion_latency_from_rate(self):
        channel = dac_channel()
        assert channel.conversion_latency_s == pytest.approx(1.0 / (channel.sample_rate_gsps * 1e9))

    def test_time_for_samples_positive_int_required(self):
        with pytest.raises((TypeError, ValueError)):
            dac_channel().time_for_samples_s(0)
