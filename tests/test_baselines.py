"""Tests for the DEAP-CNN, HolyLight, and electronic baseline models."""

from __future__ import annotations

import pytest

from repro.baselines import (
    DeapCnnAccelerator,
    ELECTRONIC_PLATFORMS,
    HolyLightAccelerator,
    PAPER_PHOTONIC_REFERENCE,
)
from repro.devices import TO_TUNING


class TestDeapCnn:
    def test_resolution_is_4_bits(self):
        assert DeapCnnAccelerator().resolution_bits == 4

    def test_cycle_time_dominated_by_thermal_tuning(self):
        deap = DeapCnnAccelerator()
        assert deap.cycle_time_s() >= TO_TUNING.latency_s

    def test_fc_layers_share_conv_units(self):
        deap = DeapCnnAccelerator()
        assert deap.fc_vector_size == deap.conv_vector_size == 25
        assert deap.n_fc_units == deap.n_conv_units

    def test_power_components_positive(self):
        breakdown = DeapCnnAccelerator().power_breakdown()
        assert breakdown.total_w > 0
        assert breakdown.tuning_dynamic_w > 0  # thermal weight imprinting

    def test_imprint_power_much_higher_than_crosslight_eo(self):
        from repro.arch import CrossLightAccelerator

        deap = DeapCnnAccelerator()
        crosslight = CrossLightAccelerator.from_variant("cross_opt_ted")
        assert (
            deap._weight_imprint_power_per_mr_w()
            > 100 * crosslight.weight_imprint_power_per_mr_w()
        )

    def test_area_below_paper_envelope(self):
        assert DeapCnnAccelerator().area_mm2() <= 25.0


class TestHolyLight:
    def test_16_bit_via_8_microdisks(self):
        holy = HolyLightAccelerator()
        assert holy.resolution_bits == 16
        assert holy.disks_per_weight == 8

    def test_total_disk_count(self):
        holy = HolyLightAccelerator(n_units=10, unit_vector_size=4)
        assert holy.total_disks == 10 * 2 * 4 * 8

    def test_path_loss_dominated_by_ganged_disks(self):
        holy = HolyLightAccelerator()
        assert holy.unit_path_loss_db() > holy.disks_per_weight * holy.microdisk.insertion_loss_db

    def test_power_positive_and_area_bounded(self):
        holy = HolyLightAccelerator()
        assert holy.total_power_w > 0
        assert holy.area_mm2() <= 25.0

    def test_cycle_time_slower_than_crosslight(self):
        from repro.arch import CrossLightAccelerator

        holy = HolyLightAccelerator()
        crosslight = CrossLightAccelerator.from_variant("cross_opt_ted")
        assert holy.cycle_time_s() > crosslight.cycle_time_s()

    def test_invalid_parameters_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            HolyLightAccelerator(n_units=0)


class TestElectronicReference:
    def test_all_six_platforms_present(self):
        assert len(ELECTRONIC_PLATFORMS) == 6
        names = {p.name for p in ELECTRONIC_PLATFORMS}
        assert {"P100", "IXP 9282", "AMD-TR", "DaDianNao", "Edge TPU", "Null Hop"} == names

    def test_table3_reference_values(self):
        (p100,) = [p for p in ELECTRONIC_PLATFORMS if p.name == "P100"]
        assert p100.avg_epb_pj_per_bit == pytest.approx(971.31)
        assert p100.avg_kfps_per_watt == pytest.approx(24.9)

    def test_paper_photonic_reference_complete(self):
        expected = {
            "DEAP_CNN",
            "Holylight",
            "Cross_base",
            "Cross_base_TED",
            "Cross_opt",
            "Cross_opt_TED",
        }
        assert set(PAPER_PHOTONIC_REFERENCE) == expected
        assert PAPER_PHOTONIC_REFERENCE["Cross_opt_TED"]["avg_epb_pj_per_bit"] == pytest.approx(28.78)
