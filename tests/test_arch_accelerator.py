"""Tests for accelerator configurations, power/metrics, and CrossLight itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import (
    BEST_K,
    BEST_M_FC_UNITS,
    BEST_N,
    BEST_N_CONV_UNITS,
    CrossLightAccelerator,
    CrossLightConfig,
    InferenceReport,
    PowerBreakdown,
    aggregate,
    design_space_geometries,
)
from repro.nn.layers import LayerWorkload


class TestConfig:
    def test_paper_selected_geometry(self):
        assert (BEST_N, BEST_K, BEST_N_CONV_UNITS, BEST_M_FC_UNITS) == (20, 150, 100, 60)

    def test_variant_constructors(self):
        variants = CrossLightConfig.all_variants()
        names = [v.name for v in variants]
        assert names == ["Cross_base", "Cross_base_TED", "Cross_opt", "Cross_opt_TED"]
        assert variants[0].mr_design.name == "conventional"
        assert variants[-1].mr_design.name == "optimized"
        assert variants[-1].use_ted and not variants[0].use_ted

    def test_ted_variants_use_5um_pitch(self):
        assert CrossLightConfig.cross_opt_ted().mr_pitch_um == pytest.approx(5.0)
        assert CrossLightConfig.cross_opt().mr_pitch_um == pytest.approx(120.0)

    def test_mrs_per_bank_capped_at_15(self):
        with pytest.raises(ValueError):
            CrossLightConfig(name="bad", mrs_per_bank=20)

    def test_with_geometry_copy(self):
        config = CrossLightConfig.cross_opt_ted().with_geometry(10, 100, 50, 30)
        assert config.conv_vector_size == 10
        assert config.n_fc_units == 30
        assert config.name == "Cross_opt_TED"

    def test_macs_per_cycle(self):
        config = CrossLightConfig.cross_opt_ted()
        assert config.macs_per_cycle == 20 * 100 + 150 * 60

    def test_design_space_contains_paper_point(self):
        geometries = list(design_space_geometries())
        assert (20, 150, 100, 60) in geometries
        assert len(geometries) == len(set(geometries))


class TestPowerBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = PowerBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert breakdown.total_w == pytest.approx(21.0)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            PowerBreakdown(-1.0, 0, 0, 0, 0, 0)

    def test_addition_and_scaling(self):
        a = PowerBreakdown(1, 1, 1, 1, 1, 1)
        b = a + a
        assert b.total_w == pytest.approx(12.0)
        assert a.scaled(0.5).total_w == pytest.approx(3.0)

    def test_as_dict_keys(self):
        keys = set(PowerBreakdown(0, 0, 0, 0, 0, 0).as_dict())
        assert keys == {
            "laser_w",
            "tuning_static_w",
            "tuning_dynamic_w",
            "receivers_w",
            "converters_w",
            "control_w",
        }


class TestInferenceReport:
    def _report(self, latency=1e-3, power=10.0, macs=1_000_000, bits=16):
        breakdown = PowerBreakdown(power, 0, 0, 0, 0, 0)
        return InferenceReport(
            accelerator="test", model="m", latency_s=latency, power=breakdown,
            macs=macs, resolution_bits=bits,
        )

    def test_derived_metrics(self):
        report = self._report()
        assert report.fps == pytest.approx(1000.0)
        assert report.energy_j == pytest.approx(0.01)
        assert report.bits_processed == 16_000_000
        assert report.epb_pj_per_bit == pytest.approx(0.01 / 16e6 * 1e12)
        assert report.kfps_per_watt == pytest.approx(0.1)

    def test_invalid_report_rejected(self):
        with pytest.raises(ValueError):
            self._report(latency=0.0)
        with pytest.raises(ValueError):
            self._report(macs=0)

    def test_aggregate_averages(self):
        reports = [self._report(latency=1e-3), self._report(latency=2e-3)]
        agg = aggregate(reports)
        assert agg.avg_fps == pytest.approx((1000 + 500) / 2)
        assert agg.accelerator == "test"

    def test_aggregate_rejects_mixed_accelerators(self):
        breakdown = PowerBreakdown(1, 0, 0, 0, 0, 0)
        a = InferenceReport("a", "m", 1e-3, breakdown, 100, 16)
        b = InferenceReport("b", "m", 1e-3, breakdown, 100, 16)
        with pytest.raises(ValueError):
            aggregate([a, b])


class TestCrossLightAccelerator:
    def test_variant_factory_and_names(self, all_variants):
        names = [a.name for a in all_variants]
        assert names == ["Cross_base", "Cross_base_TED", "Cross_opt", "Cross_opt_TED"]
        with pytest.raises(ValueError):
            CrossLightAccelerator.from_variant("not_a_variant")

    def test_total_mr_count_for_paper_geometry(self, best_accelerator):
        # 100 conv units x 2 arms x 30 MRs + 60 fc units x 10 arms x 30 MRs.
        assert best_accelerator.total_mrs == 100 * 60 + 60 * 300

    def test_power_breakdown_components_positive(self, best_accelerator):
        breakdown = best_accelerator.power_breakdown()
        for value in breakdown.as_dict().values():
            assert value >= 0
        assert breakdown.total_w > 0

    def test_variant_power_ordering_matches_paper(self, all_variants):
        powers = {a.name: a.total_power_w for a in all_variants}
        assert (
            powers["Cross_base"]
            > powers["Cross_base_TED"]
            > powers["Cross_opt"]
            > powers["Cross_opt_TED"]
        )

    def test_optimized_design_reduces_static_tuning_power(self):
        base = CrossLightAccelerator.from_variant("cross_base")
        opt = CrossLightAccelerator.from_variant("cross_opt")
        assert opt.power_breakdown().tuning_static_w < base.power_breakdown().tuning_static_w

    def test_ted_reduces_static_tuning_power(self):
        base = CrossLightAccelerator.from_variant("cross_base")
        ted = CrossLightAccelerator.from_variant("cross_base_ted")
        assert ted.power_breakdown().tuning_static_w < base.power_breakdown().tuning_static_w

    def test_area_within_paper_constraint(self, best_accelerator):
        assert 10.0 <= best_accelerator.area_mm2() <= 25.0

    def test_cycle_time_close_to_eo_latency(self, best_accelerator):
        cycle = best_accelerator.cycle_time_s()
        assert 20e-9 < cycle < 60e-9

    def test_all_variants_share_cycle_time(self, all_variants):
        times = {a.cycle_time_s() for a in all_variants}
        assert len(times) == 1

    def test_cycles_for_workloads(self, best_accelerator):
        workloads = [
            LayerWorkload(kind="conv", dot_product_length=27, n_dot_products=1000),
            LayerWorkload(kind="fc", dot_product_length=300, n_dot_products=60),
            LayerWorkload(kind="other", dot_product_length=0, n_dot_products=0),
        ]
        conv_cycles = -(-1000 * 2 // 100)  # ceil(27/20)=2 chunks, 100 units
        fc_cycles = -(-60 * 2 // 60)  # ceil(300/150)=2 chunks, 60 units
        assert best_accelerator.cycles_for_workloads(workloads) == conv_cycles + fc_cycles

    def test_latency_requires_accelerated_layers(self, best_accelerator):
        with pytest.raises(ValueError):
            best_accelerator.latency_for_workloads(
                [LayerWorkload(kind="other", dot_product_length=0, n_dot_products=0)]
            )

    def test_simulate_workloads_report(self, best_accelerator, lenet_full):
        report = best_accelerator.simulate_workloads(lenet_full.workloads(), lenet_full.name)
        assert report.accelerator == "Cross_opt_TED"
        assert report.model == "lenet5"
        assert report.macs > 100_000
        assert report.fps > 0
        assert np.isfinite(report.epb_pj_per_bit)

    def test_more_conv_units_reduce_latency(self, lenet_full):
        small = CrossLightAccelerator(config=CrossLightConfig.cross_opt_ted().with_geometry(20, 150, 25, 60))
        large = CrossLightAccelerator(config=CrossLightConfig.cross_opt_ted().with_geometry(20, 150, 100, 60))
        workloads = lenet_full.workloads()
        assert large.latency_for_workloads(workloads) < small.latency_for_workloads(workloads)
