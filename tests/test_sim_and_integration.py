"""Simulator tests and cross-module integration tests of the paper's claims."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import CrossLightAccelerator
from repro.baselines import DeapCnnAccelerator, HolyLightAccelerator
from repro.nn import build_model
from repro.sim import (
    default_accelerators,
    format_table,
    simulate_model,
    simulate_models,
)
from repro.sim.tracer import trace_model

ACCELERATED = ("conv", "fc")


def _accelerated_macs(model) -> int:
    return sum(w.macs for w in model.workloads() if w.kind in ACCELERATED)


class TestTracer:
    def test_trace_lenet_layer_kinds(self, lenet_full):
        kinds = [w.kind for w in lenet_full.workloads() if w.kind in ACCELERATED]
        assert kinds == ["conv", "conv", "fc", "fc"]

    def test_accelerated_workloads_filtered(self, lenet_full):
        """One workload per layer; only the CONV/FC ones run on the fabric."""
        workloads = lenet_full.workloads()
        assert len(workloads) == len(lenet_full.layers)
        assert sum(w.kind in ACCELERATED for w in workloads) == 4

    def test_summary_mac_counts(self, lenet_full):
        # LeNet-5 is a few hundred thousand MACs per inference.
        assert 1e5 < _accelerated_macs(lenet_full) < 1e6

    def test_siamese_macs_double_trunk(self, full_models):
        siamese = full_models[4]
        assert _accelerated_macs(siamese) == 2 * _accelerated_macs(siamese.trunk)

    def test_trace_rejects_unknown_types(self):
        assert trace_model(build_model(1)) == build_model(1).workloads()
        with pytest.raises(TypeError):
            trace_model(object())


class TestSimulator:
    def test_simulate_model_report_fields(self, best_accelerator, lenet_full):
        report = simulate_model(best_accelerator, lenet_full)
        assert report.accelerator == "Cross_opt_TED"
        assert report.latency_s > 0
        assert report.energy_j > 0

    def test_aggregate_over_models(self, best_accelerator, full_models):
        agg = simulate_models(best_accelerator, full_models)
        assert len(agg.reports) == 4
        assert agg.avg_epb_pj_per_bit > 0

    def test_simulate_models_preserves_caller_ordering(self, best_accelerator, full_models):
        # Insertion order wins -- keys are never sorted, so a reversed
        # mapping yields reversed reports.
        reversed_models = dict(reversed(list(full_models.items())))
        agg = simulate_models(best_accelerator, reversed_models)
        expected = [m.name for m in reversed_models.values()]
        assert [r.model for r in agg.reports] == expected

    def test_simulate_models_accepts_string_keyed_mapping(self, best_accelerator, full_models):
        named = {f"model-{index}": model for index, model in full_models.items()}
        agg = simulate_models(best_accelerator, named)
        assert [r.model for r in agg.reports] == [m.name for m in named.values()]

    def test_simulate_models_accepts_plain_iterable(self, best_accelerator, full_models):
        models = list(full_models.values())[:2]
        agg = simulate_models(best_accelerator, models)
        assert [r.model for r in agg.reports] == [m.name for m in models]

    def test_default_accelerators_roster(self):
        names = [a.name for a in default_accelerators()]
        assert names == [
            "DEAP_CNN",
            "Holylight",
            "Cross_base",
            "Cross_base_TED",
            "Cross_opt",
            "Cross_opt_TED",
        ]

    def test_comparison_lookup(self, comparison):
        assert comparison.by_name("Cross_opt_TED").accelerator == "Cross_opt_TED"
        with pytest.raises(KeyError):
            comparison.by_name("nonexistent")

    def test_bigger_model_takes_longer(self, best_accelerator, full_models):
        small = simulate_model(best_accelerator, full_models[1])
        big = simulate_model(best_accelerator, full_models[4])
        assert big.latency_s > small.latency_s


class TestFormatting:
    def test_format_table_alignment_and_floats(self):
        table = format_table(["Name", "Value"], [["a", 1.2345], ["bb", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "1.23" in table

    def test_format_table_validates_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestPaperClaims:
    """Integration tests for the headline comparisons (Figs. 7-8, Table III)."""

    def test_epb_ordering_across_photonic_accelerators(self, comparison):
        epb = {agg.accelerator: agg.avg_epb_pj_per_bit for agg in comparison.aggregates}
        assert (
            epb["DEAP_CNN"]
            > epb["Holylight"]
            > epb["Cross_base"]
            > epb["Cross_base_TED"]
            > epb["Cross_opt"]
            > epb["Cross_opt_TED"]
        )

    def test_perf_per_watt_ordering_is_reverse_of_epb(self, comparison):
        kfps = {agg.accelerator: agg.avg_kfps_per_watt for agg in comparison.aggregates}
        assert (
            kfps["Cross_opt_TED"]
            > kfps["Cross_opt"]
            > kfps["Cross_base_TED"]
            > kfps["Cross_base"]
            > kfps["Holylight"]
            > kfps["DEAP_CNN"]
        )

    def test_improvement_over_holylight_roughly_matches_paper(self, comparison):
        crosslight = comparison.by_name("Cross_opt_TED")
        holylight = comparison.by_name("Holylight")
        epb_ratio = holylight.avg_epb_pj_per_bit / crosslight.avg_epb_pj_per_bit
        perf_ratio = crosslight.avg_kfps_per_watt / holylight.avg_kfps_per_watt
        # Paper: 9.5x lower EPB and 15.9x higher kFPS/W.  Accept the same
        # order of magnitude (factor-of-two band around the paper values).
        assert 4.0 < epb_ratio < 30.0
        assert 8.0 < perf_ratio < 35.0

    def test_improvement_over_deap_cnn_is_orders_of_magnitude(self, comparison):
        crosslight = comparison.by_name("Cross_opt_TED")
        deap = comparison.by_name("DEAP_CNN")
        assert deap.avg_epb_pj_per_bit / crosslight.avg_epb_pj_per_bit > 100.0

    def test_crosslight_power_below_cpu_gpu_but_above_edge_asics(self, comparison):
        from repro.baselines import ELECTRONIC_PLATFORMS

        platform_power = {p.name: p.power_w for p in ELECTRONIC_PLATFORMS}
        crosslight_power = comparison.by_name("Cross_opt_TED").power_w
        assert crosslight_power < platform_power["P100"]
        assert crosslight_power < platform_power["IXP 9282"]
        assert crosslight_power > platform_power["Edge TPU"]

    def test_crosslight_variant_power_monotone_in_optimizations(self, comparison):
        powers = [
            comparison.by_name(name).power_w
            for name in ("Cross_base", "Cross_base_TED", "Cross_opt", "Cross_opt_TED")
        ]
        assert powers == sorted(powers, reverse=True)

    def test_per_model_epb_ordering_holds_for_every_model(self, full_models):
        best = CrossLightAccelerator.from_variant("cross_opt_ted")
        deap = DeapCnnAccelerator()
        holy = HolyLightAccelerator()
        for index, model in full_models.items():
            epb_best = simulate_model(best, model).epb_pj_per_bit
            epb_holy = simulate_model(holy, model).epb_pj_per_bit
            epb_deap = simulate_model(deap, model).epb_pj_per_bit
            assert epb_best < epb_holy < epb_deap, f"ordering broken for model {index}"

    def test_functional_equivalence_of_photonic_mapping(self, rng):
        """A compact model's logits computed through VDP-style decomposed
        dot products (at 16-bit resolution) match the direct NumPy forward
        pass closely enough to preserve the predicted class."""
        from repro.arch import matvec_via_vdp
        from repro.nn import quantize_array

        model = build_model(1, compact=True)
        x = rng.random((4, 1, 16, 16))
        logits_direct = model.predict(x)

        # Recompute the final FC layer through the decomposed path.
        features = x
        for layer in model.layers[:-1]:
            layer.eval()
            features = layer.forward(features)
        final = model.layers[-1]
        weight = quantize_array(final.weight, 16)
        decomposed_logits = np.stack(
            [
                matvec_via_vdp(weight.T, quantize_array(sample, 16), chunk_size=15)
                + final.bias
                for sample in features
            ]
        )
        assert np.argmax(decomposed_logits, axis=1).tolist() == np.argmax(
            logits_direct, axis=1
        ).tolist()
