"""Tests for the per-figure/table experiment drivers.

Heavy experiments (Fig. 5 training sweep, full Fig. 6 sweep) are exercised at
reduced scale here; the benchmark harness runs them at full scale.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.experiments import (
    device_dse,
    fig4_thermal,
    fig5_resolution_accuracy,
    fig6_design_space,
    fig7_power,
    fig8_epb,
    resolution_analysis,
    table1_models,
    table2_devices,
    table3_summary,
)
from repro.sim.sweep import run_sweep
from repro.study import run_experiment


class TestTable1:
    def test_rows_match_paper_structure(self):
        rows = table1_models.run()
        assert [r.index for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row.conv_layers == row.paper_conv_layers
            assert row.fc_layers == row.paper_fc_layers
            assert row.parameter_error_percent < 5.0

    def test_main_renders(self):
        text = run_experiment("table1_models").to_text()
        assert "Table I" in text and "lenet5" in text


class TestTable2:
    def test_device_values_match_paper(self):
        rows = table2_devices.run()
        by_name = {r.device: r for r in rows}
        assert by_name["EO Tuning"].latency == by_name["EO Tuning"].paper_latency
        assert by_name["TO Tuning"].power == by_name["TO Tuning"].paper_power
        assert by_name["Photodetector"].latency == "5.8 ps"

    def test_main_renders(self):
        assert "Table II" in run_experiment("table2_devices").to_text()


class TestFig4:
    def test_crosstalk_decays_and_power_minimum_at_5um(self):
        result = fig4_thermal.run()
        assert np.all(np.diff(result.crosstalk_ratio) < 0)
        assert result.optimal_pitch_um == pytest.approx(5.0)

    def test_ted_saves_power_at_5um(self):
        result = fig4_thermal.run()
        index = list(result.pitch_um).index(5.0)
        assert result.naive_power_per_mr_mw[index] > 3 * result.ted_power_per_mr_mw[index]

    def test_heat_solver_calibration_close_to_default(self):
        calibrated = fig4_thermal.run(use_heat_solver_calibration=True)
        assert 3.0 <= calibrated.optimal_pitch_um <= 8.0

    def test_main_renders(self):
        assert "Fig. 4" in run_experiment("fig4").to_text()


class TestFig5:
    @pytest.fixture(scope="class")
    def small_curves(self):
        # Reduced scale: classification models only, short training, coarse sweep.
        return fig5_resolution_accuracy.run(
            model_indices=(1, 3),
            bits_sweep=(1, 4, 16),
            epochs=6,
            n_train=300,
            n_test=100,
        )

    def test_accuracy_degrades_at_one_bit(self, small_curves):
        for curve in small_curves:
            assert curve.accuracy[-1] > curve.accuracy[0]

    def test_high_resolution_accuracy_above_chance(self, small_curves):
        # Chance level is 0.1 (10 classes); the easy Sign-MNIST stand-in
        # should be clearly learnable even at this reduced training scale,
        # the harder STL-10 stand-in at least above chance.
        by_index = {curve.model_index: curve for curve in small_curves}
        assert by_index[1].accuracy[-1] > 0.3
        assert by_index[3].accuracy[-1] > 0.15

    def test_curve_metadata(self, small_curves):
        assert [c.model_index for c in small_curves] == [1, 3]
        assert all(c.bits == (1, 4, 16) for c in small_curves)

    def test_siamese_path_runs(self):
        curve = fig5_resolution_accuracy.run_for_model(
            4, bits_sweep=(2, 16), n_train=40, n_test=40
        )
        assert len(curve.accuracy) == 2
        assert all(0.0 <= a <= 1.0 for a in curve.accuracy)

    def test_siamese_curve_golden(self):
        # The model-4 curve at the default float64 settings, pinned as floats:
        # the untrained trunk's quantized embeddings scored against the
        # full-precision median distance threshold.
        curve = fig5_resolution_accuracy.run_for_model(4)
        assert curve.accuracy == (0.505, 0.495, 0.495, 0.785, 0.9, 0.9, 0.895)


class TestFig6:
    @pytest.fixture(scope="class")
    def small_sweep(self, ):
        geometries = [
            (10, 100, 50, 30),
            (20, 150, 100, 60),
            (20, 100, 50, 30),
            (5, 50, 25, 30),
        ]
        return fig6_design_space.run(geometries=geometries)

    def test_paper_geometry_has_highest_fps(self, small_sweep):
        paper = small_sweep.point_for((20, 150, 100, 60))
        assert paper.avg_fps == max(p.avg_fps for p in small_sweep.points)

    def test_all_points_within_area_budget_flagged(self, small_sweep):
        assert set(small_sweep.feasible_points).issubset(set(small_sweep.points))
        assert all(p.area_mm2 <= small_sweep.area_budget_mm2 for p in small_sweep.feasible_points)

    def test_best_point_is_feasible(self, small_sweep):
        assert small_sweep.best in small_sweep.feasible_points

    def test_paper_geometry_near_best_fps_per_epb(self, small_sweep):
        paper = small_sweep.point_for((20, 150, 100, 60))
        assert paper.fps_per_epb >= 0.5 * small_sweep.best.fps_per_epb

    def test_unknown_geometry_lookup_raises(self, small_sweep):
        with pytest.raises(KeyError):
            small_sweep.point_for((1, 2, 3, 4))

    def test_pickled_sweep_function_stays_small(self, monkeypatch):
        # A pool sweep pickles its function once per chunk: it must carry the
        # full-size models' layer workloads, not the models themselves.
        captured = []

        def capture(fn, params, **kwargs):
            captured.append(fn)
            return run_sweep(fn, params, **kwargs)

        monkeypatch.setattr(fig6_design_space, "run_sweep", capture)
        fig6_design_space.run(geometries=[(20, 150, 100, 60)])
        (fn,) = captured
        assert len(pickle.dumps(fn)) < 1_000_000


class TestFig7:
    def test_all_platforms_present(self):
        rows = fig7_power.run()
        names = {r.name for r in rows}
        assert {"DEAP_CNN", "Holylight", "Cross_base", "Cross_opt_TED", "P100", "Edge TPU"} <= names

    def test_crosslight_variant_power_monotone(self):
        powers = {
            row.name: row.power_w
            for row in fig7_power.run()
            if row.kind == "photonic (CrossLight)"
        }
        assert (
            powers["Cross_base"]
            > powers["Cross_base_TED"]
            > powers["Cross_opt"]
            > powers["Cross_opt_TED"]
        )

    def test_best_variant_cheaper_than_photonic_baselines_and_cpu_gpu(self):
        rows = {r.name: r.power_w for r in fig7_power.run()}
        assert rows["Cross_opt_TED"] < rows["DEAP_CNN"]
        assert rows["Cross_opt_TED"] < rows["Holylight"]
        assert rows["Cross_opt_TED"] < rows["P100"]
        assert rows["Cross_opt_TED"] > rows["Edge TPU"]

    def test_main_renders(self):
        assert "Fig. 7" in run_experiment("fig7").to_text()


class TestFig8AndTable3:
    @pytest.fixture(scope="class")
    def fig8(self, ):
        return fig8_epb.run()

    def test_fig8_covers_all_accelerators_and_models(self, fig8):
        assert len(fig8.accelerators) == 6
        assert len(fig8.models) == 4
        assert len(fig8.reports) == 24

    def test_fig8_ordering_per_model(self, fig8):
        for model in fig8.models:
            assert fig8.epb("Cross_opt_TED", model) < fig8.epb("Holylight", model)
            assert fig8.epb("Holylight", model) < fig8.epb("DEAP_CNN", model)

    def test_fig8_average_consistency(self, fig8):
        manual = np.mean([fig8.epb("Cross_opt_TED", m) for m in fig8.models])
        assert fig8.average_epb("Cross_opt_TED") == pytest.approx(manual)

    def test_table3_improvement_factors(self):
        result = table3_summary.run()
        assert 4.0 < result.epb_improvement_over_holylight() < 30.0
        assert 8.0 < result.perf_per_watt_improvement_over_holylight() < 35.0
        assert result.epb_improvement_over_deap() > 100.0

    def test_table3_includes_electronic_reference_rows(self):
        result = table3_summary.run()
        assert result.row_for("P100").source == "published reference"
        assert result.row_for("Cross_opt_TED").source == "simulated"

    def test_table3_main_renders(self):
        text = run_experiment("table3_summary").to_text()
        assert "Table III" in text and "Cross_opt_TED" in text


class TestDeviceDSEAndResolution:
    def test_device_dse_selects_paper_design(self):
        result = device_dse.run()
        assert result.best.input_waveguide_width_nm == pytest.approx(400.0)
        assert result.best.ring_waveguide_width_nm == pytest.approx(800.0)
        assert result.drift_reduction_percent == pytest.approx(70.0, abs=4.0)

    def test_resolution_analysis_matches_paper(self):
        result = resolution_analysis.run()
        assert result.crosslight.resolution_bits >= 16
        assert result.deap_cnn.resolution_bits == 4
        assert result.holylight.resolution_bits == 2
        assert result.max_bank_size_for_16_bits >= 15

    def test_resolution_accuracy_study_golden(self):
        # The opt-in bank-size accuracy study trains a compact LeNet-5; no
        # perfbench digest covers it.
        text = run_experiment("resolution_analysis", include_accuracy=True).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8e105a1472e71175b364e8d363e33f98ce357578bdf8ce42aa67c4b44a778225"
        )

    def test_mains_render(self):
        assert "IV.A" in run_experiment("device_dse").to_text()
        assert "V.B" in run_experiment("resolution_analysis").to_text()
