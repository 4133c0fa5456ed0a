"""Property-based tests (hypothesis) on core invariants of the library."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arch import VDPUnit, dot_product_partial_sums, plan_layer
from repro.crosstalk import analyze_bank_resolution
from repro.devices import MicroringResonator, SplitterTree, required_laser_power_dbm
from repro.nn import UniformQuantizer, quantize_array
from repro.nn import functional as F
from repro.tuning import ThermalEigenmodeDecomposition

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestMRProperties:
    @given(st.floats(min_value=1400.0, max_value=1700.0))
    def test_transmission_always_in_unit_interval(self, wavelength_nm):
        mr = MicroringResonator.optimized()
        transmission = mr.through_transmission(wavelength_nm)
        assert 0.0 <= transmission <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_detuning_inverts_transmission(self, target):
        mr = MicroringResonator.optimized()
        detuning = mr.detuning_for_transmission(target)
        assert 0.0 <= detuning <= mr.fsr_nm / 2.0
        if mr.min_transmission < target < 0.999:
            realised = mr.through_transmission(mr.resonance_nm + detuning)
            assert realised == pytest.approx(max(target, mr.min_transmission), abs=1e-6)


class TestLaserPowerProperties:
    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.integers(min_value=1, max_value=64),
    )
    def test_laser_power_monotone_in_loss_and_channels(self, loss_db, n_wavelengths):
        base = required_laser_power_dbm(loss_db, n_wavelengths)
        more_loss = required_laser_power_dbm(loss_db + 1.0, n_wavelengths)
        more_channels = required_laser_power_dbm(loss_db, n_wavelengths + 1)
        assert more_loss > base
        assert more_channels > base

    @given(st.integers(min_value=1, max_value=1024))
    def test_splitter_loss_at_least_ideal_division(self, fanout):
        tree = SplitterTree(fanout=fanout)
        assert tree.insertion_loss_db >= 10 * math.log10(fanout) - 1e-9


class TestQuantizationProperties:
    @given(
        hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=1, max_value=64),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=16),
    )
    def test_quantization_idempotent_and_bounded(self, values, bits):
        quantized = quantize_array(values, bits)
        again = quantize_array(quantized, bits)
        np.testing.assert_allclose(quantized, again, atol=1e-12)
        assert np.max(np.abs(quantized)) <= np.max(np.abs(values)) + 1e-12

    @given(
        hnp.arrays(
            dtype=float,
            shape=25,
            elements=st.floats(min_value=-1, max_value=1, allow_nan=False),
        )
    )
    def test_error_never_exceeds_half_step(self, values):
        quantizer = UniformQuantizer(bits=6)
        error = np.abs(quantizer.quantize(values) - values)
        assert np.all(error <= quantizer.step / 2 + 1e-12)

    @given(st.integers(min_value=2, max_value=15))
    def test_more_bits_never_increase_rms_error(self, bits):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, 200)
        coarse, fine = (
            np.sqrt(np.mean((UniformQuantizer(bits=b).quantize(values) - values) ** 2))
            for b in (bits, bits + 1)
        )
        assert fine <= coarse + 1e-12


class TestDecompositionProperties:
    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=42, max_value=52),
    )
    def test_partial_sums_always_reassemble(self, length, chunk, seed):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=length)
        activations = rng.normal(size=length)
        partial_sums, total = dot_product_partial_sums(weights, activations, chunk)
        assert total == pytest.approx(float(weights @ activations), rel=1e-9, abs=1e-9)
        assert partial_sums.size == math.ceil(length / chunk)

    @given(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=200),
    )
    def test_cycle_counts_cover_all_operations(self, length, count, unit_size, n_units):
        plan = plan_layer(length, count, unit_size)
        cycles = plan.cycles_on_units(n_units)
        # Enough cycles to cover every unit-operation, but no more than one
        # extra cycle of slack.
        assert cycles * n_units >= plan.total_unit_operations
        assert (cycles - 1) * n_units < plan.total_unit_operations or cycles == 0

    @given(st.integers(min_value=1, max_value=150), st.integers(min_value=40, max_value=60))
    def test_vdp_dot_product_matches_numpy(self, length, seed):
        rng = np.random.default_rng(seed)
        unit = VDPUnit(vector_size=150, mrs_per_bank=15)
        weights = rng.normal(size=length)
        activations = rng.normal(size=length)
        assert unit.dot_product(weights, activations) == pytest.approx(
            float(weights @ activations), rel=1e-9, abs=1e-9
        )


class TestCrosstalkProperties:
    @settings(deadline=None)
    @given(
        st.integers(min_value=2, max_value=25),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=2000.0, max_value=20000.0),
    )
    def test_resolution_report_consistency(self, n_channels, spacing, q):
        report = analyze_bank_resolution(n_channels, spacing, q)
        assert report.worst_case_noise > 0
        assert report.resolution_bits >= 1
        wider = analyze_bank_resolution(n_channels, spacing * 2, q)
        assert wider.worst_case_noise <= report.worst_case_noise + 1e-15

    @settings(deadline=None)
    @given(st.integers(min_value=2, max_value=20), st.floats(min_value=1.0, max_value=60.0))
    def test_ted_never_worse_than_naive(self, n_rings, pitch):
        ted = ThermalEigenmodeDecomposition()
        result = ted.solve(np.full(n_rings, 0.7), pitch_um=float(pitch))
        assert result.ted_total_power_w <= result.naive_total_power_w + 1e-9
        assert np.all(result.ted_powers_w >= 0)


class TestSoftmaxProperties:
    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(
                st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=10)
            ),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    def test_softmax_is_probability_distribution(self, logits):
        probabilities = F.softmax(logits, axis=1)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, rtol=1e-9)
        assert np.all(probabilities >= 0)
        assert np.all(probabilities <= 1)
