"""Property tests: the array-first MR device APIs match the scalar path.

The photonic-inference hot path now evaluates the MR Lorentzian over whole
weight tensors in one call; these hypothesis-driven tests pin the refactor's
contract -- the vectorized results equal the element-by-element scalar
results exactly (same formula, same branch structure), for any weights and
drifts in the physical range.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.devices import MicroringResonator
from repro.devices.mr_bank import MRBank
from repro.sim.noise import default_noise_stack

weight_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
drifts = st.floats(min_value=0.0, max_value=7.1, allow_nan=False)


class TestVectorizedEqualsScalar:
    @settings(max_examples=60, deadline=None)
    @given(weights=weight_arrays)
    def test_detuning_for_transmission_elementwise(self, weights):
        mr = MicroringResonator.optimized()
        vectorized = mr.detuning_for_transmission(weights)
        scalar = np.array(
            [mr.detuning_for_transmission(float(w)) for w in weights.reshape(-1)]
        ).reshape(weights.shape)
        np.testing.assert_array_equal(vectorized, scalar)

    @settings(max_examples=60, deadline=None)
    @given(weights=weight_arrays, drift=drifts)
    def test_transmission_error_from_drift_elementwise(self, weights, drift):
        mr = MicroringResonator.optimized()
        vectorized = mr.transmission_error_from_drift(weights, drift)
        scalar = np.array(
            [
                mr.transmission_error_from_drift(float(w), drift)
                for w in weights.reshape(-1)
            ]
        ).reshape(weights.shape)
        np.testing.assert_array_equal(vectorized, scalar)

    @settings(max_examples=30, deadline=None)
    @given(
        target=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        drift=drifts,
    )
    def test_scalar_inputs_return_python_floats(self, target, drift):
        mr = MicroringResonator.conventional()
        assert isinstance(mr.detuning_for_transmission(target), float)
        assert isinstance(mr.transmission_error_from_drift(target, drift), float)

    @settings(max_examples=30, deadline=None)
    @given(target=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_drift_broadcasts_over_target(self, target):
        mr = MicroringResonator.optimized()
        drift_array = np.array([0.0, 0.1, 1.0])
        broadcast = mr.transmission_error_from_drift(target, drift_array)
        assert broadcast.shape == drift_array.shape
        for i, drift in enumerate(drift_array):
            assert broadcast[i] == mr.transmission_error_from_drift(target, float(drift))


class TestVectorizedValidation:
    def test_out_of_range_array_rejected(self):
        mr = MicroringResonator.optimized()
        with pytest.raises(ValueError):
            mr.detuning_for_transmission(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            mr.transmission_error_from_drift(np.array([-0.1, 0.5]), 0.1)

    def test_non_finite_rejected(self):
        mr = MicroringResonator.optimized()
        with pytest.raises(ValueError):
            mr.detuning_for_transmission(np.array([0.5, np.nan]))

    def test_full_transmission_parks_at_half_fsr(self):
        mr = MicroringResonator.optimized()
        detunings = mr.detuning_for_transmission(np.array([0.0, 0.5, 1.0]))
        assert detunings[0] == 0.0
        assert detunings[-1] == pytest.approx(mr.fsr_nm / 2.0)


class TestBankVectorization:
    @settings(max_examples=25, deadline=None)
    @given(
        weights=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=15),
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        drift=drifts,
    )
    def test_bank_weight_error_matches_per_ring_loop(self, weights, drift):
        bank = MRBank(n_mrs=15)
        vectorized = bank.weight_error_from_drift(weights, drift)
        scalar = np.array(
            [
                bank.rings[i % bank.n_mrs].transmission_error_from_drift(float(w), drift)
                for i, w in enumerate(weights)
            ]
        )
        np.testing.assert_array_equal(vectorized, scalar)

    def test_bank_with_mutated_ring_extinction_uses_per_ring_path(self):
        bank = MRBank(n_mrs=3)
        bank.rings[1].extinction_ratio_db = 5.0
        weights = np.array([0.02, 0.02, 0.02])
        errors = bank.weight_error_from_drift(weights, 0.5)
        expected = np.array(
            [
                bank.rings[i].transmission_error_from_drift(float(w), 0.5)
                for i, w in enumerate(weights)
            ]
        )
        np.testing.assert_array_equal(errors, expected)
        assert errors[1] != errors[0]  # the mutated ring responds differently

    def test_bank_with_individually_detuned_ring_uses_per_ring_path(self):
        bank = MRBank(n_mrs=4)
        bank.rings[2].apply_resonance_shift(0.5)
        weights = np.array([0.2, 0.4, 0.6, 0.8])
        errors = bank.weight_error_from_drift(weights, 0.3)
        expected = np.array(
            [
                bank.rings[i].transmission_error_from_drift(float(w), 0.3)
                for i, w in enumerate(weights)
            ]
        )
        np.testing.assert_array_equal(errors, expected)

    def test_imprint_weights_matches_template_inversion(self):
        bank = MRBank(n_mrs=8)
        weights = np.linspace(0.0, 1.0, 8)
        detunings = bank.imprint_weights(weights)
        expected = np.array(
            [bank.rings[0].detuning_for_transmission(float(w)) for w in weights]
        )
        np.testing.assert_array_equal(detunings, expected)


class TestEngineEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        weights=hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=8),
            elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        ),
        drift=st.floats(min_value=0.01, max_value=2.1, allow_nan=False),
    )
    # A scalar ``** 2`` went through libm ``pow`` and was 1 ulp off the array square.
    @example(weights=np.array([[1.421875, 1.875], [0.0, 0.0]]), drift=0.7341289852597939)
    def test_perturbed_weights_matches_seed_per_element_loop(self, weights, drift):
        from repro.nn.quantization import quantize_array

        vectorized = default_noise_stack(8, drift).apply(weights, np.random.default_rng(7))

        # The seed implementation, element by element.
        mr = MicroringResonator.optimized()
        quantized = quantize_array(weights, 8)
        max_abs = float(np.max(np.abs(quantized)))
        if max_abs == 0.0:
            np.testing.assert_array_equal(vectorized, quantized)
            return
        normalised = np.abs(quantized) / max_abs
        errors = np.array(
            [
                mr.transmission_error_from_drift(float(v), drift)
                for v in normalised.reshape(-1)
            ]
        ).reshape(normalised.shape)
        signs = np.random.default_rng(7).choice([-1.0, 1.0], size=errors.shape)
        expected = quantized + signs * errors * max_abs
        np.testing.assert_array_equal(vectorized, expected)
