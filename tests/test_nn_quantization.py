"""Tests for the quantization machinery (the QKeras substitute)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (
    UniformQuantizer,
    build_model,
    capture_parameters,
    quantize_array,
    restore_parameters,
    swapped_parameters,
)
from repro.nn.quantization import quantize_array_stack
from repro.sim import NoiseStack, QuantizationChannel, evaluate_ensemble


def _quantized_accuracy(model, test_x, test_y, bits):
    """Accuracy with weights and activations quantized to ``bits``."""
    (record,) = evaluate_ensemble(
        model,
        test_x,
        test_y,
        NoiseStack([QuantizationChannel(bits=bits)]),
        seeds=1,
        activation_bits=bits,
        batch_size=128,
    )
    return record.accuracy


class TestParameterSwapping:
    def test_swapped_parameters_applies_and_restores(self):
        model = build_model(1, compact=True)
        original = [p.copy() for layer in model.layers for p in layer.parameters().values()]
        with swapped_parameters(model, lambda p: p * 0.0, param_names=("weight",)):
            for layer in model.layers:
                weight = layer.parameters().get("weight")
                if weight is not None:
                    np.testing.assert_allclose(weight, 0.0)
        restored = [p for layer in model.layers for p in layer.parameters().values()]
        for before, after in zip(original, restored):
            np.testing.assert_allclose(before, after)

    def test_swapped_parameters_restores_on_exception(self):
        model = build_model(1, compact=True)
        original = [p.copy() for layer in model.layers for p in layer.parameters().values()]
        with pytest.raises(RuntimeError):
            with swapped_parameters(model, lambda p: p + 1.0):
                raise RuntimeError("forward pass blew up")
        restored = [p for layer in model.layers for p in layer.parameters().values()]
        for before, after in zip(original, restored):
            np.testing.assert_allclose(before, after)

    def test_capture_restores_only_selected_names(self):
        model = build_model(1, compact=True)
        saved = capture_parameters(model, param_names=("weight",))
        assert saved, "expected at least one Conv2D/Dense layer"
        assert all(set(stored) == {"weight"} for stored in saved.values())
        first = next(iter(saved))
        model.layers[first].parameters()["weight"][...] = 123.0
        restore_parameters(model, saved)
        assert not np.any(model.layers[first].parameters()["weight"] == 123.0)


class TestUniformQuantizer:
    def test_level_count(self):
        assert UniformQuantizer(bits=1).n_levels == 2
        assert UniformQuantizer(bits=8).n_levels == 256

    def test_idempotence(self, rng):
        quantizer = UniformQuantizer(bits=6)
        values = rng.uniform(-1, 1, size=100)
        once = quantizer.quantize(values)
        twice = quantizer.quantize(once)
        np.testing.assert_allclose(once, twice)

    def test_values_on_grid(self, rng):
        quantizer = UniformQuantizer(bits=4)
        values = quantizer.quantize(rng.uniform(-1, 1, size=50))
        # Grid levels are -max_abs + k * step for integer k in [0, 2**bits).
        level_indices = (values + quantizer.max_abs) / quantizer.step
        np.testing.assert_allclose(level_indices, np.round(level_indices), atol=1e-9)
        assert np.all(level_indices > -0.5)
        assert np.all(level_indices < quantizer.n_levels - 0.5)

    def test_error_bounded_by_half_step(self, rng):
        quantizer = UniformQuantizer(bits=5)
        values = rng.uniform(-1, 1, size=200)
        error = np.abs(quantizer.quantize(values) - values)
        assert np.all(error <= quantizer.step / 2 + 1e-12)

    def test_error_decreases_with_bits(self, rng):
        values = rng.uniform(-1, 1, size=500)
        errors = [UniformQuantizer(bits=b).quantize(values) - values for b in (2, 4, 8, 12)]
        rms = [float(np.sqrt(np.mean(e**2))) for e in errors]
        assert all(b < a for a, b in zip(rms, rms[1:]))

    def test_binarization_at_1_bit(self):
        quantizer = UniformQuantizer(bits=1, max_abs=1.0)
        np.testing.assert_allclose(
            quantizer.quantize(np.array([-0.3, 0.4, 0.0])), [-1.0, 1.0, 1.0]
        )

    def test_clipping_beyond_range(self):
        quantizer = UniformQuantizer(bits=8, max_abs=1.0)
        assert quantizer.quantize(np.array([5.0]))[0] == pytest.approx(1.0)
        assert quantizer.quantize(np.array([-5.0]))[0] == pytest.approx(-1.0)

    def test_invalid_parameters(self):
        with pytest.raises((TypeError, ValueError)):
            UniformQuantizer(bits=0)
        with pytest.raises(ValueError):
            UniformQuantizer(bits=4, max_abs=0.0)


class TestQuantizeArray:
    def test_range_fit_to_data(self):
        values = np.array([-4.0, 2.0, 3.9])
        quantized = quantize_array(values, bits=8)
        assert np.max(np.abs(quantized)) <= 4.0 + 1e-9
        assert np.abs(quantized - values).max() < 4.0 / 100

    def test_all_zero_array_unchanged(self):
        values = np.zeros(10)
        np.testing.assert_allclose(quantize_array(values, 4), values)

    def test_high_bits_close_to_identity(self, rng):
        values = rng.normal(size=100)
        np.testing.assert_allclose(quantize_array(values, 16), values, atol=1e-3)


class TestQuantizedInference:
    def test_accuracy_degrades_at_low_bits(self, trained_compact_lenet):
        model, test_x, test_y = trained_compact_lenet
        high = _quantized_accuracy(model, test_x, test_y, 16)
        low = _quantized_accuracy(model, test_x, test_y, 1)
        full = model.evaluate(test_x, test_y)
        assert high == pytest.approx(full, abs=0.05)
        assert low < high

    def test_16bit_quantization_nearly_lossless(self, trained_compact_lenet):
        model, test_x, test_y = trained_compact_lenet
        assert _quantized_accuracy(model, test_x, test_y, 16) == pytest.approx(
            model.evaluate(test_x, test_y), abs=0.03
        )


# --------------------------------------------------------------------------- #
# Byte identity against the clip-then-snap quantizer the in-place kernel replaced
# (copied verbatim below, docstrings dropped)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RefUniformQuantizer:
    bits: int
    max_abs: float = 1.0

    @property
    def n_levels(self) -> int:
        return 2**self.bits

    @property
    def step(self) -> float:
        return 2.0 * self.max_abs / (self.n_levels - 1) if self.n_levels > 1 else 2.0 * self.max_abs

    def quantize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if not np.issubdtype(values.dtype, np.floating):
            values = values.astype(float)
        clipped = np.clip(values, -self.max_abs, self.max_abs)
        if self.n_levels == 2:
            bound = values.dtype.type(self.max_abs)
            return np.where(clipped >= 0.0, bound, -bound)
        if values.dtype.type(self.step) == 0.0:
            return clipped
        level_index = np.round((clipped + self.max_abs) / self.step)
        return -self.max_abs + level_index * self.step


def ref_quantize_array(values, bits, max_abs=None):
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    if max_abs is None:
        max_abs = float(np.max(np.abs(values))) if values.size else 1.0
        if max_abs == 0.0:
            return values.copy()
    return RefUniformQuantizer(bits=bits, max_abs=max_abs).quantize(values)


def ref_quantize_array_stack(values, bits):
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    if values.ndim == 0:
        raise ValueError("quantize_array_stack expects a stacked (E, ...) array")
    if values.size == 0:
        return values.copy()
    if values.shape[0] == 1:
        quantized = ref_quantize_array(values[0], bits)[np.newaxis]
        return quantized.astype(values.dtype, copy=False)
    out = np.empty(values.shape, dtype=values.dtype)
    for member in range(values.shape[0]):
        out[member] = ref_quantize_array(values[member], bits)
    return out


BITS = (1, 2, 3, 8, 12, 16)


def assert_same_bytes(actual, expected):
    """Equal dtype, shape and bytes; NaNs compared by position only."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert np.where(nan, 0, actual).tobytes() == np.where(nan, 0, expected).tobytes()


def _special_rows(dtype) -> np.ndarray:
    """An (E, 4, 5) stack: ordinary rows, an all-zero row (signed zeros), a
    subnormal-range row (the step underflows), and NaN / +inf / -inf rows."""
    rng = np.random.default_rng(7)
    tiny = np.finfo(dtype).smallest_subnormal
    rows = [
        rng.standard_normal((4, 5)),
        np.maximum(rng.standard_normal((4, 5)), 0.0) * 1e-3,
        np.where(rng.random((4, 5)) < 0.5, 0.0, -0.0),
        rng.integers(-3, 4, (4, 5)) * float(tiny),
        np.where(rng.random((4, 5)) < 0.2, np.nan, rng.standard_normal((4, 5))),
        np.where(rng.random((4, 5)) < 0.2, np.inf, rng.standard_normal((4, 5))),
        np.where(rng.random((4, 5)) < 0.2, -np.inf, rng.standard_normal((4, 5))),
    ]
    return np.stack(rows).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bits", BITS)
class TestQuantizerByteIdentity:
    def test_stack_and_members(self, dtype, bits):
        stack = _special_rows(dtype)
        with np.errstate(invalid="ignore"):
            expected = ref_quantize_array_stack(stack, bits)
            assert_same_bytes(quantize_array_stack(stack, bits), expected)
            for member in range(stack.shape[0]):
                assert_same_bytes(quantize_array(stack[member], bits), expected[member])
                assert_same_bytes(
                    quantize_array_stack(stack[member : member + 1], bits),
                    expected[member : member + 1],
                )

    @pytest.mark.parametrize("max_abs", [0.25, 1.0, 3.0, 5e-324])
    def test_explicit_range_clips(self, dtype, bits, max_abs):
        values = _special_rows(dtype)[:2] * 4.0
        with np.errstate(invalid="ignore"):
            assert_same_bytes(
                UniformQuantizer(bits=bits, max_abs=max_abs).quantize(values),
                RefUniformQuantizer(bits=bits, max_abs=max_abs).quantize(values),
            )
            assert_same_bytes(
                quantize_array(values, bits, max_abs=max_abs),
                ref_quantize_array(values, bits, max_abs=max_abs),
            )

    def test_empty_and_integer_inputs(self, dtype, bits):
        for shape in [(0,), (0, 3), (3, 0), (2, 0, 4)]:
            empty = np.zeros(shape, dtype)
            assert_same_bytes(quantize_array_stack(empty, bits), ref_quantize_array_stack(empty, bits))
            assert_same_bytes(quantize_array(empty, bits), ref_quantize_array(empty, bits))
        integers = np.arange(-6, 6).reshape(3, 4)
        assert_same_bytes(quantize_array_stack(integers, bits), ref_quantize_array_stack(integers, bits))
        assert_same_bytes(quantize_array(integers, bits), ref_quantize_array(integers, bits))


@settings(max_examples=60, deadline=None)
@given(
    values=hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=5),
        elements={"allow_nan": True, "allow_infinity": True, "allow_subnormal": True},
    ),
    bits=st.sampled_from(BITS),
)
def test_quantizer_byte_identity_on_drawn_shapes(values, bits):
    with np.errstate(invalid="ignore", over="ignore"):
        expected = ref_quantize_array_stack(values, bits)
        assert_same_bytes(quantize_array_stack(values, bits), expected)
        assert_same_bytes(quantize_array(values, bits), ref_quantize_array(values, bits))
