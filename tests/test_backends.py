"""Parity tests for the compute kernels and the precision policies.

Under the float64 policy every kernel of :class:`repro.nn.backend.\
ComputeBackend` must be bit-identical to the pre-refactor slice-loop
implementations (copied below verbatim from the seed revision of
:mod:`repro.nn.functional`), which is what keeps the committed fig5/ablation
accuracy records stable.  Under the float32 policy the same kernels run in
single precision with a bounded relative error on the outputs.  The kernel
object's shape -- the four kernels defined on :class:`ComputeBackend` itself,
reached by every layer through :func:`active_backend` -- is pinned too,
since the per-layer benchmark tracer wraps those class attributes.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.backend import (
    FLOAT32_FAST,
    FLOAT64_EXACT,
    ComputeBackend,
    active_backend,
    resolve_precision,
)
from repro.nn.layers import Conv2D, Dense

KERNELS = ("matmul", "batched_matmul", "im2col", "col2im")


# --------------------------------------------------------------------------- #
# Reference implementations (pre-refactor, copied from the seed revision)
# --------------------------------------------------------------------------- #
def ref_im2col(images, kernel_h, kernel_w, stride=1, padding=0):
    n, c, h, w = images.shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    padded = np.pad(
        images, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=images.dtype)
    for y in range(kernel_h):
        y_max = y + stride * out_h
        for x in range(kernel_w):
            x_max = x + stride * out_w
            cols[:, :, y, x, :, :] = padded[:, :, y:y_max:stride, x:x_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)


def ref_col2im(cols, input_shape, kernel_h, kernel_w, stride=1, padding=0):
    n, c, h, w = input_shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for y in range(kernel_h):
        y_max = y + stride * out_h
        for x in range(kernel_w):
            x_max = x + stride * out_w
            padded[:, :, y:y_max:stride, x:x_max:stride] += cols[:, :, y, x, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


conv_geometries = st.tuples(
    st.integers(min_value=1, max_value=3),  # n
    st.integers(min_value=1, max_value=4),  # c
    st.integers(min_value=3, max_value=9),  # h
    st.integers(min_value=3, max_value=9),  # w
    st.integers(min_value=1, max_value=3),  # kernel
    st.integers(min_value=1, max_value=2),  # stride
    st.integers(min_value=0, max_value=2),  # padding
).filter(lambda g: g[2] + 2 * g[6] >= g[4] and g[3] + 2 * g[6] >= g[4])


class TestComputeKernelBitIdentity:
    """The compute kernels reproduce the seed kernels bit-for-bit (float64)."""

    @settings(max_examples=40, deadline=None)
    @given(conv_geometries, st.integers(min_value=0, max_value=2**31 - 1))
    def test_im2col_matches_reference(self, geometry, seed):
        n, c, h, w, k, stride, padding = geometry
        images = np.random.default_rng(seed).standard_normal((n, c, h, w))
        expected = ref_im2col(images, k, k, stride, padding)
        result = F.im2col(images, k, k, stride, padding)
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)

    @settings(max_examples=40, deadline=None)
    @given(conv_geometries, st.integers(min_value=0, max_value=2**31 - 1))
    def test_col2im_matches_reference(self, geometry, seed):
        n, c, h, w, k, stride, padding = geometry
        out_h = F.conv_output_size(h, k, stride, padding)
        out_w = F.conv_output_size(w, k, stride, padding)
        cols = np.random.default_rng(seed).standard_normal(
            (n * out_h * out_w, c * k * k)
        )
        expected = ref_col2im(cols, (n, c, h, w), k, k, stride, padding)
        result = F.col2im(cols, (n, c, h, w), k, k, stride, padding)
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)

    def test_dense_forward_matches_reference(self, rng):
        layer = Dense(12, 7)
        inputs = rng.standard_normal((9, 12))
        np.testing.assert_array_equal(
            layer.forward(inputs), inputs @ layer.weight + layer.bias
        )

    def test_conv2d_forward_matches_reference(self, rng):
        layer = Conv2D(3, 5, kernel_size=3, stride=1, padding=1)
        inputs = rng.standard_normal((4, 3, 8, 8))
        cols = ref_im2col(inputs, 3, 3, 1, 1)
        expected = (
            (cols @ layer.weight.reshape(5, -1).T + layer.bias)
            .reshape(4, 8, 8, 5)
            .transpose(0, 3, 1, 2)
        )
        np.testing.assert_array_equal(layer.forward(inputs), expected)

    def test_ensemble_dense_matches_member_loop(self, rng):
        inputs = rng.standard_normal((4, 6, 10))
        weights = rng.standard_normal((4, 10, 3))
        result = F.ensemble_dense(inputs, weights)
        for member in range(4):
            np.testing.assert_array_equal(result[member], inputs[member] @ weights[member])

    def test_ensemble_conv2d_matches_member_loop(self, rng):
        layer = Conv2D(2, 4, kernel_size=3, stride=1, padding=1)
        inputs = rng.standard_normal((3, 2, 7, 7))
        weights = np.stack(
            [layer.weight + 0.01 * rng.standard_normal(layer.weight.shape) for _ in range(3)]
        )
        result = layer.forward_ensemble(inputs, weights)
        for member in range(3):
            layer.weight = weights[member]
            np.testing.assert_array_equal(result[member], layer.forward(inputs))


def _assert_same_bytes(result, expected):
    # Byte comparison, unlike assert_array_equal, also tells -0.0 from 0.0.
    assert result.dtype == expected.dtype
    assert result.shape == expected.shape
    assert np.ascontiguousarray(result).tobytes() == np.ascontiguousarray(expected).tobytes()


class TestComputeKernelsAtFig5Scale:
    """Fixed fig5-sized geometries, beyond the small hypothesis ones."""

    @staticmethod
    def _check_pair(images, k, stride, padding, seed):
        n, c, h, w = images.shape
        _assert_same_bytes(
            F.im2col(images, k, k, stride, padding), ref_im2col(images, k, k, stride, padding)
        )
        out_h = F.conv_output_size(h, k, stride, padding)
        out_w = F.conv_output_size(w, k, stride, padding)
        cols = (
            np.random.default_rng(seed)
            .standard_normal((n * out_h * out_w, c * k * k))
            .astype(images.dtype)
        )
        # Exact zeros of both signs exercise the -0.0 case of the fold.
        cols[::7] = 0.0
        cols[3::11] = -0.0
        _assert_same_bytes(
            F.col2im(cols, images.shape, k, k, stride, padding),
            ref_col2im(cols, images.shape, k, k, stride, padding),
        )

    @pytest.mark.parametrize("size", [6, 12, 16, 24])
    @pytest.mark.parametrize("channels", [3, 8, 16, 24])
    def test_same_padding_3x3(self, channels, size):
        images = np.random.default_rng(channels * size).standard_normal(
            (32, channels, size, size)
        )
        self._check_pair(images, 3, 1, 1, seed=size)

    @pytest.mark.parametrize(("stride", "padding"), [(2, 1), (1, 0)])
    def test_stride_and_padding_variants(self, stride, padding):
        images = np.random.default_rng(stride).standard_normal((32, 8, 24, 24))
        self._check_pair(images, 3, stride, padding, seed=padding)

    def test_non_contiguous_nchw_input(self):
        # The layout Conv2D.forward hands the next layer: an NHWC buffer
        # viewed as NCHW.
        images = np.random.default_rng(5).standard_normal((32, 12, 12, 16)).transpose(0, 3, 1, 2)
        assert not images.flags.c_contiguous
        self._check_pair(images, 3, 1, 1, seed=5)

    def test_float32(self):
        images = np.random.default_rng(6).standard_normal((32, 8, 16, 16)).astype(np.float32)
        self._check_pair(images, 3, 1, 1, seed=6)


class TestFloat32Tolerance:
    """Float32 kernels stay within the policy's documented relative error."""

    @settings(max_examples=25, deadline=None)
    @given(conv_geometries, st.integers(min_value=0, max_value=2**31 - 1))
    def test_im2col_float32_is_exact(self, geometry, seed):
        # Gathers move values without arithmetic, so even float32 is exact.
        n, c, h, w, k, stride, padding = geometry
        images = np.random.default_rng(seed).standard_normal((n, c, h, w))
        result = F.im2col(images.astype(np.float32), k, k, stride, padding)
        assert result.dtype == np.float32
        np.testing.assert_array_equal(
            result, ref_im2col(images, k, k, stride, padding).astype(np.float32)
        )

    def test_conv2d_float32_logits_within_policy(self, rng):
        layer64 = Conv2D(3, 5, kernel_size=3, stride=1, padding=1)
        inputs = rng.standard_normal((4, 3, 8, 8))
        expected = layer64.forward(inputs)
        layer32 = Conv2D(3, 5, kernel_size=3, stride=1, padding=1)
        layer32.weight = layer64.weight.astype(np.float32)
        layer32.bias = layer64.bias.astype(np.float32)
        result = layer32.forward(inputs.astype(np.float32))
        assert result.dtype == np.float32
        np.testing.assert_allclose(
            result, expected, rtol=FLOAT32_FAST.rtol, atol=FLOAT32_FAST.atol
        )

    def test_full_classifier_float32_logits_within_policy(self, trained_compact_lenet):
        # The end-to-end tolerance contract: cast a trained float64 model to
        # float32 and the inference logits agree within the policy bounds.
        model, test_x, _ = trained_compact_lenet
        expected = model.predict(test_x[:64])
        model32 = copy.deepcopy(model).astype(np.float32)
        result = model32.predict(test_x[:64].astype(np.float32))
        assert result.dtype == np.float32
        np.testing.assert_allclose(
            result, expected, rtol=FLOAT32_FAST.rtol, atol=FLOAT32_FAST.atol
        )


class TestKernelObject:
    """The kernel object is one class whose own body defines every kernel."""

    def test_kernels_live_on_the_class_and_layers_reach_them(self, monkeypatch, rng):
        assert set(KERNELS) <= set(vars(ComputeBackend))
        assert isinstance(active_backend(), ComputeBackend)
        assert active_backend().name == "numpy"

        calls = {"im2col": 0, "matmul": 0}

        def counting(attr):
            original = getattr(ComputeBackend, attr)

            def wrapper(self, *args, **kwargs):
                calls[attr] += 1
                return original(self, *args, **kwargs)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(ComputeBackend, attr, counting(attr))
        Conv2D(2, 3, kernel_size=3, padding=1).forward(rng.standard_normal((2, 2, 5, 5)))
        assert calls == {"im2col": 1, "matmul": 1}


class TestPrecisionPolicies:
    def test_resolve_names_dtypes_and_policies(self):
        assert resolve_precision(None) is FLOAT64_EXACT
        assert resolve_precision("float64") is FLOAT64_EXACT
        assert resolve_precision("float32") is FLOAT32_FAST
        assert resolve_precision(FLOAT32_FAST) is FLOAT32_FAST
        # A dtype is not a policy spec: ``precision=`` takes names only.
        for dtype in (np.float32, np.dtype(np.float64)):
            with pytest.raises(ValueError):
                resolve_precision(dtype)

    def test_exactness_flags(self):
        assert FLOAT64_EXACT.exact
        assert not FLOAT32_FAST.exact
        assert FLOAT64_EXACT.rtol == 0.0

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            resolve_precision("float16")
        with pytest.raises(ValueError):
            resolve_precision(np.int32)


class TestFig5DriverParity:
    """The fig5 driver's float32 path stays a valid accuracy curve."""

    def test_float32_curve_stays_in_unit_interval(self):
        from repro.experiments.fig5_resolution_accuracy import run_for_model

        curve = run_for_model(
            model_index=1, bits_sweep=(2, 8), epochs=2, n_train=80, n_test=40,
            precision="float32",
        )
        assert all(0.0 <= a <= 1.0 for a in curve.accuracy)
