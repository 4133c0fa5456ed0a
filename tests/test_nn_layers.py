"""Unit tests for NN layers, including numerical gradient checks."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_input_gradient_check(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        upstream = rng.normal(size=(2, 3))
        layer.forward(x)
        grad_input = layer.backward(upstream)

        expected = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            original = x[idx]
            x[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad_input, expected, rtol=1e-4, atol=1e-6)

    def test_weight_gradient_check(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(upstream)
        analytic = layer.gradients()["weight"]

        expected = np.zeros_like(layer.weight)
        eps = 1e-6
        for idx in np.ndindex(layer.weight.shape):
            original = layer.weight[idx]
            layer.weight[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-6)

    def test_rejects_wrong_input_shape(self, rng):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 7)))

    def test_workload_reports_fan_in_and_out(self):
        layer = Dense(256, 100)
        workload = layer.workload((256,))
        assert workload.kind == "fc"
        assert workload.dot_product_length == 256
        assert workload.n_dot_products == 100
        assert workload.macs == 25_600


class TestConv2D:
    def test_output_shape(self, rng):
        layer = Conv2D(3, 8, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 16, 16))
        assert layer.forward(x).shape == (2, 8, 16, 16)
        assert layer.output_shape((3, 16, 16)) == (8, 16, 16)

    def test_forward_matches_naive_convolution(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer.forward(x)
        naive = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for y in range(3):
                for xx in range(3):
                    patch = x[0, :, y : y + 3, xx : xx + 3]
                    naive[0, f, y, xx] = np.sum(patch * layer.weight[f]) + layer.bias[f]
        np.testing.assert_allclose(out, naive, rtol=1e-10)

    def test_input_gradient_check(self, rng):
        layer = Conv2D(1, 2, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        upstream = rng.normal(size=(1, 2, 3, 3))
        layer.forward(x)
        analytic = layer.backward(upstream)

        expected = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            original = x[idx]
            x[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-6)

    def test_weight_gradient_check(self, rng):
        layer = Conv2D(1, 1, kernel_size=2, rng=rng)
        x = rng.normal(size=(2, 1, 3, 3))
        upstream = rng.normal(size=(2, 1, 2, 2))
        layer.forward(x)
        layer.backward(upstream)
        analytic = layer.gradients()["weight"]

        expected = np.zeros_like(layer.weight)
        eps = 1e-6
        for idx in np.ndindex(layer.weight.shape):
            original = layer.weight[idx]
            layer.weight[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-6)

    def test_conv_workload_counts(self):
        layer = Conv2D(3, 16, kernel_size=3, padding=1)
        workload = layer.workload((3, 32, 32))
        assert workload.kind == "conv"
        assert workload.dot_product_length == 27
        assert workload.n_dot_products == 16 * 32 * 32


class TestPooling:
    def test_maxpool_selects_maximum(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_averages(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = AvgPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_backward_routes_gradient_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool = MaxPool2D(2)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == pytest.approx(4.0)
        assert grad[0, 0, 1, 1] == pytest.approx(1.0)  # position of 5
        assert grad[0, 0, 0, 0] == pytest.approx(0.0)

    def test_avgpool_backward_distributes_gradient(self):
        pool = AvgPool2D(2)
        x = np.ones((1, 1, 4, 4))
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        np.testing.assert_allclose(grad, 0.25)

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacked_eval_pool_matches_per_member_training_pool(self, rng, pool_size, dtype):
        """One value-only pass over an (E, N, C, H, W) stack == the argmax path per member."""
        shape = (3, 2, 4, 3 * pool_size, 2 * pool_size)
        # Small integers give many ties and exact zeros; some windows hold a NaN.
        stack = rng.integers(-2, 3, size=shape).astype(dtype)
        stack[rng.random(shape) < 0.05] = np.nan
        training = MaxPool2D(pool_size)
        expected = np.stack([training.forward(member) for member in stack])
        inference = MaxPool2D(pool_size)
        inference.eval()
        pooled = inference.forward(stack)
        assert pooled.dtype == dtype and pooled.shape == expected.shape
        np.testing.assert_array_equal(pooled, expected)  # NaNs compared by position
        windows = stack.reshape(*shape[:3], 3, pool_size, 2, pool_size)
        np.testing.assert_array_equal(np.isnan(pooled), np.isnan(windows).any(axis=(4, 6)))

    @pytest.mark.parametrize(
        ("pool", "height"), [(MaxPool2D(2), 6), (MaxPool2D(2), 7), (MaxPool2D(3, stride=2), 9)]
    )
    def test_eval_and_training_forward_agree(self, rng, pool, height):
        x = rng.normal(size=(2, 3, height, 8))
        pool.train()
        trained = pool.forward(x)
        pool.eval()
        evaluated = pool.forward(x)
        assert evaluated.tobytes() == trained.tobytes()
        assert pool.tiles(height, 8) == (pool.stride == pool.pool_size and height % 2 == 0)


class TestActivationsAndRegularizers:
    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh])
    def test_activation_gradient_check(self, layer_cls, rng):
        layer = layer_cls()
        x = rng.normal(size=(3, 5))
        upstream = rng.normal(size=(3, 5))
        layer.forward(x)
        analytic = layer.backward(upstream)
        expected = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            original = x[idx]
            x[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-5)

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        np.testing.assert_allclose(back, x)

    def test_dropout_inference_is_identity(self, rng):
        layer = Dropout(0.5)
        layer.eval()
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_dropout_training_preserves_expectation(self, rng):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_rejects_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_batchnorm_normalizes_training_batch(self, rng):
        layer = BatchNorm(6)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 6))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_conv_layout(self, rng):
        layer = BatchNorm(3)
        x = rng.normal(size=(8, 3, 5, 5))
        out = layer.forward(x)
        assert out.shape == x.shape
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        layer = BatchNorm(4, momentum=0.5)
        for _ in range(10):
            layer.forward(rng.normal(loc=1.0, size=(32, 4)))
        layer.eval()
        out = layer.forward(np.ones((2, 4)))
        assert np.all(np.isfinite(out))


class TestGradientBuffers:
    """Gradient buffers read as zeros before backward, without costing memory."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Dense(6, 4),
            lambda: Dense(6, 4, use_bias=False),
            lambda: Conv2D(2, 3, kernel_size=3, padding=1),
            lambda: BatchNorm(5),
        ],
        ids=["dense", "dense-no-bias", "conv", "batchnorm"],
    )
    def test_zero_before_first_backward(self, make):
        layer = make()
        self._assert_zero_gradients(layer, np.float64)
        Sequential([layer], input_shape=(1,)).astype(np.float32)
        self._assert_zero_gradients(layer, np.float32)

    @staticmethod
    def _assert_zero_gradients(layer, dtype):
        params, grads = layer.parameters(), layer.gradients()
        assert grads.keys() == params.keys()
        for name, param in params.items():
            assert param.dtype == dtype
            assert grads[name].shape == param.shape
            assert grads[name].dtype == param.dtype
            assert not grads[name].any()

    @staticmethod
    def _fresh_interpreter(code: str) -> str:
        # A fresh interpreter, so the peak RSS measured is this code's alone.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss units are Linux-specific")
    def test_full_size_build_touches_no_gradient_pages(self):
        # Reading every trunk layer's parameters draws the deferred kernels,
        # so the measurement covers parameters plus gradient buffers.
        stdout = self._fresh_interpreter(
            "import resource\n"
            "from repro.nn import build_model\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "model = build_model(4)\n"
            "params = sum(p.nbytes for l in model.trunk.layers for p in l.parameters().values())\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) * 1024, params)\n"
        )
        grown, param_bytes = (int(v) for v in stdout.split())
        assert param_bytes > 100 * 2**20
        # Parameters alone are 1.0x; a zero-filled gradient buffer doubles it.
        assert grown < 1.5 * param_bytes, (grown, param_bytes)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss units are Linux-specific")
    def test_full_size_shapes_draw_no_weights(self):
        # Workloads and parameter counts read shapes only: the ~300 MB of
        # model 4's kernels stay undrawn.
        stdout = self._fresh_interpreter(
            "import resource\n"
            "from repro.nn import build_model\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "model = build_model(4)\n"
            "macs = sum(w.macs for w in model.workloads())\n"
            "n = model.n_parameters\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) * 1024, n)\n"
        )
        grown, n_parameters = (int(v) for v in stdout.split())
        assert n_parameters == 38_951_745
        assert grown < 10 * 2**20, grown


class TestEvalModeState:
    def test_predict_keeps_no_backward_state(self, rng):
        model = Sequential(
            [
                Conv2D(1, 2, kernel_size=3, padding=1, rng=rng),
                ReLU(),
                MaxPool2D(2),
                Conv2D(2, 2, kernel_size=3, padding=1, rng=rng),
                Tanh(),
                AvgPool2D(2),
                Flatten(),
                Dense(8, 4, rng=rng),
                Sigmoid(),
                Dense(4, 3, rng=rng),
            ],
            input_shape=(1, 8, 8),
        )
        x = rng.normal(size=(2, 1, 8, 8))
        model.forward(x)  # a training-mode forward fills every cache
        model.predict(x)
        shapes = model.layer_shapes()
        for layer, shape in zip(model.layers, shapes):
            state = {
                name: value
                for name, value in vars(layer).items()
                if name in ("_cache", "_last_input", "_input_shape")
            }
            assert state and all(value is None for value in state.values()), layer
            grad = np.ones((2, *layer.output_shape(shape)))
            with pytest.raises(RuntimeError):
                layer.backward(grad)
