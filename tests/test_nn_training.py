"""Tests for losses, optimizers, model training, datasets, and the model zoo."""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    MODEL_SPECS,
    ReLU,
    SGD,
    Sequential,
    SiameseModel,
    SoftmaxCrossEntropy,
    accuracy,
    build_model,
    cifar10_synthetic,
    dataset_for_model,
    make_classification_dataset,
    model_spec,
    omniglot_synthetic_pairs,
    pair_accuracy,
    sign_mnist_synthetic,
    stl10_synthetic,
)
from repro.nn.datasets import SIGN_MNIST_SPEC, STL10_SPEC


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, grad = SoftmaxCrossEntropy()(logits, np.array([0, 1]))
        assert loss < 1e-4
        assert grad.shape == logits.shape

    def test_cross_entropy_gradient_direction(self):
        logits = np.zeros((1, 3))
        _, grad = SoftmaxCrossEntropy()(logits, np.array([1]))
        # Gradient pushes the true-class logit up (negative gradient).
        assert grad[0, 1] < 0
        assert grad[0, 0] > 0 and grad[0, 2] > 0

    def test_cross_entropy_gradient_check(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        loss_fn = SoftmaxCrossEntropy()
        _, analytic = loss_fn(logits, labels)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for idx in np.ndindex(logits.shape):
            logits[idx] += eps
            plus, _ = loss_fn(logits, labels)
            logits[idx] -= 2 * eps
            minus, _ = loss_fn(logits, labels)
            logits[idx] += eps
            numeric[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_accuracy_helpers(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
        distances = np.array([0.1, 0.9])
        assert pair_accuracy(distances, np.array([1, 0]), threshold=0.5) == 1.0


class TestOptimizers:
    def _quadratic_layer(self):
        layer = Dense(1, 1, use_bias=False, rng=np.random.default_rng(0))
        layer.weight[...] = np.array([[5.0]])
        return layer

    def test_sgd_converges_on_quadratic(self):
        layer = self._quadratic_layer()
        optimizer = SGD(learning_rate=0.1)
        for _ in range(100):
            layer._grad_weight = 2 * layer.weight  # d/dw of w^2
            optimizer.step([layer])
        assert abs(layer.weight[0, 0]) < 1e-3

    def test_sgd_momentum_converges_faster(self):
        plain_layer = self._quadratic_layer()
        momentum_layer = self._quadratic_layer()
        plain = SGD(learning_rate=0.02)
        momentum = SGD(learning_rate=0.02, momentum=0.9)
        for _ in range(50):
            plain_layer._grad_weight = 2 * plain_layer.weight
            plain.step([plain_layer])
            momentum_layer._grad_weight = 2 * momentum_layer.weight
            momentum.step([momentum_layer])
        assert abs(momentum_layer.weight[0, 0]) < abs(plain_layer.weight[0, 0])

    def test_adam_converges_on_quadratic(self):
        layer = self._quadratic_layer()
        optimizer = Adam(learning_rate=0.3)
        for _ in range(200):
            layer._grad_weight = 2 * layer.weight
            optimizer.step([layer])
        assert abs(layer.weight[0, 0]) < 1e-2

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=-0.1)
        with pytest.raises(ValueError):
            SGD(momentum=1.5)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)


class TestSequentialTraining:
    def test_small_mlp_learns_separable_data(self, rng):
        # Two well-separated Gaussian blobs in 2-D.
        n = 200
        x = np.concatenate([rng.normal(-2, 0.5, (n, 2)), rng.normal(2, 0.5, (n, 2))])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        model = Sequential(
            [Dense(2, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng)], input_shape=(2,)
        )
        history = model.fit(x, y, epochs=10, batch_size=32, seed=0)
        assert history.final_accuracy > 0.95
        assert history.losses[-1] < history.losses[0]

    def test_predict_batching_consistent(self, rng):
        model = Sequential([Dense(4, 3, rng=rng)], input_shape=(4,))
        x = rng.normal(size=(37, 4))
        np.testing.assert_allclose(model.predict(x, batch_size=8), model.predict(x, batch_size=64))

    def test_model_summary_and_counts(self):
        model = build_model(1, compact=True)
        summary = model.summary()
        assert "Total parameters" in summary
        assert model.count_layers("conv") == 2
        assert model.count_layers("fc") == 2

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            Sequential([], input_shape=(2,))


class TestDatasets:
    def test_shapes_and_ranges(self):
        train_x, train_y, test_x, test_y = sign_mnist_synthetic(n_train=50, n_test=20)
        assert train_x.shape == (50, 1, 16, 16)
        assert test_x.shape == (20, 1, 16, 16)
        assert train_x.min() >= 0.0 and train_x.max() <= 1.0
        assert set(np.unique(train_y)).issubset(set(range(10)))

    def test_determinism_given_seed(self):
        a = cifar10_synthetic(n_train=30, n_test=10)
        b = cifar10_synthetic(n_train=30, n_test=10)
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])

    def test_harder_dataset_has_more_noise(self):
        easy = make_classification_dataset(SIGN_MNIST_SPEC, 50, 10, noise=0.05, seed=0)
        hard = make_classification_dataset(STL10_SPEC, 50, 10, noise=0.4, seed=0)
        assert easy[0].shape[1:] == SIGN_MNIST_SPEC.image_shape
        assert hard[0].shape[1:] == STL10_SPEC.image_shape

    def test_omniglot_pairs_balanced(self):
        _, _, labels, _, _, _ = omniglot_synthetic_pairs(n_train_pairs=400, n_test_pairs=10)
        assert 0.35 < labels.mean() < 0.65

    def test_dataset_for_model_dispatch(self):
        assert len(dataset_for_model(1, 20, 10)) == 4
        assert len(dataset_for_model(4, 20, 10)) == 6
        with pytest.raises(ValueError):
            dataset_for_model(5)

    def test_stl10_shape(self):
        train_x, *_ = stl10_synthetic(n_train=10, n_test=5)
        assert train_x.shape == (10, 3, 24, 24)


class TestModelZoo:
    def test_table1_layer_counts(self, full_models):
        for spec in MODEL_SPECS:
            model = full_models[spec.index]
            conv = model.count_layers("conv")
            fc = model.count_layers("fc")
            if isinstance(model, SiameseModel):
                conv, fc = 2 * conv, 2 * fc
            assert conv == spec.conv_layers
            assert fc == spec.fc_layers

    def test_table1_parameter_counts_within_5_percent(self, full_models):
        for spec in MODEL_SPECS:
            params = full_models[spec.index].n_parameters
            assert params == pytest.approx(spec.paper_parameters, rel=0.05)

    def test_siamese_parameters_exactly_match_paper(self, full_models):
        assert full_models[4].n_parameters == 38_951_745

    def test_compact_models_are_much_smaller(self):
        for index in (1, 2, 3):
            compact = build_model(index, compact=True)
            assert compact.n_parameters < model_spec(index).paper_parameters / 5

    def test_siamese_workloads_count_both_branches(self, full_models):
        siamese = full_models[4]
        trunk_macs = sum(w.macs for w in siamese.trunk.workloads())
        pair_macs = sum(w.macs for w in siamese.workloads())
        assert pair_macs == 2 * trunk_macs

    # sha256 over every parameter (name, dtype, bytes) in layer order, and
    # the parameter count, of each zoo build: pins the initializer streams.
    PARAMETER_GOLDENS = {
        (1, False): (58_796, "ed9dd0619b29d83f0f0a6f4a6732c876fc6bb77505f8df252230852dffe6b1d3"),
        (2, False): (886_978, "4dbfddba242b3526240dae840bea1d39b03e469d48c6c0bd60ca234c4a6caf0b"),
        (3, False): (3_206_002, "ff6fb536257e2ff104467fc2c8c16ddca048a48f263b7d891d004b2985e1aa27"),
        (4, False): (38_951_745, "64e648aa05c50ee60b0bf5850adf36d53d3a8839ebb74f6aefc98885e9e8c73b"),
        (1, True): (10_474, "74a8fa52f7d0472c90eaa79061e7531bd7207e5bf44d513baeca100bbf2cd280"),
        (2, True): (21_394, "82f674c1f1a281e17d8e25eb93f8edd9c1a6c00a334323097b5da331fd4f32ca"),
        (3, True): (32_730, "70c50bc3603c107e581972040a354ce901bf2193a76fb57c214aad99d652e212"),
        (4, True): (33_632, "6f4d5db48aca60ef8176f5193d8fd91502e99a9e9e869eac987e7f6c6be171c1"),
    }

    @pytest.mark.parametrize("compact", [False, True], ids=["full", "compact"])
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_parameters_golden(self, index, compact):
        model = build_model(index, compact=compact)
        n_parameters, expected = self.PARAMETER_GOLDENS[index, compact]
        assert model.n_parameters == n_parameters
        digest = hashlib.sha256()
        for layer in getattr(model, "trunk", model).layers:
            for name, param in layer.parameters().items():
                digest.update(name.encode())
                digest.update(str(param.dtype).encode())
                digest.update(param.tobytes())
        assert digest.hexdigest() == expected

    def test_deferred_weights_survive_pickling(self):
        # Pickled before any weight is read, the copy still draws the stream.
        model = build_model(2, compact=True)
        restored = pickle.loads(pickle.dumps(model))
        for layer, copied in zip(model.layers, restored.layers):
            for name, param in layer.parameters().items():
                np.testing.assert_array_equal(copied.parameters()[name], param)
        with pytest.raises(AttributeError):
            model.layers[1].weight  # a ReLU has no kernel to draw

    def test_invalid_model_index_rejected(self):
        with pytest.raises(ValueError):
            build_model(7)

    def test_forward_pass_shapes(self, rng):
        model = build_model(2, compact=True)
        x = rng.random((3, 3, 16, 16))
        assert model.forward(x).shape == (3, 10)
