"""Model zoo reproducing the paper's four evaluation DNNs (Table I).

| # | Architecture                  | CONV | FC | Params (paper) | Dataset    |
|---|-------------------------------|------|----|----------------|------------|
| 1 | LeNet-5                       |  2   | 2  |        60,074  | Sign MNIST |
| 2 | Custom CNN                    |  4   | 2  |       890,410  | CIFAR-10   |
| 3 | Custom CNN                    |  7   | 2  |     3,204,080  | STL-10     |
| 4 | Siamese CNN (one-shot)        |  8   | 4  |    38,951,745  | Omniglot   |

Each model comes in two flavours:

* **full-size** (``compact=False``, default) -- the architecture at the
  paper's input resolution with parameter counts close to Table I.  These
  models are *not trained* here; they exist so the performance/energy
  simulator (:mod:`repro.sim`) processes the same dot-product workloads the
  paper's accelerator simulator saw.  Model 4's trunk follows the classic
  Koch-style Omniglot Siamese network, whose 38.95 M parameters match the
  paper's count (the paper counts both twin branches, giving 8 CONV / 4 FC).
  Their weights are drawn on first use (as are the compact models', see
  :class:`~repro.nn.initializers.DeferredDraws`): workloads and parameter
  counts allocate no kernel.
* **compact** (``compact=True``) -- a downscaled version matched to the
  synthetic datasets in :mod:`repro.nn.datasets`, small enough to train on a
  CPU in seconds.  :func:`trained_model` is the one place that trains them
  (for the Fig. 5 sweep, the ablation and the resolution analysis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.backend import resolve_precision
from repro.nn.datasets import (
    CIFAR10_SPEC,
    OMNIGLOT_SPEC,
    SIGN_MNIST_SPEC,
    STL10_SPEC,
    DatasetSpec,
    dataset_for_model,
)
from repro.nn.initializers import DeferredDraws
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential, SiameseModel


@dataclass(frozen=True)
class ModelSpec:
    """Metadata of one Table-I model."""

    index: int
    name: str
    conv_layers: int
    fc_layers: int
    paper_parameters: int
    dataset: DatasetSpec


MODEL_SPECS: tuple[ModelSpec, ...] = (
    ModelSpec(1, "lenet5", 2, 2, 60_074, SIGN_MNIST_SPEC),
    ModelSpec(2, "cnn-cifar10", 4, 2, 890_410, CIFAR10_SPEC),
    ModelSpec(3, "cnn-stl10", 7, 2, 3_204_080, STL10_SPEC),
    ModelSpec(4, "siamese-omniglot", 8, 4, 38_951_745, OMNIGLOT_SPEC),
)


def model_spec(index: int) -> ModelSpec:
    """Metadata for Table-I model ``index`` (1-4)."""
    for spec in MODEL_SPECS:
        if spec.index == index:
            return spec
    raise ValueError(f"model index must be 1-4, got {index}")


# --------------------------------------------------------------------------- #
# Model 1: LeNet-5 (Sign MNIST)
# --------------------------------------------------------------------------- #
def build_lenet5(compact: bool = False, seed: int = 0) -> Sequential:
    """LeNet-5 style model: 2 CONV + 2 FC layers.

    The full-size variant runs on 28x28 grayscale input with 24 output
    classes (Sign-MNIST letters) and lands within a few percent of the
    paper's 60,074 parameters.
    """
    rng = DeferredDraws(seed)
    if compact:
        input_shape = SIGN_MNIST_SPEC.image_shape  # (1, 16, 16)
        layers = [
            Conv2D(1, 6, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(6, 12, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(12 * 4 * 4, 48, rng=rng),
            ReLU(),
            Dense(48, SIGN_MNIST_SPEC.n_classes, rng=rng),
        ]
        return Sequential(layers, input_shape, name="lenet5-compact")
    input_shape = (1, 28, 28)
    layers = [
        Conv2D(1, 6, kernel_size=5, rng=rng),
        ReLU(),
        AvgPool2D(2),
        Conv2D(6, 16, kernel_size=5, rng=rng),
        ReLU(),
        AvgPool2D(2),
        Flatten(),
        Dense(16 * 4 * 4, 200, rng=rng),
        ReLU(),
        Dense(200, 24, rng=rng),
    ]
    return Sequential(layers, input_shape, name="lenet5")


# --------------------------------------------------------------------------- #
# Model 2: custom CNN (CIFAR-10)
# --------------------------------------------------------------------------- #
def build_cnn_cifar10(compact: bool = False, seed: int = 1) -> Sequential:
    """Custom CNN with 4 CONV + 2 FC layers (~890 k parameters full-size)."""
    rng = DeferredDraws(seed)
    if compact:
        input_shape = CIFAR10_SPEC.image_shape  # (3, 16, 16)
        layers = [
            Conv2D(3, 8, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2D(8, 8, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2D(16, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(16 * 4 * 4, 64, rng=rng),
            ReLU(),
            Dense(64, CIFAR10_SPEC.n_classes, rng=rng),
        ]
        return Sequential(layers, input_shape, name="cnn-cifar10-compact")
    input_shape = (3, 32, 32)
    layers = [
        Conv2D(3, 32, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        Conv2D(32, 32, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(32, 64, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        Conv2D(64, 64, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(64 * 8 * 8, 200, rng=rng),
        ReLU(),
        Dense(200, 10, rng=rng),
    ]
    return Sequential(layers, input_shape, name="cnn-cifar10")


# --------------------------------------------------------------------------- #
# Model 3: custom CNN (STL-10)
# --------------------------------------------------------------------------- #
def build_cnn_stl10(compact: bool = False, seed: int = 2) -> Sequential:
    """Custom CNN with 7 CONV + 2 FC layers (~3.2 M parameters full-size)."""
    rng = DeferredDraws(seed)
    if compact:
        input_shape = STL10_SPEC.image_shape  # (3, 24, 24)
        layers = [
            Conv2D(3, 8, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2D(8, 8, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2D(16, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(16, 24, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2D(24, 24, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2D(24, 24, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(24 * 3 * 3, 64, rng=rng),
            ReLU(),
            Dense(64, STL10_SPEC.n_classes, rng=rng),
        ]
        return Sequential(layers, input_shape, name="cnn-stl10-compact")
    input_shape = (3, 96, 96)
    layers = [
        Conv2D(3, 32, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        Conv2D(32, 32, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(32, 64, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        Conv2D(64, 64, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(64, 128, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        Conv2D(128, 128, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(128, 128, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(128 * 6 * 6, 600, rng=rng),
        ReLU(),
        Dense(600, 10, rng=rng),
    ]
    return Sequential(layers, input_shape, name="cnn-stl10")


# --------------------------------------------------------------------------- #
# Model 4: Siamese CNN (Omniglot)
# --------------------------------------------------------------------------- #
def build_siamese_omniglot(compact: bool = False, seed: int = 3) -> SiameseModel:
    """Siamese one-shot CNN (Koch-style trunk, ~39 M parameters full-size).

    The trunk has 4 CONV + 2 FC layers; because both twin branches execute it
    per pair inference, the paper counts the model as 8 CONV + 4 FC layers.
    """
    rng = DeferredDraws(seed)
    if compact:
        input_shape = OMNIGLOT_SPEC.image_shape  # (1, 20, 20)
        trunk_layers = [
            Conv2D(1, 8, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(16, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2D(16, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Dense(16 * 5 * 5, 64, rng=rng),
            ReLU(),
            Dense(64, 32, rng=rng),
        ]
        trunk = Sequential(trunk_layers, input_shape, name="siamese-trunk-compact")
        return SiameseModel(trunk, name="siamese-omniglot-compact")
    input_shape = (1, 105, 105)
    trunk_layers = [
        Conv2D(1, 64, kernel_size=10, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(64, 128, kernel_size=7, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(128, 128, kernel_size=4, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(128, 256, kernel_size=4, rng=rng),
        ReLU(),
        Flatten(),
        Dense(256 * 6 * 6, 4096, rng=rng),
        ReLU(),
        Dense(4096, 1, rng=rng),
    ]
    trunk = Sequential(trunk_layers, input_shape, name="siamese-trunk")
    return SiameseModel(trunk, name="siamese-omniglot")


_BUILDERS = {
    1: build_lenet5,
    2: build_cnn_cifar10,
    3: build_cnn_stl10,
    4: build_siamese_omniglot,
}


def build_model(index: int, compact: bool = False, seed: int | None = None):
    """Build Table-I model ``index`` (1-4).

    Models 1-3 return a :class:`repro.nn.model.Sequential`; model 4 returns a
    :class:`repro.nn.model.SiameseModel`.
    """
    if index not in _BUILDERS:
        raise ValueError(f"model index must be 1-4, got {index}")
    builder = _BUILDERS[index]
    if seed is None:
        return builder(compact=compact)
    return builder(compact=compact, seed=seed)


def trained_model(
    index: int,
    *,
    n_train: int,
    n_test: int,
    epochs: int,
    seed: int,
    precision=None,
):
    """Compact model ``index`` trained on its synthetic dataset stand-in.

    Builds the compact model, loads ``dataset_for_model(index, n_train,
    n_test)``, casts the model (the trunk, for model 4) and the floating
    data to the ``precision`` policy's dtype, and fits with
    ``batch_size=32`` and ``seed`` (skipping the per-epoch training-set
    accuracy, which leaves the final weights unchanged).

    Returns ``(model, test_split)``: ``(test_x, test_y)`` for models 1-3 and
    ``(test_a, test_b, test_labels)`` for model 4.  Model 4 has no trainer
    in :mod:`repro.nn`, so its cast trunk is returned *untrained* and
    ``epochs`` is unused.
    """
    policy = resolve_precision(precision)
    model = build_model(index, compact=True)
    data = dataset_for_model(index, n_train=n_train, n_test=n_test)
    if not policy.exact:
        (model.trunk if index == 4 else model).astype(policy.dtype)
        data = tuple(
            part.astype(policy.dtype, copy=False)
            if np.issubdtype(part.dtype, np.floating)
            else part
            for part in data
        )
    if index == 4:
        return model, data[3:]
    train_x, train_y, test_x, test_y = data
    model.fit(
        train_x, train_y, epochs=epochs, batch_size=32, seed=seed, track_accuracy=False
    )
    return model, (test_x, test_y)


def build_all_models(compact: bool = False) -> dict[int, object]:
    """Build all four Table-I models, keyed by model index."""
    return {index: build_model(index, compact=compact) for index in _BUILDERS}
