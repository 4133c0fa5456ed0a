"""Pure-NumPy deep-learning substrate (the TensorFlow/QKeras substitute).

Implements the DNN machinery the paper's evaluation depends on: layers with
forward/backward passes, Sequential/Siamese model containers with training
loops, losses, optimizers, uniform quantization with quantization-aware
fine-tuning, synthetic datasets mirroring the paper's (Sign-MNIST, CIFAR-10,
STL-10, Omniglot), and the Table-I model zoo.
"""

from repro.nn import functional
from repro.nn.backend import (
    FLOAT32_FAST,
    FLOAT64_EXACT,
    ComputeBackend,
    PrecisionPolicy,
    active_backend,
    resolve_precision,
)
from repro.nn.datasets import (
    CIFAR10_SPEC,
    OMNIGLOT_SPEC,
    SIGN_MNIST_SPEC,
    STL10_SPEC,
    DatasetSpec,
    cifar10_synthetic,
    dataset_for_model,
    make_classification_dataset,
    omniglot_synthetic_pairs,
    sign_mnist_synthetic,
    stl10_synthetic,
)
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LayerWorkload,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import (
    Loss,
    SoftmaxCrossEntropy,
    accuracy,
    pair_accuracy,
)
from repro.nn.model import Sequential, SiameseModel, TrainingHistory
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.quantization import (
    UniformQuantizer,
    capture_parameters,
    quantize_array,
    restore_parameters,
    swapped_parameters,
)
from repro.nn.zoo import (
    MODEL_SPECS,
    ModelSpec,
    build_all_models,
    build_cnn_cifar10,
    build_cnn_stl10,
    build_lenet5,
    build_model,
    build_siamese_omniglot,
    model_spec,
    trained_model,
)

__all__ = [
    "Adam",
    "AvgPool2D",
    "BatchNorm",
    "CIFAR10_SPEC",
    "ComputeBackend",
    "Conv2D",
    "Dense",
    "DatasetSpec",
    "Dropout",
    "FLOAT32_FAST",
    "FLOAT64_EXACT",
    "Flatten",
    "Layer",
    "LayerWorkload",
    "Loss",
    "MODEL_SPECS",
    "MaxPool2D",
    "ModelSpec",
    "OMNIGLOT_SPEC",
    "Optimizer",
    "PrecisionPolicy",
    "ReLU",
    "SGD",
    "SIGN_MNIST_SPEC",
    "STL10_SPEC",
    "Sequential",
    "SiameseModel",
    "Sigmoid",
    "SoftmaxCrossEntropy",
    "Tanh",
    "TrainingHistory",
    "UniformQuantizer",
    "accuracy",
    "active_backend",
    "build_all_models",
    "build_cnn_cifar10",
    "build_cnn_stl10",
    "build_lenet5",
    "build_model",
    "build_siamese_omniglot",
    "cifar10_synthetic",
    "dataset_for_model",
    "capture_parameters",
    "restore_parameters",
    "swapped_parameters",
    "functional",
    "make_classification_dataset",
    "model_spec",
    "omniglot_synthetic_pairs",
    "pair_accuracy",
    "quantize_array",
    "resolve_precision",
    "sign_mnist_synthetic",
    "stl10_synthetic",
    "trained_model",
]
