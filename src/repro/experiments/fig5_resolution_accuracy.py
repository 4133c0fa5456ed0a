"""Experiment E-F5: reproduce Fig. 5 (inference accuracy vs resolution).

Fig. 5 sweeps the weight/activation resolution of the four evaluation models
from 1 bit to 16 bits and plots the resulting inference accuracy (the paper
uses quantization-aware training; this driver sweeps post-training
quantization).  The qualitative behaviour the paper highlights:

* accuracy is stable at high resolutions (8-16 bits),
* it degrades as resolution drops, collapsing at 1-2 bits,
* the STL-10 model is the most sensitive to low resolution.

This driver trains the *compact* zoo models on the synthetic dataset
stand-ins (the offline substitute for Sign-MNIST/CIFAR-10/STL-10/Omniglot)
through :func:`repro.nn.zoo.trained_model`, then evaluates
each model's whole resolution sweep as **one ensemble**: every bit width
becomes a member of a single
:class:`repro.sim.photonic_inference.EnsembleInferenceEngine` (a
quantization-only :class:`repro.sim.noise.QuantizationChannel` stack for the
weights, per-member ``activation_bits`` for the activations flowing between
layers), so the fused forward passes evaluate all resolutions together
instead of one engine per point.  The Siamese model (model 4) runs its trunk
through the same engine and scores the member embeddings' pair distances.
Because the non-idealities are a pluggable stack, richer Fig. 5 variants
(e.g. quantization *plus* FPV drift) are one channel away -- see
``examples/noise_stack_study.py``.

Note on bias handling: the engine quantizes only the MR-imprinted
``weight`` tensors -- biases are applied electronically after the optical
dot product and stay in float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.nn.backend import resolve_precision
from repro.nn.losses import pair_accuracy
from repro.nn.model import SiameseModel
from repro.nn.zoo import model_spec, trained_model
from repro.sim.noise import NoiseStack, QuantizationChannel
from repro.sim.photonic_inference import (
    EnsembleInferenceEngine,
    evaluate_ensemble,
    ideal_model_accuracy,
)
from repro.sim.results import format_table
from repro.sim.sweep import SweepExecutor, run_sweep
from repro.study import (
    RunContext,
    StudyConfig,
    experiment,
    precision_field,
)

#: Resolution sweep of the paper's Fig. 5.
DEFAULT_BITS = (1, 2, 4, 6, 8, 12, 16)


@dataclass(frozen=True)
class AccuracyCurve:
    """Accuracy-vs-resolution curve of one model."""

    model_index: int
    model_name: str
    bits: tuple[int, ...]
    accuracy: tuple[float, ...]


def _classification_accuracies(
    model,
    inputs,
    labels,
    bits_sweep: tuple[int, ...],
    ideal_accuracy: float,
    precision=None,
) -> list[float]:
    """Accuracy of a classifier at every resolution of the Fig. 5 sweep.

    All resolutions evaluate as *one ensemble* -- one member per bit width,
    each with a quantization-only noise stack and matching activation
    resolution -- through the fused forward passes of
    :func:`repro.sim.photonic_inference.evaluate_ensemble`.  Quantization
    consumes no randomness, so the per-member records are elementwise
    identical to the historical one-engine-per-resolution loop; the
    drift-independent ideal accuracy is shared across the whole sweep.
    """
    records = evaluate_ensemble(
        model,
        inputs,
        labels,
        [NoiseStack([QuantizationChannel(bits=bits)]) for bits in bits_sweep],
        seeds=[0] * len(bits_sweep),
        activation_bits=list(bits_sweep),
        batch_size=128,
        precision=precision,
        ideal_accuracy=ideal_accuracy,
    )
    return [record.accuracy for record in records]


def _siamese_accuracies(
    model: SiameseModel, test_split, bits_sweep: tuple[int, ...], precision=None
) -> list[float]:
    """Pair-verification accuracy of a Siamese model at every resolution.

    The trunk evaluates as one ensemble (one quantization-only member per
    bit width) over each side of the test pairs; member ``m``'s embedding
    distances are scored against the full-precision median distance.  The
    two sides run as separate ``predict`` calls at batch size 128 because
    the activation quantizer fits its range to each batch.
    """
    test_a, test_b, test_labels = test_split
    threshold = float(np.median(model.pair_distances(test_a, test_b)))
    engine = EnsembleInferenceEngine(
        [NoiseStack([QuantizationChannel(bits=bits)]) for bits in bits_sweep],
        seeds=[0] * len(bits_sweep),
        activation_bits=list(bits_sweep),
        precision=precision,
    )
    emb_a = engine.predict(model.trunk, test_a, batch_size=128)
    emb_b = engine.predict(model.trunk, test_b, batch_size=128)
    return [
        pair_accuracy(
            np.sqrt(np.sum((a - b) ** 2, axis=1) + 1e-12), test_labels, threshold=threshold
        )
        for a, b in zip(emb_a, emb_b)
    ]


def run_for_model(
    model_index: int,
    bits_sweep: tuple[int, ...] = DEFAULT_BITS,
    epochs: int = 6,
    n_train: int = 400,
    n_test: int = 200,
    precision=None,
) -> AccuracyCurve:
    """Train one compact model and sweep its inference resolution.

    ``precision`` selects the compute policy for the whole pipeline --
    under the default float64 policy the curve is bit-identical to the
    committed reference records; under float32 the model trains *and*
    evaluates in single precision, with accuracies within the policy's
    documented tolerance.
    """
    policy = resolve_precision(precision)
    model, test_split = trained_model(
        model_index,
        n_train=n_train,
        n_test=n_test,
        epochs=epochs,
        seed=model_index,
        precision=policy,
    )
    if model_index == 4:
        accuracies = _siamese_accuracies(model, test_split, tuple(bits_sweep), policy)
    else:
        test_x, test_y = test_split
        ideal = ideal_model_accuracy(model, test_x, test_y, batch_size=128)
        accuracies = _classification_accuracies(
            model, test_x, test_y, tuple(bits_sweep), ideal, precision=policy
        )
    return AccuracyCurve(
        model_index=model_index,
        model_name=model_spec(model_index).name,
        bits=tuple(bits_sweep),
        accuracy=tuple(accuracies),
    )


def run(
    model_indices: tuple[int, ...] = (1, 2, 3, 4),
    bits_sweep: tuple[int, ...] = DEFAULT_BITS,
    epochs: int = 6,
    n_train: int = 400,
    n_test: int = 200,
    executor: SweepExecutor | None = None,
    precision=None,
) -> list[AccuracyCurve]:
    """Accuracy-vs-resolution curves for the requested models.

    The per-model sweep points are independent (each trains its own model),
    so a warm :class:`SweepExecutor` from a multi-study session fans them
    out over its process pool.  ``precision`` selects the compute policy
    per :func:`run_for_model` (worker processes receive the policy name).
    """
    sweep = run_sweep(
        partial(
            run_for_model,
            bits_sweep=tuple(bits_sweep),
            epochs=epochs,
            n_train=n_train,
            n_test=n_test,
            precision=resolve_precision(precision).name,
        ),
        [{"model_index": int(index)} for index in model_indices],
        executor=executor,
    )
    return list(sweep.values)


def _render(curves: list[AccuracyCurve]) -> str:
    """Render the Fig. 5 curves as a text table (models x resolutions)."""
    headers = ["Model"] + [f"{b} bit" for b in curves[0].bits]
    rows = [
        [curve.model_name] + [float(a) for a in curve.accuracy] for curve in curves
    ]
    table = format_table(headers, rows, float_format="{:.3f}")
    return "Fig. 5 reproduction - accuracy vs weight/activation resolution\n" + table


@dataclass(frozen=True)
class Fig5Config(StudyConfig):
    """Run-config of the Fig. 5 reproduction (defaults = paper settings)."""

    model_indices: tuple[int, ...] = field(
        default=(1, 2, 3, 4),
        metadata={
            "help": "Table-I model indices to sweep",
            "choices": (1, 2, 3, 4),
            "nonempty": True,
        },
    )
    bits_sweep: tuple[int, ...] = field(
        default=DEFAULT_BITS,
        metadata={"help": "weight/activation resolutions (bits)", "min": 1, "nonempty": True},
    )
    epochs: int = field(default=6, metadata={"help": "training epochs per model", "min": 1})
    n_train: int = field(default=400, metadata={"help": "training samples", "min": 1})
    n_test: int = field(default=200, metadata={"help": "test samples", "min": 1})
    precision: str = precision_field()


@experiment(
    "fig5",
    config=Fig5Config,
    title="Fig. 5 - inference accuracy vs weight/activation resolution",
    artefact="Fig. 5",
)
def _study(config: Fig5Config, ctx: RunContext) -> tuple[list[AccuracyCurve], str]:
    """Reproduce Fig. 5: train the zoo models and sweep inference resolution.

    Compute runs under the selected precision policy (``--precision``);
    float64 reproduces the
    committed reference records bit-exactly, float32 stays within the
    policy's documented tolerance.
    """
    curves = run(
        model_indices=config.model_indices,
        bits_sweep=config.bits_sweep,
        epochs=config.epochs,
        n_train=config.n_train,
        n_test=config.n_test,
        executor=ctx.executor,
        precision=config.precision,
    )
    return curves, _render(curves)

