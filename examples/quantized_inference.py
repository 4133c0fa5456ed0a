"""Train a small CNN and study accuracy vs photonic weight resolution.

This example exercises the DNN substrate and quantization machinery the way
the paper's Fig. 5 study does, at a scale that runs in well under a minute:

1. train the compact LeNet-5 on the synthetic Sign-MNIST stand-in;
2. evaluate its accuracy with weights *and* activations quantized to 1-16
   bits (the resolution a photonic MR bank can actually represent);
3. relate the result to the crosstalk-limited resolution of the CrossLight,
   DEAP-CNN, and HolyLight weight banks -- showing why CrossLight's 16-bit
   capability matters for accuracy while DEAP-CNN's 4 bits costs accuracy;
4. validate that executing the quantized dot products through the VDP-style
   decomposition gives the same results as the monolithic computation.

Run with:  python examples/quantized_inference.py
"""

from __future__ import annotations

import numpy as np

from repro.arch import VDPUnit
from repro.crosstalk import (
    crosslight_bank_resolution,
    deap_cnn_bank_resolution,
    holylight_microdisk_resolution,
)
from repro.nn import build_model, sign_mnist_synthetic
from repro.sim import NoiseStack, QuantizationChannel, evaluate_ensemble, format_table


def main() -> None:
    # 1. Train the compact LeNet-5 on the synthetic dataset.
    train_x, train_y, test_x, test_y = sign_mnist_synthetic(n_train=400, n_test=200)
    model = build_model(1, compact=True)
    history = model.fit(train_x, train_y, epochs=6, batch_size=32)
    full_accuracy = model.evaluate(test_x, test_y)
    print(
        f"Trained {model.name}: final training accuracy "
        f"{history.final_accuracy:.3f}, test accuracy {full_accuracy:.3f}"
    )

    # 2. Accuracy under quantized inference: one ensemble member per
    #    resolution, each quantizing its weights and activations to ``bits``.
    print("\nAccuracy vs weight/activation resolution:")
    bits_sweep = (1, 2, 4, 8, 16)
    records = evaluate_ensemble(
        model,
        test_x,
        test_y,
        [NoiseStack([QuantizationChannel(bits=bits)]) for bits in bits_sweep],
        seeds=[0] * len(bits_sweep),
        activation_bits=list(bits_sweep),
        batch_size=128,
    )
    rows = [
        [f"{bits} bits", record.accuracy, record.accuracy - full_accuracy]
        for bits, record in zip(bits_sweep, records)
    ]
    print(format_table(["Resolution", "Accuracy", "Delta vs float"], rows, "{:.3f}"))

    # 3. What resolution can each accelerator's weight bank actually deliver?
    print("\nCrosstalk-limited resolution of the photonic weight banks:")
    resolution_rows = [
        ["CrossLight (15 MRs/bank, reuse + calibration)", crosslight_bank_resolution().resolution_bits],
        ["DEAP-CNN (25 channels, no reuse)", deap_cnn_bank_resolution().resolution_bits],
        ["HolyLight (per microdisk)", holylight_microdisk_resolution().resolution_bits],
    ]
    print(format_table(["Weight bank", "Bits"], resolution_rows))

    # 4. VDP-style decomposed execution matches the monolithic dot product.
    rng = np.random.default_rng(0)
    weights = rng.uniform(-1, 1, size=150)
    activations = rng.uniform(0, 1, size=150)
    unit = VDPUnit(vector_size=150, mrs_per_bank=15)
    decomposed = unit.dot_product(weights, activations)
    direct = float(weights @ activations)
    print(
        f"\nVDP decomposition check on a 150-element dot product: "
        f"direct={direct:.6f}, decomposed={decomposed:.6f}, "
        f"|difference|={abs(direct - decomposed):.2e}"
    )


if __name__ == "__main__":
    main()
