"""Compose FPV drift, spectral crosstalk, and quantization into one study.

The paper's argument is that cross-layer co-design suppresses a *stack* of
non-idealities, not one at a time.  This example builds that stack explicitly
with the composable noise channels of :mod:`repro.sim.noise`, and evaluates
everything through the **ensemble-vectorized** inference path of PR 3:

1. train the compact LeNet-5 on the synthetic Sign-MNIST stand-in;
2. evaluate inference accuracy under progressively richer noise stacks --
   quantization only, plus Monte-Carlo FPV resonance drift, plus
   inter-channel (Eq. 8-10) spectral crosstalk -- each over several seeded
   wafer draws via :func:`repro.sim.monte_carlo_accuracy`, which stacks all
   draws along an ensemble axis and runs fused forward passes instead of one
   engine per seed;
3. show the two design levers the paper pulls: the FPV-resilient MR design
   (optimized vs conventional waveguide geometry) and the tuning loop
   (uncompensated vs residual drift).  Every (configuration, wafer draw)
   pair becomes one member of a single
   :func:`repro.sim.evaluate_ensemble` call -- 3 configurations x 8 seeds =
   24 perturbed model realisations evaluated together, with per-member
   records coming back in order.

Run with:  python examples/noise_stack_study.py
"""

from __future__ import annotations

import numpy as np

from repro.devices.constants import CONVENTIONAL_MR, OPTIMIZED_MR
from repro.nn import build_model, sign_mnist_synthetic
from repro.sim import (
    FPVDriftChannel,
    InterChannelCrosstalkChannel,
    NoiseStack,
    QuantizationChannel,
    evaluate_ensemble,
    format_table,
    monte_carlo_accuracy,
)

RESOLUTION_BITS = 8
SEEDS = 8


def main() -> None:
    # 1. Train the compact LeNet-5 on the synthetic dataset.
    train_x, train_y, test_x, test_y = sign_mnist_synthetic(n_train=300, n_test=150)
    model = build_model(1, compact=True)
    model.fit(train_x, train_y, epochs=6, batch_size=32, seed=0)
    print(f"Trained {model.name}: float test accuracy {model.evaluate(test_x, test_y):.3f}")

    # 2. Progressively richer noise stacks.  Each stack is an ordered list of
    #    channels; monte_carlo_accuracy evaluates all seeded wafer draws as
    #    one fused ensemble (pass a SweepExecutor as executor to additionally
    #    spread seed chunks over its process pool, or member_chunk to bound
    #    peak memory).
    quantize = QuantizationChannel(bits=RESOLUTION_BITS)
    crosstalk = InterChannelCrosstalkChannel(mrs_per_bank=15, calibration_rejection_db=20.0)
    stacks = {
        "quantization only": NoiseStack([quantize]),
        "+ FPV drift (optimized MR, tuned)": NoiseStack(
            [quantize, FPVDriftChannel(design=OPTIMIZED_MR, residual_fraction=0.01)]
        ),
        "+ spectral crosstalk": NoiseStack(
            [
                quantize,
                FPVDriftChannel(design=OPTIMIZED_MR, residual_fraction=0.01),
                crosstalk,
            ]
        ),
    }

    rows = []
    for label, stack in stacks.items():
        result = monte_carlo_accuracy(
            model, test_x, test_y, stack,
            seeds=SEEDS, activation_bits=RESOLUTION_BITS,
        )
        rows.append([label, result.mean_accuracy, result.std_accuracy])
    print(f"\nAccuracy under composed noise stacks ({SEEDS} wafer draws each):")
    print(format_table(["Noise stack", "Mean accuracy", "Std"], rows, "{:.3f}"))

    # 3. The paper's two levers, as stack edits: MR design and tuning.  All
    #    (configuration x wafer draw) members evaluate in ONE ensemble call;
    #    per-member stacks may differ freely (here: design and tuning level).
    configurations = [
        ("conventional MR, no tuning", CONVENTIONAL_MR, 1.0),
        ("optimized MR, no tuning", OPTIMIZED_MR, 1.0),
        ("optimized MR, hybrid tuning", OPTIMIZED_MR, 0.01),
    ]
    member_stacks = [
        NoiseStack(
            [quantize, FPVDriftChannel(design=design, residual_fraction=residual), crosstalk]
        )
        for _, design, residual in configurations
        for _ in range(SEEDS)
    ]
    member_seeds = [seed for _ in configurations for seed in range(SEEDS)]
    records = evaluate_ensemble(
        model, test_x, test_y, member_stacks, member_seeds,
        activation_bits=RESOLUTION_BITS,
    )
    lever_rows = []
    for index, (label, _, _) in enumerate(configurations):
        accuracies = [r.accuracy for r in records[index * SEEDS : (index + 1) * SEEDS]]
        lever_rows.append([label, float(np.mean(accuracies)), float(np.std(accuracies))])
    print("\nCross-layer levers under the full stack (design x tuning):")
    print(format_table(["Configuration", "Mean accuracy", "Std"], lever_rows, "{:.3f}"))
    print(
        f"\nEvery scenario above is a stack edit -- the ensemble engine "
        f"evaluated {len(member_stacks)} perturbed model realisations in "
        f"fused forward passes."
    )


if __name__ == "__main__":
    main()
