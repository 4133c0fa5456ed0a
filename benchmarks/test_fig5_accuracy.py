"""Benchmark E-F5: regenerate Fig. 5 (accuracy vs weight/activation resolution).

Trains the compact stand-ins of the four Table-I models on the synthetic
datasets and sweeps the inference resolution from 1 to 16 bits.  This is the
slowest benchmark (it performs actual training), so it uses a single
benchmark round.

The benchmark runs the **float32-fast** precision policy -- the
configuration the fig5 hot path is tuned for -- and asserts the paper's
qualitative accuracy claims.  Its wall time is guarded by the
machine-normalised ``compare.py`` gate of the bench job, which checks it
against the committed ``BENCH_PR6.json`` record; an absolute speed floor
here would compare against a number measured on another machine.
"""

from __future__ import annotations

from repro.experiments import fig5_resolution_accuracy
from repro.sim import format_table

FIG5_KWARGS = {
    "model_indices": (1, 2, 3, 4),
    "bits_sweep": (1, 2, 4, 8, 16),
    "epochs": 6,
    "n_train": 300,
    "n_test": 120,
}


def test_fig5_accuracy_vs_resolution(benchmark):
    benchmark.extra_info["precision"] = "float32"
    curves = benchmark.pedantic(
        fig5_resolution_accuracy.run,
        kwargs={**FIG5_KWARGS, "precision": "float32"},
        rounds=1,
        iterations=1,
    )

    headers = ["Model"] + [f"{b} bit" for b in curves[0].bits]
    rows = [[c.model_name] + [float(a) for a in c.accuracy] for c in curves]
    print("\nFig. 5 reproduction - accuracy vs resolution (float32 policy)")
    print(format_table(headers, rows, float_format="{:.3f}"))

    classification_curves = [c for c in curves if c.model_index in (1, 2, 3)]
    for curve in classification_curves:
        # Accuracy at full resolution beats the 1-bit accuracy (the paper's
        # central qualitative observation).
        assert curve.accuracy[-1] > curve.accuracy[0]
        # Full-resolution accuracy is clearly above the 10 % chance level.
        assert curve.accuracy[-1] > 0.15
    # Every model's accuracy stays within [0, 1].
    for curve in curves:
        assert all(0.0 <= a <= 1.0 for a in curve.accuracy)

