"""Experiment E-RES: reproduce the Section V.B resolution analysis.

The paper applies the inter-channel crosstalk equations (Eqs. 8-10) to its
optimized MR banks and concludes that CrossLight sustains 16-bit weight
resolution for up to 15 MRs per bank, whereas DEAP-CNN reaches only ~4 bits
and HolyLight ~2 bits per microdisk (ganging 8 microdisks for 16-bit
weights).  This driver reruns the analysis for all three designs and sweeps
the CrossLight bank size to show where the 16-bit capability ends.  The
bank-size sweep runs on the unified sweep engine via
:func:`repro.crosstalk.resolution.resolution_vs_mrs_per_bank`.

The optional accuracy study (``--include-accuracy`` / ``include_accuracy=True``)
closes the loop to the model level: every bank size's crosstalk-limited
resolution becomes one member of a single ensemble-vectorized inference
call (:func:`repro.sim.photonic_inference.evaluate_ensemble`), measuring
what each bank-size choice actually costs in inference accuracy on a
trained compact model -- the device-level V.B analysis and the Fig. 5
accuracy story evaluated in one fused pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crosstalk.resolution import (
    ResolutionReport,
    crosslight_bank_resolution,
    deap_cnn_bank_resolution,
    holylight_microdisk_resolution,
    resolution_vs_mrs_per_bank,
)
from repro.nn.backend import resolve_precision
from repro.sim.results import format_table
from repro.study import (
    RunContext,
    StudyConfig,
    experiment,
    precision_field,
)


@dataclass(frozen=True)
class BankSizeAccuracyPoint:
    """Inference accuracy at one bank size's crosstalk-limited resolution."""

    mrs_per_bank: int
    resolution_bits: int
    accuracy: float
    ideal_accuracy: float

    @property
    def accuracy_loss(self) -> float:
        """Accuracy lost relative to noiseless float inference."""
        return self.ideal_accuracy - self.accuracy


@dataclass(frozen=True)
class ResolutionAnalysisResult:
    """Resolution of the three accelerator device configurations."""

    crosslight: ResolutionReport
    deap_cnn: ResolutionReport
    holylight: ResolutionReport
    bank_size_sweep: dict[str, np.ndarray]
    bank_size_accuracy: tuple[BankSizeAccuracyPoint, ...] = ()

    @property
    def max_bank_size_for_16_bits(self) -> int:
        """Largest CrossLight bank size that still sustains 16-bit resolution."""
        sizes = self.bank_size_sweep["n_mrs"]
        bits = self.bank_size_sweep["resolution_bits"]
        qualifying = sizes[bits >= 16]
        return int(qualifying.max()) if qualifying.size else 0


def bank_size_accuracy(
    bank_sizes=(5, 10, 15, 20, 25, 30),
    epochs: int = 5,
    n_train: int = 300,
    n_test: int = 150,
    precision=None,
) -> tuple[BankSizeAccuracyPoint, ...]:
    """Accuracy of a trained compact model at each bank size's resolution.

    Maps every bank size through the Eq. 8-10 crosstalk analysis to its
    sustainable weight resolution, then evaluates all resulting resolutions
    as **one ensemble** -- a quantization-only noise stack per bank size,
    fused forward passes, one shared ideal-accuracy baseline.  This is the
    accuracy-side rendering of the paper's bank-size trade-off: growing the
    bank beyond ~15 MRs cuts the crosstalk-limited resolution, and this
    study shows where that starts costing model accuracy.

    ``precision`` selects the compute policy for the training run and the
    ensemble sweep (float64 = bit-exact reference path, float32 = fast path
    within the policy tolerance).
    """
    # Imported here: the device-level analysis above must stay importable
    # without pulling in the NN substrate.
    from repro.nn.zoo import trained_model
    from repro.sim.noise import NoiseStack, QuantizationChannel
    from repro.sim.photonic_inference import evaluate_ensemble, ideal_model_accuracy

    policy = resolve_precision(precision)
    model, (test_x, test_y) = trained_model(
        1, n_train=n_train, n_test=n_test, epochs=epochs, seed=0, precision=policy
    )

    sizes = [int(size) for size in bank_sizes]
    bits = [
        max(1, crosslight_bank_resolution(n_mrs_per_bank=size).resolution_bits)
        for size in sizes
    ]
    ideal = ideal_model_accuracy(model, test_x, test_y, batch_size=128)
    records = evaluate_ensemble(
        model,
        test_x,
        test_y,
        [NoiseStack([QuantizationChannel(bits=b)]) for b in bits],
        seeds=[0] * len(sizes),
        activation_bits=bits,
        batch_size=128,
        precision=policy,
        ideal_accuracy=ideal,
    )
    return tuple(
        BankSizeAccuracyPoint(
            mrs_per_bank=size,
            resolution_bits=b,
            accuracy=record.accuracy,
            ideal_accuracy=record.ideal_accuracy,
        )
        for size, b, record in zip(sizes, bits, records)
    )


def run(
    max_mrs: int = 30,
    include_accuracy: bool = False,
    precision=None,
) -> ResolutionAnalysisResult:
    """Run the resolution analysis for all three accelerator designs."""
    accuracy_points: tuple[BankSizeAccuracyPoint, ...] = ()
    if include_accuracy:
        accuracy_points = bank_size_accuracy(precision=precision)
    return ResolutionAnalysisResult(
        crosslight=crosslight_bank_resolution(),
        deap_cnn=deap_cnn_bank_resolution(),
        holylight=holylight_microdisk_resolution(),
        bank_size_sweep=resolution_vs_mrs_per_bank(max_mrs=max_mrs),
        bank_size_accuracy=accuracy_points,
    )


def _render(result: ResolutionAnalysisResult) -> str:
    """Render the resolution comparison and bank-size sweep as text."""
    comparison = format_table(
        ["Design", "Channels", "Spacing (nm)", "Q", "Resolution (bits)", "Paper (bits)"],
        [
            [
                "CrossLight MR bank",
                result.crosslight.n_channels,
                result.crosslight.channel_spacing_nm,
                result.crosslight.quality_factor,
                result.crosslight.resolution_bits,
                16,
            ],
            [
                "DEAP-CNN MR bank",
                result.deap_cnn.n_channels,
                result.deap_cnn.channel_spacing_nm,
                result.deap_cnn.quality_factor,
                result.deap_cnn.resolution_bits,
                4,
            ],
            [
                "HolyLight microdisk",
                result.holylight.n_channels,
                result.holylight.channel_spacing_nm,
                result.holylight.quality_factor,
                result.holylight.resolution_bits,
                2,
            ],
        ],
    )
    sweep = result.bank_size_sweep
    sweep_rows = [
        [int(n), int(b), float(w)]
        for n, b, w in zip(sweep["n_mrs"], sweep["resolution_bits"], sweep["worst_case_noise"])
        if int(n) in (5, 10, 15, 20, 25, 30)
    ]
    sweep_table = format_table(
        ["MRs per bank", "Resolution (bits)", "Worst-case noise"],
        sweep_rows,
        float_format="{:.4g}",
    )
    header = (
        "Section V.B reproduction - crosstalk-limited resolution\n"
        f"CrossLight sustains 16-bit resolution up to "
        f"{result.max_bank_size_for_16_bits} MRs per bank (paper: 15).\n"
    )
    report = header + comparison + "\n\nBank-size sweep (CrossLight):\n" + sweep_table
    if result.bank_size_accuracy:
        accuracy_table = format_table(
            ["MRs per bank", "Resolution (bits)", "Accuracy", "Accuracy loss"],
            [
                [p.mrs_per_bank, p.resolution_bits, p.accuracy, p.accuracy_loss]
                for p in result.bank_size_accuracy
            ],
            float_format="{:.3f}",
        )
        report += (
            "\n\nBank size vs inference accuracy "
            "(compact LeNet-5, ensemble-evaluated):\n" + accuracy_table
        )
    return report


@dataclass(frozen=True)
class ResolutionAnalysisConfig(StudyConfig):
    """Run-config of the Section V.B resolution analysis."""

    max_mrs: int = field(
        default=30, metadata={"help": "largest bank size swept", "min": 1}
    )
    include_accuracy: bool = field(
        default=False,
        metadata={"help": "also run the bank-size vs model-accuracy study "
                          "(trains a model, ensemble-evaluated)"},
    )
    precision: str = precision_field()


@experiment(
    "resolution_analysis",
    config=ResolutionAnalysisConfig,
    title="Section V.B - crosstalk-limited resolution analysis",
    artefact="Section V.B",
)
def _study(
    config: ResolutionAnalysisConfig, ctx: RunContext
) -> tuple[ResolutionAnalysisResult, str]:
    """Reproduce Section V.B: crosstalk-limited resolution of all three designs.

    The optional accuracy study runs under the selected precision policy
    (``--precision``).
    """
    result = run(
        max_mrs=config.max_mrs,
        include_accuracy=config.include_accuracy,
        precision=config.precision,
    )
    return result, _render(result)
