"""Noise channels and the reference forward pass shared by the identity tests.

``CHANNELS`` holds every built-in channel at a non-trivial operating point
plus two composed stacks, keyed by a stable name; ``JitterChannel`` is a
third-party channel that implements only ``apply``; ``sequential_logits`` is
the independent one-realisation forward pass the fused ensemble engine must
match elementwise.
"""

from __future__ import annotations

import numpy as np

from repro.nn.quantization import quantize_array, swapped_parameters
from repro.sim import (
    FPVDriftChannel,
    InterChannelCrosstalkChannel,
    NoiseStack,
    QuantizationChannel,
    ResidualDriftChannel,
    ThermalCrosstalkChannel,
    default_noise_stack,
)


class JitterChannel:
    """A third-party channel: defines ``apply`` only, no ensemble method."""

    def apply(self, weights, rng):
        return weights + rng.normal(scale=1e-3, size=weights.shape)

    def describe(self):
        return "jitter"


CHANNELS = {
    "quant6": QuantizationChannel(bits=6),
    "quant1": QuantizationChannel(bits=1),
    "quant_off": QuantizationChannel(bits=None),
    "residual_drift": ResidualDriftChannel(residual_drift_nm=0.8),
    "fpv": FPVDriftChannel(),
    "interchannel": InterChannelCrosstalkChannel(calibration_rejection_db=20.0),
    "thermal": ThermalCrosstalkChannel(coupling_scale=0.05),
    "default_stack": default_noise_stack(resolution_bits=8, residual_drift_nm=0.5),
    "full_stack": NoiseStack(
        [
            QuantizationChannel(bits=8),
            FPVDriftChannel(),
            InterChannelCrosstalkChannel(calibration_rejection_db=25.0),
            ThermalCrosstalkChannel(coupling_scale=0.03),
        ]
    ),
}


def sequential_logits(model, inputs, stack, rng, activation_bits=None, batch_size=64):
    """Logits of one perturbed realisation, one layer ``forward`` at a time.

    Every weight is swapped for ``stack.apply(weight, rng)`` in model order
    (``rng`` is a seed or a Generator, which advances), then each batch is
    quantized to ``activation_bits`` on input and after every layer.
    """
    rng = np.random.default_rng(rng)

    def quantize(values):
        return values if activation_bits is None else quantize_array(values, activation_bits)

    with swapped_parameters(model, lambda weight: stack.apply(weight, rng), ("weight",)):
        model.eval()
        outputs = []
        for start in range(0, inputs.shape[0], batch_size):
            out = quantize(inputs[start : start + batch_size])
            for layer in model.layers:
                out = quantize(layer.forward(out))
            outputs.append(out)
    return np.concatenate(outputs, axis=0)
