"""Noise channels shared by the channel identity and golden-output tests.

``CHANNELS`` holds every built-in channel at a non-trivial operating point
plus two composed stacks, keyed by a stable name; ``JitterChannel`` is a
third-party channel that implements only ``apply``.
"""

from __future__ import annotations

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
