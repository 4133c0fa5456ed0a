"""Photodetector, balanced photodetector, and TIA receiver models.

In the Broadcast-and-Weight configuration (paper Fig. 1) summation is
performed in the analog electrical domain: a photodetector converts the total
incident optical power across all WDM wavelengths into a photocurrent, and a
*balanced* photodetector subtracts the currents of a positive-weight arm and a
negative-weight arm so that signed weights can be represented with two
all-positive MR banks.  A transimpedance amplifier (TIA) then converts the
current into a voltage for the ADC.

Latency and power figures come from Table II (photodetector: 5.8 ps, 2.8 mW;
TIA: 0.15 ns, 7.2 mW).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.devices.constants import (
    PD_SENSITIVITY_DBM,
    PHOTODETECTOR,
    TIA,
    ActiveDeviceParameters,
)
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class Photodetector:
    """A single photodiode performing optical-power summation.

    Parameters
    ----------
    responsivity_a_per_w:
        Photocurrent generated per watt of incident optical power.
    sensitivity_dbm:
        Minimum detectable optical power for error-free operation; feeds the
        laser power model.
    parameters:
        Latency/power operating point (defaults to Table II values).
    """

    responsivity_a_per_w: float = 1.0
    sensitivity_dbm: float = PD_SENSITIVITY_DBM
    parameters: ActiveDeviceParameters = field(default_factory=lambda: PHOTODETECTOR)

    def __post_init__(self) -> None:
        check_in_range("responsivity_a_per_w", self.responsivity_a_per_w, 1e-3, 10.0)

    @property
    def latency_s(self) -> float:
        """Photodetection latency in seconds."""
        return self.parameters.latency_s

    @property
    def power_w(self) -> float:
        """Static electrical power of the detector in watts."""
        return self.parameters.power_w

    def photocurrent_a(self, optical_powers_w) -> float:
        """Photocurrent produced by a set of incident optical powers.

        The detector is square-law and wavelength-agnostic over the WDM band,
        so the photocurrent is proportional to the *sum* of the per-wavelength
        powers -- this is exactly the analog accumulation that implements the
        dot-product summation.

        Parameters
        ----------
        optical_powers_w:
            Scalar or array of incident optical powers (W), one per
            wavelength.
        """
        total = float(np.sum(np.asarray(optical_powers_w, dtype=float)))
        if total < 0:
            raise ValueError("optical power cannot be negative")
        return self.responsivity_a_per_w * total


@dataclass(frozen=True)
class BalancedPhotodetector:
    """A balanced pair of photodiodes computing a signed summation.

    The positive arm carries products with positive weights, the negative arm
    products with negative weights; the output current is the difference,
    giving a signed partial sum without needing signed optical power.
    """

    positive: Photodetector = field(default_factory=Photodetector)
    negative: Photodetector = field(default_factory=Photodetector)

    @property
    def latency_s(self) -> float:
        """Latency of the balanced pair (limited by the slower diode)."""
        return max(self.positive.latency_s, self.negative.latency_s)

    @property
    def power_w(self) -> float:
        """Combined static power of both diodes."""
        return self.positive.power_w + self.negative.power_w

    def differential_current_a(self, positive_powers_w, negative_powers_w) -> float:
        """Signed output current: I(positive arm) - I(negative arm)."""
        return self.positive.photocurrent_a(positive_powers_w) - self.negative.photocurrent_a(
            negative_powers_w
        )


@dataclass(frozen=True)
class TransimpedanceAmplifier:
    """TIA converting the summation photocurrent into a voltage for the ADC."""

    gain_ohm: float = 1e4
    parameters: ActiveDeviceParameters = field(default_factory=lambda: TIA)

    @property
    def latency_s(self) -> float:
        """TIA settling latency in seconds."""
        return self.parameters.latency_s

    @property
    def power_w(self) -> float:
        """TIA electrical power in watts."""
        return self.parameters.power_w

    def output_voltage_v(self, current_a: float) -> float:
        """Output voltage for a given input photocurrent."""
        return self.gain_ohm * float(current_a)

