"""Electro-optic (EO) tuner model.

EO tuning exploits carrier-based or Pockels-effect index modulation: it is
fast (~20 ns) and cheap (4 uW per nm of shift, Table II [20]) but can only
move the resonance by a small amount before the junction runs out of swing.
In CrossLight it is the workhorse that imprints vector elements (weights and
activations) on every single vector operation, while the slower thermo-optic
tuner only handles large, rare shifts (boot-time FPV compensation and big
temperature excursions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.devices.constants import EO_TUNING, TuningParameters
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ElectroOpticTuner:
    """Per-ring electro-optic tuner.

    Parameters
    ----------
    parameters:
        Latency/power operating point (Table II defaults).
    max_shift_nm:
        Largest resonance shift EO tuning can produce; ~1-2 nm is typical of
        the hybrid BaTiO3/silicon platform the paper cites [20].  The hybrid
        tuning policy uses this to decide when TO assistance is needed.
    """

    parameters: TuningParameters = field(default_factory=lambda: EO_TUNING)
    max_shift_nm: float = 2.0

    def __post_init__(self) -> None:
        check_positive("max_shift_nm", self.max_shift_nm)

    @property
    def latency_s(self) -> float:
        """Settling time of an EO tuning step."""
        return self.parameters.latency_s

    @property
    def range_nm(self) -> float:
        """Maximum resonance shift the tuner can apply."""
        return self.max_shift_nm

    def can_compensate(self, shift_nm: float) -> bool:
        """Whether the requested shift lies within the EO range."""
        return abs(float(shift_nm)) <= self.range_nm

    def power_for_shift_w(self, shift_nm: float) -> float:
        """Electrical power (W) to hold a resonance shift of ``shift_nm``."""
        shift = abs(float(shift_nm))
        if not self.can_compensate(shift):
            raise ValueError(
                f"shift {shift:.2f} nm exceeds EO tuning range {self.range_nm:.2f} nm"
            )
        return self.parameters.power_for_shift_w(shift, fsr_nm=1.0)

    def power_for_shifts_w(self, shifts_nm) -> np.ndarray:
        """Vectorised power for an array of per-ring shifts."""
        shifts = np.abs(np.asarray(shifts_nm, dtype=float))
        if np.any(shifts > self.range_nm):
            raise ValueError("one or more shifts exceed the EO tuning range")
        return self.parameters.power_per_nm_w * shifts
