"""Thermo-optic (TO) tuner model.

TO tuners use microheaters above the ring to raise its temperature, shifting
the effective index and hence the resonance.  They have a large tuning range
(more than a full FSR) but are slow (~4 us) and power hungry (27.5 mW per
FSR, Table II [17]), and their heaters are the source of the thermal
crosstalk the TED scheme cancels.

The tuner converts a requested resonance shift into heater power and latency;
the bank-level, crosstalk-aware power accounting lives in
:mod:`repro.tuning.ted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.constants import TO_TUNING, TuningParameters
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ThermoOpticTuner:
    """Per-ring thermo-optic tuner.

    Parameters
    ----------
    parameters:
        Latency/power operating point (Table II defaults).
    fsr_nm:
        FSR of the tuned ring, needed because the TO power figure is quoted
        per FSR of shift.
    max_shift_nm:
        Largest shift the heater can produce; TO tuning can cover a full FSR,
        so the default equals the FSR.
    """

    parameters: TuningParameters = field(default_factory=lambda: TO_TUNING)
    fsr_nm: float = 18.0
    max_shift_nm: float | None = None

    def __post_init__(self) -> None:
        check_positive("fsr_nm", self.fsr_nm)
        if self.max_shift_nm is not None:
            check_positive("max_shift_nm", self.max_shift_nm)

    @property
    def latency_s(self) -> float:
        """Time for the heater/ring to settle after a tuning step."""
        return self.parameters.latency_s

    @property
    def range_nm(self) -> float:
        """Maximum resonance shift the tuner can apply."""
        return self.max_shift_nm if self.max_shift_nm is not None else self.fsr_nm

    def can_compensate(self, shift_nm: float) -> bool:
        """Whether the requested shift lies within the tuner's range."""
        return abs(float(shift_nm)) <= self.range_nm

    def power_for_shift_w(self, shift_nm: float) -> float:
        """Heater power (W) needed to hold a resonance shift of ``shift_nm``."""
        shift = abs(float(shift_nm))
        if not self.can_compensate(shift):
            raise ValueError(
                f"shift {shift:.2f} nm exceeds TO tuning range {self.range_nm:.2f} nm"
            )
        return self.parameters.power_for_shift_w(shift, self.fsr_nm)

    def energy_for_shift_j(self, shift_nm: float, hold_time_s: float) -> float:
        """Energy to apply and hold a shift for ``hold_time_s`` seconds.

        TO tuning power is a *holding* power: the heater must stay on for as
        long as the compensation is needed, so energy scales with the hold
        time plus the initial settling latency.
        """
        check_non_negative("hold_time_s", hold_time_s)
        power = self.power_for_shift_w(shift_nm)
        return power * (hold_time_s + self.latency_s)
