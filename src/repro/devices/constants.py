"""Optoelectronic device constants used by the CrossLight evaluation.

The numbers here are the simulation parameters from the paper:

* **Table II** -- latency and power of the active devices (EO tuning, TO
  tuning, VCSEL, TIA, photodetector).
* **Section V.A loss budget** -- per-element photonic losses (propagation,
  splitter, combiner, MR through/modulation, microdisk, EO/TO tuning loss)
  with the citations the paper uses.
* **MR device characteristics** from Section IV.A / V.B (optimized vs
  conventional MR designs, Q factor, FSR, FPV-induced drift).

Grouping them in frozen dataclasses keeps every experiment driver, baseline
model, and benchmark reading the *same* constants, which is what makes the
reproduced comparisons internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TuningParameters:
    """Latency and power of one tuning mechanism (Table II rows 1-2).

    Attributes
    ----------
    latency_s:
        Time to retune a single microring resonator, in seconds.
    power_per_nm_w:
        Power needed to shift the resonance by one nanometre, in watts.
        For thermo-optic tuning the paper quotes power per free-spectral
        range; :func:`power_for_shift_w` converts using the MR's FSR.
    per_fsr:
        If ``True``, ``power_per_nm_w`` is interpreted as power per FSR and
        must be scaled by ``shift_nm / fsr_nm``.
    loss_db_per_cm:
        Excess waveguide loss introduced by the tuning structure.
    """

    name: str
    latency_s: float
    power_per_nm_w: float
    per_fsr: bool
    loss_db_per_cm: float

    def power_for_shift_w(self, shift_nm: float, fsr_nm: float) -> float:
        """Power (W) required to compensate a resonance shift of ``shift_nm``.

        Parameters
        ----------
        shift_nm:
            Magnitude of the resonance shift to compensate, in nanometres.
        fsr_nm:
            Free-spectral range of the tuned MR, in nanometres.  Only used
            when the tuner's power figure is quoted per FSR.
        """
        shift_nm = abs(float(shift_nm))
        if self.per_fsr:
            if fsr_nm <= 0:
                raise ValueError(f"fsr_nm must be > 0, got {fsr_nm}")
            return self.power_per_nm_w * (shift_nm / fsr_nm)
        return self.power_per_nm_w * shift_nm


#: Electro-optic tuning: 20 ns latency, 4 uW/nm (Table II, [20]).
EO_TUNING = TuningParameters(
    name="electro-optic",
    latency_s=20e-9,
    power_per_nm_w=4e-6,
    per_fsr=False,
    loss_db_per_cm=6.0,
)

#: Thermo-optic tuning: 4 us latency, 27.5 mW per FSR (Table II, [17]).
TO_TUNING = TuningParameters(
    name="thermo-optic",
    latency_s=4e-6,
    power_per_nm_w=27.5e-3,
    per_fsr=True,
    loss_db_per_cm=1.0,
)


@dataclass(frozen=True)
class ActiveDeviceParameters:
    """Latency and power of a non-tuning active device (Table II rows 3-5)."""

    name: str
    latency_s: float
    power_w: float


#: Vertical-cavity surface-emitting laser used to re-emit partial sums [32].
VCSEL = ActiveDeviceParameters(name="VCSEL", latency_s=10e-9, power_w=0.66e-3)

#: Transimpedance amplifier following each photodetector [33].
TIA = ActiveDeviceParameters(name="TIA", latency_s=0.15e-9, power_w=7.2e-3)

#: Photodetector [34].
PHOTODETECTOR = ActiveDeviceParameters(
    name="photodetector", latency_s=5.8e-12, power_w=2.8e-3
)


@dataclass(frozen=True)
class PhotonicLosses:
    """Per-element optical losses from Section V.A (all in dB unless noted)."""

    propagation_db_per_cm: float = 1.0
    splitter_db: float = 0.13
    combiner_db: float = 0.9
    mr_through_db: float = 0.02
    mr_modulation_db: float = 0.72
    microdisk_db: float = 1.22
    eo_tuning_db_per_cm: float = 6.0
    to_tuning_db_per_cm: float = 1.0


#: Default photonic loss budget used in all CrossLight analyses.
DEFAULT_LOSSES = PhotonicLosses()


@dataclass(frozen=True)
class MRDesignParameters:
    """Microring resonator design point (Section IV.A / V.B).

    The paper fabricates two classes of MR devices: a *conventional* design
    and the *optimized* design (400 nm input waveguide, 800 nm ring
    waveguide) whose fabrication-process-variation induced resonance drift is
    reduced from 7.1 nm to 2.1 nm.
    """

    name: str
    input_waveguide_width_nm: float
    ring_waveguide_width_nm: float
    radius_um: float
    quality_factor: float
    fsr_nm: float
    fpv_drift_nm: float
    resonance_nm: float = 1550.0

    @property
    def fwhm_nm(self) -> float:
        """3-dB bandwidth (full width at half maximum) of the resonance."""
        return self.resonance_nm / self.quality_factor


#: Conventional (un-optimized) MR design: 7.1 nm FPV-induced drift.
CONVENTIONAL_MR = MRDesignParameters(
    name="conventional",
    input_waveguide_width_nm=500.0,
    ring_waveguide_width_nm=500.0,
    radius_um=10.0,
    quality_factor=8000.0,
    fsr_nm=18.0,
    fpv_drift_nm=7.1,
)

#: Optimized MR design from Section IV.A: 400 nm input / 800 nm ring
#: waveguide widths, 2.1 nm FPV-induced drift (70 % reduction).
OPTIMIZED_MR = MRDesignParameters(
    name="optimized",
    input_waveguide_width_nm=400.0,
    ring_waveguide_width_nm=800.0,
    radius_um=10.0,
    quality_factor=8000.0,
    fsr_nm=18.0,
    fpv_drift_nm=2.1,
)

#: Photodetector sensitivity assumed for the laser power model (Eq. 7), dBm.
#: A -20 dBm sensitivity is typical for the Si-Ge APD receivers the paper
#: cites [34] at 10+ Gb/s.
PD_SENSITIVITY_DBM = -20.0

#: Laser wall-plug efficiency used to convert required optical power into
#: electrical laser power.
LASER_WALL_PLUG_EFFICIENCY = 0.25

#: Room temperature assumed for all nominal device characterisation (kelvin).
ROOM_TEMPERATURE_K = 300.0

#: Thermo-optic coefficient of silicon (per kelvin) -- used by the thermal
#: variation model to convert temperature excursions into resonance shifts.
SILICON_THERMO_OPTIC_COEFF_PER_K = 1.86e-4

#: Approximate group index of a silicon strip waveguide at 1550 nm.
SILICON_GROUP_INDEX = 4.2
