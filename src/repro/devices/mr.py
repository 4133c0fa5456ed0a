"""Microring resonator (MR) device model.

The MR is the workhorse of the noncoherent Broadcast-and-Weight architecture
(paper Section III): a tunable all-pass ring whose Lorentzian through-port
transmission attenuates the optical power on its resonant wavelength.  A
weight value ``w`` in [0, 1] is imprinted by detuning the ring so that the
through-port transmission at the signal wavelength equals ``w``.

This module models:

* the Lorentzian through-port spectrum parameterised by quality factor ``Q``,
  extinction ratio (ER) and free-spectral range (FSR) -- the two "primary
  characteristics" called out in paper Fig. 2;
* the relation between effective-index change and resonance shift, which is
  what both thermo-optic and electro-optic tuners actuate;
* weight imprinting: the detuning required to hit a target transmission, and
  the transmission actually realised for a given detuning (used to quantify
  the effect of residual, uncompensated resonance drift on weight accuracy).

The model intentionally stays analytic (no FDTD): architecture-level results
in the paper consume only ER/FSR/Q/loss/drift figures, all of which the
analytic Lorentzian captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.devices.constants import (
    CONVENTIONAL_MR,
    OPTIMIZED_MR,
    SILICON_GROUP_INDEX,
    SILICON_THERMO_OPTIC_COEFF_PER_K,
    MRDesignParameters,
)
from repro.utils.validation import check_positive


@dataclass
class MicroringResonator:
    """All-pass microring resonator with a Lorentzian through-port response.

    Parameters
    ----------
    design:
        Static design point (waveguide widths, radius, Q, FSR, nominal
        resonance).  Use :data:`repro.devices.constants.OPTIMIZED_MR` for the
        paper's FPV-resilient design or
        :data:`repro.devices.constants.CONVENTIONAL_MR` for the baseline.
    extinction_ratio_db:
        Depth of the resonance notch at the through port, in dB.  Typical
        fabricated add-drop rings reach 15-25 dB; the default 20 dB means the
        minimum through-port transmission is 1 %.
    resonance_shift_nm:
        Current (mutable) detuning of the resonance away from the design
        wavelength, e.g. due to process variation, temperature, or applied
        tuning.  Positive values are red shifts.

    Examples
    --------
    >>> mr = MicroringResonator.optimized()
    >>> t_on_resonance = mr.through_transmission(mr.resonance_nm)
    >>> t_on_resonance < 0.05
    True
    >>> mr.apply_resonance_shift(1.0)
    >>> mr.through_transmission(mr.design.resonance_nm) > t_on_resonance
    True
    """

    design: MRDesignParameters = field(default_factory=lambda: OPTIMIZED_MR)
    extinction_ratio_db: float = 20.0
    resonance_shift_nm: float = 0.0

    def __post_init__(self) -> None:
        check_positive("extinction_ratio_db", self.extinction_ratio_db)
        check_positive("design.quality_factor", self.design.quality_factor)
        check_positive("design.fsr_nm", self.design.fsr_nm)
        check_positive("design.resonance_nm", self.design.resonance_nm)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def optimized(cls, **kwargs) -> "MicroringResonator":
        """MR using the paper's optimized (FPV-resilient) design point."""
        return cls(design=OPTIMIZED_MR, **kwargs)

    @classmethod
    def conventional(cls, **kwargs) -> "MicroringResonator":
        """MR using the conventional (baseline) design point."""
        return cls(design=CONVENTIONAL_MR, **kwargs)

    # ------------------------------------------------------------------ #
    # Spectral characteristics
    # ------------------------------------------------------------------ #
    @property
    def resonance_nm(self) -> float:
        """Current resonant wavelength, including any applied shift."""
        return self.design.resonance_nm + self.resonance_shift_nm

    @property
    def quality_factor(self) -> float:
        """Loaded quality factor of the ring."""
        return self.design.quality_factor

    @property
    def fsr_nm(self) -> float:
        """Free-spectral range in nanometres."""
        return self.design.fsr_nm

    @property
    def fwhm_nm(self) -> float:
        """3-dB bandwidth (full width at half maximum) of the resonance."""
        return self.resonance_nm / self.quality_factor

    @property
    def min_transmission(self) -> float:
        """Through-port transmission exactly on resonance (linear)."""
        return 10.0 ** (-self.extinction_ratio_db / 10.0)

    def through_transmission(self, wavelength_nm) -> float | np.ndarray:
        """Linear power transmission of the through port at ``wavelength_nm``.

        The response is the standard inverted Lorentzian

        ``T(lambda) = 1 - (1 - T_min) / (1 + ((lambda - lambda_r) / (FWHM/2))^2)``

        folded onto the nearest resonance of the comb (the ring resonates
        every FSR).

        Parameters
        ----------
        wavelength_nm:
            Scalar or array of wavelengths in nanometres.

        Returns
        -------
        float or numpy.ndarray
            Transmission in [T_min, 1].
        """
        wavelength = np.asarray(wavelength_nm, dtype=float)
        detuning = self._detuning_to_nearest_resonance(wavelength)
        transmission = self.transmission_at_detuning(detuning)
        if np.isscalar(wavelength_nm):
            return float(transmission)
        return transmission

    def drop_transmission(self, wavelength_nm) -> float | np.ndarray:
        """Linear power transmission towards the drop/absorption path.

        For an all-pass ring the power removed from the through port is
        either dropped (add-drop configuration) or dissipated; either way it
        is the complement of :meth:`through_transmission` up to the excess
        loss handled separately in the architecture loss budget.
        """
        through = self.through_transmission(wavelength_nm)
        return 1.0 - through

    def _detuning_to_nearest_resonance(self, wavelength_nm: np.ndarray) -> np.ndarray:
        """Signed spectral distance to the nearest comb resonance (nm)."""
        offset = wavelength_nm - self.resonance_nm
        return offset - self.fsr_nm * np.round(offset / self.fsr_nm)

    # ------------------------------------------------------------------ #
    # Tuning and weight imprinting
    # ------------------------------------------------------------------ #
    def apply_resonance_shift(self, shift_nm: float) -> None:
        """Shift the resonance by ``shift_nm`` (cumulative, in nanometres)."""
        self.resonance_shift_nm += float(shift_nm)

    def reset_shift(self) -> None:
        """Remove any accumulated resonance shift."""
        self.resonance_shift_nm = 0.0

    def shift_for_index_change(self, delta_neff: float) -> float:
        """Resonance shift (nm) produced by an effective-index change.

        Uses the first-order relation ``d_lambda = lambda * d_neff / n_g``
        appropriate for silicon strip-waveguide rings.
        """
        return self.design.resonance_nm * delta_neff / SILICON_GROUP_INDEX

    def shift_for_temperature_change(self, delta_t_kelvin: float) -> float:
        """Resonance shift (nm) produced by a temperature excursion.

        Combines the silicon thermo-optic coefficient with
        :meth:`shift_for_index_change`; at ~1550 nm this yields the familiar
        ~0.07-0.09 nm/K red shift of silicon microrings.
        """
        delta_neff = SILICON_THERMO_OPTIC_COEFF_PER_K * delta_t_kelvin
        return self.shift_for_index_change(delta_neff)

    def detuning_for_transmission(self, target_transmission) -> float | np.ndarray:
        """Detuning (nm) from resonance needed to realise a target weight.

        Inverts the Lorentzian: a target through-port transmission ``w`` in
        ``[T_min, 1)`` requires the signal wavelength to sit

        ``delta = (FWHM/2) * sqrt((w - T_min) / (1 - w))``

        away from the ring resonance.  This is the quantity the electro-optic
        tuner actuates every vector operation.

        Parameters
        ----------
        target_transmission:
            Desired linear transmission (the weight magnitude), scalar or
            array, in [0, 1].  Values below the extinction-limited minimum
            are clamped to ``T_min``; a value of exactly 1.0 returns half an
            FSR (fully parked off resonance).

        Returns
        -------
        float or numpy.ndarray
            Required absolute detuning in nanometres, matching the shape of
            the input (a Python float for scalar input).
        """
        target = np.asarray(target_transmission, dtype=float)
        if np.any(~np.isfinite(target)):
            raise ValueError("target_transmission must be finite")
        if np.any(target < 0.0) or np.any(target > 1.0):
            raise ValueError(
                f"target_transmission must be in [0.0, 1.0], got {target_transmission!r}"
            )
        t_min = self.min_transmission
        half_width = self.fwhm_nm / 2.0
        half_fsr = self.fsr_nm / 2.0
        # The raw inversion diverges at target == 1; the divide is silenced
        # and the branch is overridden to half an FSR below.
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = half_width * np.sqrt(
                np.maximum(target - t_min, 0.0) / (1.0 - target)
            )
        detuning = np.where(
            target <= t_min,
            0.0,
            np.where(target >= 1.0, half_fsr, np.minimum(raw, half_fsr)),
        )
        if target.ndim == 0:
            return float(detuning)
        return detuning

    def realised_transmission(
        self, target_transmission, drift_nm
    ) -> float | np.ndarray:
        """Transmission actually realised when the operating point drifts.

        The tuner sets the detuning for ``target_transmission`` assuming the
        resonance is at its calibrated position; a *signed* resonance drift of
        ``drift_nm`` moves the operating point along the Lorentzian, so the
        realised transmission differs from the target.  Positive drifts push
        the operating point further from resonance (towards transmission 1),
        negative drifts pull it back through the notch.

        Both arguments accept scalars or arrays and broadcast against each
        other, so a whole weight tensor can be evaluated in one call (the
        noise-channel hot path).  Scalar inputs return a Python float.
        """
        target = np.asarray(target_transmission, dtype=float)
        drift = np.asarray(drift_nm, dtype=float)
        nominal_detuning = self.detuning_for_transmission(target)
        realised = self.transmission_at_detuning(np.asarray(nominal_detuning) + drift)
        if target.ndim == 0 and drift.ndim == 0:
            return float(realised)
        return realised

    def transmission_at_detuning(self, detuning_nm: np.ndarray) -> np.ndarray:
        """Through-port Lorentzian transmission at a signed detuning (nm) from resonance."""
        half_width = self.fwhm_nm / 2.0
        lorentzian = 1.0 / (1.0 + np.square(detuning_nm / half_width))
        return 1.0 - (1.0 - self.min_transmission) * lorentzian

    def transmission_error_from_drift(
        self, target_transmission, residual_drift_nm
    ) -> float | np.ndarray:
        """Weight error caused by an uncompensated resonance drift.

        The returned value is the absolute difference between the
        :meth:`realised_transmission` and the (extinction-clamped) target
        transmission, which upper-bounds the imprinted-weight error.

        Both arguments accept scalars or arrays and broadcast against each
        other, so a whole weight tensor can be evaluated in one call (the
        photonic-inference hot path).  Scalar inputs return a Python float.
        """
        target = np.asarray(target_transmission, dtype=float)
        drift = np.asarray(residual_drift_nm, dtype=float)
        realised = np.asarray(self.realised_transmission(target, drift))
        ideal = np.maximum(target, self.min_transmission)
        error = np.abs(realised - ideal)
        if target.ndim == 0 and drift.ndim == 0:
            return float(error)
        return error

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def footprint_um2(self) -> float:
        """Approximate layout footprint of the ring plus bus coupling region."""
        diameter = 2.0 * self.design.radius_um
        return diameter * diameter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroringResonator(design={self.design.name!r}, "
            f"Q={self.quality_factor:.0f}, FSR={self.fsr_nm:.1f} nm, "
            f"resonance={self.resonance_nm:.3f} nm)"
        )
