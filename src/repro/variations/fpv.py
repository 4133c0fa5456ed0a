"""Fabrication-process-variation (FPV) model for microring resonators.

Process variations perturb the waveguide width and thickness of a fabricated
MR, shifting its effective index and hence its resonant wavelength (paper
Section II/IV.A).  The paper's own chip measurements show that an engineered
MR design (400 nm input / 800 nm ring waveguide) reduces the FPV-induced
resonance drift from 7.1 nm (conventional design) to 2.1 nm.

The architecture only consumes the *statistics* of that drift -- how many
nanometres of tuning each ring needs on average at boot -- so this module
provides the drift magnitude calibrated to the paper's measured values
(:func:`expected_fpv_drift_nm`, a 3-sigma figure), a bank-correlated
Monte-Carlo drift sampler (:func:`sample_banked_drifts`), and a sensitivity
model that explains the reduction: widening the ring waveguide reduces
d(neff)/d(width), so the same geometric variation produces less index (and
resonance) shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.constants import (
    CONVENTIONAL_MR,
    OPTIMIZED_MR,
    SILICON_GROUP_INDEX,
    MRDesignParameters,
)
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


@dataclass(frozen=True)
class ProcessVariationModel:
    """Wafer-level geometric variation statistics.

    Parameters
    ----------
    width_sigma_nm:
        Standard deviation of the waveguide width error across a wafer.
        Silicon photonic foundries report a few nanometres (e.g. [19]).
    thickness_sigma_nm:
        Standard deviation of the silicon layer thickness error.
    correlation_length_um:
        Spatial correlation length of the variation; rings within one bank
        (tens of micrometres apart) see highly correlated variations, which
        is what makes bank-level collective compensation effective.
    """

    width_sigma_nm: float = 4.0
    thickness_sigma_nm: float = 2.0
    correlation_length_um: float = 1000.0

    def __post_init__(self) -> None:
        check_non_negative("width_sigma_nm", self.width_sigma_nm)
        check_non_negative("thickness_sigma_nm", self.thickness_sigma_nm)
        check_positive("correlation_length_um", self.correlation_length_um)


def width_sensitivity_nm_per_nm(design: MRDesignParameters) -> float:
    """Resonance sensitivity to ring-waveguide width error (nm shift per nm).

    First-order waveguide dispersion gives ``d(lambda)/d(width) =
    (lambda / n_g) * d(neff)/d(width)``.  The effective-index sensitivity of
    a silicon strip waveguide falls rapidly as the waveguide gets wider and
    the mode becomes better confined; empirically it scales roughly with the
    inverse cube of the width over the 400-900 nm range.  The proportionality
    constant is calibrated so that the conventional and optimized designs
    reproduce the paper's measured 7.1 nm and 2.1 nm drifts under the default
    wafer statistics.
    """
    check_positive("ring_waveguide_width_nm", design.ring_waveguide_width_nm)
    # d(neff)/d(width) ~ k / width^3, with k calibrated against the paper.
    calibration_k = 1.87e5  # dimensionless neff per nm width, times nm^3
    dneff_dwidth = calibration_k / design.ring_waveguide_width_nm**3
    return design.resonance_nm * dneff_dwidth / SILICON_GROUP_INDEX


def expected_fpv_drift_nm(
    design: MRDesignParameters,
    variation: ProcessVariationModel = ProcessVariationModel(),
) -> float:
    """Expected worst-case FPV-induced resonance drift for a design point.

    Matches the paper's reporting convention (a single drift figure per
    design): the drift is the 3-sigma width-induced shift plus a smaller
    thickness contribution.  With the default wafer statistics this evaluates
    to ~7.1 nm for the conventional design and ~2.1 nm for the optimized one.
    """
    width_term = 3.0 * variation.width_sigma_nm * width_sensitivity_nm_per_nm(design)
    thickness_sensitivity = 0.08  # nm shift per nm thickness error (weak)
    thickness_term = 3.0 * variation.thickness_sigma_nm * thickness_sensitivity
    return width_term + thickness_term


def sample_banked_drifts(
    rng: np.random.Generator,
    n_rings: int,
    sigma_nm: float,
    bank_size: int | None = None,
    bank_correlation: float = 0.8,
) -> np.ndarray:
    """Sample signed FPV drifts (nm) for rings organised in MR banks.

    Rings within one bank sit tens of micrometres apart and therefore see
    highly correlated process variations; rings in different banks are
    further apart and drift independently.  Each bank draws one common
    (systematic) component carrying ``bank_correlation`` of the variance,
    and every ring adds an independent local component with the remainder.

    It draws from a caller-supplied :class:`numpy.random.Generator`, so
    Monte-Carlo harnesses (the FPV noise channel,
    :func:`repro.sim.photonic_inference.monte_carlo_accuracy`) can thread
    one seeded stream through a whole trial.

    Parameters
    ----------
    rng:
        Source of randomness; the caller controls seeding.
    n_rings:
        Total number of rings to sample.
    sigma_nm:
        Per-ring drift standard deviation (e.g. ``expected_fpv_drift_nm / 3``).
    bank_size:
        Rings per bank; ``None`` treats all rings as one bank.
    bank_correlation:
        Fraction of the drift variance common to the rings of a bank.
    """
    check_positive_int("n_rings", n_rings)
    check_non_negative("sigma_nm", sigma_nm)
    if not 0.0 <= bank_correlation <= 1.0:
        raise ValueError("bank_correlation must be in [0, 1]")
    if bank_size is None:
        bank_size = n_rings
    check_positive_int("bank_size", bank_size)
    n_banks = -(-n_rings // bank_size)  # ceil division
    common = rng.normal(0.0, sigma_nm * np.sqrt(bank_correlation), size=n_banks)
    local = rng.normal(0.0, sigma_nm * np.sqrt(1.0 - bank_correlation), size=n_rings)
    return np.repeat(common, bank_size)[:n_rings] + local


def conventional_drift_nm() -> float:
    """Paper-reported FPV drift of the conventional MR design (7.1 nm)."""
    return CONVENTIONAL_MR.fpv_drift_nm


def optimized_drift_nm() -> float:
    """Paper-reported FPV drift of the optimized MR design (2.1 nm)."""
    return OPTIMIZED_MR.fpv_drift_nm
