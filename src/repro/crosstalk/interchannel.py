"""Inter-channel (spectral) crosstalk between WDM microring channels.

When several microrings sit on one bus waveguide, each ring's Lorentzian tail
overlaps its neighbours' wavelengths: the signal read out for wavelength *i*
contains a noise contribution from every other ring *j*.  The paper models
this with the standard ring-filter crosstalk expression (Eq. 8, from [35]):

    phi(i, j) = delta^2 / ((lambda_i - lambda_j)^2 + delta^2)

where ``delta = lambda_i / (2 Q)`` is the 3-dB half-bandwidth of the rings.
Summing the contributions gives the worst-case noise power (Eq. 9), and the
reciprocal of that noise (for unit input power) is the number of
distinguishable levels, i.e. the achievable weight resolution (Eq. 10).

These three equations are what justify CrossLight's two key architectural
numbers: at most **15 MRs per bank** and **>1 nm channel spacing** (enabled
by wavelength reuse), which together keep the noise low enough for **16-bit**
resolution with Q ~ 8000 and FSR = 18 nm.
"""

from __future__ import annotations

import numpy as np

from repro.utils.cache import memoize
from repro.utils.validation import check_positive, check_positive_int


# Kept as a test oracle: the scalar Eq. 8 the crosstalk-matrix tests compare against.
def lorentzian_crosstalk(lambda_i_nm, lambda_j_nm, delta_nm) -> float | np.ndarray:
    """Crosstalk factor phi(i, j) between two ring channels (paper Eq. 8).

    Parameters
    ----------
    lambda_i_nm:
        Resonant wavelength of the victim ring *i* (nm).
    lambda_j_nm:
        Resonant wavelength of the aggressor ring *j* (nm).
    delta_nm:
        3-dB half-bandwidth of the rings, ``lambda_i / (2 Q)`` (nm).

    Returns
    -------
    float or numpy.ndarray
        Fraction of ring *j*'s signal power that appears as noise in ring
        *i*'s channel; 1.0 when the wavelengths coincide, falling off as a
        Lorentzian with spectral separation.
    """
    delta = np.asarray(delta_nm, dtype=float)
    if np.any(delta <= 0):
        raise ValueError("delta_nm must be positive")
    separation = np.asarray(lambda_i_nm, dtype=float) - np.asarray(lambda_j_nm, dtype=float)
    result = delta**2 / (separation**2 + delta**2)
    if np.isscalar(lambda_i_nm) and np.isscalar(lambda_j_nm) and np.isscalar(delta_nm):
        return float(result)
    return result


def channel_wavelengths_nm(
    n_channels: int,
    channel_spacing_nm: float,
    start_nm: float = 1550.0,
) -> np.ndarray:
    """Equally spaced WDM channel grid used by an MR bank."""
    check_positive_int("n_channels", n_channels)
    check_positive("channel_spacing_nm", channel_spacing_nm)
    check_positive("start_nm", start_nm)
    return start_nm + channel_spacing_nm * np.arange(n_channels, dtype=float)


def crosstalk_matrix(wavelengths_nm, quality_factor: float) -> np.ndarray:
    """Matrix of phi(i, j) factors for a set of channel wavelengths.

    The diagonal is zeroed: a ring does not interfere with itself.
    """
    check_positive("quality_factor", quality_factor)
    wavelengths = np.asarray(wavelengths_nm, dtype=float)
    if wavelengths.ndim != 1 or wavelengths.size == 0:
        raise ValueError("wavelengths_nm must be a non-empty 1-D array")
    delta = wavelengths[:, None] / (2.0 * quality_factor)
    separation = wavelengths[:, None] - wavelengths[None, :]
    matrix = delta**2 / (separation**2 + delta**2)
    np.fill_diagonal(matrix, 0.0)
    return matrix


@memoize(maxsize=64)
def bank_crosstalk_matrix(
    n_channels: int,
    channel_spacing_nm: float,
    quality_factor: float,
    start_nm: float = 1550.0,
) -> np.ndarray:
    """Memoized phi-matrix of an equally spaced MR bank (paper Eq. 8).

    The inter-channel noise channel of the inference noise stack
    (:mod:`repro.sim.noise`) mixes every bank of a weight tensor through the
    same phi-matrix, and Monte-Carlo sweeps re-apply it thousands of times,
    so the matrix is cached per ``(n_channels, spacing, Q, start)`` and
    returned read-only (copy before mutating).
    """
    matrix = crosstalk_matrix(
        channel_wavelengths_nm(n_channels, channel_spacing_nm, start_nm),
        quality_factor,
    )
    matrix.setflags(write=False)
    return matrix


def noise_power(
    wavelengths_nm,
    quality_factor: float,
    input_powers=None,
) -> np.ndarray:
    """Per-channel crosstalk noise power (paper Eq. 9).

    Parameters
    ----------
    wavelengths_nm:
        Channel wavelengths of the bank.
    quality_factor:
        Loaded Q of the rings.
    input_powers:
        Optical power carried by each channel; defaults to unit power on
        every channel (the paper's convention for the resolution analysis).

    Returns
    -------
    numpy.ndarray
        Noise power accumulated in each channel from all other channels.
    """
    wavelengths = np.asarray(wavelengths_nm, dtype=float)
    matrix = crosstalk_matrix(wavelengths, quality_factor)
    if input_powers is None:
        powers = np.ones_like(wavelengths)
    else:
        powers = np.asarray(input_powers, dtype=float)
        if powers.shape != wavelengths.shape:
            raise ValueError("input_powers must match wavelengths_nm in shape")
        if np.any(powers < 0):
            raise ValueError("input powers must be non-negative")
    return matrix @ powers


def worst_case_noise(wavelengths_nm, quality_factor: float) -> float:
    """Maximum per-channel noise power across the bank (unit input power)."""
    return float(np.max(noise_power(wavelengths_nm, quality_factor)))
