"""Laser source model and the CrossLight laser power equation (paper Eq. 7).

The laser power needed to drive a photonic dot-product arm is set by the
requirement that, after every loss element along the optical path, the signal
arriving at the photodetector still exceeds the detector sensitivity.  With
``N_lambda`` wavelengths sharing the laser/waveguide, the paper's model is

    P_laser(dBm) - S_detector(dBm) >= P_photo_loss(dB) + 10 * log10(N_lambda)

This module provides :func:`required_laser_power_dbm` implementing that
inequality at equality (minimum laser power), plus a :class:`LaserSource`
wrapper that converts the optical requirement into electrical (wall-plug)
power for the architecture power model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.constants import (
    LASER_WALL_PLUG_EFFICIENCY,
    PD_SENSITIVITY_DBM,
)
from repro.utils.units import dbm_to_watt
from repro.utils.validation import check_in_range, check_non_negative, check_positive_int


def required_laser_power_dbm(
    photonic_loss_db: float,
    n_wavelengths: int,
    detector_sensitivity_dbm: float = PD_SENSITIVITY_DBM,
) -> float:
    """Minimum laser power in dBm satisfying the link budget of Eq. 7.

    Parameters
    ----------
    photonic_loss_db:
        Total optical loss accumulated along the path from laser to
        photodetector (propagation, splitters, combiners, MR through and
        modulation losses, tuning losses), in dB.
    n_wavelengths:
        Number of WDM wavelengths sharing the path (``N_lambda``); the
        ``10 log10(N_lambda)`` term accounts for the per-wavelength power
        division at the detector.
    detector_sensitivity_dbm:
        Photodetector sensitivity in dBm.

    Returns
    -------
    float
        Laser output power in dBm needed for error-free detection.
    """
    check_non_negative("photonic_loss_db", photonic_loss_db)
    check_positive_int("n_wavelengths", n_wavelengths)
    wdm_penalty_db = 10.0 * math.log10(n_wavelengths)
    return detector_sensitivity_dbm + photonic_loss_db + wdm_penalty_db


@dataclass(frozen=True)
class LaserSource:
    """A laser bank driving one or more WDM wavelengths.

    Parameters
    ----------
    n_wavelengths:
        Number of distinct wavelengths emitted by the bank.  With CrossLight's
        wavelength-reuse strategy this equals the per-arm vector chunk size,
        not the full vector length.
    wall_plug_efficiency:
        Ratio of emitted optical power to consumed electrical power.
    detector_sensitivity_dbm:
        Sensitivity of the photodetectors terminating the links driven by
        this laser.
    """

    n_wavelengths: int
    wall_plug_efficiency: float = LASER_WALL_PLUG_EFFICIENCY
    detector_sensitivity_dbm: float = PD_SENSITIVITY_DBM

    def __post_init__(self) -> None:
        check_positive_int("n_wavelengths", self.n_wavelengths)
        check_in_range("wall_plug_efficiency", self.wall_plug_efficiency, 1e-6, 1.0)

    def optical_power_dbm(self, photonic_loss_db: float) -> float:
        """Optical output power (dBm) required for a given path loss."""
        return required_laser_power_dbm(
            photonic_loss_db, self.n_wavelengths, self.detector_sensitivity_dbm
        )

    def optical_power_watt(self, photonic_loss_db: float) -> float:
        """Optical output power (W) required for a given path loss."""
        return dbm_to_watt(self.optical_power_dbm(photonic_loss_db))

    def electrical_power_watt(self, photonic_loss_db: float) -> float:
        """Electrical (wall-plug) power drawn to supply the optical power."""
        return self.optical_power_watt(photonic_loss_db) / self.wall_plug_efficiency
