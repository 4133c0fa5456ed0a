"""Microdisk resonator model (used by the HolyLight baseline).

HolyLight [12] replaces microrings with microdisks for lower area and drive
power, but microdisks operate in a whispering-gallery mode that suffers from
tunneling-ray attenuation, making each device inherently lossier (the paper
budgets 1.22 dB per microdisk [31] versus 0.02 dB through-loss for an MR) and
limiting the per-device resolution to about 2 bits, so HolyLight gangs 8
microdisks to reach a 16-bit weight.

This model captures exactly those architectural consequences -- loss, area,
per-device resolution, and devices-per-weight -- which is all the Fig. 7/8 and
Table III comparisons need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.constants import DEFAULT_LOSSES
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


@dataclass(frozen=True)
class Microdisk:
    """A whispering-gallery-mode microdisk resonator.

    Parameters
    ----------
    radius_um:
        Disk radius; microdisks are typically smaller than microrings
        (a few micrometres), which is where HolyLight's area advantage
        comes from.
    insertion_loss_db:
        Per-device loss including the tunneling-ray attenuation penalty.
    bits_per_device:
        Weight resolution a single microdisk can represent (2 bits per the
        paper's analysis of HolyLight).
    """

    radius_um: float = 2.5
    insertion_loss_db: float = DEFAULT_LOSSES.microdisk_db
    bits_per_device: int = 2
    quality_factor: float = 5000.0
    resonance_nm: float = 1550.0

    def __post_init__(self) -> None:
        check_positive("radius_um", self.radius_um)
        check_non_negative("insertion_loss_db", self.insertion_loss_db)
        check_positive_int("bits_per_device", self.bits_per_device)
        check_positive("quality_factor", self.quality_factor)

    @property
    def footprint_um2(self) -> float:
        """Layout footprint of the disk (bounding square)."""
        diameter = 2.0 * self.radius_um
        return diameter * diameter

    @property
    def fwhm_nm(self) -> float:
        """3-dB bandwidth of the disk resonance."""
        return self.resonance_nm / self.quality_factor

    def devices_for_resolution(self, target_bits: int) -> int:
        """Number of ganged microdisks needed to reach ``target_bits``.

        HolyLight reaches 16-bit weights by combining 8 microdisks of 2 bits
        each; generally ``ceil(target_bits / bits_per_device)`` devices.
        """
        check_positive_int("target_bits", target_bits)
        return math.ceil(target_bits / self.bits_per_device)

    def ganged_loss_db(self, target_bits: int) -> float:
        """Total insertion loss of the gang of disks implementing one weight."""
        return self.devices_for_resolution(target_bits) * self.insertion_loss_db
