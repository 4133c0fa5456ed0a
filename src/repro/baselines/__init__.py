"""Baseline accelerators CrossLight is compared against.

* :mod:`repro.baselines.deap_cnn` -- the DEAP-CNN photonic accelerator [11].
* :mod:`repro.baselines.holylight` -- the HolyLight microdisk accelerator [12].
* :mod:`repro.baselines.electronic` -- published reference data for the CPU,
  GPU, and electronic-accelerator platforms.
"""

from repro.baselines.deap_cnn import DeapCnnAccelerator
from repro.baselines.electronic import (
    ELECTRONIC_PLATFORMS,
    PAPER_PHOTONIC_REFERENCE,
    ElectronicPlatform,
)
from repro.baselines.holylight import HolyLightAccelerator

__all__ = [
    "DeapCnnAccelerator",
    "ELECTRONIC_PLATFORMS",
    "ElectronicPlatform",
    "HolyLightAccelerator",
    "PAPER_PHOTONIC_REFERENCE",
]
