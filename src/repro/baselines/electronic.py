"""Reference data for the electronic platforms used in the comparison.

The CrossLight paper compares its photonic variants against six electronic
platforms (Fig. 7 and Table III): an Nvidia Tesla P100 GPU, Intel Xeon
Platinum 9282 and AMD Threadripper 3970x CPUs, and the DaDianNao, EdgeTPU
and NullHop deep-learning accelerators, citing the survey in [36] for their
numbers.  Those platforms are not re-simulated -- the paper itself treats
them as published reference points -- so this module carries the reference
values needed to regenerate Fig. 7 and Table III:

* average energy-per-bit (pJ/bit) and performance-per-watt (kFPS/W) exactly
  as listed in Table III;
* nominal board/TDP power used for the Fig. 7 power comparison.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ElectronicPlatform:
    """Published reference characteristics of one electronic platform."""

    name: str
    kind: str
    avg_epb_pj_per_bit: float
    avg_kfps_per_watt: float
    power_w: float

    def __post_init__(self) -> None:
        if self.avg_epb_pj_per_bit <= 0 or self.avg_kfps_per_watt <= 0 or self.power_w <= 0:
            raise ValueError("platform reference values must be positive")


#: Electronic platforms of Table III, with the paper's EPB / kFPS/W values and
#: nominal power figures (board TDP for CPU/GPU, typical module power for the
#: accelerators) used in the Fig. 7 comparison.
ELECTRONIC_PLATFORMS: tuple[ElectronicPlatform, ...] = (
    ElectronicPlatform("P100", "GPU", 971.31, 24.9, 250.0),
    ElectronicPlatform("IXP 9282", "CPU", 5099.68, 2.39, 400.0),
    ElectronicPlatform("AMD-TR", "CPU", 5831.18, 2.09, 280.0),
    ElectronicPlatform("DaDianNao", "ASIC", 58.33, 0.65, 15.97),
    ElectronicPlatform("Edge TPU", "edge ASIC", 697.37, 17.53, 2.0),
    ElectronicPlatform("Null Hop", "edge ASIC", 2727.43, 4.48, 3.5),
)


#: Paper-reported Table III values for the photonic accelerators, kept as
#: reference targets for the reproduction experiments.
PAPER_PHOTONIC_REFERENCE: dict[str, dict[str, float]] = {
    "DEAP_CNN": {"avg_epb_pj_per_bit": 44453.88, "avg_kfps_per_watt": 0.07},
    "Holylight": {"avg_epb_pj_per_bit": 274.13, "avg_kfps_per_watt": 3.3},
    "Cross_base": {"avg_epb_pj_per_bit": 142.35, "avg_kfps_per_watt": 10.78},
    "Cross_base_TED": {"avg_epb_pj_per_bit": 92.64, "avg_kfps_per_watt": 16.54},
    "Cross_opt": {"avg_epb_pj_per_bit": 75.58, "avg_kfps_per_watt": 20.25},
    "Cross_opt_TED": {"avg_epb_pj_per_bit": 28.78, "avg_kfps_per_watt": 52.59},
}
