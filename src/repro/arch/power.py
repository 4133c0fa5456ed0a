"""Power breakdown model for photonic DNN accelerators.

Total accelerator power in this reproduction is the sum of six components,
mirroring the contributions the paper discusses:

* **laser** -- electrical wall-plug power of the laser bank, derived from the
  per-unit optical link budget (Eq. 7);
* **tuning (static)** -- thermo-optic power holding the boot-time FPV and
  thermal-crosstalk compensation; this is where the optimized MR design
  (smaller drift) and the TED collective tuning (crosstalk-aware solve,
  5 um pitch) pay off;
* **tuning (dynamic)** -- electro-optic (or thermo-optic, for prior-work
  accelerators) power spent imprinting weight/activation values;
* **receivers** -- photodetectors, TIAs, and VCSELs;
* **converters** -- DAC arrays programming the MRs and ADC arrays digitising
  the detector outputs;
* **control** -- electronic control, buffering and global-memory interface
  overhead, modelled as a fixed fraction of the electronic component power.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power of one accelerator configuration (watts)."""

    laser_w: float
    tuning_static_w: float
    tuning_dynamic_w: float
    receivers_w: float
    converters_w: float
    control_w: float

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def total_w(self) -> float:
        """Total accelerator power in watts."""
        return (
            self.laser_w
            + self.tuning_static_w
            + self.tuning_dynamic_w
            + self.receivers_w
            + self.converters_w
            + self.control_w
        )

    def as_dict(self) -> dict[str, float]:
        """Component powers as a plain dictionary (for reports and tests)."""
        return {
            "laser_w": self.laser_w,
            "tuning_static_w": self.tuning_static_w,
            "tuning_dynamic_w": self.tuning_dynamic_w,
            "receivers_w": self.receivers_w,
            "converters_w": self.converters_w,
            "control_w": self.control_w,
        }

    def scaled(self, factor: float) -> "PowerBreakdown":
        """Return a copy with every component scaled by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return PowerBreakdown(
            laser_w=self.laser_w * factor,
            tuning_static_w=self.tuning_static_w * factor,
            tuning_dynamic_w=self.tuning_dynamic_w * factor,
            receivers_w=self.receivers_w * factor,
            converters_w=self.converters_w * factor,
            control_w=self.control_w * factor,
        )

    def __add__(self, other: "PowerBreakdown") -> "PowerBreakdown":
        return PowerBreakdown(
            laser_w=self.laser_w + other.laser_w,
            tuning_static_w=self.tuning_static_w + other.tuning_static_w,
            tuning_dynamic_w=self.tuning_dynamic_w + other.tuning_dynamic_w,
            receivers_w=self.receivers_w + other.receivers_w,
            converters_w=self.converters_w + other.converters_w,
            control_w=self.control_w + other.control_w,
        )
