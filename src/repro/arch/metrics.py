"""Performance/energy metrics and report containers.

The paper's evaluation reports three headline metrics per accelerator:

* **FPS** -- frames (inferences) per second;
* **EPB** -- energy per bit, in pJ/bit, where the bits of an inference are
  the multiply-accumulate operations times the accelerator's native
  weight/activation resolution;
* **performance-per-watt** -- kiloFPS per watt.

:class:`InferenceReport` captures those metrics for one (accelerator, model)
pair; :class:`AggregateReport` averages them across the four Table-I models
the way Table III does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.power import PowerBreakdown


@dataclass(frozen=True)
class InferenceReport:
    """Metrics of one model inference on one accelerator."""

    accelerator: str
    model: str
    latency_s: float
    power: PowerBreakdown
    macs: int
    resolution_bits: int

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise ValueError("latency must be positive")
        if self.macs <= 0:
            raise ValueError("macs must be positive")
        if self.resolution_bits <= 0:
            raise ValueError("resolution_bits must be positive")

    @property
    def power_w(self) -> float:
        """Total accelerator power during the inference."""
        return self.power.total_w

    @property
    def energy_j(self) -> float:
        """Energy of one inference."""
        return self.power_w * self.latency_s

    @property
    def fps(self) -> float:
        """Inferences per second."""
        return 1.0 / self.latency_s

    @property
    def bits_processed(self) -> int:
        """Bits processed per inference (MACs x native resolution)."""
        return self.macs * self.resolution_bits

    @property
    def epb_pj_per_bit(self) -> float:
        """Energy per bit in picojoules."""
        return self.energy_j / self.bits_processed * 1e12

    @property
    def kfps_per_watt(self) -> float:
        """Performance per watt in kiloFPS/W."""
        return self.fps / self.power_w / 1e3


@dataclass(frozen=True)
class AggregateReport:
    """Table III-style averages of per-model reports for one accelerator."""

    accelerator: str
    reports: tuple[InferenceReport, ...]

    def __post_init__(self) -> None:
        if not self.reports:
            raise ValueError("at least one report is required")
        if any(r.accelerator != self.accelerator for r in self.reports):
            raise ValueError("all reports must belong to the same accelerator")

    @property
    def avg_epb_pj_per_bit(self) -> float:
        """Average energy-per-bit across the models."""
        return float(np.mean([r.epb_pj_per_bit for r in self.reports]))

    @property
    def avg_kfps_per_watt(self) -> float:
        """Average performance-per-watt across the models."""
        return float(np.mean([r.kfps_per_watt for r in self.reports]))

    @property
    def avg_fps(self) -> float:
        """Average FPS across the models."""
        return float(np.mean([r.fps for r in self.reports]))

    @property
    def power_w(self) -> float:
        """Accelerator power (identical across model reports)."""
        return self.reports[0].power_w


def aggregate(reports: Sequence[InferenceReport]) -> AggregateReport:
    """Aggregate per-model reports belonging to one accelerator."""
    if not reports:
        raise ValueError("no reports to aggregate")
    return AggregateReport(accelerator=reports[0].accelerator, reports=tuple(reports))
