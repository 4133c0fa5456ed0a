"""Accelerator models: the generic photonic accelerator and CrossLight itself.

:class:`PhotonicAccelerator` is the abstract performance/power model shared
by CrossLight and the prior-work baselines (DEAP-CNN, HolyLight): a design
exposes its CONV/FC vector-dot-product capacity, its per-operation cycle
time, its power breakdown and its area, and inherits a common workload
simulation that turns a DNN's layer workloads into latency, energy, FPS, and
energy-per-bit numbers.

:class:`CrossLightAccelerator` implements the paper's architecture: ``n``
CONV VDP units of size ``N`` and ``m`` FC VDP units of size ``K``, built from
the optimized (or conventional) MR devices, the hybrid TED (or naive TO)
tuning circuit, and the wavelength-reuse VDP organisation of Section IV.C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import CrossLightConfig
from repro.arch.decomposition import plan_layer
from repro.arch.metrics import InferenceReport
from repro.arch.power import PowerBreakdown
from repro.arch.vdp import VDPUnit
from repro.devices.constants import EO_TUNING
from repro.nn.layers import LayerWorkload
from repro.tuning.ted import ThermalEigenmodeDecomposition
from repro.variations.thermal import ThermalCrosstalkModel


class PhotonicAccelerator:
    """Base class for analytic photonic accelerator models.

    Sub-classes must provide the architectural parameters listed under
    *Required attributes*; the base class supplies the workload-to-metrics
    simulation used by every experiment driver.

    Required attributes
    -------------------
    name:
        Accelerator name used in reports.
    resolution_bits:
        Native weight/activation resolution.
    conv_vector_size / n_conv_units:
        Dot-product size and count of the CONV-layer units.
    fc_vector_size / n_fc_units:
        Dot-product size and count of the FC-layer units (may equal the CONV
        ones for accelerators that do not specialise, such as DEAP-CNN).
    """

    name: str = "photonic-accelerator"
    resolution_bits: int = 16
    conv_vector_size: int = 1
    n_conv_units: int = 1
    fc_vector_size: int = 1
    n_fc_units: int = 1

    # ------------------------------------------------------------------ #
    # Interface to be provided by subclasses
    # ------------------------------------------------------------------ #
    def power_breakdown(self) -> PowerBreakdown:
        """Component-wise power of the accelerator."""
        raise NotImplementedError

    def area_mm2(self) -> float:
        """Layout area of the accelerator in mm^2."""
        raise NotImplementedError

    def cycle_time_s(self) -> float:
        """Latency of one vector-dot-product operation cycle."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared simulation machinery
    # ------------------------------------------------------------------ #
    @property
    def total_power_w(self) -> float:
        """Total accelerator power in watts."""
        return self.power_breakdown().total_w

    @property
    def macs_per_cycle(self) -> int:
        """Peak multiply-accumulates per cycle across both unit arrays."""
        return (
            self.conv_vector_size * self.n_conv_units
            + self.fc_vector_size * self.n_fc_units
        )

    def cycles_for_workloads(self, workloads: list[LayerWorkload]) -> int:
        """Sequential operation cycles needed to execute the given layers.

        CONV-layer dot products are decomposed onto the CONV unit array and
        FC-layer dot products onto the FC array; layers execute sequentially
        (layer l+1 consumes layer l's activations), so per-layer cycle counts
        add up.  Layers of other kinds (pooling, batch-norm, activations) are
        executed electronically and contribute no photonic cycles.
        """
        total_cycles = 0
        for workload in workloads:
            if workload.kind == "conv":
                plan = plan_layer(
                    workload.dot_product_length,
                    workload.n_dot_products,
                    self.conv_vector_size,
                )
                total_cycles += plan.cycles_on_units(self.n_conv_units)
            elif workload.kind == "fc":
                plan = plan_layer(
                    workload.dot_product_length,
                    workload.n_dot_products,
                    self.fc_vector_size,
                )
                total_cycles += plan.cycles_on_units(self.n_fc_units)
        return total_cycles

    def weight_update_time_s(self) -> float:
        """Weight-programming share of one operation cycle.

        The remainder of :meth:`cycle_time_s` is the streaming share
        (activation imprint, optical propagation, detection, conversion),
        which repeats for every frame of a batch while the programmed
        weights are held.  Sub-classes whose cycle time includes a tuning
        latency override this; the conservative default of ``0.0`` grants
        no batching amortization.
        """
        return 0.0

    def streaming_cycle_time_s(self) -> float:
        """Per-frame share of one operation cycle (cycle minus weight update)."""
        streaming = self.cycle_time_s() - self.weight_update_time_s()
        if streaming <= 0:
            raise ValueError(
                "weight_update_time_s must be smaller than cycle_time_s "
                f"(got update {self.weight_update_time_s()} s of "
                f"{self.cycle_time_s()} s)"
            )
        return streaming

    def latency_for_workloads(self, workloads: list[LayerWorkload]) -> float:
        """Inference latency in seconds for the given layer workloads."""
        cycles = self.cycles_for_workloads(workloads)
        if cycles == 0:
            raise ValueError("workloads contain no CONV or FC layers to accelerate")
        return cycles * self.cycle_time_s()

    def batch_latency_s(self, workloads: list[LayerWorkload], batch_size: int) -> float:
        """Latency of one fused micro-batch of ``batch_size`` inferences.

        Within a batch the accelerator is weight-stationary: every distinct
        weight chunk is programmed once (one frame's worth of cycles pays
        the :meth:`weight_update_time_s` share) and the programmed bank then
        streams all ``batch_size`` activation sets, whose cycles pack across
        frames (:meth:`repro.nn.layers.LayerWorkload.scaled` workloads fill
        the unit arrays with less rounding waste than ``batch_size``
        independent frames).  ``batch_size=1`` reduces exactly to
        :meth:`latency_for_workloads`.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        weight_cycles = self.cycles_for_workloads(workloads)
        if weight_cycles == 0:
            raise ValueError("workloads contain no CONV or FC layers to accelerate")
        if batch_size == 1:
            return weight_cycles * self.cycle_time_s()
        streaming_cycles = self.cycles_for_workloads(
            [workload.scaled(batch_size) for workload in workloads]
        )
        return (
            weight_cycles * self.weight_update_time_s()
            + streaming_cycles * self.streaming_cycle_time_s()
        )

    def simulate_workloads(
        self, workloads: list[LayerWorkload], model_name: str
    ) -> InferenceReport:
        """Full inference report (latency, energy, FPS, EPB) for one model."""
        latency = self.latency_for_workloads(workloads)
        macs = int(sum(w.macs for w in workloads if w.kind in ("conv", "fc")))
        return InferenceReport(
            accelerator=self.name,
            model=model_name,
            latency_s=latency,
            power=self.power_breakdown(),
            macs=macs,
            resolution_bits=self.resolution_bits,
        )


@dataclass
class CrossLightAccelerator(PhotonicAccelerator):
    """The CrossLight accelerator built from a :class:`CrossLightConfig`.

    Parameters
    ----------
    config:
        Architecture geometry and device/tuning variant.
    dac_share:
        Fraction of MR-programming DAC channels that must be powered
        concurrently; weight banks are reused across many positions of a CONV
        layer (weight-stationary scheduling), so not every MR needs a
        dedicated always-on DAC channel.
    control_overhead:
        Electronic control/buffering power as a fraction of the converter +
        receiver power.
    """

    config: CrossLightConfig = field(default_factory=CrossLightConfig.cross_opt_ted)
    dac_share: float = 0.5
    control_overhead: float = 0.1

    def __post_init__(self) -> None:
        self.name = self.config.name
        self.resolution_bits = self.config.resolution_bits
        self.conv_vector_size = self.config.conv_vector_size
        self.n_conv_units = self.config.n_conv_units
        self.fc_vector_size = self.config.fc_vector_size
        self.n_fc_units = self.config.n_fc_units
        self._conv_unit = VDPUnit(
            vector_size=self.config.conv_vector_size,
            mrs_per_bank=self.config.mrs_per_bank,
            mr_pitch_um=self.config.mr_pitch_um,
            losses=self.config.losses,
        )
        self._fc_unit = VDPUnit(
            vector_size=self.config.fc_vector_size,
            mrs_per_bank=self.config.mrs_per_bank,
            mr_pitch_um=self.config.mr_pitch_um,
            losses=self.config.losses,
        )
        self._ted_solver = ThermalEigenmodeDecomposition(
            crosstalk=ThermalCrosstalkModel()
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def total_mrs(self) -> int:
        """Total microring count across both unit arrays."""
        return (
            self.n_conv_units * self._conv_unit.inventory.total_mrs
            + self.n_fc_units * self._fc_unit.inventory.total_mrs
        )

    @property
    def total_banks(self) -> int:
        """Total MR banks (two per arm: activation imprint + weighting)."""
        conv_banks = self.n_conv_units * 2 * self._conv_unit.n_arms
        fc_banks = self.n_fc_units * 2 * self._fc_unit.n_arms
        return conv_banks + fc_banks

    # ------------------------------------------------------------------ #
    # Tuning power
    # ------------------------------------------------------------------ #
    def fpv_compensation_power_per_bank_w(self) -> float:
        """Static TO power compensating the FPV drift of one MR bank.

        The boot-time drift of the configured MR design is converted into a
        per-ring phase correction (one FSR of drift corresponds to a full
        2*pi round-trip phase) and solved either collectively (TED) or
        naively, at the configured ring pitch.
        """
        drift_nm = self.config.fpv_drift_nm
        phase_per_ring = 2.0 * np.pi * drift_nm / self.config.mr_design.fsr_nm
        n_rings = self._conv_unit.wavelengths_per_arm
        return self._ted_solver.uniform_bank_power_w(
            n_rings=n_rings,
            pitch_um=self.config.mr_pitch_um,
            phase_per_ring_rad=phase_per_ring,
            use_ted=self.config.use_ted,
        )

    def weight_imprint_power_per_mr_w(self, mean_detuning_nm: float = 0.5) -> float:
        """Dynamic (per-MR) power of the EO weight/activation imprinting."""
        return EO_TUNING.power_for_shift_w(mean_detuning_nm, fsr_nm=1.0)

    # ------------------------------------------------------------------ #
    # PhotonicAccelerator interface
    # ------------------------------------------------------------------ #
    def power_breakdown(self) -> PowerBreakdown:
        laser = (
            self.n_conv_units * self._conv_unit.laser_power_w()
            + self.n_fc_units * self._fc_unit.laser_power_w()
        )
        tuning_static = self.total_banks * self.fpv_compensation_power_per_bank_w()
        tuning_dynamic = self.total_mrs * self.weight_imprint_power_per_mr_w()
        receivers = (
            self.n_conv_units * self._conv_unit.receiver_power_w()
            + self.n_fc_units * self._fc_unit.receiver_power_w()
        )
        converters = (
            self.n_conv_units * self._conv_unit.converter_power_w(self.dac_share)
            + self.n_fc_units * self._fc_unit.converter_power_w(self.dac_share)
        )
        control = self.control_overhead * (receivers + converters)
        return PowerBreakdown(
            laser_w=laser,
            tuning_static_w=tuning_static,
            tuning_dynamic_w=tuning_dynamic,
            receivers_w=receivers,
            converters_w=converters,
            control_w=control,
        )

    def area_mm2(self) -> float:
        return (
            self.n_conv_units * self._conv_unit.area_mm2()
            + self.n_fc_units * self._fc_unit.area_mm2()
        )

    def cycle_time_s(self) -> float:
        return self._conv_unit.operation_latency_s(self.config.weight_update_latency_s)

    def weight_update_time_s(self) -> float:
        """EO weight programming share of the cycle (amortized when batching)."""
        return self.config.weight_update_latency_s

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_variant(cls, variant: str, **overrides) -> "CrossLightAccelerator":
        """Build one of the four paper variants by name.

        Accepted names (case-insensitive): ``Cross_base``, ``Cross_opt``,
        ``Cross_base_TED``, ``Cross_opt_TED``.
        """
        constructors = {
            "cross_base": CrossLightConfig.cross_base,
            "cross_opt": CrossLightConfig.cross_opt,
            "cross_base_ted": CrossLightConfig.cross_base_ted,
            "cross_opt_ted": CrossLightConfig.cross_opt_ted,
        }
        key = variant.lower()
        if key not in constructors:
            raise ValueError(
                f"unknown variant {variant!r}; expected one of {sorted(constructors)}"
            )
        return cls(config=constructors[key](**overrides))

    @classmethod
    def all_variants(cls) -> tuple["CrossLightAccelerator", ...]:
        """All four paper variants, in the order used by Fig. 7 / Table III."""
        return tuple(cls(config=config) for config in CrossLightConfig.all_variants())
