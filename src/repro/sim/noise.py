"""Composable noise channels for photonic inference.

The paper's core claim is that cross-layer co-design suppresses a *stack* of
non-idealities -- finite resolution, FPV resonance drift, thermal and
inter-channel crosstalk -- yet a closed inference engine can only ever model
the subset hard-wired into its constructor.  This module turns every
non-ideality into a pluggable **noise channel**: a small object that perturbs
a weight tensor the way the corresponding physical effect perturbs the
transmissions an MR bank imprints.

* :class:`NoiseChannel` -- the protocol: ``apply(weights, rng) -> ndarray``
  plus a ``describe()`` string for reports;
* :class:`QuantizationChannel` -- finite DAC/crosstalk-limited resolution;
* :class:`ResidualDriftChannel` -- uniform uncompensated resonance drift via
  the vectorized Lorentzian of
  :meth:`repro.devices.mr.MicroringResonator.transmission_error_from_drift`;
* :class:`FPVDriftChannel` -- Monte-Carlo fabrication-process-variation
  drift sampled per ring (bank-correlated) from a
  :class:`repro.variations.fpv.ProcessVariationModel`;
* :class:`InterChannelCrosstalkChannel` -- spectral (Eq. 8-10) crosstalk
  mixing weights within an MR bank through the Lorentzian phi-matrix of
  :mod:`repro.crosstalk.interchannel`;
* :class:`ThermalCrosstalkChannel` -- heater-induced phase leakage between
  neighbouring rings, reusing the memoized crosstalk matrices of
  :mod:`repro.variations.thermal`;
* :class:`NoiseStack` -- an ordered composition of channels that is itself a
  channel, consumed by
  :class:`repro.sim.photonic_inference.EnsembleInferenceEngine`.

All channels are array-first (one vectorized evaluation per weight tensor),
stateless between calls (randomness comes from the generator passed to
``apply``, so a seeded engine is reproducible), and picklable (plain frozen
dataclasses), which lets Monte-Carlo sweeps fan them out across a process
pool via :func:`repro.sim.sweep.run_sweep`.

One primitive per channel
-------------------------
Every built-in channel implements its physics exactly once, in
``apply_stacked(stacked, rngs)``.  The leading axis of ``stacked`` is
either ``len(rngs)`` -- one weight tensor per ensemble member, member ``e``
perturbed with ``rngs[e]`` -- or 1, one tensor shared by every member.
Deterministic channels (quantization, both crosstalk mixers) keep the
leading axis they are given, so a shared tensor is evaluated once for the
whole ensemble.  Stochastic channels (residual and FPV drift) compute the
member-independent physics -- normalised magnitudes, Lorentzian profiles --
once per row, draw from each member's generator in turn, and return
``len(rngs)`` rows.  :class:`NoiseStack` threads a stack through its
channels the same way, so its deterministic prefix runs once per tensor and
the ensemble forks at the first stochastic channel.

``apply(weights, rng)`` is derived from that primitive by
:class:`_EnsembleChannelMixin` as a one-member stack, and returns a fresh,
writable array.  :func:`ensemble_apply` is the one ensemble entry point:
``ensemble_apply(channel, weights[None], rngs)`` perturbs one shared tensor
for every member, and its row ``e`` (or its only row, when every channel is
deterministic) is elementwise identical to ``apply(weights, rngs[e])``.  A
third-party channel only needs ``apply``: :func:`ensemble_apply` broadcasts
a shared row to every member and loops ``apply`` over them, so it composes
inside a :class:`NoiseStack` and the ensemble inference engine unchanged.

Conventions
-----------
Channels receive the raw (signed) weight tensor.  Device-physics channels
normalise magnitudes by the tensor's dynamic range -- exactly what the DAC
does when programming an MR bank -- perturb the resulting transmissions in
[0, 1], and scale back.  Channels that model *banked* effects (crosstalk,
bank-correlated FPV) flatten the tensor and group consecutive elements into
banks of ``mrs_per_bank`` rings, matching how the decomposed vectors map
onto the accelerator's MR banks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.crosstalk.interchannel import bank_crosstalk_matrix
from repro.devices.constants import OPTIMIZED_MR, MRDesignParameters
from repro.devices.mr import MicroringResonator
from repro.nn.quantization import quantize_array_stack
from repro.utils.validation import check_non_negative, check_positive, check_positive_int
from repro.variations.fpv import (
    ProcessVariationModel,
    expected_fpv_drift_nm,
    sample_banked_drifts,
)
from repro.variations.thermal import ThermalCrosstalkModel

__all__ = [
    "FPVDriftChannel",
    "InterChannelCrosstalkChannel",
    "NoiseChannel",
    "NoiseStack",
    "QuantizationChannel",
    "ResidualDriftChannel",
    "ThermalCrosstalkChannel",
    "default_noise_stack",
    "ensemble_apply",
]


@runtime_checkable
class NoiseChannel(Protocol):
    """One weight-perturbing non-ideality of the photonic substrate.

    Implementations must not mutate the input tensor, must be no-ops at zero
    magnitude (so ablations can switch effects off without restructuring the
    stack), and must draw any randomness from the generator passed to
    :meth:`apply` (so a seeded engine replays identically).
    """

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the perturbed weight tensor (same shape as ``weights``)."""
        ...

    def describe(self) -> str:
        """One-line human-readable summary for reports and result records."""
        ...


def ensemble_apply(
    channel: NoiseChannel,
    stacked: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Apply ``channel`` to every member of a stacked ensemble.

    ``stacked`` has shape ``(E, *shape)`` with ``E == len(rngs)`` (member
    ``e``'s tensor is ``stacked[e]``, perturbed with ``rngs[e]``) or
    ``(1, *shape)`` (one tensor shared by every member).  Channels with an
    ``apply_stacked`` (all built-ins) receive the stack as is; any other
    object satisfying the :class:`NoiseChannel` protocol sees the shared row
    broadcast to every member and a per-member loop of
    :meth:`~NoiseChannel.apply`, so third-party channels compose with the
    ensemble inference path unchanged.

    Either way member ``e`` sees exactly the weights, arithmetic, and random
    draws it would see under ``channel.apply(weights_e, rngs[e])``.  The
    result may keep a shared row's single row (deterministic channels) and
    may share memory with ``stacked``.
    """
    if not rngs:
        raise ValueError("ensemble_apply requires at least one generator")
    vectorized = getattr(channel, "apply_stacked", None)
    if vectorized is not None:
        return vectorized(stacked, rngs)
    stacked = np.broadcast_to(stacked, (len(rngs), *np.shape(stacked)[1:]))
    return np.stack(
        [np.asarray(channel.apply(stacked[e], rngs[e]), dtype=float) for e in range(len(rngs))]
    )


class _EnsembleChannelMixin:
    """``apply`` derived from a channel's ``apply_stacked``.

    Sub-classes implement only ``apply_stacked(stacked, rngs)``: it maps an
    ``(R, *shape)`` stack with ``R == len(rngs)`` (per-member tensors) or
    ``R == 1`` (one tensor shared by every member) to the perturbed stack.
    A deterministic channel may keep ``R == 1``; a channel that draws from
    the generators returns ``len(rngs)`` rows, drawing nothing for an
    all-zero tensor.  ``apply_stacked`` may hand its input back by
    reference; ``apply`` always returns a fresh array, so callers may
    mutate the result.
    """

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb ``weights`` with ``rng``; returns a fresh array."""
        weights = np.asarray(weights, dtype=float)
        out = self.apply_stacked(weights[None], [rng])[0]
        if np.may_share_memory(out, weights):
            out = out.copy()
        return out


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def _stacked_magnitudes(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row dynamic ranges and normalised magnitudes of a stack.

    ``stacked`` is ``(R, *shape)``; returns ``(magnitudes, max_abs, zero)``
    where ``magnitudes`` is ``(R, n)`` (flattened per row), ``max_abs`` is
    the per-row dynamic range, and ``zero`` marks rows whose tensor is all
    zero (their magnitudes are passed through undivided, and callers must
    restore them verbatim).
    """
    n_rows = stacked.shape[0]
    flat = np.abs(stacked.reshape(n_rows, -1))
    max_abs = np.max(flat, axis=1)
    zero = max_abs == 0.0
    flat /= np.where(zero, 1.0, max_abs)[:, None]
    return flat, max_abs, zero


def _to_banks_stacked(flat: np.ndarray, bank_size: int) -> np.ndarray:
    """Pad ``(R, n)`` magnitudes and fold them into ``(R, n_banks, bank_size)``.

    Padding rings carry zero weight (parked, no optical power), so they do
    not contribute crosstalk and are discarded when unfolding.
    """
    n_rows, n = flat.shape
    n_banks = -(-n // bank_size)
    padded = np.zeros((n_rows, n_banks * bank_size))
    padded[:, :n] = flat
    return padded.reshape(n_rows, n_banks, bank_size)


def _recompose_stacked(
    stacked: np.ndarray, magnitudes: np.ndarray, max_abs: np.ndarray, zero: np.ndarray
) -> np.ndarray:
    """Rebuild signed tensors from perturbed ``(E, n)`` magnitudes.

    ``stacked`` has ``E`` rows or one shared row, whose signs and dynamic
    range broadcast over every member.  Zero weights keep their parked rings
    dark (sign 0), so leakage into unused channels is intentionally not
    re-imprinted as weight; all-zero rows are restored verbatim.
    """
    n_rows = stacked.shape[0]
    flat = stacked.reshape(n_rows, -1)
    safe = np.where(zero, 1.0, max_abs)
    out = np.sign(flat) * magnitudes
    out *= safe[:, None]
    out = out.reshape(magnitudes.shape[0], *stacked.shape[1:])
    if zero.any():
        out[zero] = stacked[zero]
    return out


def _drifted_magnitudes(
    mr: MicroringResonator, magnitudes: np.ndarray, nominal_nm: np.ndarray, drift_nm: np.ndarray
) -> np.ndarray:
    """Magnitudes moved by the transmission change a resonance drift causes.

    The change is the Lorentzian transmission at ``nominal_nm + drift_nm``
    minus the zero-drift one at ``nominal_nm`` (the caller's one
    ``mr.detuning_for_transmission(magnitudes)``), clipped to [0, 1] with the
    magnitudes; it is accumulated in one buffer, since a member chunk's
    stack of these arrays is the largest noise-channel intermediate of a
    Monte-Carlo run (the ensemble engine perturbs one chunk at a time).
    """
    perturbed = mr.transmission_at_detuning(nominal_nm + drift_nm)
    perturbed -= mr.transmission_at_detuning(nominal_nm)
    perturbed += magnitudes
    return np.clip(perturbed, 0.0, 1.0, out=perturbed)


def _member_draws(zero: np.ndarray, rngs: Sequence[np.random.Generator]):
    """``(index, rng)`` of every member whose row is not all zero."""
    member_zero = np.broadcast_to(zero, (len(rngs),))
    return [(index, rng) for index, rng in enumerate(rngs) if not member_zero[index]]


# ---------------------------------------------------------------------- #
# Concrete channels
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QuantizationChannel(_EnsembleChannelMixin):
    """Finite weight resolution of the crosstalk-limited MR banks.

    ``bits=None`` models an ideal (infinite-resolution) DAC and is an exact
    no-op, which is this channel's zero-magnitude configuration.
    """

    bits: int | None = 16

    def __post_init__(self) -> None:
        if self.bits is not None:
            check_positive_int("bits", self.bits)

    def apply_stacked(
        self, stacked: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Quantize every row to its own dynamic range at once."""
        stacked = np.asarray(stacked, dtype=float)
        if self.bits is None:
            return stacked
        return quantize_array_stack(stacked, self.bits)

    def describe(self) -> str:
        if self.bits is None:
            return "quantization(off)"
        return f"quantization({self.bits} bit)"


@dataclass(frozen=True)
class ResidualDriftChannel(_EnsembleChannelMixin):
    """Uniform uncompensated resonance drift (what survives the tuning loop).

    Every ring is assumed to sit ``residual_drift_nm`` away from its
    calibrated resonance; the per-weight error magnitude follows the ring's
    Lorentzian sensitivity at that drift, and the error sign is random per
    ring (a given ring drifts towards or away from its target).  This is the
    PR-1 engine's drift model, verbatim: a stack of
    ``[QuantizationChannel(bits), ResidualDriftChannel(drift)]`` reproduces
    the legacy engine elementwise.
    """

    residual_drift_nm: float = 0.0
    mr: MicroringResonator = field(default_factory=MicroringResonator.optimized)

    def __post_init__(self) -> None:
        check_non_negative("residual_drift_nm", self.residual_drift_nm)

    def apply_stacked(
        self, stacked: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """One Lorentzian evaluation per row; per-member error signs.

        The error *magnitudes* depend only on the normalised weights, so a
        shared row evaluates them once; the random sign field is the only
        per-member work, each member drawing from its own generator (all-zero
        rows draw nothing).
        """
        stacked = np.asarray(stacked, dtype=float)
        if self.residual_drift_nm <= 0.0 or stacked[0].size == 0:
            return stacked
        n_rows = stacked.shape[0]
        max_abs = np.max(np.abs(stacked.reshape(n_rows, -1)), axis=1)
        zero = max_abs == 0.0
        if zero.all():
            return stacked
        shaped = np.where(zero, 1.0, max_abs).reshape((n_rows,) + (1,) * (stacked.ndim - 1))
        normalised = np.abs(stacked) / shaped
        errors = np.asarray(
            self.mr.transmission_error_from_drift(normalised, self.residual_drift_nm)
        )
        signs = np.zeros((len(rngs), *stacked.shape[1:]))
        for index, rng in _member_draws(zero, rngs):
            signs[index] = rng.choice([-1.0, 1.0], size=stacked.shape[1:])
        out = stacked + signs * errors * shaped
        if zero.any():
            out[zero] = stacked[zero]
        return out

    def describe(self) -> str:
        return f"residual-drift({self.residual_drift_nm:g} nm)"


@dataclass(frozen=True)
class FPVDriftChannel(_EnsembleChannelMixin):
    """Monte-Carlo fabrication-process-variation resonance drift.

    Each ring draws a signed drift from the wafer statistics of a
    :class:`~repro.variations.fpv.ProcessVariationModel` (3-sigma magnitude
    calibrated to the paper's measured 7.1 / 2.1 nm figures for the
    conventional / optimized designs), with rings of one bank sharing a
    correlated systematic component.  The drift moves each weight along its
    ring's Lorentzian; the applied perturbation is the *change* in realised
    transmission, so a zero drift is an exact no-op.

    ``residual_fraction`` scales the sampled drifts: 1.0 models fully
    uncompensated FPV (no tuning), while a small fraction models what is
    left after the TED/hybrid tuning loop locks the bank.  Either
    ``residual_fraction=0`` or a zero-variance variation model makes the
    channel a no-op.
    """

    design: MRDesignParameters = field(default_factory=lambda: OPTIMIZED_MR)
    variation: ProcessVariationModel = field(default_factory=ProcessVariationModel)
    mrs_per_bank: int = 15
    bank_correlation: float = 0.8
    residual_fraction: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int("mrs_per_bank", self.mrs_per_bank)
        check_non_negative("residual_fraction", self.residual_fraction)
        if not 0.0 <= self.bank_correlation <= 1.0:
            raise ValueError("bank_correlation must be in [0, 1]")

    @property
    def sigma_nm(self) -> float:
        """Per-ring residual drift standard deviation this channel applies."""
        return self.residual_fraction * expected_fpv_drift_nm(self.design, self.variation) / 3.0

    def apply_stacked(
        self, stacked: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Sample every member's wafer draw, then one fused Lorentzian pass.

        The banked drift sampling loops over members (each generator
        produces exactly the draws a one-member call would consume), but
        mapping the ``E x n_rings`` drifts through the ring's
        realised-transmission Lorentzian happens in one vectorized call.  The
        normalised magnitudes and zero-drift transmissions depend only on
        the weights, so a shared row evaluates them once.
        """
        stacked = np.asarray(stacked, dtype=float)
        sigma = self.sigma_nm
        if sigma <= 0.0 or stacked[0].size == 0:
            return stacked
        magnitudes, max_abs, zero = _stacked_magnitudes(stacked)
        if zero.all():
            return stacked
        n_rings = magnitudes.shape[1]
        drifts = np.zeros((len(rngs), n_rings))
        for index, rng in _member_draws(zero, rngs):
            drifts[index] = sample_banked_drifts(
                rng,
                n_rings,
                sigma,
                bank_size=self.mrs_per_bank,
                bank_correlation=self.bank_correlation,
            )
        mr = MicroringResonator(design=self.design)
        nominal = mr.detuning_for_transmission(magnitudes)
        perturbed = _drifted_magnitudes(mr, magnitudes, nominal, drifts)
        return _recompose_stacked(stacked, perturbed, max_abs, zero)

    def describe(self) -> str:
        return (
            f"fpv-drift({self.design.name}, sigma={self.sigma_nm:.3g} nm, "
            f"{self.mrs_per_bank} MRs/bank)"
        )


@dataclass(frozen=True)
class InterChannelCrosstalkChannel(_EnsembleChannelMixin):
    """Spectral crosstalk between the WDM channels of an MR bank (Eq. 8-10).

    Consecutive weights share a bank of ``mrs_per_bank`` rings spread across
    one FSR; each channel's readout picks up the Lorentzian tails of every
    other channel in the bank, so the imprinted magnitudes mix through the
    phi-matrix of :func:`repro.crosstalk.interchannel.bank_crosstalk_matrix`.
    CrossLight calibrates the static interference offline;
    ``calibration_rejection_db`` models the residual uncompensated fraction
    (0 dB = no compensation, ``inf`` = perfect compensation and an exact
    no-op -- the zero-magnitude configuration).
    """

    mrs_per_bank: int = 15
    quality_factor: float = 8000.0
    fsr_nm: float = 18.0
    calibration_rejection_db: float = 32.0

    def __post_init__(self) -> None:
        check_positive_int("mrs_per_bank", self.mrs_per_bank)
        check_positive("quality_factor", self.quality_factor)
        check_positive("fsr_nm", self.fsr_nm)
        # inf is a valid value (perfect calibration, exact no-op), so the
        # finiteness-enforcing check_non_negative does not apply here.
        rejection_db = float(self.calibration_rejection_db)
        if np.isnan(rejection_db) or rejection_db < 0.0:
            raise ValueError(
                "calibration_rejection_db must be >= 0 (inf allowed), "
                f"got {self.calibration_rejection_db!r}"
            )

    @property
    def channel_spacing_nm(self) -> float:
        """Spectral spacing of the bank's channels across the FSR."""
        return self.fsr_nm / self.mrs_per_bank

    def apply_stacked(
        self, stacked: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Mix every row's banks through the phi-matrix in one matmul.

        Deterministic channel: the leading axis is kept, so a shared row is
        mixed once for every member.
        """
        stacked = np.asarray(stacked, dtype=float)
        rejection = 10.0 ** (-self.calibration_rejection_db / 10.0)
        if rejection == 0.0 or stacked[0].size == 0:
            return stacked
        magnitudes, max_abs, zero = _stacked_magnitudes(stacked)
        phi = bank_crosstalk_matrix(
            self.mrs_per_bank, self.channel_spacing_nm, self.quality_factor
        )
        banks = _to_banks_stacked(magnitudes, self.mrs_per_bank)
        # Eq. 9: channel i accumulates phi(i, j)-weighted power from every
        # other channel j of its bank (phi is symmetric, diagonal zeroed).
        noise = rejection * (banks @ phi)
        perturbed = np.clip(banks + noise, 0.0, 1.0)
        n_rows, n = magnitudes.shape
        unbanked = perturbed.reshape(n_rows, -1)[:, :n]
        return _recompose_stacked(stacked, unbanked, max_abs, zero)

    def describe(self) -> str:
        return (
            f"interchannel-crosstalk({self.mrs_per_bank} ch, "
            f"Q={self.quality_factor:g}, {self.calibration_rejection_db:g} dB rejection)"
        )


@dataclass(frozen=True)
class ThermalCrosstalkChannel(_EnsembleChannelMixin):
    """Heater phase leakage between neighbouring rings of a bank (Fig. 4).

    Imprinting a weight detunes its ring by a heater-driven resonance shift;
    a fraction of that shift leaks to every other ring of the bank with the
    exponential distance decay of
    :class:`repro.variations.thermal.ThermalCrosstalkModel` (whose memoized
    ``(n_rings, pitch)`` crosstalk matrices this channel reuses).  The
    leaked shift moves each victim ring's operating point along its
    Lorentzian exactly like a resonance drift.

    ``coupling_scale`` scales the leaked shifts: 1.0 models raw thermo-optic
    imprinting with no collective compensation, a small fraction models the
    residual error after TED-style collective tuning, and 0.0 is an exact
    no-op (the zero-magnitude configuration).
    """

    pitch_um: float = 5.0
    mrs_per_bank: int = 15
    model: ThermalCrosstalkModel = field(default_factory=ThermalCrosstalkModel)
    coupling_scale: float = 1.0
    mr: MicroringResonator = field(default_factory=MicroringResonator.optimized)

    def __post_init__(self) -> None:
        check_positive("pitch_um", self.pitch_um)
        check_positive_int("mrs_per_bank", self.mrs_per_bank)
        check_non_negative("coupling_scale", self.coupling_scale)

    def apply_stacked(
        self, stacked: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Leak every row's heater detunings in one stacked matmul.

        Deterministic channel: the leading axis is kept, so a shared row is
        evaluated once for every member.
        """
        stacked = np.asarray(stacked, dtype=float)
        if self.coupling_scale <= 0.0 or stacked[0].size == 0:
            return stacked
        magnitudes, max_abs, zero = _stacked_magnitudes(stacked)
        coupling = self.model.crosstalk_matrix(self.mrs_per_bank, self.pitch_um)
        off_diagonal = coupling - np.eye(self.mrs_per_bank)
        banks = _to_banks_stacked(magnitudes, self.mrs_per_bank)
        detunings = self.mr.detuning_for_transmission(banks)
        leaked_nm = self.coupling_scale * (detunings @ off_diagonal)
        perturbed = _drifted_magnitudes(self.mr, banks, detunings, leaked_nm)
        n_rows, n = magnitudes.shape
        unbanked = perturbed.reshape(n_rows, -1)[:, :n]
        return _recompose_stacked(stacked, unbanked, max_abs, zero)

    def describe(self) -> str:
        return (
            f"thermal-crosstalk(pitch={self.pitch_um:g} um, "
            f"{self.mrs_per_bank} MRs/bank, scale={self.coupling_scale:g})"
        )


# ---------------------------------------------------------------------- #
# Composition
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, init=False)
class NoiseStack(_EnsembleChannelMixin):
    """Ordered composition of noise channels; itself a :class:`NoiseChannel`.

    Channels are applied left to right, each seeing the previous channel's
    output -- the physical pipeline order (e.g. quantize the programmed
    value first, then perturb the imprinted transmission).  An empty stack
    is the ideal (noiseless) substrate.
    """

    channels: tuple[NoiseChannel, ...]

    def __init__(self, channels: tuple[NoiseChannel, ...] | list[NoiseChannel] = ()) -> None:
        channels = tuple(channels)
        for channel in channels:
            if not (callable(getattr(channel, "apply", None)) and callable(getattr(channel, "describe", None))):
                raise TypeError(
                    f"noise channels must provide apply() and describe(), got {channel!r}"
                )
        object.__setattr__(self, "channels", channels)

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    def apply_stacked(
        self, stacked: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Thread a stack through every channel in order.

        Member ``e`` sees exactly the channel sequence and random draws of a
        one-member run with ``rngs[e]``: each member owns its generator, so
        interleaving members *within* a channel cannot change any member's
        stream.  A shared row stays shared through the deterministic prefix
        of the stack and forks into ``len(rngs)`` rows at the first
        stochastic (or third-party, see :func:`ensemble_apply`) channel.
        """
        rngs = list(rngs)
        out = np.asarray(stacked, dtype=float)
        for channel in self.channels:
            out = ensemble_apply(channel, out, rngs)
        return out

    def describe(self) -> str:
        if not self.channels:
            return "ideal"
        return " -> ".join(channel.describe() for channel in self.channels)


def default_noise_stack(
    resolution_bits: int = 16,
    residual_drift_nm: float = 0.0,
    mr: MicroringResonator | None = None,
) -> NoiseStack:
    """The two-channel stack of the drift studies: quantize, then drift.

    :func:`repro.sim.photonic_inference.accuracy_vs_residual_drift` builds
    one per drift point; its output is elementwise identical to the
    original two-parameter ``(resolution_bits, residual_drift_nm)`` weight
    perturbation.
    """
    check_positive_int("resolution_bits", resolution_bits)
    check_non_negative("residual_drift_nm", residual_drift_nm)
    return NoiseStack(
        (
            QuantizationChannel(bits=resolution_bits),
            ResidualDriftChannel(
                residual_drift_nm=residual_drift_nm,
                mr=mr if mr is not None else MicroringResonator.optimized(),
            ),
        )
    )
