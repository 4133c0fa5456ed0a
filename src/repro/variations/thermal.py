"""Thermal crosstalk model for closely-spaced microring resonators.

Thermo-optic tuners use microheaters; heat spreads laterally through the
silicon/oxide stack and perturbs the phase of neighbouring rings.  The paper
characterises this (Fig. 4, orange line) as a *phase crosstalk ratio* that
decays exponentially with the distance between an MR pair -- a trend also
reported in [24] -- and uses it both to justify the conventional 120-200 um
spacing rule and to quantify the power saved by the TED collective-tuning
scheme that lets rings sit 5 um apart.

This module provides:

* :class:`ThermalCrosstalkModel` -- the exponential coupling-vs-distance law
  (the Fig. 4 orange curve is :meth:`ThermalCrosstalkModel.coupling`) and the
  crosstalk matrix of an equally-spaced MR bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.cache import memoize
from repro.utils.validation import check_positive, check_positive_int


@memoize(maxsize=256)
def _crosstalk_matrix_cached(
    model: "ThermalCrosstalkModel", n_rings: int, pitch_um: float
) -> np.ndarray:
    """Crosstalk matrix of an equally-spaced bank, shared across sweeps.

    Pitch and design-space sweeps evaluate many configurations over the same
    handful of ``(n_rings, pitch)`` pairs, so the matrix (and everything
    derived from it, such as the TED eigendecomposition) is memoized here.
    The coupling law stays in :meth:`ThermalCrosstalkModel.coupling` (the
    model instance is the cache key, so equal models share entries while
    subclasses with overridden laws do not).  The returned array is marked
    read-only because it is shared by reference.
    """
    indices = np.arange(n_rings, dtype=float)
    distances = np.abs(indices[:, None] - indices[None, :]) * pitch_um
    matrix = np.asarray(model.coupling(distances), dtype=float)
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class ThermalCrosstalkModel:
    """Exponential-decay model of heater-induced phase crosstalk.

    The phase perturbation a heater at distance ``d`` induces on a
    neighbouring ring, relative to the phase shift it induces on its own
    ring, is ``r(d) = exp(-d / decay_length_um)``.

    Parameters
    ----------
    decay_length_um:
        1/e decay length of the lateral thermal profile.  ~7 um matches both the paper's Fig. 4 trend and the decay
        length extracted from the finite-difference heat solver
        (:func:`repro.variations.heat_solver.fit_decay_length_um`), where crosstalk is strong below ~5 um and
        negligible beyond a few tens of micrometres.
    self_heating_phase_per_watt:
        Phase shift (radians) a ring experiences per watt of its own heater
        power -- sets the absolute scale of the tuning-power calculations.
    """

    decay_length_um: float = 7.0
    self_heating_phase_per_watt: float = 2.0 * np.pi / 27.5e-3

    def __post_init__(self) -> None:
        check_positive("decay_length_um", self.decay_length_um)
        check_positive("self_heating_phase_per_watt", self.self_heating_phase_per_watt)

    def coupling(self, distance_um) -> float | np.ndarray:
        """Crosstalk ratio between two rings separated by ``distance_um``."""
        distance = np.asarray(distance_um, dtype=float)
        if np.any(distance < 0):
            raise ValueError("distance must be non-negative")
        result = np.exp(-distance / self.decay_length_um)
        if np.isscalar(distance_um):
            return float(result)
        return result

    def crosstalk_matrix(self, n_rings: int, pitch_um: float) -> np.ndarray:
        """Symmetric crosstalk matrix K of an equally-spaced bank.

        ``K[i, j]`` is the fraction of ring *j*'s heater phase that appears
        on ring *i*.  The diagonal is 1 (self heating).  This matrix is the
        input to the TED analysis: the heater powers needed to realise a
        desired phase vector ``phi`` are ``K^-1 phi`` (scaled by the
        self-heating efficiency), and its eigen-decomposition is what the
        thermal eigenmode method exploits.

        The matrix is memoized per ``(model, n_rings, pitch)`` and returned
        read-only; copy it before mutating.
        """
        check_positive_int("n_rings", n_rings)
        check_positive("pitch_um", pitch_um)
        return _crosstalk_matrix_cached(self, int(n_rings), float(pitch_um))

    # Kept as a test oracle: the forward map heater_powers_for_phase must invert.
    def phase_from_heater_powers(
        self, heater_powers_w: np.ndarray, pitch_um: float
    ) -> np.ndarray:
        """Phase shift each ring experiences for a vector of heater powers."""
        powers = np.asarray(heater_powers_w, dtype=float)
        if powers.ndim != 1:
            raise ValueError("heater_powers_w must be 1-D")
        matrix = self.crosstalk_matrix(powers.size, pitch_um)
        return self.self_heating_phase_per_watt * (matrix @ powers)

    # Kept as a test oracle: checked against the closed-form KMS tridiagonal inverse.
    def heater_powers_for_phase(
        self, target_phases_rad: np.ndarray, pitch_um: float
    ) -> np.ndarray:
        """Heater powers realising a target phase vector, crosstalk included.

        Solves the coupled linear system ``eta * K p = phi``.  When rings are
        close together the matrix is ill-conditioned and the naive
        (independent, crosstalk-ignoring) solution badly over- or
        under-shoots; the returned powers are the exact collective solution,
        clipped at zero because heaters cannot cool.
        """
        phases = np.asarray(target_phases_rad, dtype=float)
        if phases.ndim != 1:
            raise ValueError("target_phases_rad must be 1-D")
        matrix = self.crosstalk_matrix(phases.size, pitch_um)
        raw = np.linalg.solve(matrix, phases / self.self_heating_phase_per_watt)
        return np.clip(raw, 0.0, None)
