"""Thermal Eigenmode Decomposition (TED) collective tuning.

When microrings sit only a few micrometres apart, every heater warms its
neighbours: naively tuning each ring independently both wastes power and
mis-tunes the neighbours, which must then be re-corrected, and so on.  The
TED method (Milanizadeh et al. [23], adapted by CrossLight in Section IV.B)
treats the whole MR bank as one coupled thermal system: the desired phase
vector is expressed in the eigenbasis of the bank's thermal-crosstalk matrix
and the heater powers are computed collectively, cancelling the crosstalk
instead of fighting it.

Concretely, with crosstalk matrix ``K`` (``K[i, j]`` = fraction of heater j's
phase appearing at ring i) and per-watt heating efficiency ``eta``, realising
a target phase vector ``phi`` requires heater powers

    p_TED   = K^{-1} phi / eta          (collective / TED solution)
    p_naive = phi / eta                 (independent tuning, crosstalk ignored)

The naive solution under-delivers phase wherever crosstalk adds (so an
iterative controller ends up over-driving heaters) and, more importantly,
every ring receives *extra* unwanted phase from its neighbours that must be
compensated by additional detuning power.  The effective naive power grows
with the row sums of ``K`` while the TED power stays close to the uncoupled
optimum; their gap is exactly the "tuning power without TED" vs "with TED"
separation the paper plots in Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.variations.thermal import ThermalCrosstalkModel
from repro.utils.cache import memoize
from repro.utils.validation import check_positive, check_positive_int


@memoize(maxsize=256)
def _bank_eigensystem(
    crosstalk: ThermalCrosstalkModel, n_rings: int, pitch_um: float
) -> tuple[np.ndarray, np.ndarray]:
    """Memoized eigendecomposition of a bank's thermal-crosstalk matrix.

    A pitch sweep re-solves the same bank geometry at every target-phase
    vector, and the design-space sweeps revisit the same ``(n_rings, pitch)``
    pairs across configurations; factorising the SPD crosstalk matrix once
    per pair and solving through the eigenbasis amortises the linear-algebra
    cost across the whole sweep.  Arrays are shared by reference and hence
    marked read-only.
    """
    matrix = crosstalk.crosstalk_matrix(n_rings, pitch_um)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return eigenvalues, eigenvectors


def _solve_spd(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve ``K x = rhs`` through the cached eigenbasis of the SPD ``K``."""
    return eigenvectors @ ((eigenvectors.T @ rhs) / eigenvalues)


@dataclass(frozen=True)
class TEDTuningResult:
    """Outcome of solving a bank-level tuning problem."""

    pitch_um: float
    target_phases_rad: np.ndarray
    ted_powers_w: np.ndarray
    naive_powers_w: np.ndarray

    @property
    def ted_total_power_w(self) -> float:
        """Total heater power with TED collective tuning."""
        return float(np.sum(self.ted_powers_w))

    @property
    def naive_total_power_w(self) -> float:
        """Total heater power with naive independent tuning."""
        return float(np.sum(self.naive_powers_w))


@dataclass
class ThermalEigenmodeDecomposition:
    """Collective (TED) tuning solver for a bank of thermally coupled MRs.

    Parameters
    ----------
    crosstalk:
        Thermal-crosstalk model providing the coupling-vs-distance law and
        the per-watt heating efficiency.
    """

    crosstalk: ThermalCrosstalkModel = field(default_factory=ThermalCrosstalkModel)

    # ------------------------------------------------------------------ #
    # Eigen-analysis
    # ------------------------------------------------------------------ #
    # Kept as a test oracle: the tests check the eigenbasis the solver inverts through.
    def eigenmodes(self, n_rings: int, pitch_um: float) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of the bank's crosstalk matrix.

        The crosstalk matrix is symmetric positive definite for an
        exponential coupling law, so the eigenbasis is orthonormal.  Small
        eigenvalues correspond to "differential" phase patterns that are
        expensive to realise with tightly coupled heaters; TED's power
        advantage comes from expressing the required correction mostly in the
        cheap, large-eigenvalue (common-mode) directions.

        The decomposition is memoized per ``(crosstalk model, n_rings,
        pitch)`` and the returned arrays are read-only.
        """
        return _bank_eigensystem(self.crosstalk, int(n_rings), float(pitch_um))

    # ------------------------------------------------------------------ #
    # Power solutions
    # ------------------------------------------------------------------ #
    def solve(
        self, target_phases_rad, pitch_um: float
    ) -> TEDTuningResult:
        """Compute TED and naive heater powers for a target phase vector.

        The collective solution is ``p = K^{-1} phi / eta``.  Heaters cannot
        cool, so whenever that solution would require a negative power (which
        happens when the rings are so close that the crosstalk matrix becomes
        ill-conditioned for *differential* phase patterns), the method adds
        the smallest uniform extra phase ``alpha`` to every ring --
        physically, biasing the whole bank a little further red -- that makes
        all heater powers non-negative.  This is what produces the power
        *minimum* at intermediate spacing reported in Fig. 4: very tight
        spacing pays for differential corrections, very wide spacing forgoes
        the mutual-heating assistance.

        Parameters
        ----------
        target_phases_rad:
            Desired phase correction at each ring (radians, non-negative).
        pitch_um:
            Centre-to-centre ring spacing.
        """
        phases = np.asarray(target_phases_rad, dtype=float)
        if phases.ndim != 1:
            raise ValueError("target_phases_rad must be a 1-D array")
        if np.any(phases < 0):
            raise ValueError("target phases must be non-negative")
        check_positive("pitch_um", pitch_um)

        eta = self.crosstalk.self_heating_phase_per_watt
        matrix = self.crosstalk.crosstalk_matrix(phases.size, pitch_um)
        eigenvalues, eigenvectors = _bank_eigensystem(
            self.crosstalk, phases.size, float(pitch_um)
        )

        base_powers = _solve_spd(eigenvalues, eigenvectors, phases / eta)
        if np.any(base_powers < 0):
            # Sensitivity of the power vector to a uniform extra phase alpha.
            uniform_sensitivity = _solve_spd(
                eigenvalues, eigenvectors, np.ones_like(phases) / eta
            )
            candidates = [
                -p / s
                for p, s in zip(base_powers, uniform_sensitivity)
                if p < 0 and s > 1e-15
            ]
            alpha = max(candidates) if candidates else 0.0
            ted_powers = np.clip(base_powers + alpha * uniform_sensitivity, 0.0, None)
        else:
            ted_powers = base_powers

        # Naive tuning ignores coupling when choosing powers, then must spend
        # extra power counteracting the unwanted phase each ring receives
        # from its neighbours' heaters.  The effective naive power per ring
        # is therefore its own requirement plus the crosstalk-injected phase
        # expressed in heater watts.
        own_powers = phases / eta
        injected_phase = (matrix - np.eye(phases.size)) @ own_powers * eta
        naive_powers = own_powers + np.abs(injected_phase) / eta

        return TEDTuningResult(
            pitch_um=float(pitch_um),
            target_phases_rad=phases,
            ted_powers_w=ted_powers,
            naive_powers_w=naive_powers,
        )

    def uniform_bank_power_w(
        self,
        n_rings: int,
        pitch_um: float,
        phase_per_ring_rad: float,
        use_ted: bool = True,
    ) -> float:
        """Total tuning power for a bank needing the same phase at every ring.

        This is the quantity the Fig. 4 sensitivity analysis sweeps: a block
        of 10 fabricated MRs, each needing the same thermal compensation,
        with the spacing between adjacent rings varied.
        """
        check_positive_int("n_rings", n_rings)
        check_positive("pitch_um", pitch_um)
        if phase_per_ring_rad < 0:
            raise ValueError("phase_per_ring_rad must be non-negative")
        result = self.solve(np.full(n_rings, phase_per_ring_rad), pitch_um)
        return result.ted_total_power_w if use_ted else result.naive_total_power_w


def tuning_power_vs_pitch(
    pitches_um,
    n_rings: int = 10,
    phase_per_ring_rad: float = np.pi / 2,
    phase_variation_fraction: float = 0.25,
    crosstalk: ThermalCrosstalkModel | None = None,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Sweep MR pitch and report per-heater tuning power with and without TED.

    Reproduces the data behind paper Fig. 4 (solid-blue TED curve and
    dotted-blue no-TED curve): a block of ``n_rings`` fabricated MRs, each
    needing a common thermal compensation phase plus a per-ring differential
    component (residual fabrication variation between rings), with the
    spacing between adjacent rings swept.  The per-MR TED power exhibits a
    minimum at ~5 um with the default parameters, matching the paper's
    finding that 5 um spacing is optimal.

    Parameters
    ----------
    pitches_um:
        Spacings to evaluate (um).
    n_rings:
        Rings in the block (10 in the paper's fabricated test block).
    phase_per_ring_rad:
        Common compensation phase every ring needs.
    phase_variation_fraction:
        Standard deviation of the per-ring differential phase, as a fraction
        of ``phase_per_ring_rad``.
    crosstalk:
        Thermal-crosstalk model; defaults to the heat-solver-calibrated one.
    seed:
        Seed for the per-ring differential phases (kept fixed so the sweep is
        reproducible).

    Returns
    -------
    dict
        Keys ``pitch_um``, ``ted_power_per_mr_w``, ``naive_power_per_mr_w``,
        ``crosstalk_ratio``.
    """
    crosstalk = crosstalk or ThermalCrosstalkModel()
    ted = ThermalEigenmodeDecomposition(crosstalk=crosstalk)
    pitches = np.asarray(pitches_um, dtype=float)
    if np.any(pitches <= 0):
        raise ValueError("all pitches must be positive")
    if phase_variation_fraction < 0:
        raise ValueError("phase_variation_fraction must be non-negative")

    rng = np.random.default_rng(seed)
    differential = rng.normal(
        0.0, phase_variation_fraction * phase_per_ring_rad, size=n_rings
    )
    target_phases = np.clip(phase_per_ring_rad + differential, 0.0, None)

    # Imported here (not at module top) because the sim package depends on
    # the tuning layer; the sweep module itself is dependency-free.
    from repro.sim.sweep import run_sweep

    sweep = run_sweep(
        lambda pitch_um: ted.solve(target_phases, float(pitch_um)),
        [{"pitch_um": float(pitch)} for pitch in pitches],
    )
    ted_power = sweep.value_array(lambda r: r.ted_total_power_w / n_rings)
    naive_power = sweep.value_array(lambda r: r.naive_total_power_w / n_rings)

    return {
        "pitch_um": pitches,
        "ted_power_per_mr_w": ted_power,
        "naive_power_per_mr_w": naive_power,
        "crosstalk_ratio": crosstalk.coupling(pitches),
    }
