"""Fabrication-process and thermal variation models.

This subpackage implements the physical-variation substrate of CrossLight's
device-level contribution:

* :mod:`repro.variations.fpv` -- fabrication-process-variation drift model
  and Monte-Carlo sampler, calibrated to the paper's measured 7.1 nm
  (conventional) and 2.1 nm (optimized) resonance drifts.
* :mod:`repro.variations.thermal` -- exponential thermal-crosstalk coupling
  model (paper Fig. 4) and heater power/phase relations.
* :mod:`repro.variations.heat_solver` -- a 1-D finite-difference heat solver
  standing in for the commercial Lumerical HEAT tool the paper used to
  calibrate the crosstalk curve.
* :mod:`repro.variations.design_space` -- the waveguide-width design-space
  exploration that selects the 400 nm / 800 nm optimized MR design.
"""

from repro.variations.design_space import (
    MRDesignCandidate,
    best_design,
    drift_reduction_percent,
    evaluate_design,
    explore_design_space,
)
from repro.variations.fpv import (
    ProcessVariationModel,
    conventional_drift_nm,
    expected_fpv_drift_nm,
    optimized_drift_nm,
    sample_banked_drifts,
    width_sensitivity_nm_per_nm,
)
from repro.variations.heat_solver import (
    HeatSolver1D,
    StackProperties,
    fit_decay_length_um,
)
from repro.variations.thermal import ThermalCrosstalkModel

__all__ = [
    "HeatSolver1D",
    "MRDesignCandidate",
    "ProcessVariationModel",
    "StackProperties",
    "ThermalCrosstalkModel",
    "best_design",
    "conventional_drift_nm",
    "drift_reduction_percent",
    "evaluate_design",
    "expected_fpv_drift_nm",
    "explore_design_space",
    "fit_decay_length_um",
    "optimized_drift_nm",
    "sample_banked_drifts",
    "width_sensitivity_nm_per_nm",
]
