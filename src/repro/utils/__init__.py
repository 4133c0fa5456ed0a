"""Shared utilities for the CrossLight reproduction.

This subpackage hosts the small, dependency-free helpers that every other
subpackage builds on:

* :mod:`repro.utils.units` -- unit conversions used throughout photonic
  power/loss accounting (dB <-> linear, dBm <-> mW, wavelength <-> frequency).
* :mod:`repro.utils.validation` -- argument-checking helpers that raise
  consistent, informative errors.
* :mod:`repro.utils.cache` -- thread-safe LRU memoization for expensive
  shared sub-results (crosstalk matrices, eigendecompositions, baselines).
"""

from repro.utils.cache import CacheInfo, memoize
from repro.utils.units import (
    C_UM_PER_S,
    db_to_linear,
    dbm_to_mw,
    dbm_to_watt,
    frequency_to_wavelength_um,
    linear_to_db,
    mw_to_dbm,
    watt_to_dbm,
    wavelength_to_frequency_thz,
)
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_input_rows,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "C_UM_PER_S",
    "CacheInfo",
    "memoize",
    "db_to_linear",
    "dbm_to_mw",
    "dbm_to_watt",
    "frequency_to_wavelength_um",
    "linear_to_db",
    "mw_to_dbm",
    "watt_to_dbm",
    "wavelength_to_frequency_thz",
    "check_finite",
    "check_in_range",
    "check_input_rows",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
