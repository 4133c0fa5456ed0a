"""Shared utilities for the CrossLight reproduction.

This subpackage hosts the small, dependency-free helpers that every other
subpackage builds on:

* :mod:`repro.utils.units` -- the dBm -> mW / W conversions of the laser
  power model.
* :mod:`repro.utils.validation` -- argument-checking helpers that raise
  consistent, informative errors.
* :mod:`repro.utils.cache` -- thread-safe LRU memoization for expensive
  shared sub-results (crosstalk matrices, eigendecompositions, baselines).
"""

from repro.utils.cache import CacheInfo, memoize
from repro.utils.units import dbm_to_mw, dbm_to_watt
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_input_rows,
    check_non_negative,
    check_positive,
    check_positive_int,
)

__all__ = [
    "CacheInfo",
    "memoize",
    "dbm_to_mw",
    "dbm_to_watt",
    "check_finite",
    "check_in_range",
    "check_input_rows",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
]
