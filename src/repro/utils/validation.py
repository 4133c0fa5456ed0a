"""Argument-validation helpers.

Device and architecture models in this library take many physical parameters
(wavelengths, losses, quality factors, unit counts).  Rather than scattering
ad-hoc ``if`` checks across constructors, these helpers give consistent error
messages that name the offending parameter, which makes misconfiguration
errors from experiment scripts easy to diagnose.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Ensure ``value`` is a finite number strictly greater than zero."""
    value = check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Ensure ``value`` is a finite number greater than or equal to zero."""
    value = check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_positive_int(name: str, value: Any) -> int:
    """Ensure ``value`` is an integer strictly greater than zero."""
    # Reject floats even when integral so configuration typos such as
    # ``n_units=100.0`` are caught rather than silently truncated; a bool is
    # an int subclass but never a count.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__} {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return int(value)


def check_finite(name: str, value: Any) -> float:
    """Ensure ``value`` is a real, finite number and return it as ``float``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Ensure ``low <= value <= high``."""
    value = check_finite(name, value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_input_rows(inputs: Any) -> np.ndarray:
    """``inputs`` as an array, or ``ValueError`` when it has no rows to evaluate."""
    inputs = np.asarray(inputs)
    if inputs.ndim == 0 or inputs.shape[0] == 0:
        raise ValueError(f"inputs is empty (shape {inputs.shape}): no rows to evaluate")
    return inputs
