"""Unit conversion helpers for photonic power.

The CrossLight power model (paper Eq. 7) works out the laser power in dBm;
the architecture power model adds it up in watts.  Both functions accept
scalars or NumPy arrays and return the same kind.
"""

from __future__ import annotations

import numpy as np


def dbm_to_mw(power_dbm):
    """Convert optical power from dBm to milliwatts."""
    return np.power(10.0, np.asarray(power_dbm, dtype=float) / 10.0)


def dbm_to_watt(power_dbm):
    """Convert optical power from dBm to watts."""
    return dbm_to_mw(power_dbm) * 1e-3
