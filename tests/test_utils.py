"""Unit tests for repro.utils (unit conversions and validation helpers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
    dbm_to_mw,
    dbm_to_watt,
)


class TestUnitConversions:
    def test_dbm_mw_roundtrip(self):
        for power_mw in (0.001, 1.0, 27.5, 300.0):
            assert dbm_to_mw(10.0 * np.log10(power_mw)) == pytest.approx(power_mw)

    def test_dbm_to_watt_scaling(self):
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)
        assert dbm_to_watt(30.0) == pytest.approx(1.0)


class TestValidation:
    def test_check_positive_accepts_and_rejects(self):
        assert check_positive("x", 2.5) == 2.5
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        with pytest.raises(ValueError):
            check_positive("x", -1.0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_positive_int_rejects_floats_and_bools(self):
        assert check_positive_int("n", 3) == 3
        with pytest.raises(TypeError):
            check_positive_int("n", 3.0)
        with pytest.raises(TypeError):
            check_positive_int("n", True)
        with pytest.raises(ValueError):
            check_positive_int("n", 0)

    def test_check_finite_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_finite("x", float("nan"))
        with pytest.raises(ValueError):
            check_finite("x", float("inf"))
        with pytest.raises(TypeError):
            check_finite("x", "not a number")

    def test_check_in_range_boundaries(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            check_in_range("x", 1.01, 0.0, 1.0)

    def test_error_messages_name_the_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive("my_param", -2)
