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
    check_probability,
    db_to_linear,
    dbm_to_mw,
    dbm_to_watt,
    frequency_to_wavelength_um,
    linear_to_db,
    mw_to_dbm,
    watt_to_dbm,
    wavelength_to_frequency_thz,
)


class TestUnitConversions:
    def test_db_to_linear_known_values(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-3.0) == pytest.approx(0.501187, rel=1e-5)

    def test_linear_to_db_roundtrip(self):
        for value in (0.01, 0.5, 1.0, 2.0, 1234.5):
            assert db_to_linear(linear_to_db(value)) == pytest.approx(value)

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-1.0)

    def test_dbm_mw_roundtrip(self):
        for power_mw in (0.001, 1.0, 27.5, 300.0):
            assert dbm_to_mw(mw_to_dbm(power_mw)) == pytest.approx(power_mw)

    def test_dbm_to_watt_scaling(self):
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)
        assert dbm_to_watt(30.0) == pytest.approx(1.0)

    def test_watt_to_dbm_known(self):
        assert watt_to_dbm(1e-3) == pytest.approx(0.0)
        assert watt_to_dbm(1.0) == pytest.approx(30.0)

    def test_watt_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            watt_to_dbm(0.0)

    def test_wavelength_frequency_roundtrip(self):
        freq = wavelength_to_frequency_thz(1550.0)
        assert freq == pytest.approx(193.41, rel=1e-3)
        wavelength_um = frequency_to_wavelength_um(freq)
        assert wavelength_um == pytest.approx(1.55, rel=1e-9)

    def test_array_inputs_supported(self):
        values = np.array([1.0, 10.0, 100.0])
        np.testing.assert_allclose(linear_to_db(values), [0.0, 10.0, 20.0])

    def test_wavelength_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            wavelength_to_frequency_thz(0.0)
        with pytest.raises(ValueError):
            frequency_to_wavelength_um(-1.0)


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

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", -0.01)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_error_messages_name_the_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive("my_param", -2)
