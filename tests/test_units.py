import numpy as np
import pytest

from spinsplit import units


def test_time_unit_value():
    # hbar / 1 eV = 0.6582... fs
    assert units.TIME_UNIT_FS == pytest.approx(0.6582, rel=1e-4)


def test_length_unit_value():
    # hbar c / 1 eV = 197.33 nm
    assert units.LENGTH_UNIT_NM == pytest.approx(197.3, rel=1e-3)


def test_rest_energy_convention():
    assert units.MC2_EV == 5.110e5


@pytest.mark.parametrize("value", [1.0, 0.11, 3.3e4, 7e-9])
def test_round_trips_are_identity(value):
    assert units.natural_to_fs(units.fs_to_natural(value)) == pytest.approx(value, rel=1e-12)
    assert units.fs_to_natural(units.natural_to_fs(value)) == pytest.approx(value, rel=1e-12)
    assert units.natural_to_um(units.um_to_natural(value)) == pytest.approx(value, rel=1e-12)
    assert units.natural_to_nm(units.nm_to_natural(value)) == pytest.approx(value, rel=1e-12)


def test_round_trip_sweep(rng):
    for value in rng.uniform(1e-6, 1e6, size=200):
        assert units.fs_to_natural(units.natural_to_fs(value)) == pytest.approx(value, rel=1e-12)
        assert units.nm_to_natural(units.natural_to_nm(value)) == pytest.approx(value, rel=1e-12)


def test_attoseconds():
    assert units.attoseconds_to_natural(1000.0) == pytest.approx(units.fs_to_natural(1.0), rel=1e-12)


def test_nm_um_consistency():
    assert units.um_to_natural(1.0) == pytest.approx(units.nm_to_natural(1000.0), rel=1e-12)


def test_units_equal_scipy_formulas_exactly():
    # hbar, e and c are exact in the SI, so the package's own values cannot
    # drift from scipy.constants when CODATA is revised
    import scipy.constants as si

    assert units.TIME_UNIT_FS == si.hbar / si.eV * 1e15
    assert units.LENGTH_UNIT_NM == si.hbar * si.c / si.eV * 1e9
    assert units.C_NM_PER_FS == si.c * 1e-6


def test_si_constants_equal_scipy_constants_exactly():
    # the package writes out the SI constants so that no runtime path imports
    # scipy; m_e and eps0 are measured, so a CODATA revision in scipy shows
    # here
    import scipy.constants as si

    assert (units.HBAR_SI, units.E_SI, units.C_SI) == (si.hbar, si.e, si.c)
    assert (units.M_E_SI, units.EPSILON_0_SI) == (si.m_e, si.epsilon_0)
