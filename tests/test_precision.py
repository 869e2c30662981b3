"""Global precision context behavior."""

import pytest
from mpmath import mp, mpf

from cauchybi import set_precision, tol
from cauchybi.precision import DEFAULT_PRECISION_BITS


def test_default_is_512():
    assert DEFAULT_PRECISION_BITS == 512
    assert mp.prec == 512


def test_set_and_read_back():
    set_precision(256)
    assert mp.prec == 256


def test_minimum_enforced():
    with pytest.raises(ValueError):
        set_precision(32)


def test_tol_is_half_digits():
    set_precision(512)
    assert tol() == mpf(10) ** (-(mp.dps // 2))


def test_precision_changes_arithmetic_granularity():
    set_precision(64)
    coarse = mpf(1) / 3
    set_precision(512)
    fine = mpf(1) / 3
    assert abs(coarse - fine) > mpf(10) ** (-30)
