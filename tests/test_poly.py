"""Dense polynomial arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from cauchybi import Polynomial
from helpers import from_roots

small_coeffs = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=1, max_size=8
)


def test_zero_and_one():
    assert Polynomial.zero().is_zero
    assert Polynomial.zero().degree == -1
    assert Polynomial.one().degree == 0
    assert Polynomial.one()(mpf(7)) == 1


def test_trailing_zeros_trimmed():
    p = Polynomial((1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (mpf(1), mpf(2))


def test_evaluation_horner():
    p = Polynomial((1, -3, 2))  # 2x^2 - 3x + 1 = (2x-1)(x-1)
    assert p(mpf(1)) == 0
    assert p(mpf("0.5")) == 0
    assert p(mpf(0)) == 1


def test_complex_evaluation():
    p = Polynomial((1, 0, 1))  # x^2 + 1
    v = p(mpc(0, 1))
    assert abs(v) < mpf(10) ** (-mp.dps + 2)


def test_from_roots_monic_and_vanishing():
    roots = [mpf("0.25"), mpf(1), mpf(3)]
    p = from_roots(roots)
    assert p.leading == 1 and p.degree == 3
    for r in roots:
        assert abs(p(r)) < mpf(10) ** (-mp.dps + 4)


@settings(max_examples=25, deadline=None)
@given(small_coeffs, small_coeffs, st.integers(min_value=-5, max_value=5))
def test_ring_operations_consistent_with_evaluation(ca, cb, x):
    pa, pb = Polynomial(tuple(ca)), Polynomial(tuple(cb))
    x = mpf(x)
    assert (pa + pb)(x) == pa(x) + pb(x)
    assert (pa - pb)(x) == pa(x) - pb(x)
    assert (pa * pb)(x) == pa(x) * pb(x)


@settings(max_examples=25, deadline=None)
@given(small_coeffs)
def test_scale_matches_evaluation(ca):
    p = Polynomial(tuple(ca))
    assert p.scale(mpf(3))(mpf(2)) == 3 * p(mpf(2))


def test_immutability():
    p = Polynomial((1, 2))
    with pytest.raises(Exception):
        p.coeffs = (mpf(0),)
