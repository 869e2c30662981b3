"""Root isolation, counting measures, interlacing, potentials, distances."""

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc

from cauchybi import (
    DiscreteMeasure,
    Interval,
    Polynomial,
    counting_measure,
    interlaces,
    log_potential,
    moment_distance,
    real_roots,
)
from cauchybi.polyzeros import ChebyshevMeasure, RootCountError, refine_bracket
from helpers import from_roots


def test_refine_bracket_simple_root():
    # safeguarded Newton: fd gives value and slope
    fd = lambda x: (x * x - 2, 2 * x)
    r = refine_bracket(fd, mpf(1), mpf(2), mpf(-1), mpf(2), mpf(10) ** (-60))
    assert abs(r - mp.sqrt(2)) < mpf(10) ** (-55)


def test_real_roots_recovers_known_roots():
    roots = [mpf("0.1"), mpf("0.35"), mpf("0.62"), mpf("0.9")]
    p = from_roots(roots)
    found = real_roots(p, Interval(0, 1))
    assert len(found) == 4
    for a, b in zip(found, roots):
        assert abs(a - b) < mpf(10) ** (-40)


def test_real_roots_empty_for_constant():
    assert real_roots(Polynomial.one(), Interval(0, 1)) == []


def test_real_roots_count_mismatch_raises():
    # x^2 + 1 has no real roots at all
    with pytest.raises(RootCountError):
        real_roots(Polynomial((1, 0, 1)), Interval(-1, 1))


@settings(max_examples=20, deadline=None)
# a root on the scan grid next to another root, 0.01 to its right
@example(ks=[24, 25, 37])
@given(
    st.lists(
        st.integers(min_value=1, max_value=98),
        min_size=2,
        max_size=6,
        unique=True,
    )
)
def test_real_roots_random_separated(ks):
    roots = sorted(mpf(k) / 100 for k in ks)
    if min(b - a for a, b in zip(roots, roots[1:])) < mpf("0.01"):
        return
    p = from_roots(roots)
    found = real_roots(p, Interval(0, 1))
    assert all(abs(a - b) < mpf(10) ** (-30) for a, b in zip(found, roots))


def test_counting_measure_normalized_sorted():
    mu = counting_measure([mpf(3), mpf(1), mpf(2)])
    assert mu.normalized
    assert mu.points == (mpf(1), mpf(2), mpf(3))
    assert all(w == mpf(1) / 3 for w in mu.weights)


def test_interlacing_detection():
    assert interlaces([mpf("1.5")], [mpf(1), mpf(2)])
    assert not interlaces([mpf("0.5")], [mpf(1), mpf(2)])
    assert not interlaces([mpf(1)], [mpf(1), mpf(2)])  # coincidence
    with pytest.raises(ValueError):
        interlaces([mpf(1)], [mpf(1), mpf(2), mpf(3)])


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure((), ())
    with pytest.raises(ValueError):
        DiscreteMeasure((mpf(0),), (mpf(-1),))


# density (1 + a_1 T_1 + a_2 T_2 + a_3 T_3)(s) / (pi sqrt(1 - s^2)) on [2, 3],
# positive on it
SERIES = ChebyshevMeasure(Interval(2, 3), (mpf(1) / 2, -mpf(1) / 4, mpf(1) / 8))


def _arcsine_average(f, N):
    """int f(s) ds / (pi sqrt(1 - s^2)) by N-point Gauss-Chebyshev in
    theta (s = cos theta): exact for polynomials of degree < 2N."""
    thetas = [mp.pi * (n + mpf(1) / 2) / N for n in range(N)]
    return sum((f(th) for th in thetas), mpf(0)) / N


def _density(mu, th):
    return 1 + sum((a * mp.cos(i * th) for i, a in enumerate(mu.coeffs, 1)), mpf(0))


@pytest.mark.parametrize("hull", [(2, 3), (0, 3)], ids=["own", "wider"])
def test_chebyshev_measure_moments_exact(hull):
    # against Gauss-Chebyshev at doubled precision, exact for the degree-15
    # integrands: (alpha + beta s)^k times the density factor
    c, d = map(mpf, hull)
    moments = SERIES.rescaled_moments(c, d, 12)
    assert len(moments) == 13
    with mp.workprec(2 * mp.prec):
        iv = SERIES.interval
        u = lambda th: (2 * (iv.midpoint + iv.length / 2 * mp.cos(th)) - c - d) / (d - c)
        exact = [_arcsine_average(lambda th: u(th) ** k * _density(SERIES, th), 16) for k in range(13)]
    for m_k, e in zip(moments, exact):
        assert abs(m_k - e) <= mpf(2) ** -(mp.prec - 8)


def test_log_potential_rejects_atoms():
    mu = DiscreteMeasure((mpf(0),), (mpf(1),))
    with pytest.raises(ValueError):
        log_potential(mu, mpf(2))


def test_log_potential_arcsine_matches_closed_form():
    # the arcsine measure on [-1,1] off its support: log 2 - log|z + sqrt(z^2 - 1)|
    mu = ChebyshevMeasure(Interval(-1, 1), ())
    exact = mp.log(2) - mp.log(2 + mp.sqrt(3))
    for z in (mpf(2), mpf(-2)):
        assert abs(log_potential(mu, z) - exact) < mpf(10) ** (-100)


def test_log_potential_constant_on_support():
    # the arcsine measure is the equilibrium of its interval: V = log(2/r) on it
    for a, b in ((-1, 1), (2, 3)):
        mu = ChebyshevMeasure(Interval(a, b), ())
        exact = mp.log(4 / mpf(b - a))
        for i in range(11):
            v = log_potential(mu, a + mpf(b - a) * i / 10)
            assert abs(v - exact) < mpf(10) ** (-100)


@pytest.mark.parametrize(
    "z", [mpf(5), mpc("2.5", "0.75"), mpf("2.37"), mpf(2)], ids=["real", "complex", "inside", "endpoint"]
)
def test_log_potential_matches_quadrature(z):
    # the defining integral in theta (t = c + r cos theta) by tanh-sinh;
    # on the support in u = theta - theta_0, t(theta_0) = z, with
    # |z - t| = 2r |sin(theta_0 + u/2) sin(u/2)|, so no node lands on u = 0
    mu, iv = SERIES, SERIES.interval
    c, r = iv.midpoint, iv.length / 2
    if isinstance(z, mpc) or not iv.contains(z):
        f = lambda th: -mp.log(abs(z - c - r * mp.cos(th))) * _density(mu, th) / mp.pi
        exact = mp.quad(f, [0, mp.pi])
    else:
        th0 = mp.acos((z - c) / r)
        dist = lambda u: 2 * r * abs(mp.sin(th0 + u / 2) * mp.sin(u / 2))
        f = lambda u: -mp.log(dist(u)) * _density(mu, th0 + u) / mp.pi
        exact = mp.quad(f, sorted({-th0, mpf(0), mp.pi - th0}))
    assert abs(log_potential(mu, z) - exact) <= mpf(2) ** -(mp.prec - 16)


def test_atom_moments_match_per_atom_sums():
    points = [mpf(-1) / 3, mpf("0.2"), mpf("0.7"), mpf(2)]
    weights = [mpf(1) / 7, mpf(2) / 7, mpf(3) / 7, mpf(1) / 7]
    mu = DiscreteMeasure(tuple(points), tuple(weights))
    for k, m_k in enumerate(mu.moments(12)):
        with mp.workprec(2 * mp.prec):
            exact = sum((w * t**k for t, w in zip(points, weights)), mpf(0))
        scale = sum((w * abs(t) ** k for t, w in zip(points, weights)), mpf(0))
        assert abs(m_k - exact) <= mpf(2) ** -(mp.prec - 8) * scale


def test_moment_distance_rescales_to_unit_interval():
    a = DiscreteMeasure((mpf(0),), (mpf(1),))
    b = DiscreteMeasure((mpf(1),), (mpf(1),))
    # hull [0,1] maps the atoms to -1 and +1; first moments differ by 2
    assert moment_distance(a, b, 1) == 2
    assert moment_distance(a, a, 12) == 0


def test_moment_distance_requires_normalized():
    a = DiscreteMeasure((mpf(0),), (mpf(2),))
    b = DiscreteMeasure((mpf(1),), (mpf(1),))
    with pytest.raises(ValueError):
        moment_distance(a, b, 3)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=8, unique=True),
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=8, unique=True),
)
def test_moment_distance_symmetric_nonnegative(xs, ys):
    a = counting_measure([mpf(x) / 100 for x in xs])
    b = counting_measure([mpf(y) / 100 for y in ys])
    d1, d2 = moment_distance(a, b, 6), moment_distance(b, a, 6)
    assert d1 == d2 >= 0
