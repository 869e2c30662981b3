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
from cauchybi.polyzeros import RootCountError, refine_bracket
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
    with pytest.raises(ValueError):
        DiscreteMeasure((mpf(0),), (mpf(1),), cell_edges=(mpf(0),))


def test_cell_measure_moments_exact():
    # uniform density on [0,1] as a single cell: moment k = 1/(k+1)
    mu = DiscreteMeasure((mpf("0.5"),), (mpf(1),), cell_edges=(mpf(0), mpf(1)))
    for k in range(5):
        assert abs(mu.moments(k)[k] - mpf(1) / (k + 1)) < mpf(10) ** (-100)
    # and in unequal cells, where the sum by parts over the edges cancels
    edges = (mpf(0), mpf("0.1"), mpf("0.35"), mpf("0.4"), mpf("0.8"), mpf(1))
    cells = tuple(zip(edges, edges[1:]))
    mu = DiscreteMeasure(
        tuple((a + b) / 2 for a, b in cells), tuple(b - a for a, b in cells), edges
    )
    moments = mu.moments(20)
    assert len(moments) == 21
    for k, m_k in enumerate(moments):
        assert abs(m_k - mpf(1) / (k + 1)) <= mpf(2) ** -(mp.prec - 8)
        assert mu.moments(k)[k] == m_k


def test_log_potential_rejects_atoms():
    mu = DiscreteMeasure((mpf(0),), (mpf(1),))
    with pytest.raises(ValueError):
        log_potential(mu, mpf(2))


def test_log_potential_cells_matches_closed_form():
    # V of the uniform unit mass on [-1,1] at z=2: known closed form
    mu = DiscreteMeasure(
        (mpf(0),), (mpf(1),), cell_edges=(mpf(-1), mpf(1))
    )
    exact = -(3 * mp.log(3) - 1 * mp.log(1) - 2) / 2
    assert abs(log_potential(mu, mpf(2)) - exact) < mpf(10) ** (-100)


def test_log_potential_cells_finite_on_support():
    mu = DiscreteMeasure(
        (mpf(0),), (mpf(1),), cell_edges=(mpf(-1), mpf(1))
    )
    v = log_potential(mu, mpf(0))
    assert mp.isfinite(v)
    # V(0) of uniform on [-1,1] is 1 (integral of -log|t|/2 over [-1,1])
    assert abs(v - 1) < mpf(10) ** (-100)


def _arcsine_cells(a, b, count):
    """Chebyshev-spaced cells on [a, b] with arcsine masses: a density that
    jumps at every edge and blows up towards both ends."""
    edges = [a + (b - a) * (1 - mp.cospi(mpf(i) / count)) / 2 for i in range(count + 1)]
    masses = [
        (mp.asin(2 * (y - a) / (b - a) - 1) - mp.asin(2 * (x - a) / (b - a) - 1)) / mp.pi
        for x, y in zip(edges, edges[1:])
    ]
    return DiscreteMeasure(
        tuple((x + y) / 2 for x, y in zip(edges, edges[1:])), tuple(masses), tuple(edges)
    )


def _per_cell_potential(mu, z):
    """V^mu(z) cell by cell: the closed form at both edges of every cell."""

    def g(u):
        if u == 0:
            return mpf(0)
        if isinstance(u, mpc):
            return (-u * (mp.log(u) - 1)).real
        return -u * (mp.log(abs(u)) - 1)

    e = mu.cell_edges
    return -sum(
        (w / (b - a) * (g(z - b) - g(z - a)) for w, a, b in zip(mu.weights, e, e[1:])),
        mpf(0),
    )


@pytest.mark.parametrize(
    "z", [mpf(5), mpc("2.5", "0.75"), mpf("2.37"), mpf(2)], ids=["real", "complex", "inside", "endpoint"]
)
def test_log_potential_by_edges_matches_per_cell_form(z):
    # summed by parts over the edges, against the per-cell sum at doubled
    # precision; on the support the probe lies inside a cell or on an edge
    mu = _arcsine_cells(mpf(2), mpf(3), 64)
    v = log_potential(mu, z)
    with mp.workprec(2 * mp.prec):
        exact = _per_cell_potential(mu, z)
    assert abs(v - exact) <= mpf(2) ** -(mp.prec - 16) * max(1, abs(exact))


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
