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


def test_refine_bracket_simple_root():
    f = lambda x: x * x - 2
    r = refine_bracket(f, mpf(1), mpf(2), f(mpf(1)), f(mpf(2)), mpf(10) ** (-60))
    assert abs(r - mp.sqrt(2)) < mpf(10) ** (-55)


def test_real_roots_recovers_known_roots():
    roots = [mpf("0.1"), mpf("0.35"), mpf("0.62"), mpf("0.9")]
    p = Polynomial.from_roots(roots)
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
    p = Polynomial.from_roots(roots)
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
        assert abs(mu.moment(k) - mpf(1) / (k + 1)) < mpf(10) ** (-100)


def test_log_potential_atoms():
    mu = DiscreteMeasure((mpf(0),), (mpf(1),))
    assert abs(log_potential(mu, mpf(2)) + mp.log(2)) < mpf(10) ** (-100)
    with pytest.raises(ValueError):
        log_potential(mu, mpf(0))


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
