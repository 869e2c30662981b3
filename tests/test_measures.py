"""Interval measures, Gauss-Jacobi rules, moments, Cauchy transforms."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from cauchybi import measures

from cauchybi import (
    Interval,
    MeasureError,
    SupportError,
    WeightSpec,
    lebesgue,
    make_measure,
    set_precision,
)
from cauchybi.measures import gauss_jacobi_rule
from helpers import cauchy_transform, jacobi_moment_exact


def tight():
    return mpf(10) ** (-mp.dps + 10)


def moment(mu, k):
    """k-th moment of mu by its quadrature rule."""
    return sum((w * x**k for x, w in zip(mu.nodes, mu.weights)), mpf(0))


def test_interval_validation():
    with pytest.raises(MeasureError):
        Interval(1, 1)
    with pytest.raises(MeasureError):
        Interval(2, 1)


def test_interval_geometry():
    iv = Interval(0, 2)
    assert iv.length == 2 and iv.midpoint == 1
    assert iv.contains(0) and not iv.contains(0, closed=False)
    assert Interval(0, 1).gap_to(Interval(2, 3)) == 1
    assert Interval(0, 1).gap_to(Interval("0.5", 3)) == 0
    assert Interval(0, 1).distance_to_point(mpc(2, 0)) == 1
    assert abs(Interval(0, 1).distance_to_point(mpc("0.5", "0.25")) - mpf("0.25")) < tight()


def test_weight_validation():
    with pytest.raises(MeasureError):
        WeightSpec(alpha=-1)
    with pytest.raises(MeasureError):
        WeightSpec(beta="-1.5")
    # polynomial factor with a root inside the interval is rejected
    with pytest.raises(MeasureError):
        make_measure(Interval(0, 1), WeightSpec(poly_factor=(mpf("-0.5"), 1)))


def test_lebesgue_mass_and_moments():
    mu = lebesgue(0, 1)
    assert abs(mu.mass - 1) < tight()
    for k in range(6):
        assert abs(moment(mu, k) - mpf(1) / (k + 1)) < tight()


def test_jacobi_measure_matches_closed_form():
    # weight (x-a)^alpha (b-x)^beta on [-1,1] vs the exact beta-sum moments
    mu = make_measure(Interval(-1, 1), WeightSpec(alpha="0.5", beta="1.5"))
    for k in range(5):
        exact = jacobi_moment_exact(k, mpf("1.5"), mpf("0.5"))
        assert abs(moment(mu, k) - exact) < tight()


def test_polynomial_factor_folded_into_weights():
    # w(x) = (1 + x^2) on [0,1]: moment k is 1/(k+1) + 1/(k+3)
    mu = make_measure(Interval(0, 1), WeightSpec(poly_factor=(1, 0, 1)))
    for k in range(4):
        exact = mpf(1) / (k + 1) + mpf(1) / (k + 3)
        assert abs(moment(mu, k) - exact) < tight()


def test_quadrature_nodes_interior_weights_positive():
    mu = make_measure(Interval(2, 3), WeightSpec(alpha="0.25"), node_count=32)
    assert len(mu.nodes) == 32
    assert all(mpf(2) < x < mpf(3) for x in mu.nodes)
    assert all(w > 0 for w in mu.weights)
    assert list(mu.nodes) == sorted(mu.nodes)


def test_quadrature_exact_for_high_degree():
    # N-point Gauss integrates degree 2N-1 exactly
    mu = lebesgue(-1, 1, node_count=16)
    k = 31
    assert abs(moment(mu, k) - 0) < tight()
    assert abs(moment(mu, 30) - mpf(2) / 31) < tight()


def test_cauchy_transform_real_and_complex():
    mu = lebesgue(0, 1)
    # exact value is log((z-0)/(z-1)); the quadrature approximation carries
    # a geometric truncation error (~rho^-2N), far below the tolerances the
    # package works to but well above the arithmetic roundoff level
    quad_err = mpf(10) ** (-80)
    z = mpf(2)
    assert abs(cauchy_transform(mu, z) - mp.log(2)) < quad_err
    zc = mpc(0, 1)
    exact = mp.log(zc / (zc - 1))
    assert abs(cauchy_transform(mu, zc) - exact) < quad_err


def test_cauchy_transform_on_support_rejected():
    mu = lebesgue(0, 1)
    with pytest.raises(SupportError):
        cauchy_transform(mu, mpf("0.5"))
    with pytest.raises(SupportError):
        cauchy_transform(mu, mpc("0.5", 0))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_mass_positive_any_node_count(n):
    mu = lebesgue(0, 1, node_count=n)
    assert abs(mu.mass - 1) < tight()


@pytest.mark.parametrize(
    "n, A, B",
    [
        (64, "0", "0"),
        (64, "-0.5", "-0.5"),
        (63, "0.5", "0.5"),
        (64, "1.5", "0.5"),
        (64, "3", "-0.9"),
    ],
)
def test_gauss_jacobi_rule_matches_doubled_precision(n, A, B):
    # the same exponents (parsed once) at twice the bits is the reference
    A, B = mpf(A), mpf(B)
    prec = mp.prec
    nodes, weights = gauss_jacobi_rule(n, A, B)
    with mp.workprec(2 * prec):
        ref_nodes, ref_weights = gauss_jacobi_rule(n, A, B)
    assert len(nodes) == len(weights) == n
    ulp = mpf(2) ** (1 - prec)
    for x, xr in zip(nodes, ref_nodes):
        assert abs(x - xr) <= 4 * ulp * max(1, abs(xr))
    for w, wr in zip(weights, ref_weights):
        assert abs(w - wr) <= mpf(2) ** (16 - prec) * wr
    if A == B:
        assert all(x == -y for x, y in zip(nodes, reversed(nodes)))
        if n % 2:
            assert nodes[n // 2] == 0


def test_gauss_jacobi_rule_exact_to_degree_2n_minus_1():
    n, A = 32, mpf("-0.5")
    nodes, weights = gauss_jacobi_rule(n, A, A)
    for k in range(2 * n):
        quad = mp.fsum(w * x**k for x, w in zip(nodes, weights))
        # the closed form cancels about k*log10(3) digits; give it room
        with mp.workprec(2 * mp.prec):
            exact = jacobi_moment_exact(k, A, A)
        assert abs(quad - exact) < tight()


def test_gauss_jacobi_rule_cached_per_precision():
    n = 16
    low = gauss_jacobi_rule(n, 0, 0)
    assert gauss_jacobi_rule(n, 0, 0) is low
    set_precision(768)
    nodes, weights = gauss_jacobi_rule(n, 0, 0)
    assert nodes != low[0]
    # Lebesgue moments on [-1, 1] to 768-bit accuracy: 2/(k+1) for even k
    for k in range(2 * n):
        quad = mp.fsum(w * x**k for x, w in zip(nodes, weights))
        exact = mpf(2) / (k + 1) if k % 2 == 0 else 0
        assert abs(quad - exact) < tight()


def _with_seeds(monkeypatch, edit):
    """Hand the rule builder edited numpy Golub-Welsch seeds, with an empty
    rule cache."""
    seeds = measures._golub_welsch_seeds

    def seeded(a, b, n):
        x = seeds(a, b, n).copy()
        edit(x)
        return x

    monkeypatch.setattr(measures, "_golub_welsch_seeds", seeded)
    monkeypatch.setattr(measures, "_RULES", {})


def test_quadrature_unconverged_newton_raises(monkeypatch):
    def far_seed(x):
        x[-1] = 1.5

    _with_seeds(monkeypatch, far_seed)
    with pytest.raises(MeasureError, match=r"N=16, alpha=0\.25, beta=0"):
        make_measure(Interval(0, 1), WeightSpec(alpha="0.25"), node_count=16)


def test_quadrature_seed_on_neighbour_root_raises(monkeypatch):
    def twin_seed(x):
        x[-1] = x[-2]

    _with_seeds(monkeypatch, twin_seed)
    with pytest.raises(MeasureError, match="not strictly increasing"):
        make_measure(Interval(0, 1), WeightSpec(alpha="0.25"), node_count=16)


@pytest.mark.parametrize(
    "n, A, B",
    [(1, 0, 0), (2, "-0.5", "0.5"), (63, "0.5", "0.5"), (128, "-0.9", 3), (192, 0, 0)],
)
def test_golub_welsch_seeds_near_finished_nodes(n, A, B):
    # Newton's first rung works at 96 bits and needs seeds this close
    A, B = mpf(A), mpf(B)
    nodes, _ = gauss_jacobi_rule(n, A, B)
    a, b = measures.jacobi_recurrence(n, A, B)
    seeds = measures._golub_welsch_seeds(a, b, n)
    assert len(seeds) == n
    assert max(abs(float(x - s)) for x, s in zip(nodes, seeds)) < 1e-13


@pytest.mark.parametrize(
    "n, A, B, digest",
    [
        (64, "-0.5", "-0.5",
         "469f85e2b50a1af11ea4b032793ecdf59bbd7c7039d7a4984d4375be53311951"),
        (128, "-0.9", "3",
         "1bc80e79a793df5403c6b22178c8aafb47a6e407dede82ddfae2fbbca0eb3694"),
    ],
)
def test_gauss_jacobi_rule_bits_pinned(n, A, B, digest):
    # sha256 of the node and weight reprs at 512 bits, as the rules were
    # when scipy's roots_jacobi seeded Newton: a new seed route must not
    # move a single bit
    set_precision(512)
    nodes, weights = gauss_jacobi_rule(n, mpf(A), mpf(B))
    text = "\n".join(repr(v) for v in nodes + weights)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_import_pulls_in_no_scipy():
    code = (
        "import sys, cauchybi, cauchybi.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
