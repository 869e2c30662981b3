"""Nikishin chains: generated measures, kernels, bimoments, adapted bases."""

import pytest
from mpmath import mp, mpf, mpc

from cauchybi import (
    Interval,
    SystemError_,
    WeightSpec,
    cauchy_transform,
    lebesgue,
    make_measure,
    make_system,
    solve_hp_vector,
)
from cauchybi.hp import biorthogonality_entry

# the operator checks run on small rules: the bound is per node count
OPERATOR_NODES = 32


def quad_tol():
    # geometric quadrature truncation dominates arithmetic roundoff
    return mpf(10) ** (-70)


@pytest.fixture()
def s2(s2_system):
    return s2_system


def test_requires_consecutive_disjoint_supports():
    with pytest.raises(SystemError_):
        make_system([lebesgue(0, 1), lebesgue("0.5", 2)])


def test_one_based_measure_access(s2):
    assert s2.m == 2
    assert s2.measure(1).interval.a == 0
    assert s2.measure(2).interval.b == 3
    with pytest.raises(IndexError):
        s2.measure(0)
    with pytest.raises(IndexError):
        s2.measure(3)


def test_reversed_swaps_chain(s2):
    r = s2.reversed()
    assert r.measure(1).interval.a == 2
    assert r.measure(2).interval.b == 1
    # reversing twice restores the original order
    rr = r.reversed()
    assert rr.measure(1).interval.a == 0
    # built once, both ways
    assert s2.reversed() is r
    assert rr is s2


def test_s_hat_level_zero_is_plain_transform(s2):
    z = mpf(-1)
    assert abs(s2.s_hat(1, 1, z) - cauchy_transform(s2.measure(1), z)) == 0


def test_s_hat_one_level_recursion(s2):
    # s_hat_{1,2}(z) = int s_hat_{2,2}(x) dsigma_1(x) / (z - x), checked
    # against an independent direct quadrature composition
    z = mpf(-2)
    mu1, mu2 = s2.measure(1), s2.measure(2)
    direct = mpf(0)
    for x, w in zip(mu1.nodes, mu1.weights):
        inner = sum(
            (w2 / (x - t) for t, w2 in zip(mu2.nodes, mu2.weights)), mpf(0)
        )
        direct += w * inner / (z - x)
    assert abs(s2.s_hat(1, 2, z) - direct) < quad_tol()


def test_s_hat_rejects_on_support(s2):
    from cauchybi.measures import SupportError

    with pytest.raises(SupportError):
        s2.s_hat(1, 2, mpf("0.5"))


def test_s_hat_complex_probe(s2):
    v = s2.s_hat(1, 2, mpc(0, 1))
    assert isinstance(v, mpc) and v.imag != 0


def test_s_hat_memoized_per_point_and_precision(s2):
    z = mpc("-1.5", "0.5")
    v = s2.s_hat(2, 1, z)
    assert s2.s_hat(2, 1, z) is v
    with mp.workprec(2 * mp.prec):
        w = s2.s_hat(2, 1, z)  # a precision of its own
        assert w is not v and s2.s_hat(2, 1, z) is w
    assert abs(w - v) <= mpf(2) ** -(mp.prec - 8) * abs(v)
    from cauchybi.measures import SupportError

    with pytest.raises(SupportError):
        s2.s_hat(2, 1, mpf("2.5"))  # the support check runs before the memo


def test_s_mass_matches_moment_zero(s2):
    assert abs(s2.s_mass(1, 1) - 1) < quad_tol()
    assert abs(s2.s_mass(1, 2) - s2.s_moments(1, 2, 1)[0]) == 0


def test_bimoment_closed_form_oracle(s2):
    # I_00 = int_0^1 int_2^3 dx dy/(x-y) = 4 log 2 - 3 log 3
    exact = 4 * mp.log(2) - 3 * mp.log(3)
    assert abs(s2.bimoment(0, 0) - exact) < quad_tol()
    assert abs(exact + mpf("0.523249")) < mpf("1e-6")


def test_bimoment_m1_reduces_to_plain_moment(s1_system):
    from cauchybi.measures import moment

    for nu, mu_ in ((0, 0), (2, 1), (3, 4)):
        assert (
            abs(
                s1_system.bimoment(nu, mu_)
                - moment(s1_system.measure(1), nu + mu_)
            )
            < quad_tol()
        )


def test_kernel_chain_consistent_with_bimoment(s2):
    # I_{nu,mu} = int int x^nu K(x,y) y^mu dsigma_1 dsigma_2 with the m=2
    # kernel 1/(x-y)
    mu1, mu2 = s2.measure(1), s2.measure(2)
    nu, mu_ = 2, 1
    direct = mpf(0)
    for x, w in zip(mu1.nodes, mu1.weights):
        for y, w2 in zip(mu2.nodes, mu2.weights):
            direct += w * w2 * x**nu * y**mu_ * s2.kernel_K(x, y)
    assert abs(direct - s2.bimoment(nu, mu_)) < quad_tol()


def test_kernel_requires_m_at_least_two(s1_system):
    with pytest.raises(SystemError_):
        s1_system.kernel_K(mpf(0), mpf(0))


def test_reversed_bimoment_relation(s2):
    # reversing the chain transposes the bimoment array up to the kernel
    # orientation sign
    r = s2.reversed()
    for nu in range(3):
        for mu_ in range(3):
            a = s2.bimoment(nu, mu_)
            b = r.bimoment(mu_, nu)
            assert abs(a + b) < quad_tol()


def test_basis_polynomials_are_monic_and_orthogonal(s2):
    # the adapted basis on each interval is orthogonal for its own measure
    for j in (1, 2):
        mu = s2.measure(j)
        polys = [s2.basis_polynomial(j, k) for k in range(5)]
        for p in polys:
            assert p.is_monic or p.degree == 0
        for i in range(5):
            for k in range(i):
                ip = mu.integrate(lambda x: polys[i](x) * polys[k](x))
                norm = mu.integrate(lambda x: polys[i](x) ** 2)
                assert abs(ip) < mpf(10) ** (-100) * max(mpf(1), 1 / norm)


def test_basis_values_match_polynomials(s2):
    vals = s2.basis_values(2, 4)
    mu = s2.measure(2)
    for k in range(4):
        p = s2.basis_polynomial(2, k)
        for x, v in zip(mu.nodes, vals[k]):
            assert abs(p(x) - v) < mpf(10) ** (-100)


def test_gram_equals_bimoment_bilinear_form(s2):
    for nu in range(4):
        for mu_ in range(4):
            g = s2.gram(nu, mu_)
            direct = biorthogonality_entry(
                s2, s2.basis_polynomial(1, nu), s2.basis_polynomial(2, mu_)
            )
            assert abs(g - direct) < mpf(10) ** (-100) * max(1, abs(g))


def _operator_system(family):
    if family == "s2":
        return make_system(
            [lebesgue(0, 1, OPERATOR_NODES), lebesgue(2, 3, OPERATOR_NODES)]
        )
    return make_system(
        [
            lebesgue(0, 1, OPERATOR_NODES),
            make_measure(
                Interval("1.15", "2.15"), WeightSpec("-0.5", "-0.5"), OPERATOR_NODES
            ),
            lebesgue("2.3", "3.3", OPERATOR_NODES),
        ]
    )


def _loop_push(system, j, k, v, absolute):
    """The same contraction as a plain mpf loop at the current precision."""
    mu = system.measure(j)
    if absolute:
        return [
            sum((w * abs(g) / abs(t - x) for x, w, g in zip(mu.nodes, mu.weights, v)), mpf(0))
            for t in system.measure(k).nodes
        ]
    return [
        sum((w * g / (t - x) for x, w, g in zip(mu.nodes, mu.weights, v)), mpf(0))
        for t in system.measure(k).nodes
    ]


@pytest.mark.parametrize("family", ["s2", "m3"])
def test_push_matches_mpf_loop_at_doubled_precision(family):
    sys_ = _operator_system(family)
    eps = mpf(2) ** (-mp.prec)
    for j in range(1, sys_.m):
        for src, dst in ((j, j + 1), (j + 1, j)):
            # an oscillating vector whose contraction cancels, and a
            # one-signed one spanning many binades
            osc = sys_.basis_values(src, 8)[7]
            graded = [mpf(2) ** (-4 * l) for l in range(OPERATOR_NODES)]
            for v in (osc, graded):
                (signed,) = sys_.push(src, dst, [v])
                (absolute,) = sys_.push(src, dst, [v], absolute=True)
                with mp.workprec(2 * mp.prec):
                    ref = _loop_push(sys_, src, dst, v, False)
                    ref_abs = _loop_push(sys_, src, dst, v, True)
                    for got, got_abs, r, ra in zip(signed, absolute, ref, ref_abs):
                        assert abs(got - r) <= eps * ra
                        assert abs(got_abs - ra) <= eps * ra


@pytest.mark.parametrize("family", ["s2", "m3"])
def test_eval_form_fixed_point_matches_direct_route(family):
    sys_ = _operator_system(family)
    sol = solve_hp_vector(sys_, 5)
    eps = mpf(2) ** (-mp.prec)
    for z in (mpf(-2), mpc("1.5", "1.5")):
        for j in range(sys_.m):
            a = sol.eval_form(j, z)
            b = sol.eval_form(j, z, route="direct")
            assert abs(a - b) <= mpf(10) ** (-60) * max(1, abs(a))
            # the same contraction in mpf at doubled precision
            mu = sys_.measure(j + 1)
            u = sol._chain(j + 1)
            with mp.workprec(2 * mp.prec):
                ref = sum((w * g / (z - x) for x, w, g in zip(mu.nodes, mu.weights, u)), mpc(0))
                mass = sum((w * abs(g) / abs(z - x) for x, w, g in zip(mu.nodes, mu.weights, u)), mpf(0))
                assert abs(a - ref) <= eps * mass


@pytest.mark.parametrize("family", ["s2", "m3"])
def test_power_sums_match_mpf_loop_at_doubled_precision(family):
    sys_ = _operator_system(family)
    eps = mpf(2) ** (-mp.prec)
    mu = sys_.measure(2)
    v = sys_.basis_values(2, 8)[7]
    count = 12
    sums = sys_.power_sums(2, v, count)
    masses = sys_.power_sums(2, v, count, absolute=True)
    with mp.workprec(2 * mp.prec):
        for r in range(count):
            terms = [w * g * x**r for x, w, g in zip(mu.nodes, mu.weights, v)]
            mass = sum((abs(t) for t in terms), mpf(0))
            assert abs(sums[r] - sum(terms, mpf(0))) <= eps * mass
            assert abs(masses[r] - mass) <= eps * mass
