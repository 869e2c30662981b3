"""Hermite-Pade solver: Q_n, the polynomial vector, forms, biorthogonality."""

import pytest
from mpmath import mp, mpf, mpc

from cauchybi import (
    HPSolution,
    HPSolverError,
    Polynomial,
    biorthogonality_matrix,
    default_probes,
    form_identity_residual,
    lebesgue,
    make_system,
    solve_hp_vector,
    solve_Qn,
)
from cauchybi import polyzeros
from cauchybi.hp import solution_from_json, solution_to_json
from cauchybi.precision import tol
from helpers import Qnj, biorthogonality_entry, eval_form_direct


def biorthogonality_pair(system, P, Q):
    """(entry, scale) of one P against one Q."""
    entries, scales = biorthogonality_matrix(system, [P], [Q])
    return entries[0][0], scales[0][0]


def test_Q0_is_one(s2_system):
    assert solve_Qn(s2_system, 0).coeffs == (mpf(1),)


def test_Q1_closed_form(s2_system):
    # 1x1 system: Q_1 = x - I_01/I_00 with closed-form bimoments
    # I_00 = 4log2 - 3log3, I_01 = 5/2 log2 ... computed independently here
    # by direct double quadrature
    mu1, mu2 = s2_system.measure(1), s2_system.measure(2)
    I = [mpf(0), mpf(0)]
    for x, w in zip(mu1.nodes, mu1.weights):
        for y, w2 in zip(mu2.nodes, mu2.weights):
            I[0] += w * w2 / (x - y)
            I[1] += w * w2 * y / (x - y)
    Q1 = solve_Qn(s2_system, 1)
    assert Q1.leading == 1 and Q1.degree == 1
    assert abs(Q1.coeffs[0] + I[1] / I[0]) < mpf(10) ** (-120)


def test_Qn_monic_with_zeros_in_top_interval(s2_system, s2_solutions):
    sol = s2_solutions[5]
    Q = sol.Q
    assert Q.leading == 1 and Q.degree == 5
    zs = sol.zeros(2)
    assert len(zs) == 5
    assert all(mpf(2) < z < mpf(3) for z in zs)


def test_vector_structure(s2_solutions):
    sol = s2_solutions[7]
    # a_m = (-1)^m Q (m=2 even), degree bounds on the lower entries
    assert sol.a[2].degree == 7
    assert sol.a[2].leading == 1
    assert sol.a[1].degree <= 6
    assert sol.a[0].degree <= 6


def test_n0_vector_trivial(s2_system):
    sol = solve_hp_vector(s2_system, 0)
    assert sol.a[2].coeffs == (mpf(1),)
    assert sol.a[1].is_zero and sol.a[0].is_zero


def test_order_conditions_verified(s2_solutions):
    # expansion coefficients z^-1..z^-n of the top form vanish relative to
    # their own quadrature mass; the (n+1)-st sets the scale and is nonzero
    for n in (3, 10, 30):
        d = s2_solutions[n].diagnostics
        assert len(d["residuals"]) == n
        assert max(d["residuals"]) < mpf(10) ** (-100)
        assert d["scale"] > 0


def test_condition_logged_and_moderate(s2_solutions):
    d = s2_solutions[20].diagnostics
    assert d["cond"] > 1
    # the adapted-basis system grows geometrically but far below the
    # precision budget
    assert d["cond"] < mpf(10) ** 30


def test_chain_and_direct_evaluation_agree(s2_solutions):
    sol = s2_solutions[6]
    for z in (mpf(-2), mpc("1.5", "1.5")):
        for j in (0, 1):
            a = sol.eval_form(j, z)
            b = eval_form_direct(sol, j, z)
            assert abs(a - b) <= mpf(10) ** (-60) * max(1, abs(a))


def test_form_at_top_level_is_polynomial(s2_solutions):
    sol = s2_solutions[4]
    z = mpf(-3)
    assert sol.eval_form(2, z) == sol.a[2](z)


def test_top_form_decay_at_infinity(s2_solutions):
    # z^{n+1} A_{n,0}(z) stays bounded as z grows
    sol = s2_solutions[4]
    vals = [
        abs(sol.eval_form(0, mpf(R)) * mpf(R) ** 5) for R in (10, 100, 1000)
    ]
    assert max(vals) < 10 * vals[0] + 1


def test_zeros_of_forms_located_and_simple(s2_solutions):
    sol = s2_solutions[8]
    for j, (lo, hi) in ((1, (0, 1)), (2, (2, 3))):
        zs = sol.zeros(j)
        assert len(zs) == 8
        assert all(mpf(lo) < z < mpf(hi) for z in zs)
        gaps = [b - a for a, b in zip(zs, zs[1:])]
        assert min(gaps) > mpf(10) ** (-mp.dps // 4)


def test_interlacing_consecutive_degrees(s2_solutions):
    from cauchybi import interlaces

    for j in (1, 2):
        assert interlaces(s2_solutions[9].zeros(j), s2_solutions[10].zeros(j))


def test_biorthogonality_small_matrix(s2_system, s2_solutions, s2_reversed_solutions):
    n_max = 5
    for n in range(n_max + 1):
        Q = s2_solutions[n].Q
        for k in range(n_max + 1):
            P = s2_reversed_solutions[k].Q
            e, scale = biorthogonality_pair(s2_system, P, Q)
            if k != n:
                assert abs(e) <= mpf(10) ** (-120) * scale
            else:
                assert abs(e) > mpf(10) ** (-mp.dps // 2) * scale


def test_biorthogonality_matrix_matches_pairwise(
    s2_system, s2_solutions, s2_reversed_solutions
):
    Ps = [s2_reversed_solutions[k].Q for k in range(4)]
    Qs = [s2_solutions[n].Q for n in range(4)]
    entries, scales = biorthogonality_matrix(s2_system, Ps, Qs)
    for i in (0, 3):
        for j in (1, 2):
            e, s = biorthogonality_pair(s2_system, Ps[i], Qs[j])
            assert abs(entries[i][j] - e) <= mpf(10) ** (-140) * s
            assert scales[i][j] == s


def test_quadrature_entry_matches_bimoment_route(s2_system, s2_solutions, s2_reversed_solutions):
    P, Q = s2_reversed_solutions[4].Q, s2_solutions[4].Q
    e_quad, _ = biorthogonality_pair(s2_system, P, Q)
    e_bim = biorthogonality_entry(s2_system, P, Q)
    assert abs(e_quad - e_bim) < mpf(10) ** (-100) * abs(e_bim)


def test_form_identity_residuals_small(s2_solutions):
    sol = s2_solutions[10]
    for j in (0, 1):
        for z in (mpf(-2), mpf(5), mpc(1, 2)):
            assert form_identity_residual(sol, j, z) < mpf(10) ** (-70)


def test_form_identity_m3(m3_solutions):
    sol = m3_solutions[8]
    for j in (0, 1, 2):
        r = form_identity_residual(sol, j, mpf(-2))
        assert r < mpf(10) ** (-70)


def test_form_identity_passes_at_n40(s2_solutions):
    # a_{n,0}/a_{n,m} -> shat_{m,1}, so the right-hand side a_0 - a_m shat
    # cancels geometrically in n while the rounding of its terms does not:
    # the scale holds both terms
    sol = s2_solutions[40]
    probes = default_probes([sol.system.interval(1), sol.system.interval(2)])
    assert max(form_identity_residual(sol, j, z) for j in (0, 1) for z in probes) <= tol()


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_form_identity_fails_on_perturbed_a0(s2_solutions, where):
    sol = s2_solutions[40]
    coeffs = list(sol.a[0].coeffs)
    i = {"first": 0, "middle": len(coeffs) // 2, "last": len(coeffs) - 1}[where]
    coeffs[i] *= 1 + mpf(10) ** -60
    bad = HPSolution(sol.system, sol.n, (Polynomial(coeffs), *sol.a[1:]), sol.c, sol.diagnostics)
    probes = default_probes([sol.system.interval(1), sol.system.interval(2)])
    assert max(form_identity_residual(bad, 0, z) for z in probes) > tol()


def test_int1_consistency(s2_solutions):
    # A_{n,j}(z)/Q_{n,j}(z) equals the quadrature of
    # A_{n,j+1}(x) / ((z-x) Q_{n,j}(x)) dsigma_{j+1}(x)
    sol = s2_solutions[6]
    sys = sol.system
    z = mpf(-4)
    for j in (0, 1):
        mu = sys.measure(j + 1)
        Qj = Qnj(sol, j)
        lhs = sol.eval_form(j, z) / Qj(z) if j > 0 else sol.eval_form(j, z)
        rhs = mpf(0)
        for x, w in zip(mu.nodes, mu.weights):
            rhs += w * sol.eval_form(j + 1, x) / ((z - x) * Qj(x))
        if j == 0:
            lhs = sol.eval_form(0, z)  # Q_{n,0} = 1
        assert abs(lhs - rhs) < mpf(10) ** (-60) * max(1, abs(lhs))


def test_varying_measure_sign_constancy(s2_solutions):
    # H_{n,j+1} / (Q_{n,j} Q_{n,j+2}) keeps one sign along the middle interval
    sol = s2_solutions[6]
    sys = sol.system
    j = 0
    Q1, Q2 = Qnj(sol, 1), Qnj(sol, 2)
    signs = set()
    iv = sys.interval(1)
    for i in range(1, 40):
        x = iv.a + iv.length * mpf(i) / 40
        h = Q2(x) * sol.eval_form(1, x) / Q1(x)
        v = h / (Qnj(sol, 0)(x) * Q2(x))
        signs.add(v > 0)
    assert len(signs) == 1


def test_reversed_m1_equals_forward(s1_system):
    from cauchybi import solve_reversed

    a = solve_hp_vector(s1_system, 6).Q
    b = solve_reversed(s1_system, 6).Q
    assert max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < mpf(10) ** (-100)


def test_reversed_zero_location(s2_reversed_solutions):
    zs = s2_reversed_solutions[2].zeros(2)
    assert len(zs) == 2 and all(mpf(0) < z < mpf(1) for z in zs)


def test_solution_serialization_roundtrip(s2_system, s2_solutions):
    sol = s2_solutions[5]
    doc = solution_to_json(sol)
    back = solution_from_json(s2_system, doc)
    assert back.n == 5
    for p, q in zip(sol.a, back.a):
        assert max(
            abs(x - y) for x, y in zip(p.coeffs, q.coeffs)
        ) < mpf(10) ** (-25) * max(1, max(abs(c) for c in p.coeffs))


def test_eval_form_rejects_on_support(s2_solutions):
    from cauchybi.measures import SupportError

    with pytest.raises((SupportError, ValueError)):
        s2_solutions[3].eval_form(0, mpf("0.5"))


# -- zero finding: interlacing brackets and safeguarded Newton -----------


def _fresh(sol):
    """The same solution with no zeros cached; it shares the chains."""
    return HPSolution(sol.system, sol.n, sol.a, sol.c, sol.diagnostics, sol._chains)


@pytest.mark.parametrize(
    "family, top",
    [
        ("s2_solutions", 41),
        ("s2_reversed_solutions", 41),
        ("m3_solutions", 30),
        ("m3_reversed_solutions", 30),
    ],
)
def test_interlacing_brackets_match_scan_zeros(request, monkeypatch, family, top):
    sols = request.getfixturevalue(family)
    scans = {
        # a grid scan of each degree; the fixtures' cached zeros may have
        # been bracketed already by an estimator table over the family
        (n, j): _fresh(sols[n]).zeros(j)
        for n in range(1, top + 1)
        for j in range(1, sols[n].m + 1)
    }

    def no_scan(*args):
        raise AssertionError("grid scan used although the zeros below interlace")

    monkeypatch.setattr(polyzeros, "_scan_sign_changes", no_scan)
    for j in range(1, sols[0].m + 1):
        iv = sols[0].system.interval(j)
        xtol = mpf(10) ** (-mp.dps // 3) * max(mpf(1), abs(iv.a), abs(iv.b))
        below = ()
        for n in range(1, top + 1):
            zs = _fresh(sols[n]).zeros(j, below=below)
            assert len(zs) == n
            assert max(abs(a - b) for a, b in zip(zs, scans[n, j])) <= xtol
            below = zs


@pytest.mark.parametrize("family", ["s2_solutions", "m3_solutions"])
def test_eval_form_slope_matches_central_difference(request, family):
    sol = request.getfixturevalue(family)[12]
    for j in range(sol.m + 1):
        # both sides of Delta_{j+1}; Q_n (j = m) inside Delta_m
        iv = sol.system.interval(min(j + 1, sol.m))
        span = iv.b - iv.a
        points = [iv.a + span / 3] if j == sol.m else [iv.a - span / 3, iv.b + span / 3]
        for x in points:
            value, slope = sol.eval_form(j, x, slope=True)
            assert value == sol.eval_form(j, x)
            with mp.workprec(2 * mp.prec):
                h = mpf(2) ** (-mp.prec // 3)
                diff = (sol.eval_form(j, x + h) - sol.eval_form(j, x - h)) / (2 * h)
            assert abs(slope - diff) <= mpf(2) ** -32 * abs(diff), (j, x)


@pytest.mark.parametrize("family", ["s2_solutions", "m3_solutions"])
def test_corrupted_zeros_below_fall_back_to_scan(request, family):
    sols = request.getfixturevalue(family)
    n = 8
    for j in range(1, sols[n].m + 1):
        a = sols[n].system.interval(j).a
        scan = _fresh(sols[n]).zeros(j)
        below = list(sols[n - 1].zeros(j))
        # left of A_n's first zero, f has the sign it has at a: one sign
        # change of the interlacing brackets is gone
        shifted = [(a + scan[0]) / 2, *below[1:]]
        for bad in (shifted, below[:-1], below + [below[-1]]):
            assert _fresh(sols[n]).zeros(j, below=bad) == scan

        # a list of the wrong length costs no evaluation
        def unused(x):
            raise AssertionError("evaluated at a list of the wrong length")

        iv = sols[n].system.interval(j)
        for bad in (below[:-1], below + [below[-1]]):
            assert polyzeros._interlaced(unused, iv.a, iv.b, bad, n) is None
