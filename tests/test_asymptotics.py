"""Asymptotic predictors and measured-vs-predicted tables."""

import pytest
from mpmath import mp, mpf, mpc

from cauchybi import (
    F_ratio_modulus,
    Polynomial,
    default_probes,
    empirical_tables,
    form_ratio_prediction,
    lebesgue,
    make_predictor,
    make_system,
    nth_root_prediction,
    rate_prediction,
    solve_hp_vector,
)
from cauchybi import polyzeros
from cauchybi.asymptotics import DomainError, empirical_K, table_to_csv, table_to_json
from cauchybi.measures import Interval
from helpers import Qnj


@pytest.fixture(scope="module")
def pred_s1(eq_s1):
    return make_predictor(eq_s1)


def test_m1_gamma_and_kappa(pred_s1):
    # single interval [-1,1]: omega'_1 = log 2 (capacity 1/2), kappa_1 = 2
    assert abs(pred_s1.equilibrium.omega_prime[0] - mp.log(2)) < mpf("1e-5")
    assert abs(pred_s1.kappas[0] - 2) < mpf("1e-4")


def test_m1_ratio_limit_at_two(pred_s1):
    # |F_1(2)/F_1'(inf)| = (2+sqrt(3))/2 for [-1,1]
    lim = (2 + mp.sqrt(3)) / 2
    assert abs(F_ratio_modulus(pred_s1, 1, mpf(2)) - lim) < mpf("1e-4")


def test_m1_consecutive_leading_ratio(pred_s1):
    # normalizing-constant ratio 1/(2(2+sqrt(3))) at level 0: the limit of
    # |A_{n+1,0}/A_{n,0}|, which is the n-th root limit
    v = nth_root_prediction(pred_s1, 0, mpf(2))
    exact = 1 / (2 * (2 + mp.sqrt(3)))
    assert abs(v - exact) < mpf("1e-4") * exact


def test_kappa_consistency(pred_s2):
    # the normalization chain 2 g_k - g_{k-1} - g_{k+1} = 2 omega'_k makes
    # kappa_k = exp(g_k - (g_{k-1} + g_{k+1})/2) exactly exp(omega'_k)
    for kappa, w in zip(pred_s2.kappas, pred_s2.equilibrium.omega_prime, strict=True):
        assert abs(kappa - mp.exp(w)) < mpf("1e-150") * kappa


def test_probe_domain_enforced(pred_s2):
    with pytest.raises(DomainError):
        F_ratio_modulus(pred_s2, 1, mpf("0.5"))
    # complex probes are fine
    assert F_ratio_modulus(pred_s2, 1, mpc(0, 1)) > 0


def test_default_probes_count_and_distance():
    ivs = [Interval(0, 1), Interval(2, 3)]
    probes = default_probes(ivs)
    assert len(probes) == 9
    reals = [z for z in probes if not isinstance(z, mpc)]
    assert len(reals) == 5
    for z in probes:
        assert all(iv.distance_to_point(z) >= mpf("0.5") for iv in ivs)


def test_decay_flags_below_one(pred_s2):
    for z in default_probes([Interval(0, 1), Interval(2, 3)]):
        assert form_ratio_prediction(pred_s2, 0, 2, z) < 1


def test_rate_prediction_below_one(pred_s2):
    for z in (mpf(-2), mpf(5), mpc(1, 2)):
        assert rate_prediction(pred_s2, z) < 1


def test_ratioQ_table_converges(s2_solutions, pred_s2):
    sols = [s2_solutions[n] for n in range(12)]
    probes = [mpf(-2), mpc("1.5", "1.5")]
    rows = empirical_tables(sols, probes, "ratioQ", pred_s2)
    # at the largest n in the window the relative gap is small already
    last = [r for r in rows if r["n"] == 10]
    assert last and all(r["rel_gap"] < mpf("0.01") for r in last)


def test_leading_table_converges(s2_solutions, pred_s2):
    sols = [s2_solutions[n] for n in range(12)]
    rows = empirical_tables(sols, [], "leading", pred_s2)
    last = [r for r in rows if r["n"] == 10]
    assert last and all(r["rel_gap"] < mpf("0.05") for r in last)


def test_tables_bracket_zeros_by_previous_degree(monkeypatch, pred_s2):
    # a fresh family with no zeros found yet: the tables that read zeros
    # bracket each degree's by the previous degree's, not by a grid scan
    system = make_system([lebesgue(0, 1), lebesgue(2, 3)])
    sols = [solve_hp_vector(system, n) for n in range(9)]

    def no_scan(*args):
        raise AssertionError("grid scan used although the zeros below interlace")

    monkeypatch.setattr(polyzeros, "_scan_sign_changes", no_scan)
    for which in ("ratioQ", "leading"):
        assert empirical_tables(sols, [mpf(-2)], which, pred_s2)


def test_empirical_K_positive_decreasing(s2_solutions):
    # K_{n,m+1} = 1 by convention; K_{n,j} finite positive
    sol = s2_solutions[6]
    assert empirical_K(sol, sol.m + 1) == 1
    for j in (1, 2):
        assert empirical_K(sol, j) > 0


def test_empirical_K_from_chains_matches_node_route(s2_solutions):
    # K_{n,j} reads A_{n,j} at sigma_j's nodes from the solution's chain;
    # the node route evaluates the form at every node.  The two round
    # differently, each by far less than 2^-(prec-16) of the absolute mass
    # of its evaluation (the absolute-value chain below level m, Horner's
    # absolute sum on level m); a misread level or node order would not be.
    for n in (1, 6, 14):
        sol = s2_solutions[n]
        for j in range(1, sol.m + 1):
            mu = sol.system.measure(j)
            Qj, Qjm1 = Qnj(sol, j), Qnj(sol, j - 1)
            if j < sol.m:
                (mass,) = sol.system.push(j + 1, j, [sol._chain(j + 1)], absolute=True)
            else:
                absQ = Polynomial(tuple(abs(c) for c in sol.Q.coeffs))
                mass = [absQ(abs(x)) for x in mu.nodes]
            node_route = bound = mpf(0)
            for x, w, s in zip(mu.nodes, mu.weights, mass):
                node_route += w * abs(Qj(x) * sol.eval_form(j, x) / Qjm1(x))
                bound += w * abs(Qj(x) / Qjm1(x)) * s
            gap = abs(empirical_K(sol, j) ** -2 - node_route)
            assert gap <= mpf(2) ** -(mp.prec - 16) * bound


@pytest.mark.parametrize("which", ["ratioQ", "rate"])
def test_suite_rows_from_last_pair_match_full_family(s2_solutions, pred_s2, which):
    # the ratio-asymptotics and rate suites keep only n = n_max - 1, so they
    # read the last two degrees; those rows must not depend on the rest
    sols = [s2_solutions[n] for n in range(9)]
    probes = [mpf(-2), mpf("4.5"), mpc("1.5", "1.5")]
    full = [r for r in empirical_tables(sols, probes, which, pred_s2) if r["n"] == 7]
    last = empirical_tables(sols[-2:], probes, which, pred_s2)
    assert last and len(full) == len(last)
    for a, b in zip(full, last):
        assert a["rel_gap"] == b["rel_gap"] and a["measured"] == b["measured"]


def test_nonconsecutive_solutions_rejected(s2_solutions, pred_s2):
    with pytest.raises(ValueError):
        empirical_tables(
            [s2_solutions[0], s2_solutions[2]], [mpf(-2)], "ratioQ", pred_s2
        )


def test_rate_table_requires_m2(s1_solutions, eq_s1):
    pred = make_predictor(eq_s1)
    with pytest.raises(ValueError):
        empirical_tables(
            [s1_solutions[n] for n in range(5)], [mpf(3)], "rate", pred
        )


def test_table_serialization(s2_solutions, pred_s2):
    sols = [s2_solutions[n] for n in range(4)]
    rows = empirical_tables(sols, [mpf(-2)], "ratioQ", pred_s2)
    docs = table_to_json(rows)
    assert all(isinstance(d["measured"], str) for d in docs)
    csv = table_to_csv(rows)
    assert csv.splitlines()[0].startswith("n,")
