"""Vector equilibrium problem: solver, potentials, serialization."""

import numpy as np
import pytest
from mpmath import mp, mpf

from cauchybi import moment_distance, solve_equilibrium
from cauchybi.equilibrium import (
    EquilibriumError,
    _spectral,
    solution_from_json,
    solution_to_json,
)
from conftest import BOUNDARY_CHAIN, M3_INTERVALS
from helpers import combined_potential

# omega'_k of the earlier piecewise-constant solver, Richardson-extrapolated
# from 512 and 1024 cells (its error is O(cells^-2))
CELL_RICHARDSON = {
    "s2": (1.7071003644019171, 1.7071003642818907),
    "m3": (1.3881918256343582, 1.3221879396656888, 1.3881918255007275),
}


def test_m1_recovers_arcsine_facts(eq_s1):
    # single interval [-1,1]: omega' = log 2 (capacity 1/2), unit mass
    assert abs(eq_s1.omega_prime[0] - mp.log(2)) < mpf("1e-14")
    lam = eq_s1.lambdas[0]
    assert lam.normalized
    # symmetric measure: odd moment vanishes
    assert abs(lam.rescaled_moments(mpf(-1), mpf(1), 1)[1]) < mpf("1e-14")


def test_m1_potential_constant_inside(eq_s1):
    devs = [
        abs(combined_potential(eq_s1, 1, mpf(-1) + mpf(2) * i / 20) - mp.log(2))
        for i in range(1, 20)
    ]
    assert max(devs) < mpf("1e-14")


def test_s2_masses_and_levels(eq_s2):
    for lam in eq_s2.lambdas:
        assert lam.normalized
    omega_prime, omega = eq_s2.omega_prime, eq_s2.omega_cum
    assert len(omega_prime) == 2
    # backward cumulative sums
    assert abs(omega[1] - omega_prime[1]) < mpf("1e-20")
    assert abs(omega[0] - (omega_prime[0] + omega_prime[1])) < mpf("1e-20")


def test_s2_variational_conditions(eq_s2):
    # W_j = omega'_j on supp(lambda_j), endpoints included
    for j, iv in enumerate(eq_s2.intervals, 1):
        levels = [combined_potential(eq_s2, j, iv.a + iv.length * i / 20) for i in range(21)]
        target = eq_s2.omega_prime[j - 1]
        assert max(abs(v - target) for v in levels) < mpf("1e-12")


@pytest.mark.parametrize(
    "name, intervals", [("s2", ((0, 1), (2, 3))), ("m3", M3_INTERVALS)], ids=["s2", "m3"]
)
def test_omega_prime_matches_cell_richardson(name, intervals):
    eq = solve_equilibrium(intervals)
    for w, ref in zip(eq.omega_prime, CELL_RICHARDSON[name], strict=True):
        assert abs(w - ref) < 1e-8


@pytest.mark.parametrize(
    "intervals", [((0, 1), (2, 3)), M3_INTERVALS], ids=["s2", "m3"]
)
def test_kkt_point_is_unique_minimizer(intervals):
    # the mode equations are the energy's stationarity conditions in the
    # coefficients a_{k,i}, i >= 1, which keep every interval's mass: their
    # matrix is the energy's Hessian there, symmetric because the mutual
    # energies are, and positive definite, so the solved point is the one
    # minimizer
    ivs = [((float(a) + float(b)) / 2, (float(b) - float(a)) / 2) for a, b in intervals]
    S = _spectral(ivs, 32)[0]
    assert np.max(np.abs(S - S.T)) < 1e-12
    eig = np.linalg.eigvalsh((S + S.T) / 2)
    assert eig.min() > 1e-6 * eig.max()


def test_boundary_minimizer_rejected():
    with pytest.raises(EquilibriumError, match="too narrow to resolve"):
        solve_equilibrium(BOUNDARY_CHAIN)
    # a tol that accepts the unresolved K = 8 series meets its density dip
    with pytest.raises(EquilibriumError, match=r"component 3 has density factor .* <= 0"):
        solve_equilibrium(BOUNDARY_CHAIN, tol=mpf(2))


def test_residual_above_tol_rejected():
    # float64 resolves the levels to one rounding, far above this tolerance
    with pytest.raises(EquilibriumError, match="residual"):
        solve_equilibrium([(-1, 1)], tol=mpf("1e-30"))


def test_reversal_symmetry(eq_s2, eq_s2_reversed):
    for x, y in zip(eq_s2.lambdas, reversed(eq_s2_reversed.lambdas)):
        assert moment_distance(x, y, 12) < mpf("1e-12")


def test_serialization_roundtrip(eq_s2):
    doc = solution_to_json(eq_s2)
    # m series of K coefficients each, a_0 = 1 left out
    K = len(eq_s2.lambdas[0].coeffs)
    assert [len(c) for c in doc["lambdas"]] == [K, K]
    back = solution_from_json(doc)
    assert back.m == 2
    assert back.lambdas == eq_s2.lambdas
    assert (back.omega_prime, back.omega_cum) == (eq_s2.omega_prime, eq_s2.omega_cum)
