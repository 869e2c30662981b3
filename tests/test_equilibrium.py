"""Vector equilibrium problem: solver, potentials, serialization."""

import numpy as np
import pytest
from mpmath import mp, mpf

from cauchybi import moment_distance, solve_equilibrium
from cauchybi.equilibrium import (
    EquilibriumError,
    _chebyshev_edges,
    _interaction_matrix,
    solution_from_json,
    solution_to_json,
)
from conftest import BOUNDARY_CELLS, BOUNDARY_CHAIN, M3_INTERVALS
from helpers import combined_potential, zero_mass_basis


def test_m1_recovers_arcsine_facts(eq_s1):
    # single interval [-1,1]: omega' = log 2 (capacity 1/2), unit mass
    assert abs(eq_s1.omega_prime[0] - mp.log(2)) < mpf("1e-6")
    lam = eq_s1.lambdas[0]
    assert lam.normalized
    # symmetric measure: odd moment vanishes to solver tolerance
    assert abs(lam.moments(1)[1]) < mpf("1e-8")


def test_m1_potential_constant_inside(eq_s1):
    devs = [
        abs(combined_potential(eq_s1, 1, mpf(-1) + mpf(2) * i / 20) - mp.log(2))
        for i in range(1, 20)
    ]
    assert max(devs) < mpf("1e-4")


def test_s2_masses_and_levels(eq_s2):
    for lam in eq_s2.lambdas:
        assert lam.normalized
    omega_prime, omega = eq_s2.omega_prime, eq_s2.omega_cum
    assert len(omega_prime) == 2
    # backward cumulative sums
    assert abs(omega[1] - omega_prime[1]) < mpf("1e-20")
    assert abs(omega[0] - (omega_prime[0] + omega_prime[1])) < mpf("1e-20")


def test_s2_variational_conditions(eq_s2):
    # W_j = omega'_j on supp(lambda_j): spot-check at interior cell points
    for j in (1, 2):
        lam = eq_s2.lambdas[j - 1]
        pts = lam.points[len(lam.points) // 4 : -len(lam.points) // 4 : 64]
        levels = [combined_potential(eq_s2, j, x) for x in pts]
        target = eq_s2.omega_prime[j - 1]
        assert max(abs(v - target) for v in levels) < mpf("1e-4")


@pytest.mark.parametrize(
    "intervals", [((0, 1), (2, 3)), M3_INTERVALS], ids=["s2", "m3"]
)
def test_kkt_point_is_unique_minimizer(intervals):
    # the energy is positive definite on directions that keep every
    # interval's mass, so the one KKT point is the minimizer on the simplex,
    # whatever an iterative solver would have started from
    M = 128
    edges = [_chebyshev_edges(float(a), float(b), M) for a, b in intervals]
    Z = zero_mass_basis(len(edges), M)
    eig = np.linalg.eigvalsh(Z.T @ _interaction_matrix(edges) @ Z)
    assert eig.min() > 1e-6 * eig.max()


def test_boundary_minimizer_rejected():
    with pytest.raises(EquilibriumError, match="component 3 has a non-positive cell mass"):
        solve_equilibrium(BOUNDARY_CHAIN, cells_per_interval=BOUNDARY_CELLS)


def test_residual_above_tol_rejected():
    # float64 levels are flat to ~1e-15, far above this tolerance
    with pytest.raises(EquilibriumError, match="KKT residual"):
        solve_equilibrium([(-1, 1)], cells_per_interval=32, tol=mpf("1e-30"))


def test_reversal_symmetry(eq_s2, eq_s2_reversed):
    for x, y in zip(eq_s2.lambdas, reversed(eq_s2_reversed.lambdas)):
        assert moment_distance(x, y, 12) < mpf("1e-6")


def test_serialization_roundtrip(eq_s2):
    doc = solution_to_json(eq_s2)
    back = solution_from_json(doc)
    assert back.m == 2
    for x, y in zip(eq_s2.lambdas, back.lambdas):
        assert y.normalized
        assert moment_distance(x, y, 8) < mpf("1e-20")
    assert max(
        abs(a - b) for a, b in zip(eq_s2.omega_prime, back.omega_prime)
    ) < mpf("1e-25")
