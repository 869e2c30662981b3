"""Vector equilibrium problem for the Nikishin interaction matrix.

The energy E(mu) = sum_{j,k} c_{jk} int int log(1/|x-y|) dmu_j dmu_k, with
the Nikishin coupling c_{jj} = 1, c_{j,j+-1} = -1/2 and 0 otherwise, is
minimized over products of probability measures, one per interval
Delta_k = [c - r, c + r].  Each component is a Chebyshev series against the
arcsine weight, dlambda_k = sum_{i=0}^K a_{k,i} T_i(s) ds/(pi sqrt(1 - s^2))
in s = (t - c)/r with a_{k,0} = 1 (`ChebyshevMeasure`), so every log-kernel
interaction is closed form (Mason & Handscomb, *Chebyshev Polynomials*,
2003; see `polyzeros.log_potential`).

The minimizer charges every interval, where W_j = sum_k c_{jk} V^{lambda_k}
is constant, omega'_j.  Requiring Chebyshev modes 1..K of W_j on Delta_j to
vanish gives m*K linear equations (S. Olver, "Computation of equilibrium
measures", J. Approx. Theory 163, 2011), and mode 0 gives omega'_j; a
neighbour's potential is projected onto Delta_j's modes by a discrete cosine
transform.  The coefficients decay geometrically, at a rate set by the gaps
between the intervals: K doubles from 8 until the coefficients above K/2 are
below tol.  The solve is checked, not trusted: EquilibriumError is raised
when K reaches its cap unresolved, when a density factor sum_i a_{k,i} T_i
is not positive on its interval, or when W_j misses omega'_j by more than
tol between the modes.  The solve runs in float64; its coefficients enter
the working precision exactly, as mpf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import repr_dps

from .measures import Interval
from .polyzeros import ChebyshevMeasure

_K_START, _K_MAX = 8, 256


class EquilibriumError(ArithmeticError):
    pass


@dataclass
class EquilibriumSolution:
    intervals: tuple
    lambdas: tuple  # ChebyshevMeasure per interval
    omega_prime: tuple
    omega_cum: tuple
    residual: mpf

    @property
    def m(self) -> int:
        return len(self.intervals)


def _chebyshev_sum(theta: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] T_i(cos theta) = sum_i coeffs[i] cos(i theta)."""
    return np.cos(np.outer(theta, np.arange(len(coeffs)))) @ coeffs


def _off_support(c: float, r: float, x: np.ndarray, K: int) -> np.ndarray:
    """Column i = 0..K: the potential of basis function i of [c - r, c + r]
    at the real points x off that interval, log(2/r) - log|phi| and then
    phi^{-i}/i."""
    xi = (x - c) / r
    w = 1 / (xi + np.sign(xi) * np.sqrt(xi * xi - 1))  # 1/phi, |w| < 1
    i = np.arange(1, K + 1)
    return np.column_stack([np.log(2 / r) + np.log(np.abs(w)), w[:, None] ** i / i])


def _spectral(ivs, K: int):
    """(S, a, omega') at fixed K for float intervals ivs = ((c, r), ...):
    a is m x (K+1) with a[:, 0] = 1, and S the matrix of the mode equations
    in a[:, 1:], which is the energy's Hessian on zero-mass directions."""
    m = len(ivs)
    S = np.kron(np.eye(m), np.diag(1.0 / np.arange(1, K + 1)))
    rhs = np.zeros(m * K)
    # a neighbour's basis potentials at Delta_j's first-kind Chebyshev points,
    # then their modes 0..K there, halved by the coupling
    N = 4 * K
    theta = np.pi * (np.arange(N) + 0.5) / N
    dct = np.cos(np.outer(np.arange(K + 1), theta)) * (2 / N)
    dct[0] /= 2
    blocks = {}
    for j, (cj, rj) in enumerate(ivs):
        for k in (j - 1, j + 1):
            if 0 <= k < m:
                B = dct @ _off_support(*ivs[k], cj + rj * np.cos(theta), K) / 2
                blocks[j, k] = B
                S[j * K : (j + 1) * K, k * K : (k + 1) * K] -= B[1:, 1:]
                rhs[j * K : (j + 1) * K] += B[1:, 0]
    a = np.hstack([np.ones((m, 1)), np.linalg.solve(S, rhs).reshape(m, K)])
    omega = np.log([2 / r for _, r in ivs])
    for (j, k), B in blocks.items():
        omega[j] -= B[0] @ a[k]
    return S, a, omega


def _residual(ivs, a, omega) -> float:
    """max_j of |W_j - omega'_j| at 4K + 1 equispaced points inside Delta_j,
    which are not the modes the solve matched, plus eps times the sum of the
    terms' magnitudes: float64 resolves no finer."""
    m, K = a.shape[0], a.shape[1] - 1
    s = np.linspace(-1, 1, 4 * K + 3)[1:-1]
    worst = 0.0
    for j, (cj, rj) in enumerate(ivs):
        own = _chebyshev_sum(np.arccos(s), np.r_[np.log(2 / rj), a[j, 1:] / np.arange(1, K + 1)])
        W, scale = own - omega[j], np.abs(own)
        for k in (j - 1, j + 1):
            if 0 <= k < m:
                V = _off_support(*ivs[k], cj + rj * s, K) @ a[k] / 2
                W, scale = W - V, scale + np.abs(V)
        worst = max(worst, float(np.max(np.abs(W) + np.finfo(float).eps * scale)))
    return worst


def solve_equilibrium(intervals, tol=mpf("1e-8")) -> EquilibriumSolution:
    """Minimizer of the vector energy, one Chebyshev series per interval.

    Raises EquilibriumError unless the coefficients resolve below tol by
    K = 256, every density factor is positive on its interval, and W_j is
    within tol of omega'_j on Delta_j.
    """
    intervals = tuple(
        iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals
    )
    ivs = [(float(iv.midpoint), float(iv.length) / 2) for iv in intervals]
    tol = float(tol)
    K = _K_START
    while True:
        _, a, omega = _spectral(ivs, K)
        trailing = float(np.max(np.abs(a[:, K // 2 + 1 :])))
        if trailing <= tol:
            break
        if K >= _K_MAX:
            raise EquilibriumError(
                f"coefficients above K/2 still reach {trailing:.2g} at K = {K}, "
                f"above tol {tol:g}: the gaps between the intervals are too "
                "narrow to resolve"
            )
        K *= 2
    grid = np.linspace(0, np.pi, 8 * K + 1)
    for k, row in enumerate(a):
        low = float(np.min(_chebyshev_sum(grid, row)))
        if low <= 0:
            raise EquilibriumError(
                f"component {k + 1} has density factor {low:.2g} <= 0 on its "
                "interval: the minimizer does not charge all of it"
            )
    residual = _residual(ivs, a, omega)
    if residual > tol:
        raise EquilibriumError(f"equilibrium residual {residual:g} above tol {tol:g}")
    omega_prime = tuple(mpf(v) for v in omega)
    omega_cum, acc = [], mpf(0)
    for v in reversed(omega_prime):
        acc += v
        omega_cum.append(acc)
    return EquilibriumSolution(
        intervals=intervals,
        lambdas=tuple(ChebyshevMeasure(iv, row[1:]) for iv, row in zip(intervals, a)),
        omega_prime=omega_prime,
        omega_cum=tuple(reversed(omega_cum)),
        residual=mpf(residual),
    )


def solution_to_json(sol: EquilibriumSolution) -> dict:
    """JSON-ready document at round-trip digits: loaded equals solved."""
    num = lambda v: mp.nstr(v, repr_dps(mp.prec))
    return {
        "intervals": [[num(iv.a), num(iv.b)] for iv in sol.intervals],
        "lambdas": [[num(v) for v in lam.coeffs] for lam in sol.lambdas],
        "omega_prime": [num(v) for v in sol.omega_prime],
        "omega_cum": [num(v) for v in sol.omega_cum],
        "residual": mp.nstr(sol.residual, 8),
    }


def solution_from_json(doc: dict) -> EquilibriumSolution:
    intervals = tuple(Interval(a, b) for a, b in doc["intervals"])
    return EquilibriumSolution(
        intervals=intervals,
        lambdas=tuple(
            ChebyshevMeasure(iv, coeffs)
            for iv, coeffs in zip(intervals, doc["lambdas"], strict=True)
        ),
        omega_prime=tuple(mpf(v) for v in doc["omega_prime"]),
        omega_cum=tuple(mpf(v) for v in doc["omega_cum"]),
        residual=mpf(doc["residual"]),
    )
