"""Vector equilibrium problem for the Nikishin interaction matrix.

The energy E(mu) = sum_{j,k} c_{jk} int int log(1/|x-y|) dmu_j dmu_k, with
the Nikishin coupling c_{jj} = 1, c_{j,j+-1} = -1/2 and 0 otherwise, is
minimized over products of probability measures, one per interval, each
discretized as a piecewise-constant density on Chebyshev-spaced cells
(denser near the endpoints where the equilibrium density blows up like an
inverse square root).  All cell-pair interaction integrals use the exact
closed-form double antiderivative, so there is no quadrature bias; the
self-cell value reduces to h^2(3/2 - log h).

The discrete minimizer is one equality-constrained KKT solve with every
cell in the support: the energy is positive definite on zero-mass
directions, so that stationary point is the minimizer on the product
simplex whenever its cell masses are all positive.  The solve is checked,
not iterated: a non-positive cell mass, or a half-gradient that misses its
per-interval level by more than the tolerance, raises EquilibriumError.
The conditioning is benign, so this module runs in double precision;
results are exposed as mpf through DiscreteMeasure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import repr_dps

from .measures import Interval
from .polyzeros import DiscreteMeasure


class EquilibriumError(ArithmeticError):
    pass


def _chebyshev_edges(a: float, b: float, M: int) -> np.ndarray:
    i = np.arange(M + 1)
    return a + (b - a) * (1 - np.cos(np.pi * i / M)) / 2


def _Phi(u: np.ndarray) -> np.ndarray:
    """Double antiderivative of log|x-y| along the difference u = x - y."""
    au = np.abs(u)
    out = np.zeros_like(u)
    nz = au > 0
    out[nz] = 0.5 * u[nz] ** 2 * np.log(au[nz]) - 0.75 * u[nz] ** 2
    return out


def _pair_block(edges_a: np.ndarray, edges_b: np.ndarray) -> np.ndarray:
    """Cell-averaged -log|x-y| interactions between two edge grids.

    Entry (i, l) is (1/(h_i h_l)) * intint_{cell_i x cell_l} -log|x-y|,
    exact via the closed-form Phi at the four corner differences.
    """
    lo_a, hi_a = edges_a[:-1], edges_a[1:]
    lo_b, hi_b = edges_b[:-1], edges_b[1:]
    I2 = (
        _Phi(np.subtract.outer(hi_a, lo_b))
        - _Phi(np.subtract.outer(lo_a, lo_b))
        - _Phi(np.subtract.outer(hi_a, hi_b))
        + _Phi(np.subtract.outer(lo_a, hi_b))
    )
    h_a, h_b = hi_a - lo_a, hi_b - lo_b
    return -I2 / np.outer(h_a, h_b)


@dataclass
class EquilibriumSolution:
    intervals: tuple
    lambdas: tuple  # DiscreteMeasure per interval (cell densities)
    omega_prime: tuple
    omega_cum: tuple
    residual: mpf

    @property
    def m(self) -> int:
        return len(self.intervals)


def _interaction_matrix(edges) -> np.ndarray:
    """Q with x^T Q x the vector energy of cell masses x, one block per
    interval's edge grid, weighted by the Nikishin coupling."""
    m, M = len(edges), len(edges[0]) - 1
    Q = np.zeros((m * M, m * M))
    for j in range(m):
        # the Nikishin coupling's upper triangle: 1, then -1/2 right of it
        for k, c in ((j, 1.0), (j + 1, -0.5))[: m - j]:
            blk = c * _pair_block(edges[j], edges[k])
            Q[j * M : (j + 1) * M, k * M : (k + 1) * M] = blk
            if k != j:
                Q[k * M : (k + 1) * M, j * M : (j + 1) * M] = blk.T
    return Q


def solve_equilibrium(
    intervals,
    cells_per_interval: int = 256,
    tol=mpf("1e-8"),
) -> EquilibriumSolution:
    """Discrete minimizer of the vector energy on the product simplex.

    Raises EquilibriumError unless every cell mass is positive and the
    half-gradient W = Qx is within tol of one level per interval.
    """
    intervals = tuple(
        iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals
    )
    m = len(intervals)
    M = int(cells_per_interval)
    N = m * M
    edges = [_chebyshev_edges(float(iv.a), float(iv.b), M) for iv in intervals]
    Q = _interaction_matrix(edges)

    # stationarity 2 Q x + A^T nu = 0 and unit mass A x = 1, A the block sums
    A = np.kron(np.eye(m), np.ones(M))
    K = np.zeros((N + m, N + m))
    K[:N, :N] = 2.0 * Q
    K[:N, N:] = A.T
    K[N:, :N] = A
    rhs = np.zeros(N + m)
    rhs[N:] = 1.0
    sol = np.linalg.solve(K, rhs)
    x, levels = sol[:N], -sol[N:] / 2.0

    W = Q @ x
    residual = 0.0
    for j in range(m):
        blk = slice(j * M, (j + 1) * M)
        if np.any(x[blk] <= 0):
            raise EquilibriumError(
                f"component {j + 1} has a non-positive cell mass: "
                "the minimizer does not charge every cell"
            )
        residual = max(residual, float(np.max(np.abs(W[blk] - levels[j]))))
    if residual > float(tol):
        raise EquilibriumError(f"KKT residual {residual:g} above tol {float(tol):g}")

    lambdas = []
    for j in range(m):
        wm = [mpf(v) for v in x[j * M : (j + 1) * M]]
        total = sum(wm, mpf(0))
        lambdas.append(_cells([mpf(v) for v in edges[j]], [v / total for v in wm]))

    omega_prime = tuple(mpf(v) for v in levels)
    omega_cum = []
    acc = mpf(0)
    for v in reversed(omega_prime):
        acc += v
        omega_cum.append(acc)
    omega_cum = tuple(reversed(omega_cum))

    return EquilibriumSolution(
        intervals=intervals,
        lambdas=tuple(lambdas),
        omega_prime=omega_prime,
        omega_cum=omega_cum,
        residual=mpf(residual),
    )


def _cells(edges, weights) -> DiscreteMeasure:
    """Cell density with these edges and masses, at the exact midpoints."""
    mids = tuple((a + b) / 2 for a, b in zip(edges, edges[1:]))
    return DiscreteMeasure(mids, tuple(weights), tuple(edges))


def solution_to_json(sol: EquilibriumSolution) -> dict:
    """JSON-ready document at round-trip digits: loaded equals solved."""
    num = lambda v: mp.nstr(v, repr_dps(mp.prec))
    return {
        "intervals": [[num(iv.a), num(iv.b)] for iv in sol.intervals],
        "lambdas": [
            {
                "cell_edges": [num(e) for e in lam.cell_edges],
                "weights": [num(w) for w in lam.weights],
            }
            for lam in sol.lambdas
        ],
        "omega_prime": [num(v) for v in sol.omega_prime],
        "omega_cum": [num(v) for v in sol.omega_cum],
        "residual": mp.nstr(sol.residual, 8),
    }


def solution_from_json(doc: dict) -> EquilibriumSolution:
    intervals = tuple(Interval(a, b) for a, b in doc["intervals"])
    lambdas = []
    for l in doc["lambdas"]:
        w = [mpf(v) for v in l["weights"]]
        total = sum(w, mpf(0))
        # restore unit mass lost to fewer digits (round-trip weights keep it)
        if abs(total - 1) > len(w) * mp.eps:
            w = [v / total for v in w]
        lambdas.append(_cells([mpf(e) for e in l["cell_edges"]], w))
    lambdas = tuple(lambdas)
    return EquilibriumSolution(
        intervals=intervals,
        lambdas=lambdas,
        omega_prime=tuple(mpf(v) for v in doc["omega_prime"]),
        omega_cum=tuple(mpf(v) for v in doc["omega_cum"]),
        residual=mpf(doc["residual"]),
    )
