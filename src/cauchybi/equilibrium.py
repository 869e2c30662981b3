"""Vector equilibrium problem for the Nikishin interaction matrix.

The energy E(mu) = sum_{j,k} c_{jk} int int log(1/|x-y|) dmu_j dmu_k, with
the Nikishin coupling c_{jj} = 1, c_{j,j+-1} = -1/2 and 0 otherwise, is
minimized over products of probability measures, one per interval, each
discretized as a piecewise-constant density on Chebyshev-spaced cells
(denser near the endpoints where the equilibrium density blows up like an
inverse square root).  All cell-pair interaction integrals use the exact
closed-form double antiderivative, so there is no quadrature bias; the
self-cell value reduces to h^2(3/2 - log h).

The optimizer is a short exact-line-search Frank-Wolfe phase (support
identification, monotone energy) followed by a primal active-set QP solve
on the product simplex, which lands on the exact discrete minimizer.  The
conditioning is benign, so this module runs in double precision; results
are exposed as mpf through DiscreteMeasure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    iterations: int
    energy_log: tuple = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.intervals)


def _kkt_solve(Q, active, m, M):
    """Equality-constrained minimizer of x^T Q x with per-block unit mass on
    the active cells; returns (x, levels) with levels the per-block constant
    of the half-gradient W = Qx on active cells."""
    idx = np.flatnonzero(active)
    na = idx.size
    A = np.zeros((m, na))
    for j in range(m):
        A[j, (idx >= j * M) & (idx < (j + 1) * M)] = 1.0
    if not np.all(A.sum(axis=1) > 0):
        raise EquilibriumError("a component lost all active cells")
    K = np.zeros((na + m, na + m))
    K[:na, :na] = 2.0 * Q[np.ix_(idx, idx)]
    K[:na, na:] = A.T
    K[na:, :na] = A
    rhs = np.zeros(na + m)
    rhs[na:] = 1.0
    sol = np.linalg.solve(K, rhs)
    x = np.zeros(m * M)
    x[idx] = sol[:na]
    levels = -sol[na:] / 2.0
    return x, levels


def solve_equilibrium(
    intervals,
    cells_per_interval: int = 256,
    tol=mpf("1e-8"),
    max_iter: int = 500,
    init: str = "uniform",
) -> EquilibriumSolution:
    """Discrete minimizer of the vector energy on the product simplex.

    init="uniform" starts from mass proportional to cell length;
    init="arcsine" from equal cell masses (which on Chebyshev-spaced cells
    is the arcsine profile).  Both must land on the same minimizer.
    """
    intervals = tuple(
        iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals
    )
    m = len(intervals)
    M = int(cells_per_interval)
    tol_f = float(tol)

    edges = [_chebyshev_edges(float(iv.a), float(iv.b), M) for iv in intervals]
    N = m * M
    Q = np.zeros((N, N))
    for j in range(m):
        # the Nikishin coupling's upper triangle: 1, then -1/2 right of it
        for k, c in ((j, 1.0), (j + 1, -0.5))[: m - j]:
            blk = c * _pair_block(edges[j], edges[k])
            Q[j * M : (j + 1) * M, k * M : (k + 1) * M] = blk
            if k != j:
                Q[k * M : (k + 1) * M, j * M : (j + 1) * M] = blk.T

    if init == "uniform":
        x = np.concatenate(
            [(e[1:] - e[:-1]) / (e[-1] - e[0]) for e in edges]
        )
    elif init == "arcsine":
        x = np.full(N, 1.0 / M)
    else:
        raise ValueError(f"unknown init {init!r}")

    energy_log = []
    iters = 0

    def energy(v):
        return float(v @ (Q @ v))

    # Frank-Wolfe with exact line search: monotone energy, identifies
    # whether any cells want to vanish before the active-set phase.
    for _ in range(20):
        iters += 1
        g = 2.0 * (Q @ x)
        s = np.zeros(N)
        for j in range(m):
            blk = slice(j * M, (j + 1) * M)
            s[j * M + int(np.argmin(g[blk]))] = 1.0
        d = s - x
        denom = 2.0 * float(d @ (Q @ d))
        if denom <= 0:
            break
        t = max(0.0, min(1.0, -float(g @ d) / denom))
        if t == 0.0:
            break
        x = x + t * d
        energy_log.append(energy(x))

    # Primal active-set QP: each accepted step minimizes over an affine set
    # containing the previous iterate, so the energy keeps decreasing.
    active = x > 0
    levels = None
    residual = np.inf
    for _ in range(max_iter):
        iters += 1
        xs, levels = _kkt_solve(Q, active, m, M)
        neg = active & (xs < -1e-15)
        if neg.any():
            # walk toward the KKT point until the first cell hits zero
            d = xs - x
            shrink = active & (d < 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(shrink, -x / np.where(d < 0, d, -1.0), np.inf)
            t = float(steps.min())
            blocker = int(np.argmin(steps))
            x = np.maximum(x + min(t, 1.0) * d, 0.0)
            active[blocker] = False
            x[blocker] = 0.0
            energy_log.append(energy(x))
            continue
        x = np.maximum(xs, 0.0)
        energy_log.append(energy(x))
        W = Q @ x
        dev = mx_violation = 0.0
        worst = None
        for j in range(m):
            blk = slice(j * M, (j + 1) * M)
            act = active[blk]
            Wj = W[blk]
            dev = max(dev, float(np.max(np.abs(Wj[act] - levels[j]))))
            inact = ~act
            if inact.any():
                viol = levels[j] - Wj[inact]
                vmax = float(viol.max())
                if vmax > mx_violation:
                    mx_violation = vmax
                    worst = j * M + int(np.flatnonzero(inact)[int(np.argmax(viol))])
        residual = dev + max(mx_violation, 0.0)
        if mx_violation > tol_f / 2 and worst is not None:
            active[worst] = True
            continue
        if residual <= tol_f:
            break
    else:
        raise EquilibriumError(
            f"no convergence in {max_iter} iterations, residual {residual:g}"
        )

    lambdas = []
    for j in range(m):
        blk = slice(j * M, (j + 1) * M)
        w = x[blk]
        lo, hi = 0, M
        while lo < hi and w[lo] <= 0:
            lo += 1
        while hi > lo and w[hi - 1] <= 0:
            hi -= 1
        if np.any(w[lo:hi] <= 0):
            raise EquilibriumError(
                f"component {j + 1} support is not a single cell range"
            )
        wm = [mpf(v) for v in w[lo:hi]]
        total = sum(wm, mpf(0))
        lambdas.append(_cells([mpf(v) for v in edges[j][lo : hi + 1]], [v / total for v in wm]))

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
        iterations=iters,
        energy_log=tuple(energy_log),
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
        "iterations": sol.iterations,
        "energy_log": [float(e) for e in sol.energy_log],
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
        iterations=int(doc["iterations"]),
        energy_log=tuple(doc.get("energy_log", ())),
    )
