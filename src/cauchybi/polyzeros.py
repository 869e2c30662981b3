"""Real roots, zero-counting measures, interlacing, and log potentials.

Everything here assumes the polynomials it sees have all-real simple zeros
inside a known bracket (guaranteed by the structure theory upstream), so
sign-change bracketing plus bisection is complete; a companion-matrix
fallback at doubled precision covers pathological brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .measures import Interval
from .poly import Polynomial


class RootCountError(ArithmeticError):
    """Could not account for all expected real roots."""


def refine_bracket(f, lo, hi, flo, fhi, xtol):
    """Illinois-method root refinement on a sign-change bracket."""
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    side = 0
    for _ in range(mp.prec + 60):
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = (lo + hi) / 2
        fx = f(x)
        if fx == 0 or hi - lo <= xtol:
            return x
        if (fx > 0) == (fhi > 0):
            hi, fhi = x, fx
            if side == 1:
                flo /= 2
            side = 1
        else:
            lo, flo = x, fx
            if side == -1:
                fhi /= 2
            side = -1
    return (lo + hi) / 2


def _scan_sign_changes(f, a, b, count, grid0):
    """Grid scan for `count` sign changes of f on (a, b), doubling up to 2^6."""
    grid = max(grid0, 2 * count + 2, 16)
    for _ in range(7):
        h = (b - a) / (grid + 1)
        xs = [a + h * (i + 1) for i in range(grid)]
        fs = [f(x) for x in xs]
        brackets = [
            (xs[i], xs[i + 1], fs[i], fs[i + 1])
            for i in range(grid - 1)
            if fs[i] == 0 or (fs[i] > 0) != (fs[i + 1] > 0)
        ]
        if len(brackets) >= count:
            return brackets[:count] if len(brackets) == count else brackets
        grid *= 2
    return None


def real_roots(p: Polynomial, bracket: Interval):
    """All deg(p) real simple roots of p inside the bracket, sorted.

    Grid bracketing + Illinois refinement; if the scan cannot isolate all
    roots (or finds one twice), falls back to polynomial eigenvalues at
    doubled precision and validates the count.
    """
    n = p.degree
    if n <= 0:
        return []
    xtol = mpf(10) ** (-mp.dps // 3) * max(mpf(1), abs(bracket.a), abs(bracket.b))
    brackets = _scan_sign_changes(p, bracket.a, bracket.b, n, 8 * n)
    if brackets is not None and len(brackets) == n:
        roots = sorted(
            refine_bracket(p, lo, hi, flo, fhi, xtol)
            for lo, hi, flo, fhi in brackets
        )
        # a root on a grid point ends two brackets and can be found twice
        # (the other bracket's root then missed): the roots are simple
        if all(b - a > xtol for a, b in zip(roots, roots[1:])):
            return roots
    # companion-matrix route at doubled precision
    with mp.extraprec(mp.prec):
        cand = mp.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=mp.prec)
    roots = []
    imag_tol = mpf(10) ** (-mp.dps // 2)
    for r in cand:
        r = mpc(r)
        if abs(r.imag) <= imag_tol * max(mpf(1), abs(r)) and bracket.contains(r.real):
            roots.append(r.real)
    if len(roots) != n:
        raise RootCountError(
            f"expected {n} real roots in [{bracket.a}, {bracket.b}], "
            f"isolated {len(roots)}"
        )
    return sorted(roots)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (points, weights), or a piecewise-constant density when
    cell_edges is given (points are then cell representatives and weights the
    cell masses; len(cell_edges) = len(points) + 1)."""

    points: tuple
    weights: tuple
    cell_edges: tuple | None = None

    def __post_init__(self):
        pts = tuple(mpf(p) for p in self.points)
        wts = tuple(mpf(w) for w in self.weights)
        if len(pts) != len(wts) or not pts:
            raise ValueError("points and weights must be nonempty, same length")
        if any(not w > 0 for w in wts):
            raise ValueError("weights must be positive")
        if self.cell_edges is None:
            order = sorted(range(len(pts)), key=lambda i: pts[i])
            pts = tuple(pts[i] for i in order)
            wts = tuple(wts[i] for i in order)
        else:
            edges = tuple(mpf(e) for e in self.cell_edges)
            if len(edges) != len(pts) + 1:
                raise ValueError("need len(points)+1 cell edges")
            if any(not a < b for a, b in zip(edges, edges[1:])):
                raise ValueError("cell edges must be strictly increasing")
            object.__setattr__(self, "cell_edges", edges)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def mass(self) -> mpf:
        return sum(self.weights, mpf(0))

    @property
    def normalized(self) -> bool:
        return abs(self.mass - 1) <= mpf(10) ** (-mp.dps // 2)

    @property
    def support_bounds(self):
        if self.cell_edges is not None:
            return self.cell_edges[0], self.cell_edges[-1]
        return self.points[0], self.points[-1]

    def moment(self, k: int) -> mpf:
        """k-th moment; exact per cell for the piecewise-constant case."""
        if self.cell_edges is None:
            return sum(
                (w * t**k for t, w in zip(self.points, self.weights)), mpf(0)
            )
        e = self.cell_edges
        total = mpf(0)
        for l, w in enumerate(self.weights):
            h = e[l + 1] - e[l]
            total += w / h * (e[l + 1] ** (k + 1) - e[l] ** (k + 1)) / (k + 1)
        return total


def counting_measure(zeros) -> DiscreteMeasure:
    """Normalized zero-counting measure: mass 1/n at each zero."""
    zeros = list(zeros)
    if not zeros:
        raise ValueError("counting measure of an empty zero set")
    n = len(zeros)
    return DiscreteMeasure(tuple(zeros), tuple(mpf(1) / n for _ in zeros))


def interlaces(za, zb) -> bool:
    """True iff the points of za interlace strictly between those of zb.

    Requires len(zb) = len(za) + 1; any coincidence returns False.
    """
    za, zb = sorted(mpf(x) for x in za), sorted(mpf(x) for x in zb)
    if len(zb) != len(za) + 1:
        raise ValueError(f"need |zb| = |za| + 1, got {len(za)}, {len(zb)}")
    return all(zb[i] < za[i] < zb[i + 1] for i in range(len(za)))


def _log_cell_integral(a, b, z):
    """Exact integral of log|z - t| over [a, b] (unit density).

    Antiderivative of log|z - t| in t is -(z-t)(log|z-t| - 1); the closed
    form stays valid for z inside [a, b] (integrable singularity).
    """

    def g(u):
        if u == 0:
            return mpf(0)
        if isinstance(u, mpc):
            return (-u * (mp.log(u) - 1)).real
        return -u * (mp.log(abs(u)) - 1)

    return g(z - b) - g(z - a)


def log_potential(mu: DiscreteMeasure, z):
    """V^mu(z) = integral of log(1/|z-t|) dmu(t).

    Discrete atoms: direct sum (z must avoid the atoms).  Cell densities:
    exact closed-form integral per cell, valid on the support too.
    """
    if isinstance(z, (mpc, complex)) and mpc(z).imag != 0:
        z = mpc(z)
    else:
        z = mpc(z).real if isinstance(z, (mpc, complex)) else mpf(z)
    if mu.cell_edges is not None:
        e = mu.cell_edges
        total = mpf(0)
        for l, w in enumerate(mu.weights):
            h = e[l + 1] - e[l]
            total -= w / h * _log_cell_integral(e[l], e[l + 1], z)
        return total
    total = mpf(0)
    for t, w in zip(mu.points, mu.weights):
        d = abs(z - t)
        if d == 0:
            raise ValueError(f"potential evaluated at the atom t={t}")
        total -= w * mp.log(d)
    return total


def moment_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, K: int) -> mpf:
    """sup_{k<=K} |m_k(mu) - m_k(nu)| after rescaling the joint hull to [-1,1].

    Weak-star proxy metric: both measures must be normalized.
    """
    if not (mu.normalized and nu.normalized):
        raise ValueError("moment_distance requires normalized measures")
    los_his = [mu.support_bounds, nu.support_bounds]
    c = min(lo for lo, _ in los_his)
    d = max(hi for _, hi in los_his)
    if not d > c:
        return mpf(0)

    def rescaled(m):
        phi = lambda t: (2 * t - c - d) / (d - c)
        if m.cell_edges is None:
            return DiscreteMeasure(
                tuple(phi(t) for t in m.points), m.weights
            )
        return DiscreteMeasure(
            tuple(phi(t) for t in m.points),
            m.weights,
            tuple(phi(e) for e in m.cell_edges),
        )

    ru, rv = rescaled(mu), rescaled(nu)
    return max(abs(ru.moment(k) - rv.moment(k)) for k in range(K + 1))
