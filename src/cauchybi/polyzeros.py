"""Real roots, zero-counting measures, interlacing, and log potentials.

The functions whose zeros are sought have all-real simple zeros in a known
interval, and consecutive degrees' zeros interlace (structure theory
upstream): degree n's sign-change brackets are degree n - 1's zeros, or a
grid scan when those do not alternate f's sign, and safeguarded Newton
refines each; for polynomials a companion-matrix fallback covers the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from mpmath import mp, mpf, mpc

from .measures import Interval
from .poly import Polynomial
from .precision import _probe_point


class RootCountError(ArithmeticError):
    """Could not account for all expected real roots."""


def refine_bracket(fd, lo, hi, flo, fhi, xtol):
    """Newton from the secant point on a sign-change bracket, fd(x) =
    (f(x), f'(x)); a step that would leave the shrinking bracket bisects.
    Stops when |step| <= xtol."""
    if not flo * fhi:
        return lo if flo == 0 else hi
    x = (lo * fhi - hi * flo) / (fhi - flo)
    for _ in range(mp.prec + 60):
        fx, slope = fd(x)
        if fx == 0:
            return x
        lo, hi = (lo, x) if (fx > 0) == (fhi > 0) else (x, hi)
        step = fx / slope if slope else mp.inf  # which bisects
        if lo < x - step < hi:
            x -= step
            if abs(step) <= xtol:
                return x
        else:
            x = (lo + hi) / 2
            if hi - lo <= xtol:
                return x
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


def _interlaced(f, a, b, below, count):
    """Brackets (a, z_1), ..., (z_{count-1}, b) from the zeros `below`, or
    None unless f alternates strictly in sign across them."""
    if below is None or len(below) != count - 1:
        return None
    xs = (a, *below, b)
    fs = [f(x) for x in xs]
    alternates = all(u * v < 0 for u, v in zip(fs, fs[1:]))
    return list(zip(xs, xs[1:], fs, fs[1:])) if alternates else None


def bracketed_roots(f, fd, bracket: Interval, count: int, below=None, what="f"):
    """The `count` simple roots of f inside the bracket, sorted, refined by
    `refine_bracket`; brackets from the previous degree's zeros `below` when
    they interlace (count + 1 evaluations), else from a grid scan.  Raises
    RootCountError, prefixed by `what`, unless `count` distinct roots."""
    a, b = bracket.a, bracket.b
    brackets = _interlaced(f, a, b, below, count) or _scan_sign_changes(f, a, b, count, 8 * count)
    found = 0 if brackets is None else len(brackets)
    if found == count:
        xtol = mpf(10) ** (-mp.dps // 3) * max(mpf(1), abs(a), abs(b))
        roots = sorted(refine_bracket(fd, *br, xtol) for br in brackets)
        # a root on a scan grid point can end two brackets: roots are simple
        if all(y - x > xtol for x, y in zip(roots, roots[1:])):
            return roots
    raise RootCountError(f"{what}: found {found} sign changes in [{a}, {b}], expected {count}")


def real_roots(p: Polynomial, bracket: Interval, below=None):
    """All deg(p) real simple roots of p inside the bracket, sorted:
    `bracketed_roots` (value and slope by Horner), else polynomial
    eigenvalues at doubled precision with the count validated."""
    n = p.degree
    if n <= 0:
        return []
    try:
        return bracketed_roots(p, p.value_and_slope, bracket, n, below)
    except RootCountError:
        pass
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
    # density jumps by precision: every potential and moment pass uses them
    _jumps: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # rescaled moments by (hull, K, precision): see `rescaled_moments`
    _rescaled: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # V^mu(z) by (probe point, precision): see `log_potential`
    _potentials: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def _density_jumps(self):
        """Jumps of the cell density at the cell edges, d_i - d_{i-1} with
        d_l = w_l / h_l on cell l and d = 0 outside the support."""
        jumps = self._jumps.get(mp.prec)
        if jumps is None:
            e, d = self.cell_edges, [mpf(0)]
            d += [w / (b - a) for w, a, b in zip(self.weights, e, e[1:])]
            d.append(mpf(0))
            jumps = self._jumps.setdefault(mp.prec, [b - a for a, b in zip(d, d[1:])])
        return jumps

    def moments(self, K: int):
        """Moments 0..K in one pass of running powers.  For the
        piecewise-constant case each is exact: summed by parts over the cell
        edges, m_k = -sum_i J_i e_i^(k+1) / (k+1) with J the density jumps."""
        cells = self.cell_edges is not None
        if cells:
            pts, coef, powers = self.cell_edges, self._density_jumps(), list(self.cell_edges)
        else:
            pts, coef, powers = self.points, self.weights, [mpf(1)] * len(self.points)
        out = []
        for k in range(K + 1):
            if k:
                powers = [p * t for p, t in zip(powers, pts)]
            total = sum(map(mul, coef, powers), mpf(0))
            out.append(-total / (k + 1) if cells else total)
        return out

    def rescaled_moments(self, c, d, K: int):
        """Moments 0..K after mapping [c, d] onto [-1, 1], cached by (c, d,
        K, precision) like the density jumps."""
        key = (c, d, K, mp.prec)
        cached = self._rescaled.get(key)
        if cached is None:
            phi = lambda t: (2 * t - c - d) / (d - c)
            edges = self.cell_edges and tuple(map(phi, self.cell_edges))
            moved = DiscreteMeasure(tuple(map(phi, self.points)), self.weights, edges)
            cached = self._rescaled.setdefault(key, moved.moments(K))
        return cached


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


def _log_antiderivative(u):
    """g(u) = -u (log|u| - 1), so that g(z - t) is an antiderivative of
    log|z - t| in t (real part for complex u); g(0) = 0 at the integrable
    singularity, so the closed form holds for z on the support too."""
    if u == 0:
        return mpf(0)
    if isinstance(u, mpc):
        return (-u * (mp.log(u) - 1)).real
    return -u * (mp.log(abs(u)) - 1)


def log_potential(mu: DiscreteMeasure, z):
    """V^mu(z) = integral of log(1/|z-t|) dmu(t) for a cell density mu: the
    exact closed-form integral, summed by parts over the cell edges,
    V = sum_i J_i g(z - e_i) with J the density jumps (one log per edge);
    valid on the support too.  Cached on mu by (z, precision): the
    estimators ask for the same few potentials many times.
    """
    if mu.cell_edges is None:
        raise ValueError("log_potential needs a cell density, not atoms")
    z = _probe_point(z)
    key = (z, mp.prec)
    value = mu._potentials.get(key)
    if value is None:
        total = sum(
            (J * _log_antiderivative(z - e)
             for J, e in zip(mu._density_jumps(), mu.cell_edges)),
            mpf(0),
        )
        value = mu._potentials.setdefault(key, total)
    return value


def moment_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, K: int) -> mpf:
    """sup_{k<=K} |m_k(mu) - m_k(nu)| after rescaling the joint hull to [-1,1].

    Weak-star proxy metric: both measures must be normalized.
    """
    if not (mu.normalized and nu.normalized):
        raise ValueError("moment_distance requires normalized measures")
    (a, b), (e, f) = mu.support_bounds, nu.support_bounds
    c, d = min(a, e), max(b, f)
    if not d > c:
        return mpf(0)
    pairs = zip(mu.rescaled_moments(c, d, K), nu.rescaled_moments(c, d, K))
    return max(abs(x - y) for x, y in pairs)
