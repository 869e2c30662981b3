"""Real roots, zero-counting measures, interlacing, and log potentials.

The functions whose zeros are sought have all-real simple zeros in a known
interval, and consecutive degrees' zeros interlace (structure theory
upstream): degree n's sign-change brackets are degree n - 1's zeros, or a
grid scan when those do not alternate f's sign, and safeguarded Newton
refines each; for polynomials a companion-matrix fallback covers the rest.

Zero-counting measures are atoms (`DiscreteMeasure`); equilibrium components
are Chebyshev series against the arcsine weight (`ChebyshevMeasure`), whose
log potentials and moments are closed-form sums over their coefficients.
`moment_distance` compares any two of either kind.
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
    """Atoms at points with positive weights, sorted by point."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = tuple(mpf(p) for p in self.points)
        wts = tuple(mpf(w) for w in self.weights)
        if len(pts) != len(wts) or not pts:
            raise ValueError("points and weights must be nonempty, same length")
        if any(not w > 0 for w in wts):
            raise ValueError("weights must be positive")
        order = sorted(range(len(pts)), key=lambda i: pts[i])
        object.__setattr__(self, "points", tuple(pts[i] for i in order))
        object.__setattr__(self, "weights", tuple(wts[i] for i in order))

    @property
    def mass(self) -> mpf:
        return sum(self.weights, mpf(0))

    @property
    def normalized(self) -> bool:
        return abs(self.mass - 1) <= mpf(10) ** (-mp.dps // 2)

    @property
    def support_bounds(self):
        return self.points[0], self.points[-1]

    def moments(self, K: int):
        """Moments 0..K in one pass of running powers."""
        out, powers = [], [mpf(1)] * len(self.points)
        for k in range(K + 1):
            if k:
                powers = [p * t for p, t in zip(powers, self.points)]
            out.append(sum(map(mul, self.weights, powers), mpf(0)))
        return out

    def rescaled_moments(self, c, d, K: int):
        """Moments 0..K after mapping [c, d] onto [-1, 1]."""
        phi = lambda t: (2 * t - c - d) / (d - c)
        return DiscreteMeasure(tuple(map(phi, self.points)), self.weights).moments(K)


@dataclass(frozen=True)
class ChebyshevMeasure:
    """Unit mass on the interval [c - r, c + r] with density
    sum_{i=0}^K a_i T_i(s) / (pi sqrt(1 - s^2)) in s = (t - c)/r, where
    a_0 = 1 and coeffs = (a_1, ..., a_K): an equilibrium component."""

    interval: Interval
    coeffs: tuple
    # V^mu(z) by (probe point, precision): see `log_potential`
    _potentials: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(mpf(a) for a in self.coeffs)
        if not all(mp.isfinite(a) for a in coeffs):
            raise ValueError("Chebyshev coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    normalized = True  # a_0 = 1 is the unit mass

    @property
    def support_bounds(self):
        return self.interval.a, self.interval.b

    def rescaled_moments(self, c, d, K: int):
        """Moments 0..K after mapping [c, d] onto [-1, 1], exact sums over the
        coefficients: the image of t is alpha + beta s, the Chebyshev modes
        p_l of (alpha + beta s)^k follow from s T_0 = T_1 and s T_l =
        (T_{l-1} + T_{l+1})/2, and int T_l T_i darcsine is 1 (l = i = 0),
        1/2 (l = i > 0) or 0."""
        iv = self.interval
        alpha, beta = (2 * iv.midpoint - c - d) / (d - c), iv.length / (d - c)
        weights = (mpf(1), *(a / 2 for a in self.coeffs))
        p, out = [mpf(1)], [mpf(1)]
        for _ in range(K):
            sp = [mpf(0)] * (len(p) + 1)
            sp[1] = p[0]
            for l, v in enumerate(p[1:], 1):
                sp[l - 1] += v / 2
                sp[l + 1] += v / 2
            p = [alpha * u + beta * v for u, v in zip(p + [mpf(0)], sp)]
            out.append(mp.fdot(p[: len(weights)], weights[: len(p)]))
        return out


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


def log_potential(mu: ChebyshevMeasure, z):
    """V^mu(z) = integral of log(1/|z-t|) dmu(t), cached on mu by (z,
    precision): the estimators ask for the same few potentials many times."""
    if not isinstance(mu, ChebyshevMeasure):
        raise ValueError("log_potential needs an equilibrium density, not atoms")
    z = _probe_point(z)
    key = (z, mp.prec)
    value = mu._potentials.get(key)
    if value is None:
        value = mu._potentials.setdefault(key, _potential(mu, z))
    return value


def _potential(mu: ChebyshevMeasure, z):
    """The closed form, K terms: log(2/r) + sum_i a_i T_i(xi)/i on the
    support, xi = (z - c)/r, and log(2/r) - log|phi| + sum_i a_i Re phi^{-i}/i
    off it, phi = xi + sqrt(xi^2 - 1) with |phi| > 1, at real and complex z
    alike."""
    r = mu.interval.length / 2
    xi = (z - mu.interval.midpoint) / r
    total = mp.log(2 / r)
    if isinstance(xi, mpf) and abs(xi) <= 1:
        t_prev, t = mpf(1), xi
        for i, a in enumerate(mu.coeffs, 1):
            total += a * t / i
            t_prev, t = t, 2 * xi * t - t_prev
        return total
    phi = xi + mp.sqrt(xi * xi - 1)
    if abs(phi) < 1:
        phi = 1 / phi
    w = power = 1 / phi
    total -= mp.log(abs(phi))
    for i, a in enumerate(mu.coeffs, 1):
        total += a * mp.re(power) / i
        power *= w
    return total


def moment_distance(mu, nu, K: int) -> mpf:
    """sup_{k<=K} |m_k(mu) - m_k(nu)| after rescaling the joint hull to [-1,1],
    for DiscreteMeasure and ChebyshevMeasure alike.

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
