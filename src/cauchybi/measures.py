"""Finite positive measures on compact intervals with Jacobi-type weights.

A measure is w(x) dx on [a, b] with w(x) = (x-a)^alpha (b-x)^beta * poly(x),
poly strictly positive on [a, b].  Integration goes through an N-node
Gauss-Jacobi rule for the (alpha, beta) part, mapped onto [a, b], with the
polynomial factor folded into the weights.

The rule on [-1, 1] comes from Newton's method on the orthonormal Jacobi
recurrence, run in fixed-point integers with 32 guard bits: one pass gives
p_N, p_N' and the Christoffel sum of p_0^2..p_{N-1}^2, whose reciprocal is
the weight.  Newton starts from numpy Golub-Welsch seeds (the float64
eigenvalues of the Jacobi matrix of the same recurrence) and climbs a
precision ladder (96, 192, 384, ... bits) to the working precision, where it
takes two steps; a node whose last step is not negligible is an error.  For
alpha = beta only the nodes left of 0 are solved and the rest mirrored (the
middle node of an odd rule is exactly 0).  Rules are cached per process by
(N, alpha, beta, precision), so measures with the same weight and node count
share one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf, mpc

from .precision import _man_exp, _to_mpf


class MeasureError(ValueError):
    """Invalid weight/interval configuration."""


class SupportError(ValueError):
    """Evaluation requested at a point on the support."""


@dataclass(frozen=True)
class Interval:
    """Bounded real interval [a, b], a < b."""

    a: mpf
    b: mpf

    def __post_init__(self):
        object.__setattr__(self, "a", mpf(self.a))
        object.__setattr__(self, "b", mpf(self.b))
        if not (mp.isfinite(self.a) and mp.isfinite(self.b)):
            raise MeasureError("interval endpoints must be finite")
        if not self.a < self.b:
            raise MeasureError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> mpf:
        return self.b - self.a

    @property
    def midpoint(self) -> mpf:
        return (self.a + self.b) / 2

    def contains(self, x, closed: bool = True) -> bool:
        x = mpf(x)
        if closed:
            return self.a <= x <= self.b
        return self.a < x < self.b

    def gap_to(self, other: "Interval") -> mpf:
        """Distance between two intervals (0 if they touch or overlap)."""
        if self.b < other.a:
            return other.a - self.b
        if other.b < self.a:
            return self.a - other.b
        return mpf(0)

    def distance_to_point(self, z) -> mpf:
        """Distance from a (possibly complex) point to the interval."""
        z = mpc(z)
        x, y = z.real, z.imag
        if x < self.a:
            dx = self.a - x
        elif x > self.b:
            dx = x - self.b
        else:
            dx = mpf(0)
        return mp.hypot(dx, y)


@dataclass(frozen=True)
class WeightSpec:
    """Jacobi exponents plus a positive polynomial factor.

    The resulting weight is positive a.e. on the interval, so the measure is
    regular and has positive derivative a.e. (both asymptotic hypotheses of
    the theory hold by construction).
    """

    alpha: mpf = mpf(0)
    beta: mpf = mpf(0)
    poly_factor: tuple = (mpf(1),)

    def __post_init__(self):
        object.__setattr__(self, "alpha", mpf(self.alpha))
        object.__setattr__(self, "beta", mpf(self.beta))
        object.__setattr__(self, "poly_factor", tuple(map(mpf, self.poly_factor)))
        if not self.alpha > -1:
            raise MeasureError(f"alpha must be > -1, got {self.alpha}")
        if not self.beta > -1:
            raise MeasureError(f"beta must be > -1, got {self.beta}")
        if not any(c != 0 for c in self.poly_factor):
            raise MeasureError("poly_factor must not be the zero polynomial")

    def poly_value(self, x):
        acc = mpf(0)
        for c in reversed(self.poly_factor):
            acc = acc * x + c
        return acc

    def check_positive_on(self, interval: Interval) -> None:
        """Reject polynomial factors that vanish or go negative on [a, b].

        Real roots are isolated with the double-precision companion matrix
        (adequate: positivity is a qualitative precondition), then the sign
        is confirmed on a dense grid at working precision.
        """
        coeffs = [float(c) for c in self.poly_factor]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        if len(coeffs) > 1:
            roots = np.roots(coeffs[::-1])
            lo, hi = float(interval.a), float(interval.b)
            pad = 1e-9 * max(1.0, hi - lo)
            for r in roots:
                if abs(r.imag) < 1e-9 and lo - pad <= r.real <= hi + pad:
                    raise MeasureError(
                        f"poly_factor has a real root near x={r.real:.6g} "
                        f"inside [{lo}, {hi}]"
                    )
        for i in range(65):
            x = interval.a + interval.length * mpf(i) / 64
            if not self.poly_value(x) > 0:
                raise MeasureError(f"poly_factor non-positive at x={x}")


def jacobi_recurrence(n: int, A, B):
    """Monic recurrence for the weight (1-t)^A (1+t)^B on [-1, 1].

    Returns (a, b), each of length n, with
    p_{k+1} = (t - a[k]) p_k - b[k] p_{k-1};  b[0] = total mass of the weight
    (the b[0] entry never multiplies anything since p_{-1} = 0).
    """
    A, B = mpf(A), mpf(B)
    a, b = [], []
    for k in range(n):
        if k == 0:
            a.append((B - A) / (A + B + 2))
            b.append(mpf(2) ** (A + B + 1) * mp.beta(A + 1, B + 1))
        else:
            s = 2 * k + A + B
            a.append((B * B - A * A) / (s * (s + 2)))
            if k == 1:
                b.append(4 * (A + 1) * (B + 1) / ((A + B + 2) ** 2 * (A + B + 3)))
            else:
                b.append(
                    4 * k * (k + A) * (k + B) * (k + A + B)
                    / (s * s * (s + 1) * (s - 1))
                )
    return a, b


def _golub_welsch_seeds(a, b, n: int):
    """Double-precision Gauss nodes in increasing order: the eigenvalues of
    the symmetric n x n Jacobi matrix of the monic recurrence (a, b), with
    a[:n] on the diagonal and sqrt(b[1:n]) beside it (Golub & Welsch,
    Math. Comp. 23, 1969)."""
    off = np.sqrt([float(x) for x in b[1:n]])
    J = np.diag([float(x) for x in a[:n]]) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(J)


# [-1, 1] rules by (N, A, B, precision): every level, system and command of
# a process that asks for the same weight and node count shares one
_RULES = {}


def _fixed(x, bits: int) -> int:
    """x * 2**bits rounded down to an int."""
    m, e = _man_exp(x)
    e += bits
    return m << e if e >= 0 else m >> -e


def _orthonormal_pass(T: int, p0: int, coeffs, bits: int):
    """p_N, p_N' and sum_{k<N} p_k^2 of the orthonormal recurrence
    sqrt(b_{k+1}) p_{k+1} = (t - a_k) p_k - sqrt(b_k) p_{k-1} at t = T 2^-bits,
    with coeffs the rows (a_k, sqrt(b_k), 1/sqrt(b_{k+1})) as ints scaled by
    2^bits; p_N and p_N' are scaled by 2^bits, the sum by 2^(2 bits)."""
    pm, p, dm, d, s = 0, p0, 0, 0, 0
    for a, r, inv in coeffs:
        s += p * p
        u = T - a
        pm, p, dm, d = (
            p,
            ((u * p - r * pm) >> bits) * inv >> bits,
            d,
            (((p << bits) + u * d - r * dm) >> bits) * inv >> bits,
        )
    return p, d, s


def gauss_jacobi_rule(n: int, A, B):
    """Gauss nodes/weights for (1-t)^A (1+t)^B on [-1, 1] at working precision.

    Newton on the orthonormal recurrence in fixed point from numpy
    Golub-Welsch seeds; each weight is the reciprocal Christoffel sum of
    the last pass, positive by construction.  Cached by (n, A, B, precision).
    """
    if n < 1:
        raise MeasureError("node_count must be >= 1")
    A, B = mpf(A), mpf(B)
    key = (n, A, B, mp.prec)
    rule = _RULES.get(key)
    if rule is not None:
        return rule
    prec = mp.prec
    top = prec + 32
    with mp.workprec(top + 32):
        a, b = jacobi_recurrence(n + 1, A, B)
        r = [mp.sqrt(x) for x in b]
        rows = [
            (_fixed(a[k], top), _fixed(r[k], top), _fixed(1 / r[k + 1], top))
            for k in range(n)
        ]
        p0 = _fixed(1 / r[0], top)
    # one Newton step per rung of 96, 192, 384, ... bits, two at the top
    ladder = [96 << i for i in range(top.bit_length()) if 96 << i < top] + [top, top]
    scaled = {
        bits: ([tuple(c >> (top - bits) for c in row) for row in rows], p0 >> (top - bits))
        for bits in ladder
    }
    seeds = _golub_welsch_seeds(a, b, n)
    symmetric = A == B
    if symmetric:
        seeds = seeds[: n // 2]
    nodes, weights = [], []
    for seed in seeds:
        T, prev = int(seed * 2.0 ** ladder[0]), ladder[0]
        for bits in ladder:
            T <<= bits - prev
            prev = bits
            coeffs, start = scaled[bits]
            p, d, s = _orthonormal_pass(T, start, coeffs, bits)
            step = (p << bits) // d
            T -= step
        if abs(step) > 1 << (top - prec + 8):
            raise MeasureError(
                f"Gauss-Jacobi Newton did not converge (N={n}, "
                f"alpha={mp.nstr(B, 8)}, beta={mp.nstr(A, 8)}): "
                f"last step {mp.nstr(_to_mpf(step, -top), 3)}"
            )
        nodes.append(_to_mpf(T, -top))
        weights.append(1 / _to_mpf(s, -2 * top))
    if symmetric:
        middle = []
        if n % 2:
            _, _, s = _orthonormal_pass(0, p0, rows, top)
            middle = [(mpf(0), 1 / _to_mpf(s, -2 * top))]
        pairs = list(zip(nodes, weights))
        pairs += middle + [(-x, w) for x, w in reversed(pairs)]
        nodes, weights = zip(*pairs)
    rule = (tuple(nodes), tuple(weights))
    return _RULES.setdefault(key, rule)


@dataclass(frozen=True)
class IntervalMeasure:
    """Positive measure with cached quadrature; immutable after construction."""

    interval: Interval
    weight: WeightSpec
    nodes: tuple = field(repr=False)
    weights: tuple = field(repr=False)
    node_count: int = 0

    @property
    def mass(self) -> mpf:
        return sum(self.weights, mpf(0))


def make_measure(
    interval: Interval,
    weight: WeightSpec | None = None,
    node_count: int = 64,
) -> IntervalMeasure:
    """Build an IntervalMeasure with a Gauss-Jacobi rule of `node_count` nodes."""
    if weight is None:
        weight = WeightSpec()
    weight.check_positive_on(interval)
    # standard variable t in [-1,1]: x = a + (b-a)(t+1)/2 maps
    # (x-a)^alpha -> ((b-a)/2)^alpha (1+t)^alpha, (b-x)^beta -> ... (1-t)^beta
    A, B = weight.beta, weight.alpha
    t_nodes, t_weights = gauss_jacobi_rule(node_count, A, B)
    half = interval.length / 2
    scale = half ** (weight.alpha + weight.beta + 1)
    nodes, weights = [], []
    for t, w in zip(t_nodes, t_weights):
        x = interval.a + half * (t + 1)
        wx = scale * w * weight.poly_value(x)
        if not (interval.contains(x, closed=False) and wx > 0):
            raise MeasureError("quadrature produced an invalid node/weight")
        nodes.append(x)
        weights.append(wx)
    if any(y <= x for x, y in zip(nodes, nodes[1:])):
        raise MeasureError(
            f"quadrature nodes not strictly increasing (N={node_count}, "
            f"alpha={mp.nstr(weight.alpha, 8)}, beta={mp.nstr(weight.beta, 8)})"
        )
    return IntervalMeasure(
        interval=interval,
        weight=weight,
        nodes=tuple(nodes),
        weights=tuple(weights),
        node_count=node_count,
    )


def lebesgue(a, b, node_count: int = 64) -> IntervalMeasure:
    """Lebesgue measure on [a, b] (the workhorse test measure)."""
    return make_measure(Interval(a, b), WeightSpec(), node_count)
