"""Dense polynomials over the extended-precision reals."""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc
from mpmath.libmp import fzero, mpf_add, mpf_mul, round_nearest


def _trim(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Coefficients in ascending degree; immutable."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(mpf(c) if not isinstance(c, (mpf, mpc)) else c
                                                 for c in self.coeffs))

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1  # zero polynomial
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == -1

    @property
    def leading(self):
        return self.coeffs[-1]

    def __call__(self, z):
        acc = self.coeffs[-1] * (mpc(0) if isinstance(z, (mpc, complex)) else mpf(0))
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def value_and_slope(self, x):
        """(p(x), p'(x)) at real x from one Horner pass on mpmath's raw
        values: the roundings of mpf arithmetic without its objects."""
        prec, xv, acc, slope = mp.prec, mpf(x)._mpf_, fzero, fzero
        for c in reversed(self.coeffs):
            slope = mpf_add(mpf_mul(slope, xv, prec, round_nearest), acc, prec, round_nearest)
            acc = mpf_add(mpf_mul(acc, xv, prec, round_nearest), c._mpf_, prec, round_nearest)
        return mp.make_mpf(acc), mp.make_mpf(slope)

    def scale(self, s) -> "Polynomial":
        return Polynomial(tuple(s * c for c in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [mpf(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [mpf(0)] * (n - len(other.coeffs))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(mpf(-1))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial((mpf(0),))
        out = [mpf(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((mpf(0),))

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((mpf(1),))

    def __repr__(self):
        return f"Polynomial(deg={self.degree})"
