"""Global extended-precision context.

All heavy numerics run on mpmath's global context.  Precision is a single
run-wide parameter (bits); mixing precisions inside one run is deliberately
unsupported because the bimoment systems solved downstream are severely
ill-conditioned and uniform precision keeps failures diagnosable.  The
fixed-point kernels (quadrature rules, the Cauchy-chain operator) convert
between mpf and exact (mantissa, exponent) ints with the helpers below, and
probe points enter every evaluator as an mpf or an mpc (`_probe_point`).
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 512


def set_precision(bits: int) -> None:
    """Set the global working precision in bits (>= 64)."""
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits, got {bits}")
    mp.prec = int(bits)


def _man_exp(x):
    """(m, e) with x == m * 2**e exactly, m a signed int."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _to_mpf(man, exp):
    """man * 2**exp rounded to the working precision."""
    return mp.make_mpf(from_man_exp(man, exp, mp.prec, round_nearest))


def _probe_point(z):
    """A probe point as an mpc when its imaginary part is nonzero, else as
    an mpf."""
    if isinstance(z, (mpc, complex)):
        z = mpc(z)
        return z if z.imag else z.real
    return mpf(z)


def tol() -> mpf:
    """The package-wide meaning of "to tolerance": 10^-(d // 2), d = mp.dps."""
    return mpf(10) ** -(mp.dps // 2)
