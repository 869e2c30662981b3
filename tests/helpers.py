"""Test-only helpers built on the public API."""

from cauchybi import Polynomial


def Qnj(sol, j: int) -> Polynomial:
    """Monic polynomial with the zeros of A_{n,j} (Q_{n,0} = Q_{n,m+1} = 1)."""
    if j == 0 or j == sol.m + 1:
        return Polynomial.one()
    return Polynomial.from_roots(sol.zeros(j))
