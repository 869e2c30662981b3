"""Test-only helpers built on the public API, and the plain-mpf reference
loops (oracles) that the tests compare the package's fixed-point code
against."""

import functools
import weakref

from mpmath import mp, mpc, mpf

from cauchybi import Polynomial, SupportError, SystemError_, log_potential


def from_roots(roots) -> Polynomial:
    """Monic polynomial with the given (real) roots."""
    p = Polynomial.one()
    for r in roots:
        p = p * Polynomial((-mpf(r), mpf(1)))
    return p


def Qnj(sol, j: int) -> Polynomial:
    """Monic polynomial with the zeros of A_{n,j} (Q_{n,0} = Q_{n,m+1} = 1)."""
    if j == 0 or j == sol.m + 1:
        return Polynomial.one()
    return from_roots(sol.zeros(j))


def cauchy_transform(mu, z):
    """Cauchy transform of mu at z, z off the closed support interval.

    Real z off the interval yields a real value.  On-support evaluation is
    an error by design: no principal values anywhere in the package.
    """
    if isinstance(z, (mpf, int, float, str)) and not isinstance(z, complex):
        z = mpf(z)
        if mu.interval.contains(z):
            raise SupportError(f"z={z} lies on the support [{mu.interval.a}, {mu.interval.b}]")
        return sum(
            (w / (z - x) for x, w in zip(mu.nodes, mu.weights)), mpf(0)
        )
    z = mpc(z)
    if z.imag == 0 and mu.interval.contains(z.real):
        raise SupportError(f"z={z} lies on the support")
    return sum((w / (z - x) for x, w in zip(mu.nodes, mu.weights)), mpc(0))


@functools.lru_cache(maxsize=None)
def _binomial(n, k):
    return mp.binomial(n, k)


def jacobi_moment_exact(k: int, A, B) -> mpf:
    """Closed form of int_{-1}^1 t^k (1-t)^A (1+t)^B dt.

    Finite beta-function sum (t = 1-2u); cancellation grows with k, so use
    only for k well below the working digit count.
    """
    A, B = mpf(A), mpf(B)
    total = mpf(0)
    for i in range(k + 1):
        total += _binomial(k, i) * (-2) ** i * mp.beta(A + i + 1, B + 1)
    return mpf(2) ** (A + B + 1) * total


# -- the iterated kernel and the monomial bimoments ------------------------

# per system, by (order, precision): the chain vectors and the bimoments
_CHAINS = weakref.WeakKeyDictionary()
_BIMOMENTS = weakref.WeakKeyDictionary()


def kernel_K(sys, x1, xm):
    """Iterated Cauchy kernel K(x1, xm), x1 in Delta_1, xm in Delta_m.

    Needs m >= 2; computed by the forward chain over sigma_2..sigma_{m-1}
    with denominators (x_j - x_{j+1}).
    """
    if sys.m < 2:
        raise SystemError_("kernel requires m >= 2")
    x1, xm = mpf(x1), mpf(xm)
    if not sys.interval(1).contains(x1):
        raise SupportError(f"x1={x1} not in Delta_1")
    if not sys.interval(sys.m).contains(xm):
        raise SupportError(f"xm={xm} not in Delta_{sys.m}")
    if sys.m == 2:
        return 1 / (x1 - xm)
    # g_1 at sigma_2 nodes, then push through the chain
    g = [1 / (x1 - x) for x in sys.measure(2).nodes]
    for j in range(2, sys.m - 1):
        mu = sys.measure(j)
        g = [
            sum((w * gv / (x - t) for x, w, gv in zip(mu.nodes, mu.weights, g)), mpf(0))
            for t in sys.measure(j + 1).nodes
        ]
    mu = sys.measure(sys.m - 1)
    return sum((w * gv / (x - xm) for x, w, gv in zip(mu.nodes, mu.weights, g)), mpf(0))


def _chain_values(sys, nu: int):
    """Chain vector for the bimoment kernel at sigma_m's nodes.

    h_1(x_2) = int x_1^nu dsigma_1 / (x_1 - x_2), pushed forward level by
    level; for m == 1 there is no chain and the caller special-cases.
    """
    cache = _CHAINS.setdefault(sys, {})
    key = (nu, mp.prec)
    if key not in cache:
        mu1 = sys.measure(1)
        h = [
            sum((w * x**nu / (x - t) for x, w in zip(mu1.nodes, mu1.weights)), mpf(0))
            for t in sys.measure(2).nodes
        ]
        for j in range(2, sys.m):
            mu = sys.measure(j)
            h = [
                sum((w * hv / (x - t) for x, w, hv in zip(mu.nodes, mu.weights, h)), mpf(0))
                for t in sys.measure(j + 1).nodes
            ]
        cache[key] = tuple(h)
    return cache[key]


def bimoment(sys, nu: int, mu_idx: int):
    """I_{nu,mu} = double integral of x_1^nu x_m^mu K(x_1,x_m).

    For m == 1 the kernel degenerates and this is the (nu+mu)-th moment
    of sigma_1, matching the one-measure orthogonality conditions.
    """
    cache = _BIMOMENTS.setdefault(sys, {})
    key = (nu, mu_idx, mp.prec)
    if key not in cache:
        mum = sys.measure(sys.m)
        if sys.m == 1:
            terms = (w * x ** (nu + mu_idx) for x, w in zip(mum.nodes, mum.weights))
        else:
            h = _chain_values(sys, nu)
            terms = (w * x**mu_idx * hv for x, w, hv in zip(mum.nodes, mum.weights, h))
        cache[key] = sum(terms, mpf(0))
    return cache[key]


def biorthogonality_entry(sys, Pk: Polynomial, Qn: Polynomial):
    """Bilinear form of P and Q through the iterated kernel (bimoment sum)."""
    return sum(
        (
            p * q * bimoment(sys, nu, mu)
            for nu, p in enumerate(Pk.coeffs)
            for mu, q in enumerate(Qn.coeffs)
        ),
        mpf(0),
    )


# -- forms and potentials by their defining sums ---------------------------


def eval_form_direct(sol, j: int, z):
    """A_{n,j}(z) by its defining combination against the generated
    transforms, sum_{k=j}^m (-1)^k a_{n,k}(z) shat_{j+1,k}(z), in mpf."""
    acc = sol.a[j](z) * (1 if j % 2 == 0 else -1)
    for k in range(j + 1, sol.m + 1):
        sk = 1 if k % 2 == 0 else -1
        acc += sk * sol.a[k](z) * sol.system.s_hat(j + 1, k, z)
    return acc


def combined_potential(eq, j: int, z):
    """W_j(z) = sum_k c_{j,k} V^{lambda_k}(z) with the Nikishin coupling
    c_{jj} = 1, c_{j,j+-1} = -1/2, from the closed-form potentials."""
    if not 1 <= j <= eq.m:
        raise IndexError(f"component {j} out of 1..{eq.m}")
    total = log_potential(eq.lambdas[j - 1], z)
    for k in (j - 1, j + 1):
        if 1 <= k <= eq.m:
            total -= log_potential(eq.lambdas[k - 1], z) / 2
    return total
