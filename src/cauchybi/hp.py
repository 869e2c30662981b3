"""Multi-level Hermite-Pade solver for a Nikishin chain.

Q_n's coefficients c in the mapped Legendre basis of Delta_m are read from
the Gram factor that every degree and both twins share (`solve`); the other
polynomials a_{n,j} of the vector are recovered descending j = m-1..0 by exact
polynomial-part extraction against the generated-measure moments.  The
vanishing-at-infinity order condition on the top form is then *verified*
from the Laurent coefficients, never imposed.

Sign conventions: A_{n,j}(z) = sum_{k=j}^m (-1)^k a_{n,k}(z) shat_{j+1,k}(z)
with shat_{j+1,j} == 1, and the normalization makes A_{n,m} = (-1)^m a_{n,m}
the monic Q_n.  The monic polynomial and the sign are stored separately
(a_{n,m} carries the sign; the Q property is always monic).
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc
from mpmath.libmp import repr_dps

from .measures import SupportError
from .nikishin import NikishinSystem
from .poly import Polynomial
from .polyzeros import bracketed_roots, real_roots
from .precision import _probe_point


class HPSolverError(ArithmeticError):
    """Numerical failure in the Hermite-Pade solve; remedy: raise precision."""


def solve(sys: NikishinSystem, n: int):
    """(c, info) for degree n from the shared Gram factor, a back-substitution
    on U[:n, :n] (on L[:n, :n]^T for the twin that reads it transposed):
    Q_n = p_n + sum_mu c_mu p_mu on Delta_m; info["condition"] is the exact
    kappa_1 of the degree's equilibrated leading block, info["residual"] the
    componentwise backward error of c."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    factor, transposed = sys.gram_factor()
    try:
        c, cond, residual = factor.solve(n, transposed)
    except ZeroDivisionError as ex:
        raise HPSolverError(
            f"bimoment system for n={n}: exact zero pivot in the Gram factor; "
            "raise the working precision"
        ) from ex
    return c, {"condition": cond, "residual": residual}


def _monomial(sys: NikishinSystem, c) -> Polynomial:
    """Q = p_n + sum_mu c_mu p_mu in the monomial basis."""
    Q = sys.basis_polynomial(sys.m, len(c))
    for mu, cm in enumerate(c):
        Q = Q + sys.basis_polynomial(sys.m, mu).scale(cm)
    return Q


def solve_Qn(sys: NikishinSystem, n: int) -> Polynomial:
    """Monic degree-n biorthogonal polynomial of the system."""
    return _monomial(sys, solve(sys, n)[0])


def _poly_part_coeffs(p: Polynomial, moments):
    """Polynomial part of p(z)*shat(z) given the measure's moments.

    Exactly the degree-(deg p - 1) polynomial with coefficient of z^r equal
    to sum_{d>r} p_d * m_{d-1-r}.
    """
    degp = p.degree
    out = [mpf(0)] * max(degp, 1)
    for r in range(degp):
        out[r] = sum(
            (p.coeffs[d] * moments[d - 1 - r] for d in range(r + 1, degp + 1)),
            mpf(0),
        )
    return out


def _adapted_values(sys: NikishinSystem, c):
    """Q = p_n + sum_mu c_mu p_mu at sigma_m's nodes, p_0..p_n the mapped
    Legendre basis of Delta_m; each value is one exactly summed dot."""
    coeffs = (*c, mpf(1))
    return tuple(
        mp.fdot(coeffs, col)
        for col in zip(*sys.basis_values(sys.m, len(coeffs)))
    )


class HPSolution:
    """Immutable Hermite-Pade vector for one degree, with cached evaluators.

    `c` holds Q's coefficients in the mapped Legendre basis of Delta_m
    (Q = p_n + sum_mu c_mu p_mu); every chain starts from Q's values in that
    basis.  The monomial Q and a_{n,j} are kept for the public API and for
    the zeros on level m.
    """

    def __init__(self, system: NikishinSystem, n: int, a, c, diagnostics, chains=None):
        self.system = system
        self.n = n
        self.a = tuple(a)
        self.c = tuple(c)
        self.diagnostics = dict(diagnostics)
        self.m = system.m
        self._chains = dict(chains or {})
        self._blocks = {}
        self._zeros = {}

    @property
    def Q(self) -> Polynomial:
        """The monic biorthogonal polynomial Q_n = (-1)^m a_{n,m}."""
        am = self.a[self.m]
        return am if self.m % 2 == 0 else am.scale(mpf(-1))

    # -- form evaluation ----------------------------------------------

    def _chain(self, k: int):
        """Chain vector u_k at sigma_k's nodes: the iterated integral of
        Q_n from level m down to level k, one walk extended as needed."""
        if not self._chains:
            self._chains[self.m] = _adapted_values(self.system, self.c)
        low = min(self._chains)
        if k < low:
            self._chains.update(self.system.chain(low, k, self._chains[low]))
        return self._chains[k]

    def eval_form(self, j: int, z, slope: bool = False):
        """A_{n,j}(z); j=m is the polynomial (-1)^m a_{n,m} = Q_n.

        Contracts the cached chain vector at sigma_{j+1}'s nodes in the
        system's fixed-point operator.  slope=True (real z) returns
        (A_{n,j}(z), A_{n,j}'(z)).
        """
        if not 0 <= j <= self.m:
            raise IndexError(f"form index {j} out of 0..{self.m}")
        if j == self.m:
            return self.Q.value_and_slope(z) if slope else self.Q(z)
        z = _probe_point(z)
        if not isinstance(z, mpc) and self.system.interval(j + 1).contains(z):
            raise SupportError(f"z={z} lies on Delta_{j + 1}")
        blocks = self._blocks.setdefault(j + 1, {})
        return self.system.transform(j + 1, self._chain(j + 1), z, blocks, slope)

    # -- zeros ---------------------------------------------------------

    def zeros(self, j: int, below=None):
        """The n zeros of A_{n,j} in the open interval Delta_j, sorted;
        `below` (degree n - 1's) brackets them, see `bracketed_roots`."""
        if not 1 <= j <= self.m:
            raise IndexError(f"zero level {j} out of 1..{self.m}")
        cached = self._zeros.get(j)
        if cached is not None:
            return cached
        n = self.n
        iv = self.system.interval(j)
        if n == 0:
            roots = ()
        elif j == self.m:
            roots = tuple(real_roots(self.Q, iv, below))
        else:
            f = lambda x, slope=False: self.eval_form(j, x, slope=slope)
            # slope bits start afresh: the zeros do not depend on earlier calls
            self._blocks.get(j + 1, {}).pop("slope bits", None)
            what = f"A_{{{n},{j}}} (precision/quadrature fault)"
            roots = tuple(bracketed_roots(f, lambda x: f(x, True), iv, n, below, what))
        return self._zeros.setdefault(j, roots)


def _order_residuals(sys: NikishinSystem, u, ua, n: int):
    """Laurent coefficients of the top form at z^-1..z^-(n+1).

    The coefficient of z^-r in the integral representation of the top form
    is the bilinear form of x^{r-1} against Q through the iterated kernel,
    evaluated from Q's chain u at sigma_1's nodes so that each coefficient
    is normalized by the honest cancellation mass of its own contraction
    (from the absolute-value chain ua).  The first n normalized residuals
    must vanish to roundoff; the (n+1)-st coefficient magnitude is reported
    as the expansion scale.
    """
    coeffs = sys.power_sums(1, u, n + 1)
    masses = sys.power_sums(1, ua, n, absolute=True)
    return [abs(c) / s for c, s in zip(coeffs, masses)], abs(coeffs[n])


def solve_hp_vector(sys: NikishinSystem, n: int) -> HPSolution:
    """Full vector (a_{n,0},...,a_{n,m}) plus diagnostics for degree n."""
    m = sys.m
    c, info = solve(sys, n)
    Q = _monomial(sys, c)
    a = [None] * (m + 1)
    a[m] = Q if m % 2 == 0 else Q.scale(mpf(-1))
    for j in range(m - 1, -1, -1):
        acc = Polynomial.zero()
        for k in range(j + 1, m + 1):
            pk = a[k]
            if pk.degree < 1:
                continue
            moms = sys.s_moments(j + 1, k, pk.degree)
            part = _poly_part_coeffs(pk, moms)
            sk = 1 if k % 2 == 0 else -1
            acc = acc + Polynomial(tuple(sk * c for c in part))
        sj = 1 if (j + 1) % 2 == 0 else -1
        a[j] = acc.scale(mpf(sj))
    chains = sys.chain(m, 1, _adapted_values(sys, c))
    ua = sys.chain(m, 1, chains[m], absolute=True)[1]
    residuals, scale = _order_residuals(sys, chains[1], ua, n)
    diag = {"cond": info["condition"], "solve_residual": info["residual"]}
    diag.update(residuals=residuals, scale=scale)
    return HPSolution(sys, n, a, c, diag, chains)


def solve_reversed(sys: NikishinSystem, n: int) -> HPSolution:
    """Hermite-Pade vector of the reversed chain; its Q is P_n."""
    return solve_hp_vector(sys.reversed(), n)


def biorthogonality_matrix(sys: NikishinSystem, Ps, Qs):
    """All pairwise bilinear forms of the P and Q families through the
    iterated kernel.

    Returns (entries, scales) as len(Ps) x len(Qs) nested lists; each scale
    is the absolute-value sum of the same contraction, the oscillatory
    cancellation scale, so entry/scale stays resolvable at high degree.
    Each Q is chained through the kernel once, so the cost is linear rather
    than quadratic in the family size for the expensive part.
    """
    nodes = sys.measure(1).nodes
    p_vals = [[P(x) for x in nodes] for P in Ps]
    p_abs = [[abs(p) for p in pv] for pv in p_vals]
    entries = [[None] * len(Qs) for _ in Ps]
    scales = [[None] * len(Qs) for _ in Ps]
    q_nodes = sys.measure(sys.m).nodes
    for col, Q in enumerate(Qs):
        u = tuple(Q(x) for x in q_nodes)
        u1, ua = sys.chain(sys.m, 1, u)[1], sys.chain(sys.m, 1, u, absolute=True)[1]
        for row, (pv, pa) in enumerate(zip(p_vals, p_abs)):
            entries[row][col] = sys.dot(1, pv, u1)
            scales[row][col] = sys.dot(1, pa, ua)
    return entries, scales


def form_identity_residual(sol: HPSolution, j: int, z):
    """Residual of the closing identity tying A_{n,j} back to a_{n,j}:

        A_{n,j} + sum_{k=j+1}^{m-1} (-1)^{k-j} shat_{k,j+1} A_{n,k}
            = (-1)^j (a_{n,j} - a_{n,m} shat_{m,j+1}),

    divided by the largest term magnitude, the right-hand side's two terms
    included: they cancel geometrically in n, while their rounding does not.
    """
    m = sol.m
    if not 0 <= j <= m - 1:
        raise IndexError(f"identity index {j} out of 0..{m - 1}")
    terms = [sol.eval_form(j, z)]
    for k in range(j + 1, m):
        sk = 1 if (k - j) % 2 == 0 else -1
        terms.append(sk * sol.system.s_hat(k, j + 1, z) * sol.eval_form(k, z))
    aj, am_s = sol.a[j](z), sol.a[m](z) * sol.system.s_hat(m, j + 1, z)
    rhs = (1 if j % 2 == 0 else -1) * (aj - am_s)
    res = abs(sum(terms) - rhs)
    scale = max(*(abs(t) for t in terms), abs(rhs), abs(aj), abs(am_s))
    return res / scale if scale > 0 else res


# -- serialization -----------------------------------------------------


def solution_to_json(sol: HPSolution) -> dict:
    """JSON-ready document; a, c and the zeros at round-trip digits, so a
    loaded solution equals the solved one."""
    num = lambda v: mp.nstr(v, repr_dps(mp.prec))
    return {
        "n": sol.n,
        "m": sol.m,
        "a": [[num(c) for c in p.coeffs] for p in sol.a],
        "c": [num(c) for c in sol.c],
        "zeros": {str(j): [num(x) for x in sol.zeros(j)] for j in range(1, sol.m + 1)},
        "diagnostics": {
            "cond": mp.nstr(sol.diagnostics["cond"], 8),
            "solve_residual": mp.nstr(sol.diagnostics["solve_residual"], 8),
            "residuals": [mp.nstr(r, 8) for r in sol.diagnostics["residuals"]],
            "scale": mp.nstr(sol.diagnostics["scale"], 8),
        },
    }


def solution_from_json(sys: NikishinSystem, doc: dict) -> HPSolution:
    """Rebuild a solution (with cached zeros) against an existing system;
    `doc` must carry Q's adapted coefficients "c"."""
    a = [Polynomial(tuple(mpf(c) for c in coeffs)) for coeffs in doc["a"]]
    diag = {
        "cond": mpf(doc["diagnostics"]["cond"]),
        "solve_residual": mpf(doc["diagnostics"]["solve_residual"]),
        "residuals": [mpf(r) for r in doc["diagnostics"]["residuals"]],
        "scale": mpf(doc["diagnostics"]["scale"]),
    }
    sol = HPSolution(sys, doc["n"], a, [mpf(c) for c in doc["c"]], diag)
    for j_str, zs in doc.get("zeros", {}).items():
        sol._zeros[int(j_str)] = tuple(mpf(x) for x in zs)
    return sol
