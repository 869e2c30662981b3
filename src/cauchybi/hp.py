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
from .polyzeros import RootCountError, _scan_sign_changes, real_roots, refine_bracket


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
        Q_n from level m down to level k."""
        cached = self._chains.get(k)
        if cached is not None:
            return cached
        if k == self.m:
            vals = _adapted_values(self.system, self.c)
        else:
            (vals,) = self.system.push(k + 1, k, [self._chain(k + 1)])
        return self._chains.setdefault(k, vals)

    def eval_form(self, j: int, z, route: str = "chain"):
        """A_{n,j}(z); j=m is the polynomial (-1)^m a_{n,m} = Q_n.

        route="chain" contracts the cached chain vector at sigma_{j+1}'s
        nodes in the system's fixed-point operator; route="direct" uses the
        defining combination against the generated transforms in mpf.
        """
        if not 0 <= j <= self.m:
            raise IndexError(f"form index {j} out of 0..{self.m}")
        if j == self.m:
            return self.Q(z)
        complex_z = isinstance(z, (mpc, complex)) and mpc(z).imag != 0
        z = mpc(z) if complex_z else (mpc(z).real if isinstance(z, (mpc, complex)) else mpf(z))
        if not complex_z and self.system.interval(j + 1).contains(z):
            raise SupportError(f"z={z} lies on Delta_{j + 1}")
        if route == "direct":
            acc = self.a[j](z) * (1 if j % 2 == 0 else -1)
            for k in range(j + 1, self.m + 1):
                sk = 1 if k % 2 == 0 else -1
                acc += sk * self.a[k](z) * self.system.s_hat(j + 1, k, z)
            return acc
        blocks = self._blocks.setdefault(j + 1, {})
        return self.system.transform(j + 1, self._chain(j + 1), z, blocks)

    # -- zeros ---------------------------------------------------------

    def zeros(self, j: int):
        """The n zeros of A_{n,j} in the open interval Delta_j, sorted."""
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
            roots = tuple(real_roots(self.Q, iv))
        else:
            f = lambda x: self.eval_form(j, x)
            brackets = _scan_sign_changes(f, iv.a, iv.b, n, 8 * n)
            if brackets is None or len(brackets) != n:
                found = 0 if brackets is None else len(brackets)
                raise RootCountError(
                    f"A_{{{n},{j}}}: found {found} sign changes on "
                    f"Delta_{j}, expected {n}; precision/quadrature fault"
                )
            xtol = mpf(10) ** (-mp.dps // 3) * max(mpf(1), abs(iv.a), abs(iv.b))
            roots = tuple(
                sorted(
                    refine_bracket(f, lo, hi, flo, fhi, xtol)
                    for lo, hi, flo, fhi in brackets
                )
            )
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
    chains, ua = _kernel_projection(sys, _adapted_values(sys, c))
    residuals, scale = _order_residuals(sys, chains[1], ua, n)
    diag = {"cond": info["condition"], "solve_residual": info["residual"]}
    diag.update(residuals=residuals, scale=scale)
    return HPSolution(sys, n, a, c, diag, chains)


def eval_form(sol: HPSolution, j: int, z, route: str = "chain"):
    return sol.eval_form(j, z, route=route)


def zeros_of_form(sol: HPSolution, j: int):
    return list(sol.zeros(j))


def solve_reversed(sys: NikishinSystem, n: int) -> HPSolution:
    """Hermite-Pade vector of the reversed chain; its Q is P_n."""
    return solve_hp_vector(sys.reversed(), n)


def biorthogonality_entry(sys: NikishinSystem, Pk: Polynomial, Qn: Polynomial):
    """Bilinear form of P and Q through the iterated kernel (bimoment sum)."""
    return sum(
        (
            p * q * sys.bimoment(nu, mu)
            for nu, p in enumerate(Pk.coeffs)
            for mu, q in enumerate(Qn.coeffs)
        ),
        mpf(0),
    )


def _kernel_projection(sys: NikishinSystem, u):
    """Push Q's values u at sigma_m's nodes down the chain to sigma_1's.

    Returns (chains, ua): chains[k] is the signed chain at sigma_k's nodes
    for k = m..1 (an HPSolution's form vectors), and ua is the
    absolute-value chain at sigma_1's nodes, the per-node cancellation mass.
    """
    m = sys.m
    chains = {m: u}
    ua = tuple(abs(v) for v in u)
    for j in range(m - 1, 0, -1):
        (u,) = sys.push(j + 1, j, [u])
        (ua,) = sys.push(j + 1, j, [ua], absolute=True)
        chains[j] = u
    return chains, ua


def biorthogonality_quadrature(
    sys: NikishinSystem, Pk: Polynomial, Qn: Polynomial
):
    """Bilinear form of P and Q via node values and the kernel chain.

    Returns (entry, scale) where scale is the absolute-value sum of the
    same contraction.  The entry equals the bimoment bilinear form, but the
    cancellation scale is the genuine oscillatory one rather than the
    (much larger) monomial-coefficient one, so entry/scale stays resolvable
    at degrees where the coefficient-route scale would swamp the value.
    """
    entries, scales = biorthogonality_matrix(sys, [Pk], [Qn])
    return entries[0][0], scales[0][0]


def biorthogonality_matrix(sys: NikishinSystem, Ps, Qs):
    """All pairwise bilinear forms of the P and Q families.

    Returns (entries, scales) as len(Ps) x len(Qs) nested lists; each Q is
    chained through the kernel once, so the cost is linear rather than
    quadratic in the family size for the expensive part.
    """
    nodes = sys.measure(1).nodes
    p_vals = [[P(x) for x in nodes] for P in Ps]
    p_abs = [[abs(p) for p in pv] for pv in p_vals]
    entries = [[None] * len(Qs) for _ in Ps]
    scales = [[None] * len(Qs) for _ in Ps]
    q_nodes = sys.measure(sys.m).nodes
    for col, Q in enumerate(Qs):
        chains, ua = _kernel_projection(sys, tuple(Q(x) for x in q_nodes))
        for row, (pv, pa) in enumerate(zip(p_vals, p_abs)):
            entries[row][col] = sys.dot(1, pv, chains[1])
            scales[row][col] = sys.dot(1, pa, ua)
    return entries, scales


def form_identity_residual(sol: HPSolution, j: int, z, relative: bool = False):
    """Residual of the closing identity tying A_{n,j} back to a_{n,j}:

        A_{n,j} + sum_{k=j+1}^{m-1} (-1)^{k-j} shat_{k,j+1} A_{n,k}
            = (-1)^j (a_{n,j} - a_{n,m} shat_{m,j+1}).

    With relative=True the residual is divided by the largest term magnitude.
    """
    m = sol.m
    if not 0 <= j <= m - 1:
        raise IndexError(f"identity index {j} out of 0..{m - 1}")
    terms = [sol.eval_form(j, z)]
    for k in range(j + 1, m):
        sk = 1 if (k - j) % 2 == 0 else -1
        terms.append(sk * sol.system.s_hat(k, j + 1, z) * sol.eval_form(k, z))
    sj = 1 if j % 2 == 0 else -1
    rhs = sj * (
        sol.a[j](z) - sol.a[m](z) * sol.system.s_hat(m, j + 1, z)
    )
    res = abs(sum(terms) - rhs)
    if relative:
        scale = max(max(abs(t) for t in terms), abs(rhs))
        return res / scale if scale > 0 else res
    return res


# -- serialization -----------------------------------------------------


def solution_to_json(sol: HPSolution, include_zeros: bool = True) -> dict:
    """JSON-ready document; all numbers as full-precision decimal strings."""
    doc = {
        "n": sol.n,
        "m": sol.m,
        "a": [[mp.nstr(c, mp.dps) for c in p.coeffs] for p in sol.a],
        # exact round trip: chains start from these
        "c": [mp.nstr(c, repr_dps(mp.prec)) for c in sol.c],
        "zeros": {},
        "diagnostics": {
            "cond": mp.nstr(sol.diagnostics["cond"], 8),
            "solve_residual": mp.nstr(sol.diagnostics["solve_residual"], 8),
            "residuals": [mp.nstr(r, 8) for r in sol.diagnostics["residuals"]],
            "scale": mp.nstr(sol.diagnostics["scale"], 8),
        },
    }
    if include_zeros:
        for j in range(1, sol.m + 1):
            doc["zeros"][str(j)] = [mp.nstr(x, mp.dps) for x in sol.zeros(j)]
    return doc


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
