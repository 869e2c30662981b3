"""Limit predictions from the equilibrium solution, and empirical estimators.

The limiting functions F_k are represented by the pair (lambda_k, omega'_k):
log |F_k(z)/F_k'(infinity)| = -V^{lambda_k}(z), and the leading-coefficient
ratio limits are kappa_k = e^{omega'_k}.  This avoids any Riemann-surface
numerics; moduli are all the tested statements need.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc, exp

from .equilibrium import EquilibriumSolution
from .hp import HPSolution
from .polyzeros import log_potential
from .precision import _probe_point


class DomainError(ValueError):
    """Probe lies on an excluded interval."""


@dataclass(frozen=True)
class AsymptoticPredictor:
    equilibrium: EquilibriumSolution
    kappas: tuple  # kappa_1..kappa_m

    @property
    def m(self) -> int:
        return self.equilibrium.m

    def V(self, k: int, z) -> mpf:
        """V^{lambda_k}(z); V^{lambda_0} = V^{lambda_{m+1}} = 0."""
        if k == 0 or k == self.m + 1:
            return mpf(0)
        return log_potential(self.equilibrium.lambdas[k - 1], z)

    def omega(self, j: int) -> mpf:
        """Backward cumulative omega_j = sum_{k>=j} omega'_k, omega_{m+1}=0."""
        if j == self.m + 1:
            return mpf(0)
        return self.equilibrium.omega_cum[j - 1]


def make_predictor(eq: EquilibriumSolution) -> AsymptoticPredictor:
    """Predictor from a solved equilibrium; kappa_k = exp(omega'_k)."""
    if not eq.lambdas:
        raise ValueError("equilibrium solution is empty")
    return AsymptoticPredictor(eq, tuple(exp(w) for w in eq.omega_prime))


def _check_off(pred: AsymptoticPredictor, z, levels):
    x = _probe_point(z)
    if isinstance(x, mpc):
        return
    for k in levels:
        if 1 <= k <= pred.m and pred.equilibrium.intervals[k - 1].contains(x):
            raise DomainError(f"probe z={x} lies on interval {k}")


def F_ratio_modulus(pred: AsymptoticPredictor, k: int, z) -> mpf:
    """|F_k(z)/F_k'(inf)| = exp(-V^{lambda_k}(z)): the Q_{n+1,k}/Q_{n,k} limit."""
    if not 1 <= k <= pred.m:
        raise IndexError(f"level {k} out of 1..{pred.m}")
    _check_off(pred, z, [k])
    return exp(-pred.V(k, z))


def nth_root_prediction(pred: AsymptoticPredictor, j: int, z) -> mpf:
    """Limit of |A_{n,j}(z)|^{1/n} for j = 0..m."""
    if not 0 <= j <= pred.m:
        raise IndexError(f"form index {j} out of 0..{pred.m}")
    _check_off(pred, z, [j, j + 1])
    if j == pred.m:
        return exp(-pred.V(pred.m, z))
    return exp(pred.V(j + 1, z) - pred.V(j, z) - 2 * pred.omega(j + 1))


def rate_prediction(pred: AsymptoticPredictor, z) -> mpf:
    """n-th root of |a_{n,0}/a_{n,m} - shat_{m,1}|; < 1 off the last two
    intervals (geometric convergence to the top transform)."""
    if pred.m < 2:
        raise ValueError("rate prediction needs m >= 2")
    _check_off(pred, z, [pred.m - 1, pred.m])
    return exp(
        2 * pred.V(pred.m, z) - pred.V(pred.m - 1, z) - 2 * pred.omega(pred.m)
    )


def form_ratio_prediction(pred: AsymptoticPredictor, j: int, k: int, z) -> mpf:
    """Limit of |A_{n,j}(z)/A_{n,k}(z)|^{1/n} for 0 <= j < k <= m."""
    if not 0 <= j < k <= pred.m:
        raise IndexError(f"need 0 <= j < k <= m, got ({j},{k})")
    _check_off(pred, z, [j, j + 1, k, k + 1])
    return exp(
        -pred.V(k + 1, z)
        + pred.V(k, z)
        + pred.V(j + 1, z)
        - pred.V(j, z)
        - 2 * (pred.omega(j + 1) - pred.omega(k + 1))
    )


# -- empirical estimators ----------------------------------------------


def default_probes(intervals):
    """5 real points outside the convex hull + 4 complex probes at distance
    >= 1/2 from every interval."""
    lo = min(iv.a for iv in intervals)
    hi = max(iv.b for iv in intervals)
    span = hi - lo
    reals = [
        hi + span / 2,
        hi + span,
        hi + 2 * span,
        lo - span / 2,
        lo - span,
    ]
    mid = (lo + hi) / 2
    height = max(span / 2, mpf(1))
    cplx = [
        mpc(mid, height),
        mpc(lo, -height),
        mpc(hi, height),
        mpc(mid, -2 * height),
    ]
    for z in cplx:
        for iv in intervals:
            if iv.distance_to_point(z) < mpf("0.5"):
                raise ValueError(f"default complex probe {z} too close to {iv}")
    return reals + cplx


def _zero_product(sol: HPSolution, j: int, x):
    """Q_{n,j}(x) = prod (x - zeta) over the zeros of A_{n,j} on Delta_j
    (Q_{n,0} = Q_{n,m+1} = 1)."""
    p = mpf(1)
    if 1 <= j <= sol.m:
        for t in sol.zeros(j):
            p *= x - t
    return p


def empirical_K(sol: HPSolution, j: int) -> mpf:
    """Orthonormalizing constant K_{n,j}, j=1..m (K_{n,m+1} = 1):
    K_{n,j}^{-2} = int |Q_{n,j}(t) A_{n,j}(t) / Q_{n,j-1}(t)| dsigma_j(t).

    A_{n,j} at sigma_j's nodes is the solution's chain vector there."""
    if not 1 <= j <= sol.m + 1:
        raise IndexError(f"K index {j} out of 1..{sol.m + 1}")
    if j == sol.m + 1:
        return mpf(1)
    mu = sol.system.measure(j)
    total = mpf(0)
    for x, w, a in zip(mu.nodes, mu.weights, sol._chain(j)):
        total += w * abs(_zero_product(sol, j, x) * a / _zero_product(sol, j - 1, x))
    return 1 / mp.sqrt(total)


def _ordered_consecutive(solutions):
    sols = sorted(solutions, key=lambda s: s.n)
    for a, b in zip(sols, sols[1:]):
        if b.n != a.n + 1:
            raise ValueError("solutions must cover consecutive degrees")
    if len(sols) < 2:
        raise ValueError("need at least two consecutive solutions")
    return sols

def _row(n, probe, level, measured, predicted, secondary=None):
    measured = mpf(measured) if not isinstance(measured, mpf) else measured
    gap = abs(measured - predicted)
    row = {
        "n": n,
        "probe": probe,
        "level": level,
        "measured": measured,
        "predicted": predicted,
        "abs_gap": gap,
        "rel_gap": gap / abs(predicted) if predicted != 0 else gap,
    }
    if secondary is not None:
        row["nth_root"] = secondary
    return row


def empirical_tables(solutions, probes, which: str, pred: AsymptoticPredictor):
    """Measured-vs-predicted rows for one estimator family.

    which = "ratioQ"    : |Q_{n+1,j}(z)/Q_{n,j}(z)| vs the F_j ratio modulus
            "nthroot"   : |A_{n+1,j}/A_{n,j}| (primary) and |A_{n,j}|^{1/n}
                          (secondary) vs the n-th root limit
            "rate"      : |a_{n,0}/a_{n,m} - shat_{m,1}| ratio vs the rate
            "formratio" : |A_{n,j}/A_{n,k}| two-point vs the pair limit
            "leading"   : kappa_{n,k} = K_{n,k}/K_{n,k+1} vs kappa_k
    """
    sols = _ordered_consecutive(solutions)
    m = sols[0].m
    rows = []
    if which in ("ratioQ", "leading"):
        # these read the zeros: bracket each degree's by the previous degree's
        for lo, hi in zip(sols, sols[1:]):
            for j in range(1, m + 1):
                hi.zeros(j, below=lo.zeros(j))

    def consecutive(n_level, z, target, vals):
        # rows for the ratios of neighbouring degrees' values, with the
        # n-th root of the lower one as the secondary column
        for lo, va, vb in zip(sols, vals, vals[1:]):
            sec = va ** (mpf(1) / lo.n) if lo.n > 0 else None
            rows.append(_row(lo.n, z, n_level, vb / va, target, sec))

    if which == "ratioQ":
        for j in range(1, m + 1):
            for z in probes:
                target = F_ratio_modulus(pred, j, z)
                vals = [_zero_product(s, j, z) for s in sols]
                for lo, va, vb in zip(sols, vals, vals[1:]):
                    rows.append(_row(lo.n, z, j, abs(vb / va), target))
    elif which == "nthroot":
        for j in range(0, m + 1):
            for z in probes:
                target = nth_root_prediction(pred, j, z)
                vals = [s.eval_form(j, z) for s in sols]
                for lo, va, vb in zip(sols, vals, vals[1:]):
                    sec = abs(va) ** (mpf(1) / lo.n) if lo.n > 0 else None
                    rows.append(_row(lo.n, z, j, abs(vb / va), target, sec))
    elif which == "rate":
        if m < 2:
            raise ValueError("rate table needs m >= 2")
        sys = sols[0].system
        for z in probes:
            target = rate_prediction(pred, z)
            sm1 = sys.s_hat(m, 1, z)
            consecutive(
                None, z, target, [abs(s.a[0](z) / s.a[m](z) - sm1) for s in sols]
            )
    elif which == "formratio":
        # every A_{n,j}(z) once, per probe: forms[i][s][j]
        forms = {}
        for j in range(0, m + 1):
            for k in range(j + 1, m + 1):
                for i, z in enumerate(probes):
                    target = form_ratio_prediction(pred, j, k, z)
                    if i not in forms:
                        forms[i] = [[s.eval_form(l, z) for l in range(m + 1)] for s in sols]
                    consecutive((j, k), z, target, [abs(A[j] / A[k]) for A in forms[i]])
    elif which == "leading":
        Ks = [[empirical_K(s, k) for k in range(1, m + 2)] for s in sols]
        for k in range(1, m + 1):
            consecutive(
                k, None, pred.kappas[k - 1], [K[k - 1] / K[k] for K in Ks]
            )
    else:
        raise ValueError(f"unknown table kind {which!r}")
    return rows


def table_to_json(rows) -> list:
    """Rows with all numerics as 30-digit decimal strings."""
    def enc(v):
        if v is None:
            return None
        if isinstance(v, (int,)):
            return v
        if isinstance(v, tuple):
            return list(v)
        return mp.nstr(mpf(v) if not isinstance(v, (mpf, mpc)) else v, 30)

    return [{key: enc(val) for key, val in row.items()} for row in rows]


def table_to_csv(rows) -> str:
    cols = ["n", "probe", "level", "measured", "predicted", "abs_gap", "rel_gap"]
    if any("nth_root" in r for r in rows):
        cols.append("nth_root")
    lines = [",".join(cols)]
    for r in rows:
        vals = []
        for c in cols:
            v = r.get(c)
            if v is None:
                vals.append("")
            elif isinstance(v, int):
                vals.append(str(v))
            elif isinstance(v, tuple):
                vals.append("-".join(str(x) for x in v))
            else:
                vals.append(mp.nstr(v, 30).replace(",", ";"))
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
