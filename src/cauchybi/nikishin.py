"""Nikishin systems: generated measures, iterated kernel, bimoments.

Indices follow the 1-based convention sigma_1..sigma_m throughout the public
surface.  Every multi-level integral is a chain of single-level quadratures
through one Cauchy-chain operator: `push` contracts a batch of node vectors
of sigma_j against the kernel 1/(t - x) onto the nodes of the neighbouring
level j +- 1, and `transform` contracts one against 1/(z - x) at a single
point.  Both run in fixed-point integers at the working precision plus guard
bits derived from the node sets, against a kernel matrix cached per adjacent
pair and precision, and round once to working precision; moments
(`power_sums`) and Gram entries are summed the same way.  The plain-mpf
loops kept here (`s_hat`, `kernel_K`, the monomial bimoments) are the
independent oracles the tests check the operator against.  The adapted
Gram's one L*D*U (`BorderedLDU`) grows by bordering and serves both twins.
"""

from __future__ import annotations

from operator import mul

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest

from .measures import IntervalMeasure, SupportError
from .poly import Polynomial
from .precision import _man_exp, _to_mpf


class SystemError_(ValueError):
    """Invalid Nikishin system configuration."""


def _guard_bits(count, near=None, far=None):
    """Guard bits for a count-term sum, ceil(log2 count) + 8, plus
    ceil(log2(far/near)) for a contraction against 1/(t - x) with
    near <= |t - x| <= far."""
    guard = (count - 1).bit_length() + 8
    if near is not None:
        guard += mp.mag(far) - mp.mag(near) + 2
    return guard


def _block_ints(terms, guard):
    """(Y, E): exact terms (m, e) on one exponent, m 2^e ~ Y_l 2^E with the
    largest carrying prec + guard bits (block floating point)."""
    top = max((e + m.bit_length() for m, e in terms if m), default=None)
    if top is None:
        return [0] * len(terms), 0
    E = top - mp.prec - guard
    return [m << (e - E) if e >= E else m >> (E - e) for m, e in terms], E


def _round_bits(m, e, bits):
    """m 2^e as (m', e') with m' truncated to at most `bits` bits."""
    drop = m.bit_length() - bits
    return (m >> drop, e + drop) if drop > 0 else (m, e)


def _fixed_sum(terms):
    """The sum of exact terms (m, e), rounded once to working precision;
    the error is below 2^-(prec+7) times the sum of their absolute values."""
    Y, E = _block_ints(terms, _guard_bits(len(terms)))
    return _to_mpf(sum(Y), E)


def _minus_dot(b, row, x):
    """b - sum_j row_j x_j, rounded once."""
    return mp.fdot([(b, 1), *((r, -v) for r, v in zip(row, x))])


def _forward(tri, rhs):
    """z with z_i = rhs_i - sum_{j<i} tri[i][j] z_j."""
    z = []
    for row, b in zip(tri, rhs):
        z.append(_minus_dot(b, row, z))
    return z


def _degree(tri, rows, inverse, k):
    """(x, kappa_1, backward error) for A_k x = -A[:k, k], where `rows` are
    A's rows through column k, `inverse` is A_k^-1 and tri[j] is the strict
    column j of the unit upper triangular factor."""
    if not k:
        return (), mpf(1), mpf(0)
    x = [mpf(1)]  # x_k, x_{k-1}, ..., by back-substitution
    for i in range(k - 1, -1, -1):
        x.append(-mp.fdot((tri[j][i], v) for j, v in zip(range(k, i, -1), x)))
    xh = x[::-1]
    backward = mpf(0)
    for row in rows[:k]:
        den = mp.fdot(map(abs, row), map(abs, xh))
        if den:  # 0/0 reads as 0
            backward = max(backward, abs(mp.fdot(row, xh)) / den)
    # kappa_1(R A_k S), R scaling the rows and then S the columns to unit
    # maximum; (R A_k S)^-1 = S^-1 A_k^-1 R^-1
    r = [1 / max(abs(v) for v in row[:k]) for row in rows[:k]]
    cols = list(zip(*([abs(v) * ri for v in row[:k]] for row, ri in zip(rows, r))))
    s = [1 / max(col) for col in cols]
    norm = max(mp.fsum(col) * sj for col, sj in zip(cols, s))
    inv_norm = max(
        mp.fsum(abs(v) / sj for v, sj in zip(col, s)) / ri
        for col, ri in zip(zip(*inverse), r)
    )
    return tuple(xh[:-1]), norm * inv_norm, backward


class BorderedLDU:
    """A = L D U, unpivoted, of the matrix with entries entry(i, j).

    Step k reads row and column k into `rows`, adds lower[k] = L[k, :k],
    upper[k] = U[:k, k] and pivots[k] = D_k (dividing by D_0..D_{k-1}, so an
    exact zero pivot raises ZeroDivisionError) and solves degree k: (x, 1),
    column k of U^-1, solves A_k x = -A[:k, k]; (y, 1), row k of L^-1, solves
    A_k^T y = -A[k, :k].  The inverse grows by one rank-one term,
    A_{k+1}^-1 = (A_k^-1 (+) 0) + (x, 1)(y, 1)^T / D_k.  Sums are `mp.fdot`s.
    """

    def __init__(self, entry):
        self._entry = entry
        self.rows, self.lower, self.upper, self.pivots = [], [], [], []
        self._inverse, self._degrees = [], []

    def solve(self, k: int, transposed: bool = False):
        """(x, kappa_1, backward error) for A_k x = -A[:k, k], or with
        transposed=True for A_k^T y = -A[k, :k]."""
        while len(self.pivots) <= k:
            self._grow()
        return self._degrees[k][transposed]

    def _grow(self) -> None:
        k = len(self.pivots)
        a = [self._entry(i, k) for i in range(k)]
        b = [self._entry(k, j) for j in range(k)]
        alpha = self._entry(k, k)
        z = _forward(self.lower, a)
        u = [v / d for v, d in zip(z, self.pivots)]
        l = [v / d for v, d in zip(_forward(self.upper, b), self.pivots)]
        if k:
            (x, _, _), (y, _, _) = self._degrees[k - 1]
            yh, xd = (*y, 1), [v / self.pivots[k - 1] for v in (*x, 1)]
            padded = [row + [mpf(0)] for row in self._inverse] + [[mpf(0)] * k]
            self._inverse = [[v + xi * yj for v, yj in zip(row, yh)] for row, xi in zip(padded, xd)]
        self.upper.append(u)
        self.lower.append(l)
        self.pivots.append(_minus_dot(alpha, l, z))
        for row, v in zip(self.rows, a):
            row.append(v)
        self.rows.append(b + [alpha])
        fwd = _degree(self.upper, self.rows, self._inverse, k)
        rev = _degree(self.lower, list(zip(*self.rows)), list(zip(*self._inverse)), k)
        self._degrees.append((fwd, rev))


class NikishinSystem:
    """Ordered tuple of interval measures with disjoint consecutive supports.

    Immutable after construction apart from its write-once caches.  A
    system and its reversal share the operator's caches and one Gram factor.
    """

    def __init__(self, measures):
        measures = tuple(measures)
        if len(measures) < 1:
            raise SystemError_("need at least one measure")
        for j in range(len(measures) - 1):
            gap = measures[j].interval.gap_to(measures[j + 1].interval)
            if not gap > 0:
                a, b = measures[j].interval, measures[j + 1].interval
                raise SystemError_(
                    f"consecutive supports {j + 1} and {j + 2} not disjoint: "
                    f"[{a.a}, {a.b}] vs [{b.a}, {b.b}]"
                )
        self.measures = measures
        self.m = len(measures)
        self._inner_cache = {}
        self._shat_cache = {}
        self._chain_cache = {}
        self._bimoments = {}
        self._smoment_cache = {}
        self._basis_vals = {}
        self._basis_polys = {}
        self._gram_chain = {}
        self._fixed_levels = {}
        self._kernels = {}
        self._factors = {}
        self._reversed = None

    def measure(self, j: int) -> IntervalMeasure:
        """1-based access to sigma_j."""
        if not 1 <= j <= self.m:
            raise IndexError(f"measure index {j} out of 1..{self.m}")
        return self.measures[j - 1]

    def interval(self, j: int):
        return self.measure(j).interval

    def reversed(self) -> "NikishinSystem":
        """The chain read backwards; built once, and its reversal is self."""
        if self._reversed is None:
            rev = NikishinSystem(tuple(reversed(self.measures)))
            # the operator's caches are keyed by the measures, so both
            # orientations share them, and the Gram factor serves both
            rev._fixed_levels = self._fixed_levels
            rev._kernels = self._kernels
            rev._factors = self._factors
            rev._reversed = self
            self._reversed = rev
        return self._reversed

    # -- the Cauchy-chain operator --------------------------------------
    #
    # A node vector v of sigma_j enters as block-floating-point ints
    # Y_l ~ w_l v_l 2^-E (one exponent per vector, the largest entry carrying
    # prec + guard bits) and is contracted against fixed-point reciprocals
    # R_l ~ 2^F / (t - x_l) by exact integer dot products.  The error is at
    # most 2^-(prec + 7) times the absolute-value sum of the same
    # contraction, so the single rounding to working precision dominates.

    def _fixed_level(self, j: int):
        """sigma_j's nodes as ints X on one exponent e (x_l = X_l 2^e), its
        weights as exact (mantissa, exponent) pairs, and its node hull."""
        mu = self.measure(j)
        cached = self._fixed_levels.get(id(mu))
        if cached is not None:
            return cached
        nodes = [_man_exp(x) for x in mu.nodes]
        e = min(ex for _, ex in nodes)
        level = (
            tuple(m << (ex - e) for m, ex in nodes),
            e,
            tuple(_man_exp(w) for w in mu.weights),
            min(mu.nodes),
            max(mu.nodes),
        )
        return self._fixed_levels.setdefault(id(mu), level)

    def _weighted(self, j: int, v):
        """The products w_l v_l over sigma_j's nodes as exact (m, e) pairs."""
        return [
            (mw * mv, ew + ev)
            for (mw, ew), (mv, ev) in zip(self._fixed_level(j)[2], map(_man_exp, v))
        ]

    def _reciprocals(self, j: int, z, F: int):
        """2^F / (z - x_l) over sigma_j's nodes, rounded down to ints; for
        complex z a pair (real parts, imaginary parts)."""
        X, e, *_ = self._fixed_level(j)
        if isinstance(z, mpc):
            (ma, ea), (mb, eb) = _man_exp(z.real), _man_exp(z.imag)
            e0 = min(e, ea, eb)
            A, B = ma << (ea - e0), mb << (eb - e0)
        else:
            (ma, ea), B = _man_exp(z), None
            e0 = min(e, ea)
            A = ma << (ea - e0)
        if e0 < e:
            X = [x << (e - e0) for x in X]
        s = F - e0
        if B is None:
            num = 1 << s
            return [num // (A - x) for x in X]
        BB, nB = B * B, -B << s
        re, im = [], []
        for x in X:
            d = A - x
            den = d * d + BB
            re.append((d << s) // den)
            im.append(nB // den)
        return re, im

    def _kernel(self, j: int, k: int):
        """(rows, F, guard, sign): sign * rows[i][l] ~ 2^F / (t_i - x_l) for
        t over sigma_k's nodes and x over sigma_j's, k = j +- 1.  Built
        lazily per adjacent pair and precision, always from the left
        interval's nodes to the right one's; the opposite direction is -C^T,
        the transposed rows of the same ints with the sign flipped, so both
        orientations round alike whichever is asked for first."""
        src, dst = self.measure(j), self.measure(k)
        key = (id(src), id(dst), mp.prec)
        cached = self._kernels.get(key)
        if cached is not None:
            return cached
        if dst.interval.a < src.interval.a:
            rows, F, guard, sign = self._kernel(k, j)
            kernel = (tuple(zip(*rows)), F, guard, -sign)
        else:
            lo_j, hi_j = self._fixed_level(j)[3:]
            lo_k, hi_k = self._fixed_level(k)[3:]
            ds = [abs(t - x) for t in (lo_k, hi_k) for x in (lo_j, hi_j)]
            count = max(len(src.nodes), len(dst.nodes))
            guard = _guard_bits(count, min(ds), max(ds))
            F = mp.prec + guard + mp.mag(max(ds))
            rows = tuple(tuple(self._reciprocals(j, t, F)) for t in dst.nodes)
            kernel = (rows, F, guard, 1)
        return self._kernels.setdefault(key, kernel)

    def push(self, j: int, k: int, vectors, absolute: bool = False):
        """Cauchy transforms of the measures v dsigma_j at sigma_k's nodes,
        k = j +- 1: for each node vector v, the tuple over sigma_k's nodes t
        of sum_l w_l v_l / (t - x_l).  With absolute=True each is the
        absolute-value companion sum_l w_l |v_l| / |t - x_l|, the
        cancellation mass of the signed contraction."""
        if abs(j - k) != 1:
            raise IndexError(f"push from level {j} to {k}: not neighbours")
        rows, F, guard, sign = self._kernel(j, k)
        out = []
        for v in vectors:
            if absolute:
                v = [abs(x) for x in v]
            Y, E = _block_ints(self._weighted(j, v), guard)
            if sign < 0:
                Y = [-y for y in Y]
            vals = tuple(_to_mpf(sum(map(mul, row, Y)), E - F) for row in rows)
            # both supports are disjoint intervals, so the kernel has one
            # sign and the absolute sum is the absolute value of the sum
            out.append(tuple(abs(x) for x in vals) if absolute else vals)
        return out

    def transform(self, j: int, v, z, blocks: dict):
        """sum_l w_l v_l / (z - x_l) over sigma_j's nodes at one point z
        (mpf or mpc) off the node hull, in the operator's fixed point.
        `blocks` is the caller's cache of v's fixed-point vectors."""
        lo, hi = self._fixed_level(j)[3:]
        far = max(abs(z - lo), abs(z - hi))
        near = abs(z - min(max(z.real, lo), hi))
        # a few guard values cover whole families of points
        guard = -(-_guard_bits(len(v), near, far) // 16) * 16
        key = (guard, mp.prec)
        block = blocks.get(key)
        if block is None:
            block = blocks.setdefault(key, _block_ints(self._weighted(j, v), guard))
        Y, E = block
        F = mp.prec + guard + mp.mag(far)
        R = self._reciprocals(j, z, F)
        if isinstance(z, mpc):
            re, im = (
                from_man_exp(sum(map(mul, r, Y)), E - F, mp.prec, round_nearest)
                for r in R
            )
            return mp.make_mpc((re, im))
        return _to_mpf(sum(map(mul, R, Y)), E - F)

    def dot(self, j: int, p, v):
        """sum_l w_l p_l v_l over sigma_j's nodes, rounded once; the error is
        below 2^-(prec+7) times sum_l |w_l p_l v_l|."""
        return _fixed_sum(
            [
                (a * b, ea + eb)
                for (a, ea), (b, eb) in zip(self._weighted(j, v), map(_man_exp, p))
            ]
        )

    def power_sums(self, j: int, v, count: int, absolute: bool = False):
        """sum_l w_l v_l x_l^r over sigma_j's nodes for r = 0..count-1; with
        absolute=True, sum_l |w_l v_l x_l^r|.  Each term keeps its own
        exponent while the powers build up, and each sum is rounded once."""
        X, e, *_ = self._fixed_level(j)
        terms = self._weighted(j, v)
        if absolute:
            terms = [(abs(m), ex) for m, ex in terms]
            X = [abs(x) for x in X]
        bits = mp.prec + _guard_bits(len(terms)) + count.bit_length()
        sums = []
        for r in range(count):
            if r:
                terms = [_round_bits(m * x, ex + e, bits) for (m, ex), x in zip(terms, X)]
            sums.append(_fixed_sum(terms))
        return sums

    # -- generated measures s_{j,k} ------------------------------------

    def _check_chain(self, j, k):
        if not (1 <= j <= self.m and 1 <= k <= self.m):
            raise IndexError(f"chain indices ({j},{k}) out of 1..{self.m}")

    def inner_values(self, j: int, k: int):
        """Values of the inner transform of s_{j,k} at sigma_j's nodes.

        Forward (j < k): s_hat_{j+1,k} at the nodes; reversed (j > k):
        s_hat_{j-1,k}; trivially ones when j == k.
        """
        self._check_chain(j, k)
        key = (j, k)
        cached = self._inner_cache.get(key)
        if cached is not None:
            return cached
        mu = self.measure(j)
        if j == k:
            vals = tuple(mpf(1) for _ in mu.nodes)
        else:
            inner_j = j + 1 if j < k else j - 1
            (vals,) = self.push(inner_j, j, [self.inner_values(inner_j, k)])
        return self._inner_cache.setdefault(key, vals)

    def s_hat(self, j: int, k: int, z):
        """Cauchy transform of the generated measure s_{j,k} at z.

        s_hat_{j,j} is sigma_j's plain transform; otherwise the one-level
        recursion integrates the cached inner transform against sigma_j.
        z must lie off the support interval of sigma_j.  Memoized by
        (j, k, z, precision).
        """
        self._check_chain(j, k)
        mu = self.measure(j)
        complex_z = isinstance(z, (mpc, complex)) and mpc(z).imag != 0
        if complex_z:
            z = mpc(z)
        else:
            z = mpc(z).real if isinstance(z, (mpc, complex)) else mpf(z)
            if mu.interval.contains(z):
                raise SupportError(
                    f"z={z} lies on the support of sigma_{j}"
                )
        key = (j, k, z, mp.prec)
        cached = self._shat_cache.get(key)
        if cached is not None:
            return cached
        inner = self.inner_values(j, k)
        acc = mpc(0) if complex_z else mpf(0)
        for x, w, g in zip(mu.nodes, mu.weights, inner):
            acc += w * g / (z - x)
        return self._shat_cache.setdefault(key, acc)

    def s_mass(self, j: int, k: int):
        """Total mass of s_{j,k} (z * s_hat -> mass as z -> infinity)."""
        return self.power_sums(j, self.inner_values(j, k), 1)[0]

    def s_moments(self, j: int, k: int, count: int):
        """Moments 0..count-1 of s_{j,k} (forward orientation, j <= k)."""
        if j > k:
            raise IndexError("s_moments is defined for the forward chain j <= k")
        key = (j, k)
        have = self._smoment_cache.get(key, [])
        if len(have) < count:
            # grow geometrically: solving degree n asks for n moments
            have = self.power_sums(
                j, self.inner_values(j, k), max(count, 2 * len(have))
            )
            self._smoment_cache[key] = have
        return self._smoment_cache[key][:count]

    # -- iterated kernel ----------------------------------------------

    def kernel_K(self, x1, xm):
        """Iterated Cauchy kernel K(x1, xm), x1 in Delta_1, xm in Delta_m.

        Needs m >= 2; computed by the forward chain over sigma_2..sigma_{m-1}
        with denominators (x_j - x_{j+1}).
        """
        if self.m < 2:
            raise SystemError_("kernel requires m >= 2")
        x1, xm = mpf(x1), mpf(xm)
        if not self.interval(1).contains(x1):
            raise SupportError(f"x1={x1} not in Delta_1")
        if not self.interval(self.m).contains(xm):
            raise SupportError(f"xm={xm} not in Delta_{self.m}")
        if self.m == 2:
            return 1 / (x1 - xm)
        # g_1 at sigma_2 nodes, then push through the chain
        mu2 = self.measure(2)
        g = [1 / (x1 - x) for x in mu2.nodes]
        for j in range(2, self.m - 1):
            mu = self.measure(j)
            mu_next = self.measure(j + 1)
            g = [
                sum(
                    (w * gv / (x - t) for x, w, gv in zip(mu.nodes, mu.weights, g)),
                    mpf(0),
                )
                for t in mu_next.nodes
            ]
        mu = self.measure(self.m - 1)
        return sum(
            (w * gv / (x - xm) for x, w, gv in zip(mu.nodes, mu.weights, g)),
            mpf(0),
        )

    # -- bimoments -----------------------------------------------------

    def _chain_values(self, nu: int):
        """Chain vector for the bimoment kernel at sigma_m's nodes.

        h_1(x_2) = int x_1^nu dsigma_1 / (x_1 - x_2), pushed forward level by
        level; for m == 1 there is no chain and the caller special-cases.
        """
        cached = self._chain_cache.get(nu)
        if cached is not None:
            return cached
        mu1 = self.measure(1)
        mu2 = self.measure(2)
        h = [
            sum(
                (w * x**nu / (x - t) for x, w in zip(mu1.nodes, mu1.weights)),
                mpf(0),
            )
            for t in mu2.nodes
        ]
        for j in range(2, self.m):
            mu = self.measure(j)
            mu_next = self.measure(j + 1)
            h = [
                sum(
                    (w * hv / (x - t) for x, w, hv in zip(mu.nodes, mu.weights, h)),
                    mpf(0),
                )
                for t in mu_next.nodes
            ]
        h = tuple(h)
        return self._chain_cache.setdefault(nu, h)

    def bimoment(self, nu: int, mu_idx: int):
        """I_{nu,mu} = double integral of x_1^nu x_m^mu K(x_1,x_m).

        For m == 1 the kernel degenerates and this is the (nu+mu)-th moment
        of sigma_1, matching the one-measure orthogonality conditions.
        """
        if nu < 0 or mu_idx < 0:
            raise ValueError("bimoment orders must be >= 0")
        key = (nu, mu_idx)
        cached = self._bimoments.get(key)
        if cached is not None:
            return cached
        mum = self.measure(self.m)
        if self.m == 1:
            val = sum(
                (w * x ** (nu + mu_idx) for x, w in zip(mum.nodes, mum.weights)),
                mpf(0),
            )
        else:
            h = self._chain_values(nu)
            val = sum(
                (
                    w * x**mu_idx * hv
                    for x, w, hv in zip(mum.nodes, mum.weights, h)
                ),
                mpf(0),
            )
        return self._bimoments.setdefault(key, val)


    # -- interval-adapted bases and the Gram form of the bimoments ------
    #
    # The bimoment matrix in the monomial basis carries Vandermonde-type
    # conditioning on top of the intrinsic (exponentially graded) spectrum
    # of the separated-interval Cauchy kernel.  Solving against mapped
    # monic Legendre bases on Delta_1 and Delta_m removes the artificial
    # part, so the solution is as accurate as the kernel itself allows.

    def basis_values(self, j: int, count: int):
        """Values of the mapped monic Legendre basis 0..count-1 at the
        quadrature nodes of sigma_j."""
        mu = self.measure(j)
        c = mu.interval.midpoint
        s2 = (mu.interval.length / 2) ** 2
        have = self._basis_vals.get(j, [])
        if len(have) < count:
            have = [list(r) for r in have]
            if not have:
                have.append([mpf(1)] * len(mu.nodes))
            while len(have) < count:
                k = len(have)
                prev = have[-1]
                if k == 1:
                    nxt = [(x - c) * p for x, p in zip(mu.nodes, prev)]
                else:
                    bk = s2 * mpf((k - 1) ** 2) / (4 * (k - 1) ** 2 - 1)
                    prev2 = have[-2]
                    nxt = [
                        (x - c) * p - bk * q
                        for x, p, q in zip(mu.nodes, prev, prev2)
                    ]
                have.append(nxt)
            have = [tuple(r) for r in have]
            self._basis_vals[j] = have
        return self._basis_vals[j][:count]

    def basis_polynomial(self, j: int, k: int) -> Polynomial:
        """Monomial form of the k-th mapped monic Legendre basis element."""
        mu = self.measure(j)
        c = mu.interval.midpoint
        s2 = (mu.interval.length / 2) ** 2
        have = self._basis_polys.get(j, [])
        if len(have) <= k:
            have = list(have)
            if not have:
                have.append(Polynomial.one())
            shift = Polynomial((-c, mpf(1)))
            while len(have) <= k:
                i = len(have)
                if i == 1:
                    have.append(shift * have[-1])
                else:
                    bi = s2 * mpf((i - 1) ** 2) / (4 * (i - 1) ** 2 - 1)
                    have.append(shift * have[-1] - have[-2].scale(bi))
            self._basis_polys[j] = have
        return self._basis_polys[j][k]

    def _gram_chain_values(self, nu: int):
        """Basis element nu of Delta_1 pushed along the chain to sigma_m's
        nodes (the kernel sign (-1)^(m-1) is applied by `gram`)."""
        cached = self._gram_chain.get(nu)
        if cached is not None:
            return cached
        h = self.basis_values(1, nu + 1)[nu]
        for j in range(1, self.m):
            (h,) = self.push(j, j + 1, [h])
        return self._gram_chain.setdefault(nu, h)

    def gram(self, nu: int, mu_idx: int):
        """Bimoment bilinear form on the adapted bases: the (nu, mu) entry
        of the kernel Gram matrix between the Delta_1 and Delta_m bases."""
        if nu < 0 or mu_idx < 0:
            raise ValueError("gram orders must be >= 0")
        q = self.basis_values(self.m, mu_idx + 1)[mu_idx]
        val = self.dot(self.m, q, self._gram_chain_values(nu))
        return -val if self.m % 2 == 0 else val

    def gram_factor(self):
        """(factor, transposed): the adapted Gram's L*D*U at the working
        precision, shared by both twins and built from the one whose chain
        (endpoints, nodes, weights) orders first; the other reads it transposed
        (its Gram is the transpose up to the kernel sign) unless the chains are equal."""
        key = lambda s: [(v.interval.a, v.interval.b, v.nodes, v.weights) for v in s.measures]
        owner = min(self, self.reversed(), key=key)
        factor = self._factors.get(mp.prec)
        if factor is None:
            factor = self._factors[mp.prec] = BorderedLDU(owner.gram)
        return factor, owner is not self


def make_system(measures) -> NikishinSystem:
    """Validate consecutive disjointness and build the system."""
    return NikishinSystem(measures)
