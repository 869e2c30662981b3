"""The bordered L*D*U factor and the per-degree solves read from it."""

import pytest
from mpmath import mp, mpf

from cauchybi import HPSolverError, Interval, NikishinSystem, WeightSpec, lebesgue
from cauchybi import make_measure, make_system, solve_hp_vector, solve_reversed
from cauchybi.hp import solve
from cauchybi.nikishin import BorderedLDU
from cauchybi.precision import extra_precision


def hilbert(i, j):
    return mpf(1) / (i + j + 1)


def matrix_factor(A):
    return BorderedLDU(lambda i, j: A[i][j])


def equilibrated_kappa1(block):
    """kappa_1 of the row-then-column equilibrated block via mp.inverse at
    the current precision."""
    r = [1 / max(abs(v) for v in row) for row in block]
    B = [[v * ri for v in row] for row, ri in zip(block, r)]
    s = [1 / max(abs(v) for v in col) for col in zip(*B)]
    B = mp.matrix([[v * sj for v, sj in zip(row, s)] for row in B])
    return mp.mnorm(B, 1) * mp.mnorm(mp.inverse(B), 1)


def test_lu_roundtrip():
    A = [[mpf(v) for v in row] for row in ([4, 1, 2, 0], [3, 5, 1, 2], [1, 2, 6, 1], [2, 0, 1, 7])]
    f = matrix_factor(A)
    f.solve(1)
    leading = ([list(r) for r in f.lower], [list(c) for c in f.upper], list(f.pivots))
    f.solve(3)
    # bordering never changes the leading factor
    assert (f.lower[:2], f.upper[:2], f.pivots[:2]) == leading
    for i in range(4):
        for j in range(4):
            lij = [*f.lower[i], mpf(1)]
            ujj = [*f.upper[j], mpf(1)]
            lu = sum((lij[k] * f.pivots[k] * ujj[k] for k in range(min(i, j) + 1)), mpf(0))
            assert abs(lu - A[i][j]) < mpf(10) ** (-mp.dps + 5)


def test_solve_exact_small_system():
    A = [[mpf(v) for v in row] for row in ([2, 0, 6], [0, 4, 8], [4, 12, 1])]
    x, cond, residual = matrix_factor(A).solve(2)
    # A_2 x = -A[:2, 2]
    assert x == (-3, -2)
    assert cond >= 1 and residual == 0
    y, _, _ = matrix_factor(A).solve(2, transposed=True)
    # A_2^T y = -A[2, :2]
    assert y == (-2, -3)


def test_singular_matrix_raises():
    A = [[mpf(v) for v in row] for row in ([1, 2, 1], [2, 4, 1], [1, 1, 3])]
    f = matrix_factor(A)
    x, _, _ = f.solve(1)  # needs only D_0
    assert x == (-2,)
    with pytest.raises(ZeroDivisionError):  # D_1 = 0
        f.solve(2)


def test_condition_identity_is_one():
    f = matrix_factor([[mpf(1 if i == j else 0) for j in range(4)] for i in range(4)])
    for k in range(4):
        for transposed in (False, True):
            x, cond, residual = f.solve(k, transposed)
            assert cond == 1 and residual == 0 and not any(x)


def test_condition_estimate_hilbert_order_of_magnitude():
    # the factor's kappa_1 is exact: it equals mp.inverse's at doubled
    # precision; for the equilibrated Hilbert(8) it is about 1.04e10
    f = BorderedLDU(hilbert)
    _, cond, _ = f.solve(8)
    with extra_precision(2):
        want = equilibrated_kappa1([[hilbert(i, j) for j in range(8)] for i in range(8)])
    assert abs(cond - want) <= mpf("1e-20") * want
    assert mpf("1e9") < cond < mpf("1e11")


def test_hilbert_solve_backward_stable():
    # no refinement: the bordered factor alone gives a componentwise
    # backward error at roundoff and the solution cond * eps allows
    n = 10
    x, _, residual = BorderedLDU(hilbert).solve(n)
    assert residual < 2 ** -(mp.prec - 8)
    with extra_precision(2):
        A = mp.matrix([[hilbert(i, j) for j in range(n)] for i in range(n)])
        want = mp.lu_solve(A, mp.matrix([-hilbert(i, n) for i in range(n)]))
        err = max(abs(a - b) / abs(b) for a, b in zip(x, want))
    assert err < mpf(10) ** (-mp.dps + 20)


# -- the shared Gram factor of a Nikishin system -------------------------


@pytest.mark.parametrize(
    "family", ["s2_solutions", "s2_reversed_solutions", "m3_solutions", "m3_reversed_solutions"]
)
def test_every_degree_backward_stable(request, family):
    # recomputed at doubled precision from the forward system's Gram, which
    # the reversed family reads transposed (the reversed twin's own Gram
    # differs from it by the chain contractions' rounding)
    sols = request.getfixturevalue(family)
    bound = mpf(2) ** -(mp.prec - 24)
    forward = sols[0].system
    if "reversed" in family:
        forward = forward.reversed()
    top = max(sols)
    G = [[forward.gram(nu, mu) for mu in range(top + 1)] for nu in range(top + 1)]
    if "reversed" in family:
        G = [list(col) for col in zip(*G)]
    for n, sol in sols.items():
        assert sol.diagnostics["solve_residual"] <= bound, n
        ch = (*sol.c, mpf(1))
        with extra_precision(2):
            for row in G[:n]:
                num = abs(mp.fsum(g * c for g, c in zip(row, ch)))
                den = mp.fsum(abs(g * c) for g, c in zip(row, ch))
                assert num <= bound * den, n


@pytest.mark.parametrize(
    "family,n",
    [("s2_solutions", 5), ("s2_solutions", 20), ("m3_solutions", 10), ("m3_reversed_solutions", 10)],
)
def test_cond_is_kappa1_of_equilibrated_block(request, family, n):
    sol = request.getfixturevalue(family)[n]
    sys_ = sol.system
    block = [[sys_.gram(nu, mu) for mu in range(n)] for nu in range(n)]
    with extra_precision(2):
        want = equilibrated_kappa1(block)
    assert abs(sol.diagnostics["cond"] - want) <= mpf("1e-6") * want


def test_degree_alone_matches_sequence(s2_solutions, s2_reversed_solutions):
    fresh = make_system([lebesgue(0, 1), lebesgue(2, 3)])
    rev = solve_reversed(fresh, 9)  # the reversed twin asks first
    alone = solve_hp_vector(fresh, 9)
    assert alone.c == s2_solutions[9].c
    assert rev.c == s2_reversed_solutions[9].c


@pytest.mark.parametrize("reversed_first", [False, True])
@pytest.mark.parametrize("end_weight", [WeightSpec("0.5", "-0.3"), WeightSpec()])
def test_shared_factor_when_ends_share_an_interval(reversed_first, end_weight):
    # Delta_1 = Delta_3: the twins are told apart by their weights, and each
    # twin's c solves its own Gram whichever asks first; with equal end
    # weights the chain is a palindrome and both read the same Gram as is
    def chain():
        ends = [make_measure(Interval(0, 1), w, node_count=24) for w in (WeightSpec(), end_weight)]
        return make_system([ends[0], lebesgue(2, 3, 24), ends[1]])

    top = 6
    sys_ = chain()
    twins = (sys_.reversed(), sys_) if reversed_first else (sys_, sys_.reversed())
    got = {id(t): [solve(t, n)[0] for n in range(top + 1)] for t in twins}
    ref = chain()  # solved forward first
    for twin, other in ((sys_, ref), (sys_.reversed(), ref.reversed())):
        want = [solve(other, n)[0] for n in range(top + 1)]
        assert got[id(twin)] == want
        own = BorderedLDU(other.gram)
        for n in range(1, top + 1):
            err = max(abs(a - b) / abs(b) for a, b in zip(want[n], own.solve(n)[0]))
            assert err < mpf(10) ** (-mp.dps + 20), n


def test_zero_pivot_raises_naming_degree(monkeypatch):
    gram = NikishinSystem.gram

    def singular_leading(self, nu, mu):
        # leading 2x2 block [[1, 2], [2, 4]]
        return mpf((nu + 1) * (mu + 1)) if max(nu, mu) < 2 else gram(self, nu, mu)

    monkeypatch.setattr(NikishinSystem, "gram", singular_leading)
    sys_ = make_system([lebesgue(0, 1, 16), lebesgue(2, 3, 16)])
    assert solve_hp_vector(sys_, 1).c == (-2,)
    with pytest.raises(HPSolverError, match="n=2"):
        solve_hp_vector(sys_, 2)
