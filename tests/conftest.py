"""Shared fixtures: reference systems, solution families, equilibrium data.

Everything heavy is session-scoped; individual tests only read from the
cached objects.  The global precision is reset to the package default
before every test so precision-juggling tests cannot leak state.
"""

import pytest
from mpmath import mpf

from cauchybi import (
    lebesgue,
    make_predictor,
    make_system,
    set_precision,
    solve_equilibrium,
    solve_hp_vector,
    solve_reversed,
)
from cauchybi.precision import DEFAULT_PRECISION_BITS

M3_INTERVALS = ((0, 1), ("1.15", "2.15"), ("2.3", "3.3"))
M3_NODES = 160
# a long interval between nearly touching short ones: the equilibrium's
# Chebyshev series does not resolve below the default tol by K = 256, and
# at K = 8 the long interval's density factor dips below zero
BOUNDARY_CHAIN = (("0", "0.3"), ("0.3006", "0.3046"), ("0.3048", "22.9"), ("22.93", "23.03"))


@pytest.fixture(autouse=True)
def _default_precision():
    set_precision(DEFAULT_PRECISION_BITS)
    yield
    set_precision(DEFAULT_PRECISION_BITS)


@pytest.fixture(scope="session")
def s1_system():
    set_precision(DEFAULT_PRECISION_BITS)
    return make_system([lebesgue(-1, 1)])


@pytest.fixture(scope="session")
def s1_solutions(s1_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return {n: solve_hp_vector(s1_system, n) for n in range(42)}


@pytest.fixture(scope="session")
def s2_system():
    set_precision(DEFAULT_PRECISION_BITS)
    return make_system([lebesgue(0, 1), lebesgue(2, 3)])


@pytest.fixture(scope="session")
def s2_solutions(s2_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return {n: solve_hp_vector(s2_system, n) for n in range(42)}


@pytest.fixture(scope="session")
def s2_reversed_solutions(s2_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return {n: solve_reversed(s2_system, n) for n in range(42)}


@pytest.fixture(scope="session")
def m3_system():
    set_precision(DEFAULT_PRECISION_BITS)
    return make_system(
        [lebesgue(a, b, node_count=M3_NODES) for a, b in M3_INTERVALS]
    )


@pytest.fixture(scope="session")
def m3_solutions(m3_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return {n: solve_hp_vector(m3_system, n) for n in range(31)}


@pytest.fixture(scope="session")
def m3_reversed_solutions(m3_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return {n: solve_reversed(m3_system, n) for n in range(31)}


@pytest.fixture(scope="session")
def eq_s1(s1_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return solve_equilibrium([s1_system.interval(1)])


@pytest.fixture(scope="session")
def eq_s2(s2_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return solve_equilibrium([s2_system.interval(1), s2_system.interval(2)])


@pytest.fixture(scope="session")
def eq_s2_reversed(s2_system):
    set_precision(DEFAULT_PRECISION_BITS)
    return solve_equilibrium([s2_system.interval(2), s2_system.interval(1)])


@pytest.fixture(scope="session")
def pred_s2(eq_s2):
    set_precision(DEFAULT_PRECISION_BITS)
    return make_predictor(eq_s2)


# High-precision family for the exponentially small two-point estimators:
# the level-0 form magnitude drops far below 512-bit roundoff by n = 40,
# so those measurements need extra working precision and denser quadrature.
HI_BITS = 768
HI_NODES = 192


@pytest.fixture(scope="session")
def s2_hi_system():
    set_precision(HI_BITS)
    return make_system(
        [lebesgue(0, 1, node_count=HI_NODES), lebesgue(2, 3, node_count=HI_NODES)]
    )


@pytest.fixture(scope="session")
def s2_hi_solutions(s2_hi_system):
    set_precision(HI_BITS)
    return {n: solve_hp_vector(s2_hi_system, n) for n in range(42)}


@pytest.fixture(scope="session")
def pred_s2_hi(s2_hi_system):
    set_precision(HI_BITS)
    eq = solve_equilibrium([s2_hi_system.interval(1), s2_hi_system.interval(2)])
    return make_predictor(eq)
