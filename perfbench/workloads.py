"""Workload definitions and seeded config generation for the benchmark.

Pure Python: importing this module does not import cauchybi, so the
orchestrating process stays free of mpmath state.  Every number in a
generated config is a decimal string, parsed by the package at its own
working precision exactly as a user's config would be.
"""

import random

# Why each workload exists (kept in sync with BENCHMARK.json):
#   s2-cli-cold   the headline `solve-hp` command and the write path; the only
#                 workload where zero finding dominates.
#   s2-cli-resume `verify` (all eight suites) plus the five `tables` over a
#                 solved directory: the read path.  Gram, linalg and zero
#                 finding do no work here, so a solve-side gain must not move it.
#   m3-api        the library API on the deepest chain with an ill-conditioned
#                 Gram: forward and reversed families plus biorthogonality.  The
#                 bypass workload for zero-finding and I/O changes.
WORKLOADS = {
    "s2-cli-cold": "s2",
    "s2-cli-resume": "s2",
    "m3-api": "m3",
}

TABLE_KINDS = ("ratioQ", "nthroot", "rate", "formratio", "leading")

# Sizes are chosen so that one fresh worker (import, quadrature, one timed
# pass) takes a few seconds and a run can take the median of several.
FAMILIES = {
    "s2": {
        "intervals": [["0", "1"], ["2", "3"]],
        "n_max": 14,
        "quad_nodes": 64,
        "precision_bits": 512,
        "cells": 256,
    },
    "m3": {
        "intervals": [["0", "1"], ["1.15", "2.15"], ["2.3", "3.3"]],
        "n_max": 10,
        "quad_nodes": 64,
        "precision_bits": 512,
        "cells": 256,
    },
    # smoke mode: every workload's code path on a tiny s2 problem
    "smoke": {
        "intervals": [["0", "1"], ["2", "3"]],
        "n_max": 3,
        "quad_nodes": 32,
        "precision_bits": 512,
        "cells": 64,
    },
}

# Seed whose references are committed next to the default seed 0, and which
# is not used while tuning a change.
HELD_OUT_SEED = 1

# slopes c of the weight factor 1 + c x; positive on every interval above,
# since all of them lie in [0, 3.3] and 1 - 3.3/4 > 0
FACTOR_SLOPES = ("-0.25", "0.125", "0.25", "0.5")


def family_of(workload: str, smoke: bool = False) -> str:
    return "smoke" if smoke else WORKLOADS[workload]


def checkpoints(n_max: int):
    """Degrees at which Q_n is compared with the reference."""
    return sorted({1, n_max // 4, n_max // 2, (3 * n_max) // 4, n_max} - {0})


def _probes(rng: random.Random, intervals):
    """Off-support probes at least half the hull's span away from it."""
    lo = min(float(a) for a, _ in intervals)
    hi = max(float(b) for _, b in intervals)
    span = hi - lo
    mid = (lo + hi) / 2
    height = max(span / 2, 1.0)
    reals = [hi + span * u for u in rng.sample((0.5, 0.75, 1.0, 1.5, 2.0), 3)]
    reals += [lo - span * u for u in rng.sample((0.5, 0.75, 1.0, 1.5), 2)]
    cplx = []
    for x in rng.sample((lo, mid, hi), 3):
        sign = rng.choice((1, -1))
        cplx.append(complex(x, sign * height * rng.choice((1.0, 1.5, 2.0))))
    cplx.append(complex(mid, -2 * height))
    return [repr(x) for x in reals] + [
        f"{z.real!r}{z.imag:+.17g}j" for z in cplx
    ]


def make_config(family: str, seed: int) -> dict:
    """The config the program receives for one family and seed.

    Seed 0 is the paper and test configuration: Lebesgue measures and the
    package's default probes.  Any other seed picks each level's Jacobi
    exponents from {-1/2, 0, 1/2}, a positive linear weight factor and the
    probe set.
    """
    spec = FAMILIES[family]
    rng = random.Random(f"{family}:{seed}")
    # An exponent of -1/2 clusters zeros at its endpoints and costs zero
    # finding many more evaluations, more so next to a gap.  So the seed
    # deals one fixed multiset of exponents to the levels (alpha = beta on
    # each): seeds differ in where the singularities sit, not in how many
    # there are, and solving both orientations makes the cost symmetric.
    exponents = [("-0.5", "0.5", "0")[i % 3] for i in range(len(spec["intervals"]))]
    rng.shuffle(exponents)
    levels = []
    for (a, b), exponent in zip(spec["intervals"], exponents):
        level = {"interval": [a, b]}
        if seed != 0:
            level["alpha"] = level["beta"] = exponent
            level["poly_factor"] = ["1", rng.choice(FACTOR_SLOPES)]
        levels.append(level)
    config = {
        "system": levels,
        "n_max": spec["n_max"],
        "precision_bits": spec["precision_bits"],
        "quad_nodes": spec["quad_nodes"],
        "equilibrium": {"cells": spec["cells"], "tol": "1e-8", "max_iter": 500},
    }
    if seed != 0:
        config["probes"] = _probes(rng, spec["intervals"])
    return config
