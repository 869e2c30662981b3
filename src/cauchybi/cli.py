"""Batch harness: config parsing, solve orchestration, verification suites.

Exit codes: 0 pass, 2 validation error, 3 solver failure, 4 verification
failure.  All numerics in configs are decimal strings parsed at the target
precision; outputs are JSON/CSV with atomic writes, and existing per-degree
solution files are reused unless --force is given.  An output directory's
`manifest.json` names the config fields its files were solved for; a command
whose config differs in any of them exits 2 unless --force is given.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

from mpmath import mp, mpf, mpmathify

from . import asymptotics, equilibrium, hp, polyzeros
from .measures import Interval, MeasureError, WeightSpec, make_measure
from .nikishin import NikishinSystem, SystemError_, make_system
from .precision import set_precision, tol

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

ALL_SUITES = (
    "zero-location",
    "interlacing",
    "biorthogonality",
    "form-identity",
    "weak-asymptotics",
    "ratio-asymptotics",
    "rate",
    "reversal-symmetry",
)


class ConfigError(ValueError):
    pass


MANIFEST_SCHEMA = 2  # 2: cond is the exact kappa_1, solve_residual componentwise
# the files a command resumes from instead of solving
_RESUMABLE = re.compile(r"hp_(forward|reversed)_n\d+\.json|equilibrium(_reversed)?\.json")


@dataclass
class RunConfig:
    measures: list
    n_max: int
    precision_bits: int
    quad_nodes: int
    eq_cells: int
    eq_tol: mpf
    eq_max_iter: int
    probes: list
    outputs: str
    suites: list = field(default_factory=list)

    def build_system(self) -> NikishinSystem:
        ms = [
            make_measure(
                Interval(d["a"], d["b"]),
                WeightSpec(d["alpha"], d["beta"], d["poly_factor"]),
                node_count=self.quad_nodes,
            )
            for d in self.measures
        ]
        return make_system(ms)

    @property
    def intervals(self):
        return [Interval(d["a"], d["b"]) for d in self.measures]


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ConfigError(f"cannot read config {path}: {ex}")
    try:
        bits = int(raw.get("precision_bits", 512))
        if bits < 128:
            raise ConfigError(f"precision_bits must be >= 128, got {bits}")
        set_precision(bits)
        measures = []
        for d in raw["system"]:
            a, b = d["interval"]
            measures.append(
                {
                    "a": mpf(a),
                    "b": mpf(b),
                    "alpha": mpf(d.get("alpha", "0")),
                    "beta": mpf(d.get("beta", "0")),
                    "poly_factor": tuple(
                        mpf(c) for c in d.get("poly_factor", ["1"])
                    ),
                }
            )
        n_max = int(raw["n_max"])
        if n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {n_max}")
        eq = raw.get("equilibrium", {})
        probes = [mpmathify(p) for p in raw.get("probes", [])]
        cfg = RunConfig(
            measures=measures,
            n_max=n_max,
            precision_bits=bits,
            quad_nodes=int(raw.get("quad_nodes", 128)),
            eq_cells=int(eq.get("cells", 256)),
            eq_tol=mpf(eq.get("tol", "1e-8")),
            eq_max_iter=int(eq.get("max_iter", 500)),
            probes=probes,
            outputs=raw.get("outputs", "out"),
            suites=list(raw.get("suites", [])),
        )
    except (KeyError, ValueError, TypeError) as ex:
        if isinstance(ex, ConfigError):
            raise
        raise ConfigError(f"invalid config: {ex}")
    intervals = cfg.intervals
    for z in cfg.probes:
        if getattr(z, "imag", 0) == 0:
            x = mpf(z.real) if hasattr(z, "real") else mpf(z)
            for iv in intervals:
                if iv.contains(x):
                    raise ConfigError(f"probe {z} lies on interval [{iv.a}, {iv.b}]")
    if not cfg.probes:
        cfg.probes = asymptotics.default_probes(intervals)
    for s in cfg.suites:
        if s not in ALL_SUITES:
            raise ConfigError(f"unknown suite {s!r}")
    return cfg


def run_manifest(cfg: RunConfig) -> dict:
    """The config fields that determine the solution and equilibrium files.

    Numbers are printed to the working decimal digits, so spellings of one
    value agree; outputs, probes and suites are left out, so a directory
    can be copied and resumed under another config that differs only there.
    """
    num = lambda v: mp.nstr(v, mp.dps)
    return {
        "schema": MANIFEST_SCHEMA,
        "intervals": [[num(d["a"]), num(d["b"])] for d in cfg.measures],
        "weights": [
            {
                "alpha": num(d["alpha"]),
                "beta": num(d["beta"]),
                "poly_factor": [num(c) for c in d["poly_factor"]],
            }
            for d in cfg.measures
        ],
        "quad_nodes": cfg.quad_nodes,
        "precision_bits": cfg.precision_bits,
        "equilibrium_cells": cfg.eq_cells,
        "equilibrium_tol": num(cfg.eq_tol),
    }


def _claim_outputs(cfg: RunConfig, force: bool) -> None:
    """Make the output directory this config's before anything is resumed.

    A directory whose manifest differs from the config's, or that holds
    resumable files and no manifest, raises ConfigError naming the
    differing keys.  With force the resumable files are removed, whether
    or not the manifest matched, and the config's manifest written.
    """
    os.makedirs(cfg.outputs, exist_ok=True)
    path = os.path.join(cfg.outputs, "manifest.json")
    want = run_manifest(cfg)
    stale = [f for f in os.listdir(cfg.outputs) if _RESUMABLE.fullmatch(f)]
    problem = None
    if os.path.exists(path):
        try:
            with open(path) as fh:
                have = json.load(fh)
        except (OSError, ValueError):
            have = {}
        if have == want:
            if not force:
                return
        else:
            keys = sorted(k for k in want.keys() | have.keys() if have.get(k) != want.get(k))
            problem = f"was solved for another config (differing keys: {', '.join(keys)})"
    elif stale:
        problem = "holds solution files but no manifest.json"
    if problem and not force:
        raise ConfigError(
            f"output directory {cfg.outputs} {problem}; rerun with --force to recompute"
        )
    for name in stale:
        os.remove(os.path.join(cfg.outputs, name))
    atomic_write(path, json.dumps(want, indent=1))


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _solution_path(outdir: str, kind: str, n: int) -> str:
    return os.path.join(outdir, f"hp_{kind}_n{n:03d}.json")


def _get_solutions(cfg: RunConfig, sys_obj, kind: str, force: bool):
    """Solutions n = 0..n_max for one orientation, reusing saved files."""

    def one(n):
        path = _solution_path(cfg.outputs, kind, n)
        if not force and os.path.exists(path):
            with open(path) as fh:
                doc = json.load(fh)
            # a file without Q's adapted coefficients is solved again: its
            # monomial Q alone would start every chain with lossy digits
            if "c" in doc:
                return hp.solution_from_json(sys_obj, doc)
        sol = hp.solve_hp_vector(sys_obj, n)
        atomic_write(path, json.dumps(hp.solution_to_json(sol), indent=1))
        return sol

    return [one(n) for n in range(cfg.n_max + 1)]


def cmd_solve_hp(cfg: RunConfig, force: bool = False) -> int:
    try:
        fwd_sys = cfg.build_system()
        rev_sys = fwd_sys.reversed()
    except (MeasureError, SystemError_) as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    _claim_outputs(cfg, force)
    try:
        fwd = _get_solutions(cfg, fwd_sys, "forward", force)
        rev = _get_solutions(cfg, rev_sys, "reversed", force)
    except (hp.HPSolverError, polyzeros.RootCountError) as ex:
        print(f"solver failure: {ex}", file=sys.stderr)
        return EXIT_SOLVER
    log = {
        "n_max": cfg.n_max,
        "condition_estimates": {
            str(s.n): mp.nstr(s.diagnostics["cond"], 6) for s in fwd
        },
        "reversed_condition_estimates": {
            str(s.n): mp.nstr(s.diagnostics["cond"], 6) for s in rev
        },
    }
    atomic_write(
        os.path.join(cfg.outputs, "hp_diagnostics.json"), json.dumps(log, indent=1)
    )
    print(f"solved {2 * (cfg.n_max + 1)} degree vectors into {cfg.outputs}")
    return EXIT_OK


def _solve_eq(cfg: RunConfig, reverse: bool = False):
    ivs = cfg.intervals
    if reverse:
        ivs = list(reversed(ivs))
    return equilibrium.solve_equilibrium(
        ivs,
        cells_per_interval=cfg.eq_cells,
        tol=cfg.eq_tol,
        max_iter=cfg.eq_max_iter,
    )


def cmd_solve_equilibrium(cfg: RunConfig, force: bool = False) -> int:
    _claim_outputs(cfg, force)
    path = os.path.join(cfg.outputs, "equilibrium.json")
    try:
        if force or not os.path.exists(path):
            sol = _solve_eq(cfg)
            atomic_write(path, json.dumps(equilibrium.solution_to_json(sol), indent=1))
        if "reversal-symmetry" in cfg.suites:
            rpath = os.path.join(cfg.outputs, "equilibrium_reversed.json")
            if force or not os.path.exists(rpath):
                rsol = _solve_eq(cfg, reverse=True)
                atomic_write(
                    rpath, json.dumps(equilibrium.solution_to_json(rsol), indent=1)
                )
    except equilibrium.EquilibriumError as ex:
        print(f"solver failure: {ex}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"equilibrium solution written to {path}")
    return EXIT_OK


def _load_or_solve_eq(cfg: RunConfig):
    path = os.path.join(cfg.outputs, "equilibrium.json")
    if os.path.exists(path):
        with open(path) as fh:
            return equilibrium.solution_from_json(json.load(fh))
    sol = _solve_eq(cfg)
    atomic_write(path, json.dumps(equilibrium.solution_to_json(sol), indent=1))
    return sol


def _suite_report(name, gaps, threshold):
    gaps = list(gaps)
    passes = sum(1 for g in gaps if g <= threshold)
    return {
        "suite": name,
        "checks": len(gaps),
        "passes": passes,
        "worst_gap": mp.nstr(max(gaps), 6) if gaps else "0",
        "threshold": mp.nstr(mpf(threshold), 6),
        "ok": passes == len(gaps),
    }


def run_suites(cfg: RunConfig, suites, force: bool = False):
    sys_obj = cfg.build_system()
    m = sys_obj.m
    fwd = _get_solutions(cfg, sys_obj, "forward", force)
    need_rev = any(
        s in suites for s in ("biorthogonality", "weak-asymptotics")
    )
    rev = (
        _get_solutions(cfg, sys_obj.reversed(), "reversed", force)
        if need_rev
        else None
    )
    reports = []
    half_tol = tol()
    estimators = "ratio-asymptotics" in suites or ("rate" in suites and m >= 2)
    eq = (
        _load_or_solve_eq(cfg)
        if estimators
        or any(s in suites for s in ("weak-asymptotics", "reversal-symmetry"))
        else None
    )
    # one predictor for both estimator suites, so they share its potentials
    pred = asymptotics.make_predictor(eq) if estimators else None
    # the estimator suites check only n = n_max - 1, the last pair's rows
    last_pair = fwd[-2:]

    if "zero-location" in suites:
        gap_floor = mpf(10) ** (-mp.dps // 4)
        gaps = []
        for s in fwd:
            for j in range(1, m + 1):
                iv = sys_obj.interval(j)
                zs = s.zeros(j)
                ok = all(iv.contains(z, closed=False) for z in zs) and all(
                    b - a > gap_floor for a, b in zip(zs, zs[1:])
                )
                gaps.append(mpf(0) if ok else mpf(1))
        reports.append(_suite_report("zero-location", gaps, mpf("0.5")))

    if "interlacing" in suites:
        gaps = []
        for lo, hi in zip(fwd, fwd[1:]):
            if lo.n == 0:
                continue
            for j in range(1, m + 1):
                ok = polyzeros.interlaces(lo.zeros(j), hi.zeros(j))
                gaps.append(mpf(0) if ok else mpf(1))
        reports.append(_suite_report("interlacing", gaps, mpf("0.5")))

    if "biorthogonality" in suites:
        gaps = []
        entries, scales = hp.biorthogonality_matrix(
            sys_obj, [rs.Q for rs in rev], [fs.Q for fs in fwd]
        )
        for k in range(len(rev)):
            for n in range(len(fwd)):
                rel = abs(entries[k][n]) / scales[k][n]
                gaps.append(rel if k != n else (mpf(0) if rel > half_tol else mpf(1)))
        reports.append(_suite_report("biorthogonality", gaps, half_tol))

    if "form-identity" in suites:
        gaps = [
            hp.form_identity_residual(s, j, z, relative=True)
            for s in fwd
            for j in range(0, m)
            for z in cfg.probes
        ]
        reports.append(_suite_report("form-identity", gaps, half_tol))

    if "weak-asymptotics" in suites:
        checkpoints = sorted(
            {max(1, cfg.n_max // 4), cfg.n_max // 2, 3 * cfg.n_max // 4, cfg.n_max}
        )
        gaps = []
        for sols, lams in ((fwd, eq.lambdas), (rev, tuple(reversed(eq.lambdas)))):
            for j in range(1, m + 1):
                dists = [
                    polyzeros.moment_distance(
                        polyzeros.counting_measure(sols[n].zeros(j)),
                        lams[j - 1],
                        12,
                    )
                    for n in checkpoints
                ]
                monotone = all(b < a for a, b in zip(dists, dists[1:]))
                gaps.append(dists[-1] if monotone else mpf(1))
        # moment distances decay like 1/n; the absolute bar corresponds to
        # the desk-scale experiment at n = 40
        threshold = max(mpf("0.05"), mpf(2) / cfg.n_max)
        reports.append(_suite_report("weak-asymptotics", gaps, threshold))

    if "ratio-asymptotics" in suites:
        rows = asymptotics.empirical_tables(last_pair, cfg.probes, "ratioQ", pred)
        gaps = [r["rel_gap"] for r in rows if r["n"] == cfg.n_max - 1]
        reports.append(_suite_report("ratio-asymptotics", gaps, mpf("0.02")))

    if "rate" in suites:
        if m < 2:
            reports.append(
                {
                    "suite": "rate",
                    "checks": 0,
                    "passes": 0,
                    "worst_gap": "0",
                    "threshold": "0.05",
                    "ok": True,
                    "skipped": "needs m >= 2",
                }
            )
        else:
            rows = asymptotics.empirical_tables(last_pair, cfg.probes, "rate", pred)
            gaps = [r["rel_gap"] for r in rows if r["n"] == cfg.n_max - 1]
            reports.append(_suite_report("rate", gaps, mpf("0.05")))

    if "reversal-symmetry" in suites:
        eqr = _solve_eq(cfg, reverse=True)
        gaps = [
            polyzeros.moment_distance(a, b, 12)
            for a, b in zip(eq.lambdas, tuple(reversed(eqr.lambdas)))
        ]
        reports.append(
            _suite_report("reversal-symmetry", gaps, 10 * cfg.eq_tol)
        )

    return reports


def cmd_verify(cfg: RunConfig, suites, force: bool = False) -> int:
    suites = list(suites) if suites else (cfg.suites or list(ALL_SUITES))
    for s in suites:
        if s not in ALL_SUITES:
            print(f"validation error: unknown suite {s!r}", file=sys.stderr)
            return EXIT_VALIDATION
    _claim_outputs(cfg, force)
    try:
        reports = run_suites(cfg, suites, force=force)
    except (hp.HPSolverError, polyzeros.RootCountError, equilibrium.EquilibriumError) as ex:
        print(f"solver failure: {ex}", file=sys.stderr)
        return EXIT_SOLVER
    atomic_write(
        os.path.join(cfg.outputs, "verify_report.json"),
        json.dumps(reports, indent=1),
    )
    ok = True
    for r in reports:
        status = "PASS" if r["ok"] else "FAIL"
        print(
            f"{status} {r['suite']}: {r['passes']}/{r['checks']} checks, "
            f"worst gap {r['worst_gap']} (threshold {r['threshold']})"
        )
        ok = ok and r["ok"]
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_tables(cfg: RunConfig, which: str, force: bool = False) -> int:
    if which not in ("ratioQ", "nthroot", "rate", "formratio", "leading"):
        print(f"validation error: unknown table {which!r}", file=sys.stderr)
        return EXIT_VALIDATION
    sys_obj = cfg.build_system()
    if which == "rate" and sys_obj.m < 2:
        print("validation error: rate table needs m >= 2", file=sys.stderr)
        return EXIT_VALIDATION
    _claim_outputs(cfg, force)
    try:
        sols = _get_solutions(cfg, sys_obj, "forward", force)
        eq = _load_or_solve_eq(cfg)
        pred = asymptotics.make_predictor(eq)
        rows = asymptotics.empirical_tables(sols, cfg.probes, which, pred)
    except (hp.HPSolverError, polyzeros.RootCountError, equilibrium.EquilibriumError) as ex:
        print(f"solver failure: {ex}", file=sys.stderr)
        return EXIT_SOLVER
    atomic_write(
        os.path.join(cfg.outputs, f"table_{which}.csv"),
        asymptotics.table_to_csv(rows),
    )
    atomic_write(
        os.path.join(cfg.outputs, f"table_{which}.json"),
        json.dumps(asymptotics.table_to_json(rows), indent=1),
    )
    plot = [
        {
            "x": r["n"],
            "y_measured": mp.nstr(r["measured"], 30),
            "y_predicted": mp.nstr(r["predicted"], 30),
        }
        for r in rows
    ]
    atomic_write(
        os.path.join(cfg.outputs, f"plot_{which}.json"), json.dumps(plot, indent=1)
    )
    print(f"wrote {len(rows)} rows for {which} into {cfg.outputs}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cauchybi",
        description="Extended-precision laboratory for Cauchy biorthogonal "
        "polynomials on Nikishin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-hp", "solve-eq", "verify", "tables"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        # parse-only: the benchmark worker passes --jobs 1; other values fail
        p.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
        p.add_argument("--force", action="store_true")
        p.add_argument("--out", default=None)
        if name == "verify":
            p.add_argument("--suite", action="append", default=[])
        if name == "tables":
            p.add_argument("--which", required=True)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, MeasureError, SystemError_) as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        cfg.outputs = args.out
    try:
        if args.command == "solve-hp":
            return cmd_solve_hp(cfg, force=args.force)
        if args.command == "solve-eq":
            return cmd_solve_equilibrium(cfg, force=args.force)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, force=args.force)
        if args.command == "tables":
            return cmd_tables(cfg, args.which, force=args.force)
    except (ConfigError, MeasureError, SystemError_) as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
