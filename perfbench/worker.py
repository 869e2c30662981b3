"""One fresh benchmark process: set up, run one timed pass, check it.

    worker.py run --workload W --config C --work DIR --reference R
                  --trace 0|1 --result OUT [--presolved DIR]
    worker.py presolve --config C --out DIR
    worker.py reference --config C --out FILE

`run` imports cauchybi and builds the workload's system (the set-up time),
times one pass of the workload, then checks the outputs against the
reference and the package's own gates, and writes its measurements as JSON.
`presolve` solves a config once with the CLI, for the resumed workload.
`reference` computes the reference Q_n coefficients at twice the config's
precision with the same node counts.  The package is imported from the
checkout's `src/`, never from an installed copy.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import TABLE_KINDS, checkpoints  # noqa: E402

SUITE_COUNT = 8
REFERENCE_DIGITS = 200


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import cauchybi

    if Path(cauchybi.__file__).resolve().parent != ROOT / "src" / "cauchybi":
        raise SystemExit(f"imported cauchybi from {cauchybi.__file__}, not the checkout")
    return cauchybi


def build_system(config: dict):
    """The config's chain through the library API, at the current precision."""
    from cauchybi import Interval, WeightSpec, make_measure, make_system

    return make_system(
        [
            make_measure(
                Interval(*level["interval"]),
                WeightSpec(
                    level.get("alpha", "0"),
                    level.get("beta", "0"),
                    tuple(level.get("poly_factor", ["1"])),
                ),
                node_count=config["quad_nodes"],
            )
            for level in config["system"]
        ]
    )


def _cli_argv(command, config_path, *extra):
    return [command, "--config", str(config_path), "--jobs", "1", *extra]


def _write_config(config: dict, outputs: Path, path: Path) -> Path:
    path.write_text(json.dumps(dict(config, outputs=str(outputs))))
    return path


class Checks:
    """Operations attempted and failed, gates, and digit measurements."""

    def __init__(self, reference: dict):
        from mpmath import mp

        self.mp = mp
        self.reference = reference
        # the package's own zero-refinement and residual tolerances
        self.ref_floor = mp.dps / 3
        self.residual_floor = mp.dps / 2
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        self.ref_digits = float(REFERENCE_DIGITS)
        self.residual_digits = float(2 * mp.dps)

    def op(self, ok: bool, count: int = 1, failed: int = None):
        self.attempted += count
        self.failed += (0 if ok else count) if failed is None else failed

    def gate(self, name: str, ok: bool):
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    def q_digits(self, kind: str, n: int, coeffs) -> float:
        """-log10 of max |c - c_ref| / max |c_ref| over Q_n's coefficients."""
        mp = self.mp
        ref = self.reference[kind][str(n)]
        with mp.workprec(self.reference["precision_bits"]):
            r = [mp.mpf(c) for c in ref]
            c = [mp.mpf(x) for x in coeffs]
            if len(r) != len(c):
                return 0.0
            dev = max(abs(a - b) for a, b in zip(c, r)) / max(abs(b) for b in r)
            return float(-mp.log10(dev)) if dev > 0 else float(REFERENCE_DIGITS)

    def residual_digits_of(self, residuals) -> float:
        worst = max((self.mp.mpf(r) for r in residuals), default=self.mp.mpf(0))
        return float(-self.mp.log10(worst)) if worst > 0 else float(2 * self.mp.dps)

    def degree_vector(self, kind: str, n: int, q_coeffs, residuals, extra_ok=True):
        """One solved (or loaded) degree vector: digits above the floors."""
        ok = extra_ok
        res = self.residual_digits_of(residuals)
        self.residual_digits = min(self.residual_digits, res)
        ok = ok and res >= self.residual_floor
        if n in checkpoints(self.reference["config"]["n_max"]):
            ref = self.q_digits(kind, n, q_coeffs)
            self.ref_digits = min(self.ref_digits, ref)
            ok = ok and ref >= self.ref_floor
        self.op(ok)


def check_solution_files(checks: Checks, config: dict, outdir: Path):
    """Every saved degree vector: n zeros inside each level, sorted, and its
    Q and order residuals within the digit floors."""
    mp = checks.mp
    m = len(config["system"])
    intervals = [[mp.mpf(x) for x in level["interval"]] for level in config["system"]]
    all_zeros_ok = True
    for kind in ("forward", "reversed"):
        ivs = intervals if kind == "forward" else intervals[::-1]
        for n in range(config["n_max"] + 1):
            path = outdir / f"hp_{kind}_n{n:03d}.json"
            if not path.exists():
                checks.op(False)
                continue
            doc = json.loads(path.read_text())
            zeros_ok = doc["n"] == n and doc["m"] == m
            for j in range(1, m + 1):
                zs = [mp.mpf(x) for x in doc["zeros"].get(str(j), [])]
                a, b = ivs[j - 1]
                zeros_ok = (
                    zeros_ok
                    and len(zs) == n
                    and all(a < z < b for z in zs)
                    and all(x < y for x, y in zip(zs, zs[1:]))
                )
            all_zeros_ok = all_zeros_ok and zeros_ok
            sign = -1 if m % 2 else 1
            q = [sign * mp.mpf(c) for c in doc["a"][m]]
            checks.degree_vector(kind, n, q, doc["diagnostics"]["residuals"], zeros_ok)
    checks.gate("n zeros on each level", all_zeros_ok)
    checks.gate("hp_diagnostics.json written", (outdir / "hp_diagnostics.json").exists())


def run_cli_cold(cli, config_path: Path):
    return {"solve-hp": cli.main(_cli_argv("solve-hp", config_path, "--force"))}


def run_cli_resume(cli, config_path: Path):
    codes = {"verify": cli.main(_cli_argv("verify", config_path))}
    for which in TABLE_KINDS:
        codes[which] = cli.main(_cli_argv("tables", config_path, "--which", which))
    return codes


def check_cli_resume(checks: Checks, outdir: Path):
    from cauchybi.cli import ALL_SUITES

    report_path = outdir / "verify_report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else []
    for suite in report:
        checks.op(suite["ok"], suite["checks"], suite["checks"] - suite["passes"])
    checks.gate(
        "all eight verify suites PASS",
        sorted(r["suite"] for r in report) == sorted(ALL_SUITES)
        and len(report) == SUITE_COUNT
        and all(r["ok"] for r in report),
    )
    mp = checks.mp
    for which in TABLE_KINDS:
        path = outdir / f"table_{which}.json"
        rows = json.loads(path.read_text()) if path.exists() else []
        checks.gate(f"table {which} has rows", bool(rows))
        for row in rows:
            checks.op(all(mp.isfinite(mp.mpf(row[k])) for k in ("measured", "predicted")))


def run_api(hp, HPSolverError, system, n_max: int):
    forward, reversed_ = [], []
    for n in range(n_max + 1):
        try:
            forward.append(hp.solve_hp_vector(system, n))
        except HPSolverError:
            forward.append(None)
    for n in range(n_max + 1):
        try:
            reversed_.append(hp.solve_reversed(system, n))
        except HPSolverError:
            reversed_.append(None)
    bio = None
    if all(forward) and all(reversed_):
        bio = hp.biorthogonality_matrix(
            system, [s.Q for s in reversed_], [s.Q for s in forward]
        )
    return forward, reversed_, bio


def check_api(checks: Checks, forward, reversed_, bio):
    from cauchybi import tol

    for kind, family in (("forward", forward), ("reversed", reversed_)):
        for n, sol in enumerate(family):
            if sol is None:
                checks.op(False)
            else:
                checks.degree_vector(kind, n, sol.Q.coeffs, sol.diagnostics["residuals"])
    checks.gate("every degree solved", all(forward) and all(reversed_))
    if bio is None:
        return
    # the biorthogonality verify suite's criterion, on every entry
    entries, scales = bio
    half_tol = tol()
    for k, row in enumerate(entries):
        for n, entry in enumerate(row):
            rel = abs(entry) / scales[k][n]
            checks.op(rel > half_tol if k == n else rel <= half_tol)


def fingerprint(bits: int) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "precision_bits": bits,
    }


def cmd_run(args):
    config = json.loads(Path(args.config).read_text())
    reference = json.loads(Path(args.reference).read_text())
    work = Path(args.work)
    outdir = work / "out"
    config_path = _write_config(config, outdir, work / "config.json")
    cli_workload = args.workload != "m3-api"

    t0 = time.perf_counter()
    _import_package()
    from cauchybi import cli, hp, set_precision
    from cauchybi.hp import HPSolverError

    t1 = time.perf_counter()
    if cli_workload:
        cli.load_config(str(config_path)).build_system()
    else:
        set_precision(config["precision_bits"])
        system = build_system(config)
    t2 = time.perf_counter()

    if args.presolved:
        shutil.copytree(args.presolved, outdir)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    if args.workload == "s2-cli-cold":
        result = run_cli_cold(cli, config_path)
    elif args.workload == "s2-cli-resume":
        result = run_cli_resume(cli, config_path)
    else:
        result = run_api(hp, HPSolverError, system, config["n_max"])
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = Checks(reference)
    if cli_workload:
        for command, code in result.items():
            checks.gate(f"{command} exit code 0", code == 0)
        check_solution_files(checks, config, outdir)
        if args.workload == "s2-cli-resume":
            check_cli_resume(checks, outdir)
    else:
        check_api(checks, *result)
    checks.gate("ref_digits above floor", checks.ref_digits >= checks.ref_floor)
    checks.gate(
        "residual_digits above floor", checks.residual_digits >= checks.residual_floor
    )

    out = {
        "setup_s": t2 - t0,
        "import_s": t1 - t0,
        "build_s": t2 - t1,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "gates": checks.gates,
        "ref_digits": checks.ref_digits,
        "residual_digits": checks.residual_digits,
        "fingerprint": fingerprint(config["precision_bits"]),
        "traced": bool(args.trace),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(run_s)
    Path(args.result).write_text(json.dumps(out))


def cmd_presolve(args):
    config = json.loads(Path(args.config).read_text())
    out = Path(args.out)
    config_path = _write_config(config, out, out.parent / "presolve_config.json")
    _import_package()
    from cauchybi import cli

    code = cli.main(_cli_argv("solve-hp", config_path, "--force"))
    if code != 0:
        raise SystemExit(f"pre-solve failed with exit code {code}")


def compute_reference(config: dict) -> dict:
    """Reference monic Q_n coefficients, both orientations, at the checkpoint
    degrees: twice the working precision, the same quadrature node counts."""
    _import_package()
    from mpmath import mp

    from cauchybi import set_precision, solve_Qn

    bits = 2 * config["precision_bits"]
    set_precision(bits)
    system = build_system(config)
    doc = {"config": config, "precision_bits": bits, "digits": REFERENCE_DIGITS}
    for kind, sys_ in (("forward", system), ("reversed", system.reversed())):
        doc[kind] = {
            str(n): [mp.nstr(c, REFERENCE_DIGITS) for c in solve_Qn(sys_, n).coeffs]
            for n in checkpoints(config["n_max"])
        }
    return doc


def cmd_reference(args):
    config = json.loads(Path(args.config).read_text())
    Path(args.out).write_text(json.dumps(compute_reference(config), indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--config", required=True)
    run.add_argument("--work", required=True)
    run.add_argument("--reference", required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--result", required=True)
    run.add_argument("--presolved")
    presolve = sub.add_parser("presolve")
    presolve.add_argument("--config", required=True)
    presolve.add_argument("--out", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--config", required=True)
    ref.add_argument("--out", required=True)
    args = parser.parse_args()
    {"run": cmd_run, "presolve": cmd_presolve, "reference": cmd_reference}[args.command](args)


if __name__ == "__main__":
    main()
