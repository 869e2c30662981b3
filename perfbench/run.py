"""Benchmark of cauchybi, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each measured pass runs in a fresh Python
worker (one process, one thread: no mpmath or system cache survives between
passes), started one after another until `--seconds` of worker time is
spent, with at least three workers.  End-to-end metrics are medians over the
workers; `--trace 1` alternates untraced and traced workers and reports the
per-layer metrics of the traced worker with the median wall time.  The last
line of standard output is the JSON result; the line before it is the
environment fingerprint, which `--record` also stores with the result.

`--smoke` runs every workload's code path on a tiny s2 config in both trace
modes and asserts that every metric of BENCHMARK.json is emitted with its
unit and that the per-layer self times add up to the traced wall time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import HELD_OUT_SEED, WORKLOADS, family_of, make_config  # noqa: E402

MIN_WORKERS = 3
# a run must end within 180 s: no worker starts after this, and each worker
# is stopped at the overall deadline
START_LIMIT_S = 120
DEADLINE_S = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


class Run:
    """Scratch directory inside the checkout and the worker launcher."""

    def __init__(self, started: float):
        self.started = started
        base = ROOT / ".perfbench-work"
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def worker(self, *args):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run deadline reached")
        env = dict(os.environ, **THREAD_ENV)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *map(str, args)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} timed out")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass


def reference_for(run: Run, family: str, seed: int, config: dict, config_path: Path) -> Path:
    """The committed reference when it matches the config, else one computed
    now (once per invocation, untimed)."""
    committed = HERE / "reference" / f"{family}-seed{seed}.json"
    if committed.exists() and json.loads(committed.read_text())["config"] == config:
        return committed
    path = run.dir / "reference.json"
    run.worker("reference", "--config", config_path, "--out", path)
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run workers for one workload; returns (result, fingerprint)."""
    run = Run(time.monotonic())
    try:
        family = family_of(workload, smoke)
        config = make_config(family, seed)
        config_path = run.dir / "config.json"
        config_path.write_text(json.dumps(config))
        reference = reference_for(run, family, seed, config, config_path)
        extra = []
        if workload == "s2-cli-resume":
            presolved = run.dir / "presolved"
            run.worker("presolve", "--config", config_path, "--out", presolved)
            extra = ["--presolved", presolved]

        workers = []
        began = time.monotonic()
        while True:
            untraced = [w for w in workers if not w["traced"]]
            traced = [w for w in workers if w["traced"]]
            enough = len(untraced) >= (MIN_WORKERS - 1 if trace else MIN_WORKERS) and (
                traced or not trace
            )
            spent = time.monotonic() - began
            if enough and (
                spent + spent / len(workers) > seconds
                or time.monotonic() - run.started > START_LIMIT_S
            ):
                break
            index = len(workers)
            work = run.dir / f"w{index:03d}"
            work.mkdir()
            result = work / "result.json"
            run.worker(
                "run", "--workload", workload, "--config", config_path,
                "--work", work, "--reference", reference,
                "--trace", int(trace and index % 2 == 1), "--result", result,
                *extra,
            )
            workers.append(json.loads(result.read_text()))
            shutil.rmtree(work / "out", ignore_errors=True)
        return summarize(workers, trace)
    finally:
        run.close()


def summarize(workers, trace: bool):
    untraced = [w for w in workers if not w["traced"]]
    fingerprints = {json.dumps(w["fingerprint"], sort_keys=True) for w in workers}
    if len(fingerprints) != 1:
        raise BenchError(f"workers disagree on the environment: {fingerprints}")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = failed == 0 and all(all(w["gates"].values()) for w in workers)
    run_s = statistics.median(w["run_s"] for w in untraced)
    if trace:
        traced = sorted((w for w in workers if w["traced"]), key=lambda w: w["run_s"])
        chosen = traced[(len(traced) - 1) // 2]
        values = dict(chosen["layers"])
        values["trace.overhead_s"] = chosen["run_s"] - run_s
        values["setup.import_s"] = statistics.median(w["import_s"] for w in workers)
        values["setup.build_s"] = statistics.median(w["build_s"] for w in workers)
        declared = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in untraced),
            "ok_frac": 1 - failed / attempted if attempted else 0.0,
            "ref_digits": min(w["ref_digits"] for w in workers),
            "residual_digits": min(w["residual_digits"] for w in workers),
        }
        declared = "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark_spec()[declared]}
    missing = set(units) ^ set(values)
    if missing:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    failing = sorted({g for w in workers for g, ok in w["gates"].items() if not ok})
    if failing:
        print("failed gates: " + "; ".join(failing), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, workers[0]["fingerprint"]


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke() -> int:
    """Every workload's code path on the tiny config, in both trace modes."""
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = measure(workload, 0, 0, trace, smoke=True)
            metrics = result["metrics"]
            declared = benchmark_spec()["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = metrics.get(m["name"])
                if not (
                    got and got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
                ):
                    raise BenchError(f"{workload}: {m['name']} missing or mislabelled: {got}")
            if trace:
                parts = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
                parts += metrics["trace.untraced_s"]["value"]
                wall = metrics["trace.wall_s"]["value"]
                if abs(parts - wall) > 1e-6 * max(1.0, wall):
                    raise BenchError(f"{workload}: self times {parts} != wall {wall}")
            print(
                f"smoke {workload} trace={int(trace)}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
    print("smoke: every metric emitted with its unit; self times add up")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="cauchybi benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result and fingerprint as a JSON line")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "cauchybi" / "__init__.py").is_file():
        print(f"no cauchybi package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke()
        result, fingerprint = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "held_out": args.seed == HELD_OUT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fingerprint,
            "result": result,
        }
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
