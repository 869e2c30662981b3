"""Summarise or compare benchmark records written by `run.py --record`.

    python3 perfbench/compare.py RECORDS.jsonl
        per workload and end-to-end metric: median, quartiles and the spread
        (q3 - q1) / median, against the metric's bound.
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
        per workload and metric: both medians and the change, marked as a
        regression when NEW is worse than BASE by more than the bound.

Records whose environment fingerprints differ are never compared: a gmpy2
mpmath backend, another Python or another core count shifts every number.
Exit codes: 0 fine, 1 a spread or regression outside its bound, 2 refused.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path: str):
    """Untraced records of one file grouped by workload, and the fingerprint."""
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(fingerprints) != 1:
        raise SystemExit(f"refused: {path} mixes environments {sorted(fingerprints)}")
    groups = defaultdict(list)
    for r in records:
        if not r["trace"]:
            if not r["result"]["correct"]:
                raise SystemExit(f"refused: {path} has an incorrect {r['workload']} run")
            groups[r["workload"]].append(r["result"]["metrics"])
    return groups, fingerprints.pop()


def values(runs, name):
    return [run[name]["value"] for run in runs]


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3, (q3 - q1) / statistics.median(vals)


def summarise(path: str) -> int:
    groups, fingerprint = load(path)
    print(f"environment {fingerprint}")
    status = 0
    for workload, runs in sorted(groups.items()):
        print(f"{workload}: {len(runs)} runs")
        for name, spec in END_TO_END.items():
            vals = values(runs, name)
            q1, q3, s = spread(vals) if len(vals) > 1 else (vals[0], vals[0], 0.0)
            bound = spec["bound"]
            mark = "steady" if s < bound / 3 else ("within" if s <= bound else "WIDE")
            if name != "setup_s" and s > bound:
                status = 1
            print(
                f"  {name:16s} median {statistics.median(vals):.6g} {spec['unit']}"
                f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {s:.4f} of bound {bound}  {mark}"
            )
    return status


def compare(base_path: str, new_path: str) -> int:
    base, base_fp = load(base_path)
    new, new_fp = load(new_path)
    if base_fp != new_fp:
        print(f"refused: environments differ\n  {base_fp}\n  {new_fp}", file=sys.stderr)
        return 2
    status = 0
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for name, spec in END_TO_END.items():
            b = statistics.median(values(base[workload], name))
            n = statistics.median(values(new[workload], name))
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (n - b) / abs(b) if b else 0.0
            regressed = worse > spec["bound"]
            status = max(status, int(regressed))
            print(
                f"  {name:16s} base {b:.6g}  new {n:.6g} {spec['unit']}"
                f"  worse by {worse:+.4f} (bound {spec['bound']})"
                + ("  REGRESSED" if regressed else "")
            )
    return status


if __name__ == "__main__":
    if len(sys.argv) == 2:
        raise SystemExit(summarise(sys.argv[1]))
    if len(sys.argv) == 3:
        raise SystemExit(compare(sys.argv[1], sys.argv[2]))
    raise SystemExit(__doc__)
