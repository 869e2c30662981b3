"""Regenerate the committed reference data under perfbench/reference/.

    python3 perfbench/make_reference.py

For the s2 and m3 families at the default seed 0 and the held-out seed, the
monic Q_n coefficients of both orientations at the checkpoint degrees are
computed at twice the working precision with the same quadrature node
counts, and stored with more digits than the working precision resolves.
Any other seed has its reference computed by run.py once per invocation.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import compute_reference  # noqa: E402
from workloads import HELD_OUT_SEED, make_config  # noqa: E402

if __name__ == "__main__":
    for family in ("s2", "m3"):
        for seed in (0, HELD_OUT_SEED):
            path = HERE / "reference" / f"{family}-seed{seed}.json"
            doc = compute_reference(make_config(family, seed))
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {path.relative_to(HERE.parent)}")
