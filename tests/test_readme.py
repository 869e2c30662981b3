"""The README's Python API sketch runs as written, and its config parses."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from cauchybi.cli import load_config

ROOT = Path(__file__).resolve().parent.parent


def test_readme_api_sketch_runs():
    # in a fresh interpreter, as a reader runs it: mpmath starts at 53 bits
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_config_loads(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    path = tmp_path / "run.json"
    path.write_text(block)
    doc = json.loads(block)
    cfg = load_config(str(path))
    assert (cfg.n_max, cfg.quad_nodes, cfg.suites) == (doc["n_max"], doc["quad_nodes"], doc["suites"])
    # every documented equilibrium key is one the config keeps
    assert all(f"eq_{key}" in vars(cfg) for key in doc["equilibrium"])
