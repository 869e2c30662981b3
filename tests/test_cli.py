"""Command-line interface: config validation, runs, resumability, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cauchybi.cli import load_config, main, run_manifest

S2_CONFIG = {
    "system": [
        {"interval": ["0", "1"]},
        {"interval": ["2", "3"]},
    ],
    "n_max": 6,
    "precision_bits": 512,
    "quad_nodes": 64,
    "equilibrium": {"cells": 128, "tol": "1e-8", "max_iter": 400},
}

M1_CONFIG = {
    "system": [{"interval": ["-1", "1"]}],
    "n_max": 6,
    "precision_bits": 512,
    "quad_nodes": 64,
    "equilibrium": {"cells": 128},
}


def write_config(tmp_path, doc, name="cfg.json"):
    doc = dict(doc)
    doc["outputs"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_config_is_validation_error(tmp_path):
    assert main(["solve-hp", "--config", str(tmp_path / "nope.json")]) == 2


def test_bad_json_is_validation_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve-hp", "--config", str(p)]) == 2


def test_overlapping_intervals_rejected(tmp_path):
    doc = dict(S2_CONFIG)
    doc["system"] = [
        {"interval": ["0", "1"]},
        {"interval": ["0.5", "2"]},
    ]
    cfg = write_config(tmp_path, doc)
    assert main(["solve-hp", "--config", cfg]) == 2


def test_probe_on_support_rejected(tmp_path):
    doc = dict(S2_CONFIG)
    doc["probes"] = ["0.5"]
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 2


def test_unknown_suite_rejected(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["verify", "--config", cfg, "--suite", "bogus"]) == 2


def test_low_precision_rejected(tmp_path):
    doc = dict(S2_CONFIG)
    doc["precision_bits"] = 64
    cfg = write_config(tmp_path, doc)
    assert main(["solve-hp", "--config", cfg]) == 2


def test_rate_table_rejected_for_m1(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["tables", "--config", cfg, "--which", "rate"]) == 2


def test_unknown_table_rejected(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["tables", "--config", cfg, "--which", "wat"]) == 2


def test_solve_hp_writes_solutions_and_resumes(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["solve-hp", "--config", cfg]) == 0
    out = tmp_path / "out"
    files = sorted(os.listdir(out))
    assert "hp_forward_n000.json" in files
    assert "hp_reversed_n006.json" in files
    assert "hp_diagnostics.json" in files
    # resumability: delete one file, keep mtimes of the rest
    target = out / "hp_forward_n003.json"
    target.unlink()
    kept = out / "hp_forward_n002.json"
    before = kept.stat().st_mtime_ns
    assert main(["solve-hp", "--config", cfg]) == 0
    assert target.exists()
    assert kept.stat().st_mtime_ns == before  # untouched, not recomputed


def test_solution_file_without_adapted_coefficients_is_resolved(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["solve-hp", "--config", cfg]) == 0
    out = tmp_path / "out"
    target = out / "hp_forward_n004.json"
    doc = json.loads(target.read_text())
    assert len(doc["c"]) == 4
    stripped = {k: v for k, v in doc.items() if k != "c"}
    target.write_text(json.dumps(stripped))
    others = [p for p in out.glob("hp_*_n*.json") if p != target]
    before = {p: p.stat().st_mtime_ns for p in others}
    assert main(["solve-hp", "--config", cfg]) == 0
    assert json.loads(target.read_text()) == doc  # re-solved, c included
    assert {p: p.stat().st_mtime_ns for p in others} == before


def test_solutions_deterministic_across_runs(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["solve-hp", "--config", cfg]) == 0
    doc1 = json.loads((tmp_path / "out" / "hp_forward_n005.json").read_text())
    assert main(["solve-hp", "--config", cfg, "--force"]) == 0
    doc2 = json.loads((tmp_path / "out" / "hp_forward_n005.json").read_text())
    assert doc1 == doc2


def test_solve_eq_writes_solution(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["solve-eq", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert len(doc["lambdas"]) == 1


def test_verify_all_suites_pass_s2(tmp_path, capsys):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["verify", "--config", cfg]) == 0
    lines = [
        l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")
    ]
    assert len(lines) == 8
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert all(r["ok"] for r in report)


def test_verify_single_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["verify", "--config", cfg, "--suite", "zero-location"]) == 0
    out = capsys.readouterr().out
    assert "zero-location" in out
    assert "interlacing" not in out


def test_verify_m1_passes(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["verify", "--config", cfg]) == 0


def test_tables_outputs_csv_json_plot(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 0
    out = tmp_path / "out"
    assert (out / "table_ratioQ.csv").exists()
    assert (out / "table_ratioQ.json").exists()
    assert (out / "plot_ratioQ.json").exists()
    rows = json.loads((out / "table_ratioQ.json").read_text())
    assert rows and {"n", "measured", "predicted"} <= set(rows[0])


def test_out_flag_overrides_outputs(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    alt = tmp_path / "elsewhere"
    assert main(["solve-eq", "--config", cfg, "--out", str(alt)]) == 0
    assert (alt / "equilibrium.json").exists()


def test_solve_hp_accepts_jobs_1_only(tmp_path):
    # the benchmark worker passes --jobs 1; any other value is refused
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["solve-hp", "--config", cfg, "--jobs", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["solve-hp", "--config", cfg, "--jobs", "2"])
    assert exc.value.code == 2


def test_benchmark_tracer_hooks_resolve():
    # perfbench/spans.py patches names in the package by attribute; each must
    # still exist (hp.solve, cli.make_measure, NikishinSystem.gram, ...)
    root = Path(__file__).resolve().parent.parent
    code = "import sys; sys.path.insert(0, 'perfbench'); from spans import Tracer; Tracer().install()"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_force_recomputes_saved_equilibrium(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["verify", "--config", cfg]) == 0
    path = tmp_path / "out" / "equilibrium.json"
    fresh = json.loads(path.read_text())
    edited = json.loads(path.read_text())
    edited["lambdas"][0]["weights"][0] = "0.5"
    path.write_text(json.dumps(edited))
    assert main(["verify", "--config", cfg, "--force"]) == 0
    assert json.loads(path.read_text()) == fresh


# -- the run manifest ---------------------------------------------------

def _changed(key):
    doc = json.loads(json.dumps(S2_CONFIG))
    if key == "intervals":
        doc["system"][1]["interval"] = ["1.5", "3"]
    elif key == "weights":
        doc["system"][0]["alpha"] = "-0.5"
    elif key == "quad_nodes":
        doc["quad_nodes"] = 32
    elif key == "precision_bits":
        doc["precision_bits"] = 256
    elif key == "equilibrium_cells":
        doc["equilibrium"]["cells"] = 64
    elif key == "equilibrium_tol":
        doc["equilibrium"]["tol"] = "1e-9"
    return doc


@pytest.mark.parametrize(
    "key",
    [
        "intervals",
        "weights",
        "quad_nodes",
        "precision_bits",
        "equilibrium_cells",
        "equilibrium_tol",
        "schema",
    ],
)
def test_manifest_mismatch_is_validation_error(tmp_path, capsys, key):
    out = tmp_path / "out"
    assert main(["solve-eq", "--config", write_config(tmp_path, S2_CONFIG)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    if key == "schema":
        manifest["schema"] = 0  # written by another version of the files
        (out / "manifest.json").write_text(json.dumps(manifest))
    eq_before = (out / "equilibrium.json").stat().st_mtime_ns
    capsys.readouterr()
    cfg = write_config(tmp_path, _changed(key), name="changed.json")
    assert main(["solve-hp", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"(differing keys: {key})" in err and "--force" in err
    # nothing was resumed, solved or rewritten
    assert not list(out.glob("hp_*"))
    assert (out / "equilibrium.json").stat().st_mtime_ns == eq_before


def test_manifest_mismatch_with_force_recomputes(tmp_path):
    out = tmp_path / "out"
    assert main(["solve-eq", "--config", write_config(tmp_path, S2_CONFIG)]) == 0
    (out / "hp_forward_n009.json").write_text("{}")  # left by the old config
    doc = _changed("equilibrium_tol")
    cfg = write_config(tmp_path, doc, name="changed.json")
    assert main(["verify", "--config", cfg, "--suite", "zero-location"]) == 2
    assert main(["solve-eq", "--config", cfg, "--force"]) == 0
    assert json.loads((out / "manifest.json").read_text()) == run_manifest(load_config(cfg))
    assert not (out / "hp_forward_n009.json").exists()
    assert main(["verify", "--config", cfg, "--suite", "zero-location"]) == 0


def test_solution_files_without_manifest_are_not_resumed(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["solve-eq", "--config", cfg]) == 0
    (out / "manifest.json").unlink()
    capsys.readouterr()
    assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 2
    assert "no manifest.json" in capsys.readouterr().err


def test_copied_directory_resumes_under_other_outputs_and_probes(tmp_path):
    assert main(["solve-hp", "--config", write_config(tmp_path, M1_CONFIG)]) == 0
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "out", copy)
    doc = dict(M1_CONFIG, outputs=str(copy), probes=["3", "-2.5"], suites=["interlacing"])
    cfg = tmp_path / "copy.json"
    cfg.write_text(json.dumps(doc))
    files = sorted(copy.glob("hp_*_n*.json"))
    before = {p: p.stat().st_mtime_ns for p in files}
    assert main(["solve-hp", "--config", str(cfg)]) == 0
    assert {p: p.stat().st_mtime_ns for p in files} == before  # resumed
    assert main(["verify", "--config", str(cfg)]) == 0
