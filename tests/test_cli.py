"""Command-line interface: config validation, runs, resumability, exit codes."""

import json
import os

import pytest

from cauchybi.cli import main

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


def test_parallel_jobs_match_serial(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["solve-hp", "--config", cfg, "--jobs", "2"]) == 0
    par = json.loads((tmp_path / "out" / "hp_forward_n004.json").read_text())
    assert main(["solve-hp", "--config", cfg, "--force"]) == 0
    ser = json.loads((tmp_path / "out" / "hp_forward_n004.json").read_text())
    assert par["a"] == ser["a"]
