"""Command-line interface: config validation, runs, resumability, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cauchybi import cli, equilibrium, hp, polyzeros
from cauchybi.cli import ALL_SUITES, RunConfig, _solve_eq, load_config, main, run_manifest
from cauchybi.hp import HPSolution
from cauchybi.nikishin import NikishinSystem
from conftest import BOUNDARY_CHAIN

ROOT = Path(__file__).resolve().parent.parent
TABLE_KINDS = ("ratioQ", "nthroot", "rate", "formratio", "leading")

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


def main_in_fresh_process(argv):
    """main(argv) in a new interpreter, which holds no equilibrium yet."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cauchybi.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stderr


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


def test_verify_force_keeps_solved_directory_under_invalid_system(tmp_path, capsys):
    # the system is validated before the output directory is claimed
    assert main(["solve-hp", "--config", write_config(tmp_path, M1_CONFIG)]) == 0
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    doc = dict(S2_CONFIG, system=[{"interval": ["0", "1"]}, {"interval": ["0.5", "2"]}])
    bad = write_config(tmp_path, doc, name="bad.json")
    capsys.readouterr()
    assert main(["verify", "--config", bad, "--force"]) == 2
    assert "not disjoint" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_probe_on_support_rejected(tmp_path):
    doc = dict(S2_CONFIG)
    doc["probes"] = ["0.5"]
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 2


@pytest.mark.parametrize("probe", ["nan", "inf", "1+infj"], ids=["nan", "inf", "complex"])
def test_nonfinite_probe_rejected(tmp_path, capsys, probe):
    cfg = write_config(tmp_path, dict(M1_CONFIG, probes=[probe, "4.5"]))
    assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 2
    assert f"probe {probe!r} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_suite_rejected(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["verify", "--config", cfg, "--suite", "bogus"]) == 2


def test_low_precision_rejected(tmp_path):
    doc = dict(S2_CONFIG)
    doc["precision_bits"] = 64
    cfg = write_config(tmp_path, doc)
    assert main(["solve-hp", "--config", cfg]) == 2


@pytest.mark.parametrize("cells", [0, -3])
def test_equilibrium_cells_ignored(tmp_path, cells):
    # cells set the earlier cell solver's discretization; any value, even
    # one that solver refused, changes no output byte
    outs = []
    for name, eq in (("without", {}), ("with", {"cells": cells})):
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, dict(M1_CONFIG, equilibrium=eq))
        assert main(["solve-eq", "--config", cfg]) == 0
        outs.append({p.name: p.read_bytes() for p in (tmp_path / name / "out").iterdir()})
    assert outs[0] == outs[1]


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_nonpositive_equilibrium_tol_rejected(tmp_path, capsys, tol):
    doc = dict(M1_CONFIG, equilibrium={"cells": 128, "tol": tol})
    assert main(["solve-eq", "--config", write_config(tmp_path, doc)]) == 2
    assert "equilibrium.tol must be > 0" in capsys.readouterr().err


def test_equilibrium_max_iter_ignored(tmp_path):
    # the solver does not iterate; configs written for one that did still run
    doc = dict(M1_CONFIG, equilibrium={"cells": 128, "max_iter": 0})
    assert main(["solve-eq", "--config", write_config(tmp_path, doc)]) == 0


@pytest.mark.parametrize(
    "doc",
    [dict(M1_CONFIG, quad_nodes=1, n_max=2), dict(S2_CONFIG, quad_nodes=3, n_max=3)],
    ids=["m1", "s2"],
)
def test_quad_nodes_not_above_n_max_rejected(tmp_path, capsys, doc):
    assert main(["solve-hp", "--config", write_config(tmp_path, doc)]) == 2
    assert "quad_nodes must be > n_max" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/hp_*.json"))


def test_equilibrium_on_boundary_exits_3(tmp_path, capsys):
    doc = dict(
        M1_CONFIG,
        system=[{"interval": list(iv)} for iv in BOUNDARY_CHAIN],
    )
    assert main(["solve-eq", "--config", write_config(tmp_path, doc)]) == 3
    assert "too narrow to resolve" in capsys.readouterr().err


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


def test_resumed_degree_brackets_next_zeros_like_full_solve(tmp_path):
    # degree 4 solved after degree 3 was loaded from file brackets its zeros
    # by the loaded zeros, as a full solve brackets them by the solved ones
    cfg = write_config(tmp_path, S2_CONFIG)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["solve-hp", "--config", cfg, "--out", str(full)]) == 0
    shutil.copytree(full, part)
    for path in part.glob("hp_*_n00[4-6].json"):
        path.unlink()
    assert main(["solve-hp", "--config", cfg, "--out", str(part)]) == 0
    for path in sorted(full.iterdir()):
        assert (part / path.name).read_bytes() == path.read_bytes(), path.name


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


def test_solve_eq_writes_no_reversed_equilibrium(tmp_path):
    # verify re-solves the reversed problem itself; no command reads a file
    cfg = write_config(tmp_path, dict(S2_CONFIG, suites=["reversal-symmetry"]))
    assert main(["solve-eq", "--config", cfg]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["equilibrium.json", "manifest.json"]


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


def test_verify_n_max_1_reports_every_suite(tmp_path):
    # degree 0 has no zeros: the weak-asymptotics checkpoints leave it out,
    # and the estimator suites, which read only degree n_max - 1, are skipped
    for name, doc in (("m1", M1_CONFIG), ("s2", S2_CONFIG)):
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, dict(doc, n_max=1))
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / name / "out" / "verify_report.json").read_text())
        assert sorted(r["suite"] for r in report) == sorted(ALL_SUITES)
        skipped = {r["suite"]: r["skipped"] for r in report if "skipped" in r}
        assert skipped["ratio-asymptotics"] == "needs n_max >= 2"
        assert skipped["rate"] == ("needs m >= 2" if name == "m1" else "needs n_max >= 2")


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
    code = "import sys; sys.path.insert(0, 'perfbench'); from spans import Tracer; Tracer().install()"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_force_recomputes_saved_equilibrium(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["verify", "--config", cfg]) == 0
    path = tmp_path / "out" / "equilibrium.json"
    fresh = json.loads(path.read_text())
    edited = json.loads(path.read_text())
    edited["lambdas"][0][0] = "0.5"
    path.write_text(json.dumps(edited))
    assert main(["verify", "--config", cfg, "--force"]) == 0
    assert json.loads(path.read_text()) == fresh


def test_equilibrium_file_with_legacy_keys_loads_and_verifies(tmp_path):
    # files written by the iterative solver also carry iterations and energy_log
    cfg = write_config(tmp_path, dict(M1_CONFIG, suites=["weak-asymptotics", "ratio-asymptotics"]))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg]) == 0
    first = (out / "verify_report.json").read_bytes()
    doc = json.loads((out / "equilibrium.json").read_text())
    assert "iterations" not in doc and "energy_log" not in doc
    (out / "equilibrium.json").write_text(json.dumps(dict(doc, iterations=42, energy_log=[0.5])))
    assert main(["verify", "--config", cfg]) == 0
    assert (out / "verify_report.json").read_bytes() == first


def test_verify_reads_saved_equilibrium_exactly(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg]) == 0  # solves and saves lambda
    first = (out / "verify_report.json").read_bytes()
    # parses it: this process would reuse the lambda it solved
    code, err = main_in_fresh_process(["verify", "--config", cfg])
    assert code == 0, err
    assert (out / "verify_report.json").read_bytes() == first
    loaded = equilibrium.solution_from_json(json.loads((out / "equilibrium.json").read_text()))
    fresh = _solve_eq(load_config(cfg))
    assert loaded.lambdas == fresh.lambdas
    assert loaded.intervals == fresh.intervals
    assert (loaded.omega_prime, loaded.omega_cum) == (fresh.omega_prime, fresh.omega_cum)


def test_verify_and_tables_compute_each_potential_once(tmp_path, monkeypatch):
    # verify solves the equilibrium and the five tables load its file: in one
    # process they share its measures, so each V^{lambda_k}(z) is evaluated
    # once per (level, probe)
    calls = []
    potential = polyzeros._potential

    def counted(mu, z):
        calls.append((mu.interval, z))
        return potential(mu, z)

    monkeypatch.setattr(polyzeros, "_potential", counted)
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["verify", "--config", cfg]) == 0
    for which in TABLE_KINDS:
        assert main(["tables", "--config", cfg, "--which", which]) == 0
    m, probes = 2, len(load_config(cfg).probes)
    assert len(calls) == len(set(calls)) == m * probes


def test_edited_equilibrium_is_read_again_in_process(tmp_path):
    cfg = write_config(tmp_path, M1_CONFIG)
    out = tmp_path / "out"
    table = out / "table_ratioQ.json"
    assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 0
    first = table.read_bytes()
    path = out / "equilibrium.json"
    doc = json.loads(path.read_text())
    doc["lambdas"][0][0] = "0.5"  # a_1: density 1 + T_1(s)/2
    path.write_text(json.dumps(doc))
    assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 0
    edited = table.read_bytes()
    assert edited != first
    fresh = tmp_path / "fresh"
    shutil.copytree(out, fresh)
    (fresh / "table_ratioQ.json").unlink()
    code, err = main_in_fresh_process(
        ["tables", "--config", cfg, "--which", "ratioQ", "--out", str(fresh)]
    )
    assert code == 0, err
    assert (fresh / "table_ratioQ.json").read_bytes() == edited


# -- the per-process session ---------------------------------------------

RESUME_COMMANDS = [["verify"]] + [["tables", "--which", w] for w in TABLE_KINDS]


@pytest.fixture(scope="module")
def s2_solved(tmp_path_factory):
    """An S2_CONFIG directory solved by solve-hp; tests copy it."""
    base = tmp_path_factory.mktemp("s2")
    assert main(["solve-hp", "--config", write_config(base, S2_CONFIG)]) == 0
    return base / "out"


def copy_solved(solved, tmp_path):
    shutil.copytree(solved, tmp_path / "out")
    return write_config(tmp_path, S2_CONFIG)


def edit_c0(path):
    """Change Q's first adapted coefficient, keeping the file's shape."""
    doc = json.loads(path.read_text())
    doc["c"][0] = "0.25"
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda doc, lower: lower, "n is 4, the file name's is 5"),
        (lambda doc, lower: dict(doc, m=3), "m is 3, the system's is 2"),
        (lambda doc, lower: dict(doc, c=doc["c"][:-1]), "coefficients c: 4, not 5"),
        (lambda doc, lower: dict(doc, a=doc["a"][:-1]), "polynomials a: 2, not 3"),
        (
            lambda doc, lower: dict(doc, a=[*doc["a"][:-1], doc["a"][-1][:-1]]),
            "degree of a_m: 4, not 5",
        ),
        (
            lambda doc, lower: dict(doc, zeros=dict(doc["zeros"], **{"2": doc["zeros"]["2"][1:]})),
            "zeros on level 2: 4, not 5",
        ),
        (
            lambda doc, lower: dict(doc, zeros={"1": doc["zeros"]["1"]}),
            "KeyError: '2'",
        ),
    ],
    ids=["n-copied", "m", "c-short", "a-short", "deg-a_m", "zeros-short", "zeros-missing"],
)
def test_solution_file_of_wrong_shape_is_damaged(s2_solved, tmp_path, capsys, damage, message):
    # unchecked, each shape reaches the tables as a traceback or as rows of
    # the wrong solution
    cfg = copy_solved(s2_solved, tmp_path)
    out = tmp_path / "out"
    path = out / "hp_forward_n005.json"
    doc = json.loads(path.read_text())
    lower = json.loads((out / "hp_forward_n004.json").read_text())
    path.write_text(json.dumps(damage(doc, lower)))
    for command in (["tables", "--which", "nthroot"], ["verify"]):
        capsys.readouterr()
        assert main([command[0], "--config", cfg, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"{path} is damaged" in err and message in err and "--force" in err


def test_edited_solution_is_read_again_in_process(s2_solved, tmp_path):
    cfg = copy_solved(s2_solved, tmp_path)
    out = tmp_path / "out"
    table = out / "table_nthroot.json"
    assert main(["tables", "--config", cfg, "--which", "nthroot"]) == 0
    first = table.read_bytes()
    edit_c0(out / "hp_forward_n003.json")
    assert main(["tables", "--config", cfg, "--which", "nthroot"]) == 0
    edited = table.read_bytes()
    assert edited != first
    fresh = tmp_path / "fresh"
    shutil.copytree(out, fresh)
    (fresh / "table_nthroot.json").unlink()
    code, err = main_in_fresh_process(
        ["tables", "--config", cfg, "--which", "nthroot", "--out", str(fresh)]
    )
    assert code == 0, err
    assert (fresh / "table_nthroot.json").read_bytes() == edited


def test_other_manifest_builds_its_own_system(tmp_path, monkeypatch):
    built = []
    build = RunConfig.build_system

    def counted(cfg):
        built.append(cfg.quad_nodes)
        return build(cfg)

    monkeypatch.setattr(RunConfig, "build_system", counted)
    monkeypatch.setattr(cli, "_session", None)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_a = write_config(tmp_path / "a", S2_CONFIG)
    cfg_b = write_config(tmp_path / "b", dict(S2_CONFIG, quad_nodes=48))
    for cfg, nodes in ((cfg_a, [64]), (cfg_a, [64]), (cfg_b, [64, 48]), (cfg_a, [64, 48, 64])):
        assert main(["tables", "--config", cfg, "--which", "nthroot"]) == 0
        assert built == nodes
    out_b, fresh = tmp_path / "b" / "out", tmp_path / "fresh"
    shutil.copytree(out_b, fresh)
    (fresh / "table_nthroot.json").unlink()
    code, err = main_in_fresh_process(
        ["tables", "--config", cfg_b, "--which", "nthroot", "--out", str(fresh)]
    )
    assert code == 0, err
    assert (fresh / "table_nthroot.json").read_bytes() == (out_b / "table_nthroot.json").read_bytes()


def test_tables_after_force_read_the_written_solutions(s2_solved, tmp_path, monkeypatch):
    cfg = copy_solved(s2_solved, tmp_path)
    out = tmp_path / "out"
    table = out / "table_nthroot.json"
    assert main(["tables", "--config", cfg, "--which", "nthroot"]) == 0
    first = table.read_bytes()
    edit_c0(out / "hp_forward_n003.json")
    assert main(["tables", "--config", cfg, "--which", "nthroot"]) == 0
    assert table.read_bytes() != first
    assert main(["solve-hp", "--config", cfg, "--force"]) == 0
    parsed = []
    parse = hp.solution_from_json
    monkeypatch.setattr(hp, "solution_from_json", lambda *a: parsed.append(a) or parse(*a))
    assert main(["tables", "--config", cfg, "--which", "nthroot"]) == 0
    assert table.read_bytes() == first
    assert parsed == []  # each solution was kept under the bytes written


def test_resume_pass_computes_each_form_once(s2_solved, tmp_path, monkeypatch):
    # verify and the five tables over a solved directory, as in a fresh
    # process: one forward system (and its reversal), each transform once
    cfg = copy_solved(s2_solved, tmp_path)
    monkeypatch.setattr(cli, "_session", None)
    built, transforms, scanning = [], [], []
    init, transform, zeros = NikishinSystem.__init__, NikishinSystem.transform, HPSolution.zeros

    def counted_init(system, measures):
        built.append(system)
        init(system, measures)

    def counted_transform(system, j, v, z, blocks, slope=False):
        if not scanning:
            transforms.append((v, j, z))  # v kept alive, so its id is not reused
        return transform(system, j, v, z, blocks, slope)

    def counted_zeros(sol, j, below=None):
        scanning.append(j)
        try:
            return zeros(sol, j, below)
        finally:
            scanning.pop()

    monkeypatch.setattr(NikishinSystem, "__init__", counted_init)
    monkeypatch.setattr(NikishinSystem, "transform", counted_transform)
    monkeypatch.setattr(HPSolution, "zeros", counted_zeros)
    for command in RESUME_COMMANDS:
        assert main([command[0], "--config", cfg, *command[1:]]) == 0
    assert len(built) == 2 and built[1] is built[0].reversed()
    keys = [(id(v), j, z) for v, j, z in transforms]
    assert len(keys) == len(set(keys))
    m, probes, n_max = 2, len(load_config(cfg).probes), S2_CONFIG["n_max"]
    assert len(keys) <= (n_max + 1) * (m + 1) * probes


def test_shared_session_writes_the_files_of_fresh_processes(tmp_path):
    cfg = write_config(tmp_path, S2_CONFIG)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["solve-hp", "--config", cfg]) == 0
    shutil.copytree(out, fresh)
    for command in RESUME_COMMANDS:
        assert main([command[0], "--config", cfg, *command[1:]]) == 0
    for command in RESUME_COMMANDS:
        code, err = main_in_fresh_process(
            [command[0], "--config", cfg, *command[1:], "--out", str(fresh)]
        )
        assert code == 0, err
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    # 2 (n_max + 1) solutions, 2 logs, the report, the equilibrium, 15 tables
    assert len(names) == 2 * (S2_CONFIG["n_max"] + 1) + 19
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize(
    "name, key",
    [("equilibrium.json", "lambdas"), ("hp_forward_n003.json", "a")],
    ids=["equilibrium", "hp"],
)
def test_damaged_resumable_file_exits_2(tmp_path, capsys, name, key):
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 0
    path = tmp_path / "out" / name
    text = path.read_text()
    doc = json.loads(text)
    truncated = text[: len(text) // 2]
    keyless = json.dumps({k: v for k, v in doc.items() if k != key})
    for damaged in (truncated, keyless):
        path.write_text(damaged)
        capsys.readouterr()
        assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 2
        err = capsys.readouterr().err
        assert f"{path} is damaged" in err and "rerun with --force" in err
    assert main(["tables", "--config", cfg, "--which", "ratioQ", "--force"]) == 0
    assert json.loads(path.read_text()) == doc


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


def test_schema_2_directory_exits_2_unless_force(tmp_path, capsys):
    # solved by the cell solver: its manifest has schema 2 and the cells
    out = tmp_path / "out"
    cfg = write_config(tmp_path, S2_CONFIG)
    assert main(["solve-eq", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps(dict(manifest, schema=2, equilibrium_cells=128)))
    eq_before = (out / "equilibrium.json").stat().st_mtime_ns
    capsys.readouterr()
    assert main(["solve-eq", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "(differing keys: equilibrium_cells, schema)" in err and "--force" in err
    assert (out / "equilibrium.json").stat().st_mtime_ns == eq_before
    assert main(["solve-eq", "--config", cfg, "--force"]) == 0
    assert json.loads((out / "manifest.json").read_text()) == manifest


def test_cell_format_equilibrium_is_damaged(tmp_path, capsys):
    # the cell solver's equilibrium.json under this version's manifest
    cfg = write_config(tmp_path, M1_CONFIG)
    assert main(["solve-eq", "--config", cfg]) == 0
    path = tmp_path / "out" / "equilibrium.json"
    doc = json.loads(path.read_text())
    doc["lambdas"] = [{"cell_edges": ["-1", "0", "1"], "weights": ["0.5", "0.5"]}]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["tables", "--config", cfg, "--which", "ratioQ"]) == 2
    err = capsys.readouterr().err
    assert f"{path} is damaged" in err and "rerun with --force" in err


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
