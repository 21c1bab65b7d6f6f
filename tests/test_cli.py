"""Command dispatch, exit codes, schema validation, byte-stable outputs."""

import json
import os

import numpy as np
import pytest

from gjet.cli import (
    EXIT_CONDITION_FAIL,
    EXIT_INPUT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
    resolve_config,
)
from gjet.errors import ConfigError


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "generator": {"kind": "parallel_beam", "params": {}},
        "dimension": 2,
        "source": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                   "resolution": [32, 32]},
        "targets": {"points": [[0.25, 0.5], [0.75, 0.5]],
                    "masses": [0.5, 0.5]},
        "normalization": {"x0": [0.5, 0.5], "u0": 0.75},
        "check": {"samples": 25, "seed": 11},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------

def test_resolve_config_rejects_unknown_keys(tmp_path):
    raw = json.loads(open(write_config(tmp_path)).read())
    raw["extra_key"] = 1
    with pytest.raises(ConfigError):
        resolve_config(raw)
    raw = json.loads(open(write_config(tmp_path)).read())
    raw["solver"] = {"bogus": 2}
    with pytest.raises(ConfigError):
        resolve_config(raw)


def test_resolve_config_defaults(tmp_path):
    raw = json.loads(open(write_config(tmp_path)).read())
    cfg = resolve_config(raw)
    assert cfg["solver"]["max_sweeps"] == 500
    assert cfg["check"]["fd_step"] == 1e-3
    assert cfg["schema_version"]


def test_malformed_json_exits_4(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) \
        == EXIT_INPUT_ERROR


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def test_check_parallel_beam_passes(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["check", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["overall"] == "pass"
    assert doc["results"]["G3"]["details"]["strict_pass"] is True
    assert doc["results"]["G5"]["status"] == "pass"


def test_check_quadratic_strict_demand_fails(tmp_path):
    cfg = write_config(
        tmp_path,
        generator={"kind": "quadratic_ot", "params": {}},
        normalization={"x0": [0.5, 0.5], "u0": 0.0},
        check={"samples": 25, "seed": 11, "g3_strict": True})
    out = str(tmp_path / "report.json")
    assert main(["check", cfg, "--out", out]) == EXIT_CONDITION_FAIL
    doc = json.loads(open(out).read())
    assert doc["results"]["G3"]["status"] == "fail"
    assert doc["results"]["G3"]["details"]["weak_pass"] is True


def test_check_point_source_orthogonality_seed_exits_2(tmp_path):
    # at this seed a drawn (xi, eta) pair used to miss the tensor's
    # orthogonality test by rounding and end the check with exit 4
    cfg = write_config(
        tmp_path,
        generator={"kind": "point_source", "params": {"tau": -1.0}},
        source={"box": {"lo": [-0.4, -0.4], "hi": [0.4, 0.4]},
                "resolution": [16, 16]},
        check={"samples": 200, "seed": 641987627})
    out = str(tmp_path / "report.json")
    assert main(["check", cfg, "--out", out]) == EXIT_CONDITION_FAIL
    doc = json.loads(open(out).read())
    assert doc["results"]["G4w"]["status"] == "fail"


def test_check_unknown_key_exits_4(tmp_path):
    cfg = write_config(tmp_path, nonsense={"a": 1})
    assert main(["check", cfg, "--out", str(tmp_path / "r.json")]) \
        == EXIT_INPUT_ERROR


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def test_solve_writes_solution_and_grid(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "sol.json")
    grid_out = str(tmp_path / "grid.csv")
    assert main(["solve", cfg, "--out", out, "--grid-out", grid_out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["converged"] is True
    assert doc["residual"] <= 1e-3
    assert len(doc["z"]) == 2
    lines = open(grid_out).read().splitlines()
    assert lines[0] == "x1,x2,u,du1,du2,cell"
    assert len(lines) == 1 + 32 * 32


def test_solve_mass_imbalance_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, targets={
        "points": [[0.25, 0.5], [0.75, 0.5]], "masses": [0.5, 0.4]})
    rc = main(["solve", cfg, "--out", str(tmp_path / "sol.json")])
    assert rc == EXIT_INPUT_ERROR
    assert "MassImbalance" in capsys.readouterr().err


def test_solve_four_targets_symmetric(tmp_path):
    cfg = write_config(tmp_path, targets={
        "points": [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]],
        "masses": [0.25, 0.25, 0.25, 0.25]})
    out = str(tmp_path / "sol.json")
    assert main(["solve", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    masses = np.asarray(doc["masses"])
    assert np.allclose(masses, 0.25, atol=2e-3)


def test_solve_no_convergence_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, targets={
        "points": [[0.2, 0.3], [0.7, 0.6], [0.5, 0.85]],
        "masses": [0.5, 0.3, 0.2]},
        solver={"mass_tol_rel": 1e-12, "max_sweeps": 1})
    rc = main(["solve", cfg, "--out", str(tmp_path / "sol.json")])
    assert rc == EXIT_NO_CONVERGENCE


# --------------------------------------------------------------------------
# transform
# --------------------------------------------------------------------------

def test_transform_involution(tmp_path):
    cfg = write_config(tmp_path)
    sol = str(tmp_path / "sol.json")
    main(["solve", cfg, "--out", sol])
    out = str(tmp_path / "dual.json")
    assert main(["transform", sol, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["involution_error"] <= 1e-6
    assert len(doc["v"]) == 2


def test_transform_truncated_file_exits_4(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text('{"kind": "solution"}')
    assert main(["transform", str(path), "--out", str(tmp_path / "d.json")]) \
        == EXIT_INPUT_ERROR


# --------------------------------------------------------------------------
# residual
# --------------------------------------------------------------------------

def test_residual_manufactured_affine(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["residual", cfg, "--manufactured", "g_affine"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "max_abs=" in out
    val = float(out.split("max_abs=")[1].split()[0])
    assert val <= 1e-8


def test_residual_manufactured_identity_elliptic(tmp_path, capsys):
    cfg = write_config(
        tmp_path, generator={"kind": "quadratic_ot", "params": {}},
        source={"box": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
                "resolution": [32, 32]})
    rc = main(["residual", cfg, "--manufactured", "quadratic_ot_identity"])
    assert rc == EXIT_OK
    assert "ellipticity=elliptic" in capsys.readouterr().out


def test_residual_solution_degenerate(tmp_path, capsys):
    cfg = write_config(tmp_path)
    sol = str(tmp_path / "sol.json")
    main(["solve", cfg, "--out", sol])
    capsys.readouterr()
    rc = main(["residual", cfg, "--solution", sol,
               "--out", str(tmp_path / "field.csv")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "ellipticity=degenerate-elliptic" in out
    assert "masked=" in out
    assert os.path.exists(tmp_path / "field.csv")


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def test_report_csv_schema(tmp_path):
    cfg = write_config(tmp_path)
    sol = str(tmp_path / "sol.json")
    main(["solve", cfg, "--out", sol])
    csv_path = str(tmp_path / "surfaces.csv")
    assert main(["report", sol, "--csv", csv_path]) == EXIT_OK
    lines = open(csv_path).read().splitlines()
    # columns: x1..xn, u, du1..dun, cell, mass = 2n + 3
    assert lines[0] == "x1,x2,u,du1,du2,cell,mass"
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_report_empty_pieces_exits_4(tmp_path):
    cfg = write_config(tmp_path)
    sol = str(tmp_path / "sol.json")
    main(["solve", cfg, "--out", sol])
    doc = json.loads(open(sol).read())
    doc["z"] = []
    (tmp_path / "empty.json").write_text(json.dumps(doc))
    rc = main(["report", str(tmp_path / "empty.json"),
               "--csv", str(tmp_path / "s.csv")])
    assert rc == EXIT_INPUT_ERROR


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------

def test_outputs_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    paths = {}
    for tag in ("a", "b"):
        rep = tmp_path / f"report_{tag}.json"
        sol = tmp_path / f"sol_{tag}.json"
        grid = tmp_path / f"grid_{tag}.csv"
        assert main(["check", cfg, "--out", str(rep)]) == EXIT_OK
        assert main(["solve", cfg, "--out", str(sol),
                     "--grid-out", str(grid)]) == EXIT_OK
        paths[tag] = (rep.read_bytes(), sol.read_bytes(), grid.read_bytes())
    assert paths["a"] == paths["b"]


def test_usage_errors_map_to_input_error():
    assert main(["bogus-command"]) == EXIT_INPUT_ERROR
    assert main(["solve"]) == EXIT_INPUT_ERROR  # missing required args


def test_gjet_threads_env_is_ignored(tmp_path, monkeypatch, capsys):
    # GJET_THREADS is no setting of gjet: it changes neither the exit code
    # nor the report, which carries no threads key
    cfg = write_config(tmp_path)
    monkeypatch.delenv("GJET_THREADS", raising=False)
    assert main(["check", cfg, "--out", str(tmp_path / "a.json")]) == EXIT_OK
    plain = capsys.readouterr().out
    monkeypatch.setenv("GJET_THREADS", "not-a-number")
    assert main(["check", cfg, "--out", str(tmp_path / "b.json")]) == EXIT_OK
    assert capsys.readouterr().out == plain
    report = (tmp_path / "b.json").read_bytes()
    assert report == (tmp_path / "a.json").read_bytes()
    assert "threads" not in json.loads(report)
