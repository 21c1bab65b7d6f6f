"""Command dispatch, exit codes, schema validation, byte-stable outputs."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gjet import cli, conditions, gconvex, genfun
from gjet.cli import (
    EXIT_CONDITION_FAIL,
    EXIT_INPUT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
    resolve_config,
)
from gjet.errors import ConfigError

from conftest import cut_off_two_targets


GRID16 = {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "resolution": [16, 16]}


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


def test_resolve_config_rejects_bisection_keys(tmp_path):
    # the bisection's step count and z tolerance are no solver settings
    raw = json.loads(open(write_config(tmp_path)).read())
    for key, value in (("bisect_steps", 40), ("z_tol", 1e-12)):
        raw["solver"] = {key: value}
        with pytest.raises(ConfigError,
                           match=rf"config.solver: unknown keys \['{key}'\]"):
            resolve_config(raw)


def test_resolve_config_defaults(tmp_path):
    raw = json.loads(open(write_config(tmp_path)).read())
    cfg = resolve_config(raw)
    assert cfg["solver"]["max_sweeps"] == 500
    assert cfg["check"]["fd_step"] == 1e-3
    assert cfg["schema_version"]


@pytest.mark.parametrize("section, key, value, message", [
    (None, "dimension", True, "config.dimension: expected 1, 2 or 3"),
    ("solver", "max_sweeps", True,
     "config.solver.max_sweeps: expected a positive int"),
    ("check", "samples", True, "config.check.samples: expected an int"),
    ("check", "seed", False, "config.check.seed: expected an int"),
], ids=["dimension", "max_sweeps", "samples", "seed"])
def test_resolve_config_rejects_booleans_as_ints(tmp_path, section, key,
                                                 value, message):
    # JSON true and false are ints to Python; a config integer is not
    raw = json.loads(open(write_config(tmp_path)).read())
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert str(err.value) == message


DROP = object()


def _set(path, value):
    """A config edit: value at the dotted path, or the key dropped when
    value is DROP."""
    def edit(raw):
        *parents, key = path.split(".")
        for k in parents:
            raw = raw[k]
        if value is DROP:
            del raw[key]
        else:
            raw[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set("source", DROP), "config: missing keys ['source']"),
    (_set("schema_version", "2.0"), "config.schema_version: expected '1.0'"),
    (_set("generator", "parallel_beam"),
     "config.generator: expected an object"),
    (_set("generator.kind", "beam"),
     "config.generator.kind: expected one of "
     "('quadratic_ot', 'parallel_beam', 'point_source')"),
    (_set("generator", {"kind": "point_source", "params": {"tau": 0.5}}),
     "config.generator.params.tau: must be <= 0"),
    (_set("source.box.lo", [1.0, 0.0]), "config.source.box: lo must be below hi"),
    (_set("source.box.hi", [1.0]),
     "config.source.box.hi: expected a list of 2 numbers"),
    (_set("source.resolution", [16, 1]),
     "config.source.resolution: expected int >= 2 per axis"),
    (_set("targets.points", []), "config.targets.points: expected a nonempty list"),
    (_set("targets.masses", [1.0]),
     "config.targets.masses: one positive mass per point"),
    (_set("targets.masses", [0.5, -0.5]), "config.targets.masses[]: must be positive"),
    (_set("normalization.u0", "0.75"),
     "config.normalization.u0: expected a number"),
    (_set("normalization.u0", math.inf), "config.normalization.u0: must be finite"),
    (_set("check.g3_strict", 1), "config.check.g3_strict: expected a bool"),
    (_set("check.seed", -1), "config.check.seed: expected a non-negative int"),
    (_set("check.y_box", {"lo": [1, 1], "hi": [0, 0]}),
     "config.check.y_box: lo must be below hi"),
    (_set("targets", DROP),
     "solve requires config.targets and config.normalization"),
], ids=["missing", "schema", "object", "kind", "tau", "box", "list",
        "resolution", "points", "masses", "positive", "number", "finite",
        "bool", "negative-seed", "y_box", "no-targets"])
def test_config_errors_exit_4_with_their_message(tmp_path, capsys, edit,
                                                 message):
    raw = json.loads(open(write_config(tmp_path)).read())
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


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


def test_solve_lists_every_missing_anchored_parameter(tmp_path, capsys):
    # the point source has G > 0, so no target attains u0 = -1 at x0
    cfg = write_config(
        tmp_path, generator={"kind": "point_source", "params": {"tau": -1.0}},
        source={"box": {"lo": [-0.4, -0.4], "hi": [0.4, 0.4]},
                "resolution": [16, 16]},
        targets={"points": [[0.2, 0.1], [-0.2, -0.1]], "masses": [0.32, 0.32]},
        normalization={"x0": [0.0, 0.0], "u0": -1.0})
    out = tmp_path / "sol.json"
    assert main(["solve", cfg, "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"validation: InfeasibleBracket: target {i}: anchored parameter does "
        f"not exist (could not bracket the root from above)" for i in (0, 1)]
    assert not out.exists()


def test_solve_repeated_target_exits_4_at_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, targets={
        "points": [[0.25, 0.5], [0.25, 0.5]], "masses": [0.5, 0.5]})
    out = tmp_path / "sol.json"
    assert main(["solve", cfg, "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "validation: InfeasibleBracket: target 1 repeats target 0: their "
        "graphs are ordered on the whole box, so they cannot both own mass"]
    assert not out.exists()


def test_solve_light_target_left_empty_exits_3(tmp_path, capsys):
    # ROADMAP item 13's witness: feasible, but the threshold passes leave
    # the light target 0 empty; exit 3 with the best state, not exit 4
    cfg = write_config(
        tmp_path, generator={"kind": "quadratic_ot"}, dimension=1,
        source={"box": {"lo": [0.0], "hi": [1.0]}, "resolution": 8},
        targets={"points": [[0.6236], [0.4579], [0.6345]],
                 "masses": [0.0568, 0.6779, 0.2653]},
        normalization={"x0": [0.5], "u0": 0.0})
    out = tmp_path / "sol.json"
    assert main(["solve", cfg, "--out", str(out)]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == \
        "solver: threshold passes left 1 targets empty\n"
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["masses"][0] == 0.0 and doc["sweeps"] == 0


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


@pytest.mark.parametrize("constant, value, message", [
    ("TAU_MIN", 1.0, "Newton damping fell below"),
    ("START_PASSES", 1, "threshold passes left 1 targets empty"),
    ("cell_split", cut_off_two_targets(gconvex.cell_split),
     "singular Newton system at step 1"),
], ids=["damping", "empty-target", "singular"])
def test_solve_no_convergence_writes_the_best_state(tmp_path, capsys,
                                                    monkeypatch, constant,
                                                    value, message):
    # each NoConvergence route of the solver: exit 3, and the best state
    # written with converged false
    from gjet import semidiscrete

    monkeypatch.setattr(semidiscrete, constant, value)
    points = np.random.default_rng(2).uniform(0.0, 1.0, (16, 2)).tolist()
    cfg = write_config(tmp_path, source=GRID16, targets={
        "points": points, "masses": [1.0 / 16] * 16})
    sol = tmp_path / "sol.json"
    assert main(["solve", cfg, "--out", str(sol)]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith("solver: " + message)
    doc = json.loads(sol.read_text())
    assert doc["converged"] is False
    assert len(doc["z"]) == 16 and doc["sweeps"] == 0


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


@pytest.mark.parametrize("text", ["null", '"config z kind"'],
                         ids=["null", "string"])
@pytest.mark.parametrize("command", ["report", "transform", "residual"])
def test_solution_file_not_an_object_exits_4(tmp_path, capsys, command, text):
    path = tmp_path / "sol.json"
    path.write_text(text)
    out = str(tmp_path / "out")
    argv = {"report": ["report", str(path), "--csv", out],
            "transform": ["transform", str(path), "--out", out],
            "residual": ["residual", write_config(tmp_path),
                         "--solution", str(path)]}[command]
    assert main(argv) == EXIT_INPUT_ERROR
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("z0", [1.5, -0.5])
@pytest.mark.parametrize("command", ["report", "transform", "residual"])
def test_solution_leaving_its_interval_exits_4(tmp_path, capsys, command, z0):
    # the beam's I(x, y) is (0, 1/r): z0 leaves it on the grid
    cfg = write_config(tmp_path)
    path = tmp_path / "sol.json"
    assert main(["solve", cfg, "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["z"][0] = z0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = str(tmp_path / "out")
    argv = {"report": ["report", str(path), "--csv", out],
            "transform": ["transform", str(path), "--out", out],
            "residual": ["residual", cfg, "--solution", str(path)]}[command]
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"input error: piece 0: focal parameter {z0} leaves its admissible "
        f"interval on the grid\n")
    assert not os.path.exists(out)


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


def test_residual_on_a_two_node_axis_is_an_empty_field(tmp_path, capsys):
    # a 2-node axis leaves no margin-1 interior: every node is NaN
    cfg = write_config(
        tmp_path, generator={"kind": "quadratic_ot", "params": {}},
        source={"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                "resolution": [2, 8]})
    field = tmp_path / "field.csv"
    assert main(["residual", cfg, "--manufactured", "quadratic_ot_identity",
                 "--out", str(field)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "residual: max_abs=nan ellipticity=inconclusive masked=0\n")
    rows = field.read_text().splitlines()
    assert len(rows) == 17 and all(r.endswith(",nan,nan") for r in rows[1:])


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


@pytest.mark.parametrize("argv", [["--manufactured", "g_affine"],
                                  ["--solution", "sol.json"]],
                         ids=["manufactured", "solution"])
def test_residual_solves_the_forward_map_once(tmp_path, capsys, monkeypatch,
                                              argv):
    # the Monge-Ampere residual and the ellipticity field come from one
    # linearization: one forward solve over the nodes it reads, the
    # margin-1 interior outside the kink mask of a solution
    cfg = write_config(tmp_path, source=GRID16)
    assert main(["solve", cfg, "--out", str(tmp_path / "sol.json")]) == EXIT_OK
    monkeypatch.chdir(tmp_path)
    excl = np.zeros((16, 16), dtype=bool)
    if argv[0] == "--solution":
        _cfg, _base, grid, sol = cli._state_from_file("sol.json")
        excl = gconvex.interface_mask(
            grid, np.argmax(gconvex.values_matrix(sol, grid), axis=0), widen=1)
    read = int((~excl[1:-1, 1:-1]).sum())
    rows = []
    forward = genfun._forward_rows
    monkeypatch.setattr(genfun, "_forward_rows", lambda gf, xs, *a, **k:
                        rows.append(len(xs)) or forward(gf, xs, *a, **k))
    assert main(["residual", cfg, *argv, "--out", "field.csv"]) == EXIT_OK
    assert rows == [read]
    assert read <= 14 * 14


@pytest.mark.parametrize("key, edit", [
    ("generator", {"generator": {"kind": "point_source",
                                 "params": {"tau": -1.0}},
                   "source": {"box": {"lo": [-0.4, -0.4], "hi": [0.4, 0.4]},
                              "resolution": 32}}),
    ("dimension", {"dimension": 1,
                   "source": {"box": {"lo": [0.0], "hi": [1.0]},
                              "resolution": 16},
                   "targets": {"points": [[0.25], [0.75]],
                               "masses": [0.5, 0.5]},
                   "normalization": {"x0": [0.5], "u0": 0.75}}),
    ("source", {"source": dict(GRID16, resolution=[16, 32])}),
], ids=["generator", "dimension", "source"])
def test_residual_requires_the_solutions_config(tmp_path, capsys, key, edit):
    # the residual of a solution is taken on the solution's own generator
    # and grid; a config that names others is an input error
    cfg = write_config(tmp_path, source=GRID16)
    sol = str(tmp_path / "sol.json")
    assert main(["solve", cfg, "--out", sol]) == EXIT_OK
    other = write_config(tmp_path, "other.json", **edit)
    field = tmp_path / "field.csv"
    capsys.readouterr()
    assert main(["residual", other, "--solution", sol, "--out", str(field)]) \
        == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"input error: config.{key} differs from the one in solution file "
        f"{sol}\n")
    assert not field.exists()


def test_residual_takes_the_solutions_config_in_any_spelling(tmp_path, capsys):
    # resolved configs are compared: the integer resolution shorthand, and
    # keys residual does not read (targets), do not count
    cfg = write_config(tmp_path, source=GRID16)
    sol = str(tmp_path / "sol.json")
    assert main(["solve", cfg, "--out", sol]) == EXIT_OK
    same = write_config(tmp_path, "same.json",
                        source=dict(GRID16, resolution=16),
                        targets={"points": [[0.5, 0.5]], "masses": [1.0]})
    outputs = []
    for path in (cfg, same):
        capsys.readouterr()
        field = tmp_path / "field.csv"
        assert main(["residual", path, "--solution", sol,
                     "--out", str(field)]) == EXIT_OK
        outputs.append((capsys.readouterr().out, field.read_bytes()))
    assert outputs[0] == outputs[1]


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


def test_solve_validates_once_and_report_evaluates_once(tmp_path, monkeypatch):
    # one row call for the anchored parameters of all targets, one
    # piece-value matrix per report
    from gjet import gconvex, genfun

    cfg = write_config(tmp_path)
    sol = str(tmp_path / "sol.json")
    anchors = count_calls(monkeypatch, genfun, "dual_H_rows")
    assert main(["solve", cfg, "--out", sol]) == EXIT_OK
    assert len(anchors) == 1
    matrices = count_calls(monkeypatch, gconvex, "values_matrix")
    assert main(["report", sol, "--csv", str(tmp_path / "r.csv")]) == EXIT_OK
    assert len(matrices) == 1


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


# --------------------------------------------------------------------------
# CLI paths: density CSV, y-box, check without targets, residual field
# --------------------------------------------------------------------------

def test_solve_follows_a_density_csv(tmp_path):
    # density 1 + 3 x1 on the unit square: total mass 2.5, and the
    # quadratic cells of two targets split at the line x1 = s with
    # s + 1.5 s^2 = 1.25, s = 0.638, where a uniform density splits at 0.5
    grid = gconvex.SourceGrid([0.0, 0.0], [1.0, 1.0], [16, 16])
    np.savetxt(tmp_path / "density.csv",
               (1.0 + 3.0 * grid.centers[:, 0]).reshape(16, 16), delimiter=",")
    cfg = write_config(
        tmp_path, generator={"kind": "quadratic_ot", "params": {}},
        source=dict(GRID16, density={"csv": "density.csv"}),
        targets={"points": [[0.25, 0.5], [0.75, 0.5]], "masses": [1.25, 1.25]},
        normalization={"x0": [0.5, 0.5], "u0": 0.0})
    sol, grid_csv = str(tmp_path / "sol.json"), str(tmp_path / "grid.csv")
    assert main(["solve", cfg, "--out", sol, "--grid-out", grid_csv]) == EXIT_OK
    assert np.allclose(json.loads(open(sol).read())["masses"], 1.25, rtol=1e-3)
    cells = np.loadtxt(grid_csv, delimiter=",", skiprows=1)[:, -1]
    cells = cells.reshape(16, 16)
    assert (cells == cells[:, :1]).all()
    edge = np.flatnonzero(np.diff(cells[:, 0]))
    s = (-1.0 + np.sqrt(1.0 + 7.5)) / 3.0
    assert len(edge) == 1 and abs((edge[0] + 1) / 16 - s) <= 1.0 / 16


def test_a_solution_elsewhere_reads_its_density_csv(tmp_path, capsys):
    # a solution records its density csv path from its own directory: one
    # written away from its config reads back, and its readers write the
    # bytes they write for one next to the config
    cfg_dir, out_dir = tmp_path / "cfg", tmp_path / "out"
    cfg_dir.mkdir()
    out_dir.mkdir()
    grid = gconvex.SourceGrid([0.0, 0.0], [1.0, 1.0], [16, 16])
    density = (1.0 + 3.0 * grid.centers[:, 0]).reshape(16, 16)
    for name in ("dens.csv", "other.csv"):
        np.savetxt(cfg_dir / name, density, delimiter=",")
    fields = dict(generator={"kind": "quadratic_ot", "params": {}},
                  targets={"points": [[0.25, 0.5], [0.75, 0.5]],
                           "masses": [1.25, 1.25]},
                  normalization={"x0": [0.5, 0.5], "u0": 0.0})
    cfg = write_config(cfg_dir, source=dict(GRID16, density={"csv": "dens.csv"}),
                       **fields)
    outputs = []
    for where in (cfg_dir, out_dir):
        sol = str(where / "sol.json")
        assert main(["solve", cfg, "--out", sol]) == EXIT_OK
        assert main(["report", sol, "--csv", str(tmp_path / "report.csv")]) \
            == EXIT_OK
        assert main(["transform", sol, "--out", str(tmp_path / "dual.json")]) \
            == EXIT_OK
        assert main(["residual", cfg, "--solution", sol,
                     "--out", str(tmp_path / "field.csv")]) == EXIT_OK
        outputs.append([capsys.readouterr().out] + [
            (tmp_path / name).read_bytes()
            for name in ("report.csv", "dual.json", "field.csv")])
    assert outputs[0] == outputs[1]
    recorded = [json.loads((where / "sol.json").read_text())["config"]
                ["source"]["density"] for where in (cfg_dir, out_dir)]
    assert recorded == [{"csv": "dens.csv"},
                        {"csv": os.path.join("..", "cfg", "dens.csv")}]
    # another file with the same values is another source
    other = write_config(cfg_dir, name="other.json",
                         source=dict(GRID16, density={"csv": "other.csv"}),
                         **fields)
    assert main(["residual", other, "--solution", str(out_dir / "sol.json")]) \
        == EXIT_INPUT_ERROR
    assert "config.source differs" in capsys.readouterr().err


def test_density_csv_errors_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, source=dict(GRID16, density={"csv": "d.csv"}))
    out = str(tmp_path / "sol.json")
    assert main(["solve", cfg, "--out", out]) == EXIT_INPUT_ERROR
    assert "file not found" in capsys.readouterr().err
    np.savetxt(tmp_path / "d.csv", np.ones((4, 4)), delimiter=",")
    assert main(["solve", cfg, "--out", out]) == EXIT_INPUT_ERROR
    assert "could not load density csv" in capsys.readouterr().err


def test_check_reads_the_y_box(tmp_path):
    # the y-box of the sample plan: stated as the box the targets give,
    # the results repeat; a smaller box moves them
    results = []
    for tag, y_box in (("derived", None),
                       ("stated", {"lo": [0.0, 0.25], "hi": [1.0, 0.75]}),
                       ("small", {"lo": [0.4, 0.4], "hi": [0.6, 0.6]})):
        check = {"samples": 25, "seed": 11}
        if y_box is not None:
            check["y_box"] = y_box
        cfg = write_config(tmp_path, name=f"{tag}.json", source=GRID16,
                           check=check)
        out = tmp_path / f"{tag}_report.json"
        assert main(["check", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["check"].get("y_box") == y_box
        results.append(doc["results"])
    assert results[1] == results[0]
    assert results[2] != results[0]


def test_cli_reads_no_generator_name():
    # what differs between generators is the generator's to say (its
    # g5_bound, for one): the commands never test which one they run
    tree = ast.parse(inspect.getsource(cli))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "name"]


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_json_outputs_are_strict(tmp_path):
    # every JSON file the commands write parses with a parser that rejects
    # NaN and Infinity; a non-finite value is written as null
    beam1 = write_config(
        tmp_path, "beam1.json", dimension=1,
        source={"box": {"lo": [0.0], "hi": [1.0]}, "resolution": 16},
        targets={"points": [[0.25], [0.75]], "masses": [0.5, 0.5]},
        normalization={"x0": [0.5], "u0": 0.75})
    q3 = write_config(
        tmp_path, "q3.json", generator={"kind": "quadratic_ot"}, dimension=3,
        source={"box": {"lo": [0.0] * 3, "hi": [1.0] * 3}, "resolution": 4},
        targets={"points": [[0.3, 0.4, 0.5], [0.7, 0.6, 0.5]],
                 "masses": [0.5, 0.5]},
        normalization={"x0": [0.5] * 3, "u0": 0.0})
    ps2 = write_config(
        tmp_path, "ps2.json",
        generator={"kind": "point_source", "params": {"tau": -1.0}},
        source={"box": {"lo": [-0.4, -0.4], "hi": [0.4, 0.4]},
                "resolution": 16})
    out = {name: str(tmp_path / f"{name}_report.json")
           for name in ("beam1", "q3", "ps2")}
    for name, cfg in (("beam1", beam1), ("q3", q3), ("ps2", ps2)):
        assert main(["check", cfg, "--out", out[name]]) \
            in (EXIT_OK, EXIT_CONDITION_FAIL)
    sol, dual = str(tmp_path / "sol.json"), str(tmp_path / "dual.json")
    assert main(["solve", beam1, "--out", sol]) == EXIT_OK
    assert main(["transform", sol, "--out", dual]) == EXIT_OK
    docs = {path: _strict_json(path) for path in [*out.values(), sol, dual]}
    # the values that used to be written as -Infinity and Infinity
    assert docs[out["q3"]]["results"]["G5"]["details"]["m0"] is None
    g3 = docs[out["beam1"]]["results"]["G3"]
    assert g3["extremal_value"] is None
    assert g3["details"]["min_primal"] is None
    assert g3["details"]["min_dual"] is None


def test_jsonable_writes_non_finite_floats_as_null():
    doc = genfun.jsonable({"a": math.nan, "b": [1.5, -math.inf, np.inf],
                           "c": np.array([np.nan, 2.0]), "d": np.float64(3.0),
                           "e": (math.inf, 4), 5: np.int64(6)})
    assert doc == {"a": None, "b": [1.5, None, None], "c": [None, 2.0],
                   "d": 3.0, "e": [None, 4], "5": 6}
    assert json.dumps(doc, allow_nan=False)


def test_check_without_targets_takes_g5_targets_from_y_box_corners(tmp_path):
    cfg = write_config(tmp_path, source=GRID16)
    raw = json.loads(open(cfg).read())
    del raw["targets"]
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    assert main(["check", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    # without targets or a y-box the y-box is the source box
    box = ([0.0, 0.0], [1.0, 1.0])
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    spec = conditions.SampleSpec(25, 11, (0.0, 0.0), (1.0, 1.0),
                                 (0.0, 0.0), (1.0, 1.0))
    ref = conditions.check_G5(genfun.ParallelBeam(2), box, corners, spec)
    assert doc["results"]["G5"] == json.loads(json.dumps(ref.to_jsonable()))


def test_residual_out_writes_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, source=GRID16)
    sol = str(tmp_path / "sol.json")
    assert main(["solve", cfg, "--out", sol]) == EXIT_OK
    capsys.readouterr()
    field = tmp_path / "field.csv"
    assert main(["residual", cfg, "--solution", sol, "--out", str(field)]) \
        == EXIT_OK
    masked = int(capsys.readouterr().out.split("masked=")[1])
    lines = field.read_text().splitlines()
    assert lines[0] == "x1,x2,residual,min_eig"
    assert len(lines) == 1 + 16 * 16
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    grid = gconvex.SourceGrid([0.0, 0.0], [1.0, 1.0], [16, 16])
    assert np.array_equal(rows[:, :2], grid.centers)
    # NaN on the one-node margin and on the nodes next to a kink, in both
    # fields
    nan = np.isnan(rows[:, 2])
    margin = ((grid.centers < 1.0 / 16) | (grid.centers > 15.0 / 16)).any(axis=1)
    assert nan[margin].all()
    assert nan.sum() == margin.sum() + masked
    assert np.array_equal(np.isnan(rows[:, 3]), nan)
    assert all(line.split(",")[2] == "nan"
               for line, bad in zip(lines[1:], nan) if bad)


# --------------------------------------------------------------------------
# CSV bytes
# --------------------------------------------------------------------------

def _fmt(v):
    return "%.17g" % float(v)


def reference_grid_csv(sol, grid, u, dec, with_mass=False):
    """The per-cell formatter that the one-format writer replaced: the
    grid CSV text, each value through '%.17g' % float(v)."""
    assignment = dec.assignment
    du = np.empty((grid.size, grid.n))
    for i in range(len(sol.zs)):
        mask = assignment == i
        if mask.any():
            du[mask] = sol.gf.bundle_batch(grid.centers[mask], sol.ys[i],
                                           sol.zs[i]).grad_x
    n = grid.n
    header = [f"x{k + 1}" for k in range(n)] + ["u"] \
        + [f"du{k + 1}" for k in range(n)] + ["cell"]
    if with_mass:
        header.append("mass")
    tails = [f"{i},{_fmt(m)}" if with_mass else str(i)
             for i, m in enumerate(dec.masses)]
    lines = [",".join(header)]
    for k in range(grid.size):
        row = [_fmt(c) for c in grid.centers[k]] + [_fmt(u[k])] \
            + [_fmt(d) for d in du[k]] + [tails[assignment[k]]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_mass", [False, True], ids=["grid", "report"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_csv_bytes_match_the_per_cell_formatter(tmp_path, dim, with_mass):
    res = [9, 6, 5][:dim]
    grid = gconvex.SourceGrid([-0.5] * dim, [0.7] * dim, res)
    rng = np.random.default_rng(dim)
    ys = [rng.uniform(-1.0, 1.0, dim) for _ in range(3)]
    sol = gconvex.PiecewiseGSolution(genfun.QuadraticOT(dim), ys,
                                     [0.0, 0.1, -0.07])
    vals = gconvex.values_matrix(sol, grid)
    dec = gconvex.CellDecomposition(
        *gconvex.cell_split(sol.gf, sol.ys, sol.zs, grid, vals)[:2])
    u = vals.max(axis=0)
    path = tmp_path / "grid.csv"
    cli._write_grid_csv(str(path), sol, grid, u, dec, with_mass=with_mass)
    assert path.read_bytes() == reference_grid_csv(
        sol, grid, u, dec, with_mass).encode()


def test_field_csv_bytes_match_the_per_cell_formatter(tmp_path):
    # the residual field's rows: NaN rows, an infinity, a negative zero,
    # integral and extreme values
    grid = gconvex.SourceGrid([-1.0, 0.0], [1.0, 3.0], [4, 3])
    rng = np.random.default_rng(5)
    rv = rng.normal(size=grid.size) * 10.0 ** rng.integers(-300, 300, grid.size)
    ev = rng.normal(size=grid.size)
    rv[[0, 3, 7]] = np.nan
    ev[[0, 3, 7]] = np.nan
    rv[1], ev[1], rv[2], ev[2] = -0.0, 3.0, np.inf, -np.inf
    header = ["x1", "x2", "residual", "min_eig"]
    path = tmp_path / "field.csv"
    cli._write_csv(str(path), grid, ["residual", "min_eig"], [rv, ev])
    lines = [",".join(header)] + [
        ",".join([_fmt(c) for c in grid.centers[k]] + [_fmt(rv[k]), _fmt(ev[k])])
        for k in range(grid.size)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert path.read_text().count(",nan,nan\n") == 3


def one_string_csv(path, grid, names, columns):
    """The writer that formatted the whole table as one string: the
    reference for the block writer's bytes."""
    header = [f"x{k + 1}" for k in range(grid.n)] + names
    table = np.column_stack([grid.centers, *columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def grid_columns(res, seed=3):
    """Columns shaped as the grid CSV's u, du, cell and mass on a res^2
    grid, with NaN, infinite, negative-zero and integral values."""
    grid = gconvex.SourceGrid([-1.0, 0.0], [1.0, 3.0], [res, res])
    rng = np.random.default_rng(seed)
    u = rng.normal(size=grid.size) * 10.0 ** rng.integers(-300, 300, grid.size)
    u[[0, 5, 9]] = np.nan, np.inf, -0.0
    cell = rng.integers(0, 16, grid.size)
    return grid, ["u", "du1", "du2", "cell", "mass"], \
        [u, rng.normal(size=(grid.size, 2)), cell, rng.random(16)[cell]]


def test_csv_blocks_write_the_one_string_bytes(tmp_path):
    # 45^2 rows: one full block and a partial one
    grid, names, columns = grid_columns(45)
    assert cli.CSV_BLOCK < grid.size < 2 * cli.CSV_BLOCK
    cli._write_csv(str(tmp_path / "blocks.csv"), grid, names, columns)
    one_string_csv(str(tmp_path / "one.csv"), grid, names, columns)
    assert (tmp_path / "blocks.csv").read_bytes() \
        == (tmp_path / "one.csv").read_bytes()


def test_csv_writer_memory_does_not_grow_with_the_grid(tmp_path):
    # the one-string writer peaked at 7.4 MB of allocations at 128^2 and
    # 29.5 MB at 256^2
    import tracemalloc

    peaks = []
    for res in (128, 256):
        grid, names, columns = grid_columns(res)
        tracemalloc.start()
        try:
            cli._write_csv(str(tmp_path / "grid.csv"), grid, names, columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def run_python(code):
    """stdout of a fresh interpreter that runs code with this gjet."""
    import gjet

    src = os.path.dirname(os.path.dirname(gjet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, timeout=120, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_solve_and_report_load_no_numpy_ma(tmp_path):
    # numpy.unique imports numpy.ma (three modules) under numpy 2; the
    # solver's band loop takes its distinct counts without it
    if run_python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("a bare import numpy loads numpy.ma")
    cfg = write_config(tmp_path, source=GRID16)
    sol, csv_path = tmp_path / "sol.json", tmp_path / "surfaces.csv"
    for argv in (["solve", cfg, "--out", str(sol), "--grid-out",
                  str(tmp_path / "grid.csv")],
                 ["report", str(sol), "--csv", str(csv_path)]):
        out = run_python(f"""
            import sys
            from gjet.cli import main
            assert main({argv!r}) == 0
            print(sorted(m for m in sys.modules
                         if m == "numpy.ma" or m.startswith("numpy.ma.")))
        """)
        assert out.splitlines()[-1] == "[]", argv


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # without a bytecode cache a process compiles every module it imports,
    # so each command imports the gjet modules it runs and no others
    cfg = write_config(tmp_path, source=GRID16)
    sol = str(tmp_path / "sol.json")
    runs = [
        (["check", cfg, "--out", str(tmp_path / "report.json")], (0, 2),
         {"semidiscrete", "gconvex", "madiag"}),
        (["solve", cfg, "--out", sol, "--grid-out", str(tmp_path / "grid.csv")],
         (0,), {"conditions", "madiag"}),
        (["transform", sol, "--out", str(tmp_path / "dual.json")], (0,),
         {"conditions", "madiag", "semidiscrete"}),
        (["report", sol, "--csv", str(tmp_path / "surfaces.csv")], (0,),
         {"conditions", "madiag", "semidiscrete"}),
        (["residual", cfg, "--solution", sol], (0,),
         {"conditions", "semidiscrete"}),
        (["residual", cfg, "--manufactured", "g_affine"], (0,),
         {"conditions", "semidiscrete"}),
    ]
    for argv, codes, absent in runs:
        out = run_python(f"""
            import sys
            from gjet.cli import main
            print(main({argv!r}))
            print(" ".join(sorted(m for m in sys.modules if m.startswith("gjet."))))
        """)
        rc, loaded = out.splitlines()[-2:]
        assert int(rc) in codes, argv
        assert "gjet.cli" in loaded.split(), argv
        assert not {"gjet." + m for m in absent} & set(loaded.split()), argv


def test_manufactured_choices_parse_and_print_unchanged(tmp_path, capsys,
                                                         monkeypatch):
    # the parser reads madiag.MANUFACTURED_NAMES only when it tests or
    # prints a choice; its usage error and help are argparse's own
    from gjet import madiag

    monkeypatch.setenv("COLUMNS", "80")
    cfg = write_config(tmp_path)
    assert main(["residual", cfg, "--manufactured", "bogus"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "usage: gjet residual [-h]\n"
        "                     (--solution SOLUTION | --manufactured "
        "{g_affine,quadratic_ot_identity,quadratic_ot_cosh})\n"
        "                     [--out OUT]\n"
        "                     config\n"
        "gjet residual: error: argument --manufactured: invalid choice: "
        "'bogus' (choose from 'g_affine', 'quadratic_ot_identity', "
        "'quadratic_ot_cosh')\n")
    assert main(["--help"]) == EXIT_OK
    assert "{check,solve,transform,residual,report}" in capsys.readouterr().out
    assert main(["residual", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "--manufactured {g_affine,quadratic_ot_identity,quadratic_ot_cosh}" in out
    assert madiag.MANUFACTURED_NAMES == ("g_affine", "quadratic_ot_identity",
                                         "quadratic_ot_cosh")
