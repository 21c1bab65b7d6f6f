"""Command-line interface: config ingestion, dispatch, stable outputs.

Commands
--------
  gjet check     <config.json> --out report.json
  gjet solve     <config.json> --out sol.json [--grid-out grid.csv]
  gjet transform <sol.json>    --out dual.json
  gjet residual  <config.json> (--solution sol.json | --manufactured NAME)
                 [--out field.csv]
  gjet report    <sol.json>    --csv surfaces.csv

Exit codes: 0 success, 2 condition failure, 3 solver non-convergence,
4 input error.  Nothing else.

All JSON outputs are strict JSON (a non-finite float is written as null)
and carry a schema_version and the fully resolved config so a run can be
reproduced from its artifacts alone.  CSV files are
RFC-4180 with '.' decimals, LF line endings and 17-significant-digit
floats; grid rows are ordered x1..xn, u, du1..dun, cell.  Outputs are
byte-stable for identical config and seed.  Each command imports the
modules it runs, so that a process compiles only its command's code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import genfun
from .errors import ConfigError, GjetError, NoConvergence

if TYPE_CHECKING:
    from . import conditions, gconvex, semidiscrete

SCHEMA_VERSION = "1.0"

EXIT_OK = 0
EXIT_CONDITION_FAIL = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INPUT_ERROR = 4

CSV_BLOCK = 1024  # grid CSV rows formatted per write


# --------------------------------------------------------------------------
# config schema
# --------------------------------------------------------------------------

_GENERATORS = {"quadratic_ot": genfun.QuadraticOT,
               "parallel_beam": genfun.ParallelBeam,
               "point_source": genfun.PointSourcePlane}

_DEFAULT_CHECK = {"samples": 200, "seed": 1234,
                  "fd_step": genfun.TENSOR_STEP, "g3_strict": False}
_DEFAULT_SOLVER = dataclasses.asdict(genfun.SolverTolerances())


def _require_keys(obj: dict, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _is_int(obj) -> bool:
    # JSON true and false are Python ints, but no config integer
    return isinstance(obj, int) and not isinstance(obj, bool)


def _num(obj, where, positive=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    v = float(obj)
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite")
    if positive and v <= 0:
        raise ConfigError(f"{where}: must be positive")
    return v


def _vec_list(obj, where, dim):
    if not isinstance(obj, list) or len(obj) != dim:
        raise ConfigError(f"{where}: expected a list of {dim} numbers")
    return [_num(v, where) for v in obj]


def _box(obj, where, dim, name):
    """A {"lo", "hi"} box with lo below hi on every axis; name prefixes
    the messages about either end."""
    _require_keys(obj, where, ("lo", "hi"))
    box = {e: _vec_list(obj[e], f"{name}.{e}", dim) for e in ("lo", "hi")}
    if any(a >= b for a, b in zip(box["lo"], box["hi"])):
        raise ConfigError(f"{where}: lo must be below hi")
    return box


def resolve_config(raw: dict, base_dir: str = ".") -> dict:
    """Validate a raw config dict and fill defaults; rejects unknown keys."""
    _require_keys(raw, "config",
                  ("generator", "dimension", "source"),
                  ("targets", "normalization", "solver", "check",
                   "schema_version"))
    if "schema_version" in raw and raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION!r}")
    dim = raw["dimension"]
    if not _is_int(dim) or dim not in (1, 2, 3):
        raise ConfigError("config.dimension: expected 1, 2 or 3")

    gen = raw["generator"]
    _require_keys(gen, "config.generator", ("kind",), ("params",))
    kinds = tuple(_GENERATORS)  # a tuple: an unhashable kind is no error
    if gen["kind"] not in kinds:
        raise ConfigError(f"config.generator.kind: expected one of {kinds}")
    params = gen.get("params", {})
    if gen["kind"] == "point_source":
        _require_keys(params, "config.generator.params", (), ("tau",))
        params = {"tau": _num(params.get("tau", 0.0), "tau")}
        if params["tau"] > 0:
            raise ConfigError("config.generator.params.tau: must be <= 0")
    else:
        _require_keys(params, "config.generator.params", ())
        params = {}

    src = raw["source"]
    _require_keys(src, "config.source", ("box", "resolution"), ("density",))
    box = _box(src["box"], "config.source.box", dim, "config.source.box")
    res = src["resolution"]
    if _is_int(res):
        res = [res] * dim
    if (not isinstance(res, list) or len(res) != dim
            or any(not _is_int(r) or r < 2 for r in res)):
        raise ConfigError("config.source.resolution: expected int >= 2 per axis")
    density = src.get("density", "uniform")
    if density != "uniform":
        _require_keys(density, "config.source.density", ("csv",))
        path = os.path.join(base_dir, density["csv"])
        if not os.path.exists(path):
            raise ConfigError(f"config.source.density.csv: file not found: {path}")
        density = {"csv": density["csv"]}

    out = {
        "schema_version": SCHEMA_VERSION,
        "generator": {"kind": gen["kind"], "params": params},
        "dimension": dim,
        "source": {"box": box, "resolution": res, "density": density},
    }

    if "targets" in raw:
        tg = raw["targets"]
        _require_keys(tg, "config.targets", ("points", "masses"))
        pts = tg["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError("config.targets.points: expected a nonempty list")
        pts = [_vec_list(p, "config.targets.points[]", dim) for p in pts]
        ms = tg["masses"]
        if not isinstance(ms, list) or len(ms) != len(pts):
            raise ConfigError("config.targets.masses: one positive mass per point")
        ms = [_num(v, "config.targets.masses[]", positive=True) for v in ms]
        out["targets"] = {"points": pts, "masses": ms}

    if "normalization" in raw:
        nm = raw["normalization"]
        _require_keys(nm, "config.normalization", ("x0", "u0"))
        out["normalization"] = {
            "x0": _vec_list(nm["x0"], "config.normalization.x0", dim),
            "u0": _num(nm["u0"], "config.normalization.u0")}

    solver = dict(_DEFAULT_SOLVER)
    if "solver" in raw:
        _require_keys(raw["solver"], "config.solver", (),
                      tuple(_DEFAULT_SOLVER))
        for k, v in raw["solver"].items():
            if k == "max_sweeps":
                if not _is_int(v) or v <= 0:
                    raise ConfigError(f"config.solver.{k}: expected a positive int")
                solver[k] = v
            elif k == "anchor_tol" and v is None:
                solver[k] = None
            else:
                solver[k] = _num(v, f"config.solver.{k}", positive=True)
    out["solver"] = solver

    check = dict(_DEFAULT_CHECK)
    if "check" in raw:
        _require_keys(raw["check"], "config.check", (),
                      tuple(_DEFAULT_CHECK) + ("y_box",))
        for k, v in raw["check"].items():
            if k in ("samples", "seed"):
                if not _is_int(v) or (k == "samples" and v <= 0):
                    raise ConfigError(f"config.check.{k}: expected an int")
                if v < 0:
                    raise ConfigError(
                        "config.check.seed: expected a non-negative int")
                check[k] = v
            elif k == "g3_strict":
                if not isinstance(v, bool):
                    raise ConfigError("config.check.g3_strict: expected a bool")
                check[k] = v
            elif k == "y_box":
                check[k] = _box(v, "config.check.y_box", dim, "y_box")
            else:
                check[k] = _num(v, f"config.check.{k}", positive=True)
    out["check"] = check
    return out


def build_generator(cfg: dict) -> genfun.GeneratingFunction:
    gen = cfg["generator"]
    return _GENERATORS[gen["kind"]](cfg["dimension"], **gen["params"])


def build_grid(cfg: dict, base_dir: str = ".") -> gconvex.SourceGrid:
    from . import gconvex
    src = cfg["source"]
    density = None
    if src["density"] != "uniform":
        path = os.path.join(base_dir, src["density"]["csv"])
        try:
            density = np.loadtxt(path, delimiter=",").reshape(src["resolution"])
        except Exception as exc:
            raise ConfigError(f"could not load density csv: {exc}")
    return gconvex.SourceGrid(src["box"]["lo"], src["box"]["hi"],
                              src["resolution"], density)


def _require_targets(cfg: dict) -> None:
    if "targets" not in cfg or "normalization" not in cfg:
        raise ConfigError("solve requires config.targets and config.normalization")


def build_problem(cfg: dict, base_dir: str = ".") -> semidiscrete.SemiDiscreteProblem:
    from . import semidiscrete
    _require_targets(cfg)
    gf = build_generator(cfg)
    grid = build_grid(cfg, base_dir)
    return semidiscrete.SemiDiscreteProblem(
        gf, grid, cfg["targets"]["points"], cfg["targets"]["masses"],
        (cfg["normalization"]["x0"], cfg["normalization"]["u0"]),
        tolerances=genfun.SolverTolerances(**cfg["solver"]))


# --------------------------------------------------------------------------
# io helpers
# --------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _write_doc(path: str, kind: str, cfg: dict, base: str, **fields) -> None:
    """The JSON document at path: schema_version, kind, the config as the
    file at path records it, and fields, with sorted keys."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind,
           "config": _config_at(cfg, base, path), **fields}
    text = json.dumps(genfun.jsonable(doc), sort_keys=True, indent=2,
                      allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"could not read JSON file {path}: {exc}")


def _load_config(path: str, doc: dict = None) -> tuple:
    """(config, base directory): the resolved config read from the JSON
    file at path, or found under "config" in doc, the document read from
    it; relative paths in the config start at the file's directory."""
    base = os.path.dirname(path) or "."
    raw = _load_json(path) if doc is None else doc["config"]
    return resolve_config(raw, base), base


def _config_at(cfg: dict, base: str, path: str) -> dict:
    """cfg, whose relative paths start at the directory base, as the file
    at path records it: with the density csv path from path's directory."""
    density = cfg["source"]["density"]
    if density != "uniform":
        density = {"csv": os.path.relpath(os.path.join(base, density["csv"]),
                                          os.path.dirname(path) or ".")}
    return {**cfg, "source": {**cfg["source"], "density": density}}


def _write_csv(path: str, grid: gconvex.SourceGrid, names: list,
               columns: list) -> None:
    """A header, then one line per grid node: x1..xn and the named columns,
    every value as '%.17g' (an integral value prints without a point).
    Rows are formatted CSV_BLOCK at a time, so the memory the text takes
    does not grow with the grid."""
    header = [f"x{k + 1}" for k in range(grid.n)] + names
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(0, grid.size, CSV_BLOCK):
            table = np.column_stack(
                [c[k:k + CSV_BLOCK] for c in (grid.centers, *columns)])
            row = ",".join(["%.17g"] * table.shape[1]) + "\n"
            fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def _write_grid_csv(path, sol, grid, u, dec, with_mass=False):
    """Rows x1..xn, u, du1..dun, cell[, mass] for every grid node of the
    solution sol with values u and cells dec."""
    assignment = dec.assignment
    du = sol.gf.bundle_batch(grid.centers, sol.ys[assignment],
                             sol.zs[assignment]).grad_x
    names = ["u"] + [f"du{k + 1}" for k in range(grid.n)] + ["cell"]
    columns = [u, du, assignment]
    if with_mass:
        names.append("mass")
        columns.append(dec.masses[assignment])
    _write_csv(path, grid, names, columns)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _sample_spec_from(cfg: dict) -> conditions.SampleSpec:
    from . import conditions
    box = cfg["source"]["box"]
    check = cfg["check"]
    if "y_box" in check:
        y_lo, y_hi = check["y_box"]["lo"], check["y_box"]["hi"]
    elif "targets" in cfg:
        pts = np.asarray(cfg["targets"]["points"], dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        pad = 0.25 * np.maximum(hi - lo, 1.0)
        y_lo, y_hi = (lo - pad).tolist(), (hi + pad).tolist()
    else:
        y_lo, y_hi = box["lo"], box["hi"]
    return conditions.SampleSpec(
        count=check["samples"], seed=check["seed"],
        x_lo=tuple(box["lo"]), x_hi=tuple(box["hi"]),
        y_lo=tuple(y_lo), y_hi=tuple(y_hi))


def cmd_check(args) -> int:
    from . import conditions
    cfg, base = _load_config(args.config)
    gf = build_generator(cfg)
    spec = _sample_spec_from(cfg)
    step = cfg["check"]["fd_step"]
    reports = {
        "G1": conditions.check_injectivity(gf, "primal", spec),
        "G1star": conditions.check_injectivity(gf, "dual", spec),
        "G2": conditions.check_G2(gf, spec),
        "G3": conditions.check_G3_family(gf, spec,
                                         strict=cfg["check"]["g3_strict"],
                                         step=step),
        "G4w": conditions.check_G4w(gf, spec),
    }
    box = (cfg["source"]["box"]["lo"], cfg["source"]["box"]["hi"])
    star = np.asarray(cfg["targets"]["points"], dtype=float) \
        if "targets" in cfg else genfun._corners(spec.y_lo, spec.y_hi)
    if gf.g5_bound(box, star) is not None:
        reports["G5"] = conditions.check_G5(gf, box, star, spec)
    overall = "pass" if all(r.status != "fail" for r in reports.values()) \
        else "fail"
    _write_doc(args.out, "condition_report", cfg, base, overall=overall,
               results={k: r.to_jsonable() for k, r in reports.items()})
    print(f"conditions: {overall} "
          f"({', '.join(k + '=' + r.status for k, r in reports.items())})")
    return EXIT_OK if overall == "pass" else EXIT_CONDITION_FAIL


def cmd_solve(args) -> int:
    from . import gconvex, semidiscrete
    cfg, base = _load_config(args.config)
    prob = build_problem(cfg, base)
    try:
        state = semidiscrete.solve(prob)
    except NoConvergence as exc:
        print(f"solver: {exc}", file=sys.stderr)
        if exc.best is not None:
            _write_state(args.out, cfg, base, exc.best, converged=False)
        return EXIT_NO_CONVERGENCE
    except GjetError as exc:
        # solve validates first; a failed validation lists every diagnostic
        if not hasattr(exc, "diagnostics"):
            raise
        for d in exc.diagnostics:
            print(f"validation: {d['kind']}: {d['message']}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    _write_state(args.out, cfg, base, state, converged=True)
    if args.grid_out:
        sol = semidiscrete.solution_function(prob, state.z)
        u = gconvex.values_matrix(sol, prob.grid).max(axis=0)
        _write_grid_csv(args.grid_out, sol, prob.grid, u, state.decomposition)
    print(f"solved: residual={_fmt(state.residual)} sweeps={state.sweeps} "
          f"anchor={_fmt(state.anchor_value)}")
    return EXIT_OK


def _write_state(path, cfg, base, state, converged):
    _write_doc(path, "solution", cfg, base, converged=converged, z=state.z,
               masses=state.decomposition.masses, residual=state.residual,
               anchor_value=state.anchor_value, sweeps=state.sweeps,
               interface_cells=state.interface_cells,
               residual_history=list(state.residual_history))


def _state_from_file(path, config=None, config_base="."):
    """(config, base directory, grid, solution) of a solution file, its
    pieces validated on the grid (gconvex.validate_pieces_on_grid).  A
    resolved config (paths from config_base), when given, must have the
    file's generator, dimension and source, the same density file too."""
    from . import gconvex
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"solution file {path}: expected a JSON object")
    for key in ("config", "z", "kind"):
        if key not in doc:
            raise ConfigError(f"solution file {path}: missing field {key!r}")
    if doc["kind"] != "solution":
        raise ConfigError(f"solution file {path}: wrong kind {doc['kind']!r}")
    cfg, base = _load_config(path, doc)
    for key in ("generator", "dimension", "source") if config else ():
        if _config_at(config, config_base, path)[key] \
                != _config_at(cfg, base, path)[key]:
            raise ConfigError(f"config.{key} differs from the one in "
                              f"solution file {path}")
    _require_targets(cfg)
    gf, grid = build_generator(cfg), build_grid(cfg, base)
    targets = cfg["targets"]["points"]
    z = np.asarray(doc["z"], dtype=float)
    if z.ndim != 1 or len(z) != len(targets) or len(z) == 0:
        raise ConfigError(f"solution file {path}: z length does not match targets")
    sol = gconvex.PiecewiseGSolution(gf, targets, z)
    gconvex.validate_pieces_on_grid(sol, grid)
    return cfg, base, grid, sol


def cmd_transform(args) -> int:
    from . import gconvex
    cfg, base, grid, sol = _state_from_file(args.solution)
    u = gconvex.values_matrix(sol, grid).max(axis=0)
    v = gconvex.g_transform(sol, sol.ys, grid, u_grid=u)
    vstar = gconvex.dual_transform(sol.gf, sol.ys, v, grid)
    err = float(np.max(np.abs(vstar.ravel() - u)))
    _write_doc(args.out, "dual_transform", cfg, base, v=v,
               involution_error=err)
    print(f"transform: involution_error={_fmt(err)}")
    return EXIT_OK


def cmd_residual(args) -> int:
    from . import gconvex, madiag
    cfg, base = _load_config(args.config)
    exclude = None
    if args.manufactured:
        gf, grid = build_generator(cfg), build_grid(cfg, base)
        ufun, psi = madiag.manufactured_case(args.manufactured, gf, grid)
    else:
        _cfg, _base, grid, sol = _state_from_file(args.solution, cfg, base)
        gf = sol.gf
        vals = gconvex.values_matrix(sol, grid)
        ufun = madiag.GridFunction(grid, vals.max(axis=0).reshape(grid.res))
        # discrete image: the map is piecewise constant
        psi = lambda xs, us, ps: np.zeros(len(xs))
        # difference quotients across kinks carry no information: mask them
        # the cell labels alone: the argmax piece at each center
        exclude = gconvex.interface_mask(grid, np.argmax(vals, axis=0),
                                         widen=1)
    res = madiag.ma_residual(gf, ufun, psi, exclude=exclude)
    print(f"residual: max_abs={_fmt(res.max_abs())} "
          f"ellipticity={res.ellipticity()} masked={res.masked_count}")
    if args.out:
        _write_csv(args.out, grid, ["residual", "min_eig"],
                   [res.values.ravel(), res.min_eig.ravel()])
    return EXIT_OK


def cmd_report(args) -> int:
    from . import gconvex
    _cfg, _base, grid, sol = _state_from_file(args.solution)
    vals = gconvex.values_matrix(sol, grid)
    dec = gconvex.CellDecomposition(
        *gconvex.cell_split(sol.gf, sol.ys, sol.zs, grid, vals)[:2])
    _write_grid_csv(args.csv, sol, grid, vals.max(axis=0), dec, with_mass=True)
    print(f"report: {grid.size} rows, {len(sol.zs)} pieces")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _ManufacturedNames:  # madiag's, imported when argparse reads them
    def __iter__(self):
        from . import madiag
        return iter(madiag.MANUFACTURED_NAMES)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gjet",
        description="Numerical toolkit for generating-function Jacobian "
                    "equations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify structural conditions")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="solve the semi-discrete problem")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--grid-out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("transform", help="dual transform of a solution")
    p.add_argument("solution")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("residual", help="finite-difference residual fields")
    p.add_argument("config")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--solution")
    # set after add_argument, which formats (so would import) the choices
    g.add_argument("--manufactured").choices = _ManufacturedNames()
    p.add_argument("--out")
    p.set_defaults(fn=cmd_residual)

    p = sub.add_parser("report", help="plot-ready CSV for a solution")
    p.add_argument("solution")
    p.add_argument("--csv", required=True)
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # condition failures, so usage problems map to input errors
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT_ERROR
    try:
        return args.fn(args)
    except NoConvergence as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (GjetError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
