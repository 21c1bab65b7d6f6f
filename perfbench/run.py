"""gjet benchmark: seeded workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S --trace 0|1]

Run from the repository root.  A single closed-loop client runs one
operation at a time; every CLI operation is a fresh ``python -m gjet.cli``
process with ``src`` on PYTHONPATH, so the working tree is what gets
measured.  A run first measures set-up (fresh process -> inputs built and
validated) several times, then runs passes over seeded inputs until
--seconds have gone by.  Output checks run outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
pairs every untraced pass with a traced pass of the same input (the
tracer wraps the layers from outside, see tracer.py), checks that both
leave byte-identical outputs and that a repeated traced pass repeats its
counts exactly, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (every pass,
op verdicts, machine and inputs) goes to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "work")

SETUP_REPEATS = 5
OP_TIMEOUT_S = 150
STENCIL_C = 100.0   # exact-zero residuals must stay below C h^4

sys.path.insert(0, HERE)
import tracer  # noqa: E402


class CheckFailed(Exception):
    """An operation left output that fails its check."""


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _write(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return os.path.basename(path)


def _box(lo, hi, n, res):
    return {"box": {"lo": [lo] * n, "hi": [hi] * n}, "resolution": [res] * n}


def _lattice(k):
    """Centres of a k x k lattice of cells on the unit square."""
    return (np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"),
                     axis=-1).reshape(-1, 2) + 0.5) / k


def _beam_config(path, pts, masses, res):
    return _write(path, {
        "generator": {"kind": "parallel_beam"}, "dimension": 2,
        "source": _box(0.0, 1.0, 2, res),
        "targets": {"points": np.asarray(pts).tolist(),
                    "masses": np.asarray(masses).tolist()},
        "normalization": {"x0": [0.5, 0.5], "u0": 0.75}})


def beam_inputs(rng, d):
    """Parallel beam, 2-D, 128^2: 16 equal-mass targets on a jittered 4x4
    lattice.  Masses drawn in [0.75, 1.25] hit the false InfeasibleBracket
    in about one input in seventy (solver_stress keeps one such input)."""
    pts = _lattice(4) + rng.uniform(-0.05, 0.05, (16, 2))
    return {"cfg": _beam_config(os.path.join(d, "beam.json"), pts,
                                np.full(16, 1 / 16), 128)}


CHECK_SAMPLES = 200
CHECK_DEFECT_SEED = 641987627   # a check seed that hits the defect below


def g3_pairs_orthogonal(check_seed, n):
    """Whether every random (xi, eta) pair check_G3_family draws for this
    check seed passes mtw_tensor's orthogonality test.

    orthonormal_pair projects eta once; after renormalisation xi.eta can
    exceed mtw_tensor's 1e-12 by rounding, and the ValueError ends `gjet
    check` with exit 4 for a few percent of seeds.  check_conditions skips
    those seeds so that it runs without failed operations; check_defect
    keeps one of them as a known failure.  The draws replay the check's
    generator (seed + 1) for the most triples a check can sample.
    """
    from gjet import conditions
    rng = np.random.default_rng(check_seed + 1)
    for _ in range(CHECK_SAMPLES * len(conditions.SampleSpec.z_fracs)):
        xi, eta = conditions.orthonormal_pair(rng, n)
        xi, eta = xi / np.linalg.norm(xi), eta / np.linalg.norm(eta)
        if abs(float(xi @ eta)) > 1e-12:
            return False
    return True


def _ps_check_config(d, check_seed):
    return _write(os.path.join(d, "ps.json"), {
        "generator": {"kind": "point_source", "params": {"tau": -1.0}},
        "dimension": 2, "source": _box(-0.4, 0.4, 2, 16),
        "check": {"samples": CHECK_SAMPLES, "seed": check_seed}})


def check_inputs(rng, d):
    """Point source tau=-1 (2-D) and quadratic (3-D, 4 targets) checks."""
    seeds = []
    for n in (2, 3):
        seed = int(rng.integers(1, 2**31 - 1))
        while not g3_pairs_orthogonal(seed, n):
            seed = int(rng.integers(1, 2**31 - 1))
        seeds.append(seed)
    ps = _ps_check_config(d, seeds[0])
    pts = rng.uniform(0.2, 0.8, (4, 3))
    q3 = _write(os.path.join(d, "q3.json"), {
        "generator": {"kind": "quadratic_ot"}, "dimension": 3,
        "source": _box(0.0, 1.0, 3, 8),
        "targets": {"points": pts.tolist(), "masses": [0.25] * 4},
        "check": {"samples": CHECK_SAMPLES, "seed": seeds[1]}})
    return {"ps": ps, "q3": q3}


def check_defect_inputs(_rng, d):
    """The point-source check at a seed whose G3 pairs fail orthogonality."""
    return {"ps": _ps_check_config(d, CHECK_DEFECT_SEED)}


def diagnose_inputs(rng, d):
    """Point source tau=-1, 2-D, 128^2, 3 targets around fixed sites."""
    sites = np.array([[0.17, 0.03], [-0.22, -0.08], [0.02, 0.21]])
    pts = sites + rng.uniform(-0.03, 0.03, sites.shape)
    masses = np.array([0.5, 0.3, 0.2]) * rng.uniform(0.9, 1.1, 3)
    masses *= 0.64 / masses.sum()                # mass of [-0.4, 0.4]^2
    return {"cfg": _write(os.path.join(d, "ps_problem.json"), {
        "generator": {"kind": "point_source", "params": {"tau": -1.0}},
        "dimension": 2, "source": _box(-0.4, 0.4, 2, 128),
        "targets": {"points": pts.tolist(), "masses": masses.tolist()},
        "normalization": {"x0": [0.0, 0.0], "u0": 2.5}})}


def stress_inputs(_rng, d):
    """Fixed layouts: the defects they show depend on them."""
    rng = np.random.default_rng([11, 3])   # 4x4 lattice, masses drawn
    pts4 = _lattice(4) + rng.uniform(-0.05, 0.05, (16, 2))
    masses4 = rng.uniform(0.75, 1.25, 16)
    quad = _write(os.path.join(d, "quad3d.json"), {
        "generator": {"kind": "quadratic_ot"}, "dimension": 3,
        "source": _box(0.0, 1.0, 3, 16),
        "targets": {"points": [[0.25, 0.25, 0.25], [0.75, 0.75, 0.25],
                               [0.75, 0.25, 0.75], [0.25, 0.75, 0.75]],
                    "masses": [0.25] * 4},
        "normalization": {"x0": [0.5, 0.5, 0.5], "u0": 0.2}})
    return {
        "beam": _beam_config(os.path.join(d, "beam8x8.json"), _lattice(8),
                             np.full(64, 1 / 64), 64),
        "beam4": _beam_config(os.path.join(d, "beam4x4.json"), pts4,
                              masses4 / masses4.sum(), 128),
        "quad": quad}


# --------------------------------------------------------------------------
# output checks (outside the timed region)
# --------------------------------------------------------------------------

def _gjet():
    from gjet import cli, gconvex, semidiscrete
    return cli, gconvex, semidiscrete


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _problem_of(cfg):
    cli, _g, _s = _gjet()
    return cli.build_problem(cli.resolve_config(cfg))


def check_csv(path, header, rows):
    with open(path, "rb") as fh:
        data = fh.read()
    _require(b"\r" not in data and data.endswith(b"\n"), f"{path}: not LF-only")
    lines = data.split(b"\n")
    _require(lines[0].decode() == header, f"{path}: columns {lines[0]!r}")
    _require(len(lines) - 2 == rows, f"{path}: {len(lines) - 2} rows, want {rows}")
    return rows


def _csv_header(n, mass):
    cols = [f"x{k + 1}" for k in range(n)] + ["u"] \
        + [f"du{k + 1}" for k in range(n)] + ["cell"]
    return ",".join(cols + (["mass"] if mass else []))


def check_solve(out, grid_csv=None):
    def check(d, _stdout):
        _cli, gconvex, semidiscrete = _gjet()
        doc = _json(os.path.join(d, out))
        prob = _problem_of(doc["config"])
        sol = semidiscrete.solution_function(prob, doc["z"])
        dec = gconvex.cell_masses(sol, prob.grid)
        residual = float(np.max(np.abs(dec.masses - prob.masses))
                         / prob.grid.total_mass)
        x0, u0 = prob.anchor
        anchor_gap = abs(float(gconvex.eval_piecewise(sol, x0)[0]) - u0)
        tol = prob.tolerances
        notes = {"sweeps": doc["sweeps"], "residual": residual,
                 "anchor_gap": anchor_gap}
        _require(doc["converged"], "solution not converged")
        _require(residual <= tol.mass_tol_rel, f"mass residual {residual:.3e}")
        _require(anchor_gap <= tol.anchor_tolerance(u0),
                 f"anchor gap {anchor_gap:.3e}")
        if grid_csv:
            check_csv(os.path.join(d, grid_csv), _csv_header(prob.grid.n, False),
                      prob.grid.size)
        return notes
    return check


def check_transform(d, _stdout):
    err = _json(os.path.join(d, "dual.json"))["involution_error"]
    _require(err <= 1e-6, f"involution error {err:.3e}")
    return {"involution_error": err}


def check_report(d, _stdout):
    prob = _problem_of(_json(os.path.join(d, "sol.json"))["config"])
    rows = check_csv(os.path.join(d, "report.csv"),
                     _csv_header(prob.grid.n, True), prob.grid.size)
    return {"rows": rows}


def check_residual(_d, stdout):
    line = stdout.strip().splitlines()[-1]
    _require(line.startswith("residual: "), f"unexpected output {line!r}")
    return dict(kv.split("=", 1) for kv in line.split()[1:])


# G5 is reported only where the generator declares or implies its constants
CONDITIONS = ("G1", "G1star", "G2", "G3", "G4w", "G5")


def check_conditions(out):
    def check(d, _stdout):
        doc = _json(os.path.join(d, out))
        _require(doc.get("schema_version") == "1.0", "schema_version missing")
        _require(doc.get("kind") == "condition_report", "wrong kind")
        res = doc["results"]
        _require(set(CONDITIONS[:-1]) <= set(res) <= set(CONDITIONS),
                 f"conditions {sorted(res)}")
        statuses = {k: res[k]["status"] for k in CONDITIONS if k in res}
        overall = "fail" if "fail" in statuses.values() else "pass"
        _require(doc["overall"] == overall, "overall disagrees with results")
        return {"overall": overall, "verdicts": statuses,
                "samples_used": {k: res[k]["samples_used"] for k in statuses}}
    return check


def check_diagnose(d, _stdout):
    doc = _json(os.path.join(d, "diag.json"))
    rd = doc["range_diagnostic"]
    _require(rd["status"] == "pass" and rd["interfaces_checked"] > 0,
             f"range diagnostic {rd}")
    for key in ("dual_residual", "ma_residual"):
        r = doc[key]
        bound = STENCIL_C * r["h"] ** 4
        _require(r["max_abs"] <= bound,   # NaN (nothing evaluated) fails too
                 f"{key} {r['max_abs']:.3e} above {bound:.3e}")
    return doc


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass
class Step:
    metric: str                 # op time metric (a CLI step) or log name
    argv: list                  # gjet CLI argv, or child argv when lib
    codes: tuple                # exit codes inside the op's contract
    check: Callable
    outputs: tuple = ()         # files compared traced vs untraced
    lib: bool = False


@dataclass
class Workload:
    name: str
    inputs: Callable            # (rng, dir) -> {key: config file name}
    setup_kind: str
    steps: Callable             # inputs -> [Step]
    op_metrics: tuple
    known_failures: tuple = ()


def beam_steps(i):
    cfg = i["cfg"]
    return [
        Step("solve_s", ["solve", cfg, "--out", "sol.json", "--grid-out", "grid.csv"],
             (0,), check_solve("sol.json", "grid.csv"), ("sol.json", "grid.csv")),
        Step("transform_s", ["transform", "sol.json", "--out", "dual.json"],
             (0,), check_transform, ("dual.json",)),
        Step("report_s", ["report", "sol.json", "--csv", "report.csv"],
             (0,), check_report, ("report.csv",)),
        Step("residual_s", ["residual", cfg, "--solution", "sol.json"],
             (0,), check_residual),
    ]


def check_steps(i):
    return [
        Step(metric, ["check", i[key], "--out", f"{key}_report.json"], (0, 2),
             check_conditions(f"{key}_report.json"), (f"{key}_report.json",))
        for metric, key in (("check_s", "ps"), ("check_3d_s", "q3")) if key in i
    ]


def diagnose_steps(i):
    return [Step("diagnose", ["diagnose", i["cfg"]], (0,), check_diagnose,
                 ("diag.json",), lib=True)]


def stress_steps(i):
    return [
        Step("solve_s", ["solve", i["beam"], "--out", "sol.json"], (0,),
             check_solve("sol.json"), ("sol.json",)),
        Step("solve_4x4_s", ["solve", i["beam4"], "--out", "sol4.json"], (0,),
             check_solve("sol4.json"), ("sol4.json",)),
        Step("solve_3d_s", ["solve", i["quad"], "--out", "sol3.json"], (0,),
             check_solve("sol3.json"), ("sol3.json",)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("beam_pipeline", beam_inputs, "problem", beam_steps,
             ("solve_s", "transform_s", "report_s", "residual_s")),
    Workload("check_conditions", check_inputs, "generator", check_steps,
             ("check_s", "check_3d_s")),
    Workload("diagnose_point_source", diagnose_inputs, "solved", diagnose_steps,
             ("range_diagnostic_s", "dual_residual_s", "ma_residual_s")),
    Workload("solver_stress", stress_inputs, "problem", stress_steps,
             ("solve_s", "solve_4x4_s", "solve_3d_s"), known_failures=(
                 "8x8 beam at 64^2: false InfeasibleBracket, exit 4",
                 "4x4 beam at 128^2, masses drawn: false InfeasibleBracket, exit 4",
                 "quadratic 3-D at 16^3: residual stalls, exit 3 after 500 sweeps")),
    Workload("check_defect", check_defect_inputs, "generator", check_steps,
             ("check_s",), known_failures=(
                 "point-source check: 'xi and eta must be orthogonal', exit 4",)),
)}


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("GJET_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, cwd, log):
    """Run cmd to completion; (exit code, wall seconds, peak RSS in MB)."""
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(path):
    with open(path, errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def measure_setup(wl, inputs, d):
    times = []
    cmd = [sys.executable, CHILD, "setup", wl.setup_kind, *inputs.values()]
    for r in range(SETUP_REPEATS):
        rc, wall, _rss = spawn(cmd, d, os.path.join(d, f"setup{r}"))
        if rc != 0:
            raise SystemExit(f"set-up failed (exit {rc}): "
                             f"{_tail(os.path.join(d, f'setup{r}.err'))}")
        times.append(wall)
    return times


def run_pass(wl, inputs, input_dir, d, traced):
    """One pass over the workload's steps; per-op records and span docs."""
    os.makedirs(d)
    for name in inputs.values():
        shutil.copy(os.path.join(input_dir, name), d)
    ops, docs = [], []
    for step in wl.steps(inputs):
        log = os.path.join(d, step.metric)
        spans = log + ".spans.json"
        spans_opt = ["--spans", spans] if traced else []
        if step.lib:
            cmd = [sys.executable, CHILD, step.argv[0], *spans_opt, *step.argv[1:]]
        elif traced:
            cmd = [sys.executable, CHILD, "cli", *spans_opt, *step.argv]
        else:
            cmd = [sys.executable, "-m", "gjet.cli", *step.argv]
        rc, wall, rss = spawn(cmd, d, log)
        op = {"op": step.metric, "wall_s": wall, "rc": rc, "peak_rss_mb": rss}
        try:
            _require(rc in step.codes,
                     f"exit {rc}: {_tail(log + '.err') or _tail(log + '.out')}")
            with open(log + ".out") as fh:
                op["notes"] = step.check(d, fh.read())
            op["times"] = (_json(os.path.join(d, "diag_times.json")) if step.lib
                           else {step.metric: wall})
            op["ok"] = True
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            op["ok"], op["error"] = False, f"{type(exc).__name__}: {exc}"
        if traced and os.path.exists(spans):
            docs.append(_json(spans))
        ops.append(op)
    return {"dir": d, "ops": ops, "ok": all(o["ok"] for o in ops),
            "wall_s": sum(o["wall_s"] for o in ops),
            "peak_rss_mb": max(o["peak_rss_mb"] for o in ops)}, docs


def same_outputs(wl, inputs, a, b):
    """Names of outputs (and stdout logs) that differ between two passes."""
    names = []
    for step in wl.steps(inputs):
        names += list(step.outputs) + [step.metric + ".out"]
    differ = []
    for name in names:
        pa, pb = os.path.join(a["dir"], name), os.path.join(b["dir"], name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                differ.append(name)
    return differ


# --------------------------------------------------------------------------
# machine record
# --------------------------------------------------------------------------

def machine(seed):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc, level = "unknown", 0
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache)):
            with open(os.path.join(cache, index, "level")) as fh:
                lvl = int(fh.read())
            if lvl > level:
                with open(os.path.join(cache, index, "size")) as fh:
                    llc, level = fh.read().strip(), lvl
    except (OSError, ValueError):
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "llc": llc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "commit": commit, "seed": seed,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "GJET_THREADS": "unset (removed from the child environment)",
    }


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else None


def run(wl, seed, seconds, traced, spec):
    tag = f"{wl.name}_s{seed}_t{int(traced)}"
    base = os.path.join(WORK, tag)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    def instance(k):
        d = os.path.join(base, f"in{k}")
        os.makedirs(d)
        rng = np.random.default_rng([seed, k])
        return wl.inputs(rng, d), d

    inputs0, dir0 = instance(0)
    setup = measure_setup(wl, inputs0, dir0)

    passes, traced_passes, repeats, docs, notes = [], [], [], [], []

    def traced_pass(k, inputs, idir, name, untraced):
        tp, tdocs = run_pass(wl, inputs, idir, os.path.join(base, name), True)
        differ = same_outputs(wl, inputs, untraced, tp)
        if differ:
            notes.append(f"pass {k}: traced outputs differ: {differ}")
        return tp, tdocs

    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        t_start = time.perf_counter()
        inputs, idir = (inputs0, dir0) if k == 0 else instance(k)
        p, _ = run_pass(wl, inputs, idir, os.path.join(base, f"p{k}"), False)
        passes.append(p)
        if traced:
            tp, tdocs = traced_pass(k, inputs, idir, f"p{k}t", p)
            traced_passes.append(tp)
            docs += tdocs
            if k == 0:
                rp, rdocs = traced_pass(k, inputs, idir, "p0t2", p)
                repeats.append(rp)
                first = tracer.count_metrics(tracer.aggregate(tdocs))
                again = tracer.count_metrics(tracer.aggregate(rdocs))
                diff = sorted(n for n in set(first) | set(again)
                              if first.get(n) != again.get(n))
                if diff:
                    notes.append(f"pass 0: counts differ between traced runs: {diff}")
        k += 1
        took = time.perf_counter() - t_start
        if time.perf_counter() + took > deadline:
            break

    ops = [o for p in passes + traced_passes + repeats for o in p["ops"]]
    failed = sum(not o["ok"] for o in ops)
    good = [p for p in passes if p["ok"]]

    e2e = {"setup_s": _median(setup),
           "wall_s": _median([p["wall_s"] for p in good]),
           "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
           "failed_frac": failed / len(ops)}
    for m in wl.op_metrics:
        e2e[m] = _median([o["times"][m] for p in good for o in p["ops"]
                          if m in o.get("times", {})])
    if traced:
        layer = tracer.layer_metrics(tracer.aggregate(docs), len(traced_passes))
        tw = _median([p["wall_s"] for p in traced_passes if p["ok"]])
        uw = e2e["wall_s"]
        layer["trace.overhead_frac"] = (tw - uw) / uw if tw and uw else 0.0
        wanted, values = spec["per_layer"], layer
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    result = {"correct": failed == 0 and not notes, "attempted": len(ops),
              "failed": failed, "metrics": metrics}

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "seconds": seconds,
                   "trace": traced, "machine": machine(seed),
                   "known_failures": wl.known_failures, "setup_s": setup,
                   "end_to_end": e2e, "notes": notes, "passes": passes,
                   "traced_passes": traced_passes, "result": result},
                  fh, indent=1, default=str)
    return result, e2e, notes, passes


def report(wl, result, e2e, notes, passes, spec, traced):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({m: "s" for m in wl.op_metrics}, failed_frac="1")
    print(f"== {wl.name}: {len(passes)} passes, {result['attempted']} ops, "
          f"{result['failed']} failed")
    for name in ("setup_s", "wall_s", "peak_rss_mb", "failed_frac", *wl.op_metrics):
        val = e2e.get(name)
        print(f"  {name:<40} {'-' if val is None else f'{val:.6g}':>12} {units[name]}")
    if traced:
        for name, m in result["metrics"].items():
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for op in passes[0]["ops"]:
        verdict = op.get("notes") if op["ok"] else op.get("error")
        print(f"  pass 0 {op['op']}: {json.dumps(verdict, default=str)[:160]}")
    for kf in wl.known_failures:
        print(f"  known failure: {kf}")
    for n in notes:
        print(f"  CHECK: {n}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through SystemExit, so spawn() stops and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    if not os.path.isfile(os.path.join(SRC, "gjet", "cli.py")):
        print(f"error: no gjet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        wl = WORKLOADS[name]
        result, e2e, notes, passes = run(wl, args.seed, args.seconds,
                                         bool(args.trace), spec)
        report(wl, result, e2e, notes, passes, spec, bool(args.trace))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
