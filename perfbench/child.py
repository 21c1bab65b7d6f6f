"""One benchmark operation in a fresh process, with or without tracing.

    child.py setup <kind> <config.json>...
        import gjet and build and validate the inputs, then exit; kind is
        `generator` (config only), `problem` (plus validate_problem) or
        `solved` (plus the solve the diagnostics start from)
    child.py cli [--spans FILE] <gjet argv>...
        gjet.cli.main(argv) in-process, so the tracer can wrap it
    child.py diagnose [--spans FILE] <config.json>
        the library diagnostics of the point-source workload; writes
        diag.json (results) and diag_times.json (seconds per call)

With --spans the tracer is installed after import and its spans are
written to FILE when the process ends.  gjet is imported from PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys
import time

# dual_residual grid and ma_residual grid of the diagnose workload
DUAL_BOX, DUAL_RES = (-0.3, 0.3), 48
MA_RES = 64


def _import():
    t0 = time.perf_counter()
    import gjet.cli  # noqa: F401  (imports every traced module)
    return time.perf_counter() - t0


def _tracer(spans_path):
    if spans_path is None:
        return None
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def _config(path):
    from gjet import cli
    with open(path) as fh:
        return cli.resolve_config(json.load(fh), os.path.dirname(path) or ".")


def _problem(path):
    from gjet import cli, semidiscrete
    cfg = _config(path)
    prob = cli.build_problem(cfg, os.path.dirname(path) or ".")
    diags = semidiscrete.validate_problem(prob)
    if diags:
        raise SystemExit(f"invalid benchmark input {path}: {diags[0]['message']}")
    return prob


def setup(kind, paths):
    _import()
    from gjet import cli, semidiscrete
    for path in paths:
        if kind == "generator":
            cli.build_generator(_config(path))
            continue
        prob = _problem(path)
        if kind == "solved":
            semidiscrete.solve(prob)
    return 0


def run_cli(argv, spans_path):
    import_s = _import()
    tracer = _tracer(spans_path)
    import gjet.cli
    try:
        return gjet.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path, import_s=import_s)


def diagnose(config, spans_path):
    import_s = _import()
    tracer = _tracer(spans_path)
    import numpy as np
    from gjet import gconvex, madiag, semidiscrete
    try:
        prob = _problem(config)
        state = semidiscrete.solve(prob)
        gf, grid = prob.gf, prob.grid
        x0, u0 = prob.anchor
        times, out = {}, {}

        t0 = time.perf_counter()
        rep = semidiscrete.range_diagnostic(state, prob)
        times["range_diagnostic_s"] = time.perf_counter() - t0
        out["range_diagnostic"] = {
            "status": rep.status,
            "interfaces_checked": int(rep.details["interfaces_checked"]),
            "samples_used": int(rep.samples_used)}

        # v = H(x0, ., u0) solves the dual equation with g = 0 exactly
        tgrid = gconvex.SourceGrid([DUAL_BOX[0]] * 2, [DUAL_BOX[1]] * 2,
                                   [DUAL_RES] * 2)
        v = gf.h_batch(x0[None, :], tgrid.centers, np.full(tgrid.size, u0))
        vfun = madiag.GridFunction(tgrid, v.reshape(tgrid.res))
        t0 = time.perf_counter()
        res = madiag.dual_residual(gf, vfun, g=lambda y: 0.0)
        times["dual_residual_s"] = time.perf_counter() - t0
        out["dual_residual"] = {"max_abs": res.max_abs(), "h": float(tgrid.h[0]),
                                "masked": int(res.masked_count)}

        # one G-affine graph with f = 0 has Monge-Ampere residual 0 exactly
        mgrid = gconvex.SourceGrid(grid.lo, grid.hi, [MA_RES] * grid.n)
        ufun, _psi = madiag.manufactured_case("g_affine", gf, mgrid)
        psi = madiag.make_separable_psi(gf, lambda x: 0.0, lambda y: 1.0)
        t0 = time.perf_counter()
        res = madiag.ma_residual(gf, ufun, psi)
        times["ma_residual_s"] = time.perf_counter() - t0
        out["ma_residual"] = {"max_abs": res.max_abs(), "h": float(mgrid.h[0]),
                              "masked": int(res.masked_count)}
    finally:
        if tracer is not None:
            tracer.dump(spans_path, import_s=import_s)
    with open("diag.json", "w", newline="\n") as fh:
        fh.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    with open("diag_times.json", "w") as fh:
        json.dump(times, fh)
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    spans = None
    if rest[:1] == ["--spans"]:
        spans, rest = rest[1], rest[2:]
    if mode == "setup":
        return setup(rest[0], rest[1:])
    if mode == "cli":
        return run_cli(rest, spans)
    if mode == "diagnose":
        return diagnose(rest[0], spans)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
