"""Acceptance criteria, one test per criterion.

Each test prints one PASS line on success (run with -s to stream them).
All tolerances are pinned here; nothing is deferred to calibration.
Criteria 5..10 share the solved parallel-beam states built once by the
module fixture; the 256^2 solve timing is asserted inside criterion 5.
"""

import json
import math
import time

import numpy as np
import pytest

from gjet import conditions as C
from gjet.cli import main as cli_main
from gjet.conditions import SampleSpec, check_G3_family, mtw_tensor
from gjet.gconvex import (
    SourceGrid,
    dual_transform,
    g_transform,
    interface_point_rows,
    neighbor_pairs,
    section_convexity,
    support_rows,
    values_matrix,
)
from gjet.genfun import (
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    dual_H,
    forward_YZ,
    matrix_A,
    matrix_E,
)
from gjet.madiag import ma_residual, manufactured_case
from gjet.semidiscrete import (
    SemiDiscreteProblem,
    solution_function,
    solve,
)

from conftest import instance_boxes, sample_admissible
from test_genfun import matrix_A_via_yp
from test_semidiscrete import lipschitz_diagnostic


def _passed(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def _spec(gf, count, seed=2024):
    (x_lo, x_hi), (y_lo, y_hi) = instance_boxes(gf)
    return SampleSpec(count=count, seed=seed, x_lo=tuple(x_lo),
                      x_hi=tuple(x_hi), y_lo=tuple(y_lo), y_hi=tuple(y_hi))


@pytest.fixture(scope="module")
def solved_cases():
    """Parallel-beam solves on the unit square at 256^2, N in {1,2,4,16}."""
    pb = ParallelBeam(2)
    grid = SourceGrid([0.0, 0.0], [1.0, 1.0], [256, 256])
    x0 = np.array([0.5, 0.5])
    u0 = 0.75
    layouts = {
        1: [[0.5, 0.5]],
        2: [[0.25, 0.5], [0.75, 0.5]],
        4: [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]],
        16: [[(i + 0.5) / 4, (j + 0.5) / 4]
             for i in range(4) for j in range(4)],
    }
    out = {}
    t0 = time.perf_counter()
    for n, pts in layouts.items():
        prob = SemiDiscreteProblem(pb, grid, pts,
                                   np.full(n, grid.total_mass / n), (x0, u0))
        out[n] = (prob, solve(prob))
    out["elapsed"] = time.perf_counter() - t0
    out["gf"] = pb
    out["grid"] = grid
    return out


# --------------------------------------------------------------------------
# 1. closed-form conformance of the parallel-beam maps
# --------------------------------------------------------------------------

def test_criterion_01_closed_form_conformance():
    pb = ParallelBeam(2)
    rng = np.random.default_rng(101)
    x_box, y_box = instance_boxes(pb)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        x, y, z = sample_admissible(pb, rng, x_box, y_box)
        b = pb.bundle(x, y, z)
        u, p = b.value, b.grad_x
        r2 = float((x - y) @ (x - y))
        p2 = float(p @ p)
        # reference formulas, written out independently of the library
        z_ref = (1.0 - p2) / (2.0 * u)
        y_ref = x + (2.0 * u / (1.0 - p2)) * p
        h_ref = 1.0 / (u + math.sqrt(u * u + r2))
        a_ref = -z_ref * np.eye(2)
        det_ref = z ** 2 * (1.0 - z * z * r2) / (1.0 + z * z * r2)

        y_num, z_num = forward_YZ(pb, x, u, p)
        h_num = dual_H(pb, x, y, u).z_root
        a_num = matrix_A(pb, x, u, p)
        _, det_num = matrix_E(pb, x, y, z)

        def rel(a, b):
            return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) \
                / max(1.0, float(np.max(np.abs(b))))

        worst = max(worst, rel(y_num, y_ref), rel(z_num, z_ref),
                    rel(h_num, h_ref), rel(a_num, a_ref),
                    rel(det_num, det_ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, worst
    assert elapsed < 10.0, elapsed
    _passed(1, f"Y/Z/H/A/detE conformance, worst rel err {worst:.2e}, "
               f"{elapsed:.1f}s for 1000 points")


# --------------------------------------------------------------------------
# 2. equivalence of the two A assemblies
# --------------------------------------------------------------------------

def test_criterion_02_A_formula_equivalence():
    worst = 0.0
    for gf in (QuadraticOT(2), ParallelBeam(2), PointSourcePlane(2, 0.0)):
        rng = np.random.default_rng(202)
        x_box, y_box = instance_boxes(gf)
        for _ in range(100):
            x, y, z = sample_admissible(gf, rng, x_box, y_box)
            b = gf.bundle(x, y, z)
            a1 = matrix_A(gf, x, b.value, b.grad_x)
            a2 = matrix_A_via_yp(gf, x, b.value, b.grad_x)
            worst = max(worst, float(np.max(np.abs(a1 - a2))))
    assert worst <= 1e-5, worst
    _passed(2, f"closed vs vector-field A on 100 x 3 points, "
               f"worst abs dev {worst:.2e}")


# --------------------------------------------------------------------------
# 3. regularity tensor values
# --------------------------------------------------------------------------

def test_criterion_03_tensor_values():
    rng = np.random.default_rng(303)

    qot = QuadraticOT(2)
    x_box, y_box = instance_boxes(qot)
    worst_q = 0.0
    for _ in range(300):
        x, y, z = sample_admissible(qot, rng, x_box, y_box)
        xi, eta = C.orthonormal_pair(rng, 2)
        worst_q = max(worst_q, abs(mtw_tensor(qot, "primal", x, y, z,
                                              xi, eta)))
    assert worst_q <= 1e-7, worst_q

    pb = ParallelBeam(2)
    ref = mtw_tensor(pb, "primal", [0.3, -0.2], [0.3, -0.2], 1.0,
                     [1.0, 0.0], [0.0, 1.0])
    assert ref == pytest.approx(2.0, abs=1e-3)
    x_box, y_box = instance_boxes(pb)
    min_pb = math.inf
    for _ in range(1000):
        x, y, z = sample_admissible(pb, rng, x_box, y_box)
        xi, eta = C.orthonormal_pair(rng, 2)
        min_pb = min(min_pb, mtw_tensor(pb, "primal", x, y, z, xi, eta))
    assert min_pb >= 1e-3, min_pb

    ps = PointSourcePlane(2, 0.0)
    x_box, y_box = instance_boxes(ps)
    worst_ps = 0.0
    for _ in range(300):
        x, y, z = sample_admissible(ps, rng, x_box, y_box)
        xi, eta = C.orthonormal_pair(rng, 2)
        worst_ps = max(worst_ps, abs(mtw_tensor(ps, "primal", x, y, z,
                                                xi, eta)))
    assert worst_ps <= 1e-7, worst_ps
    _passed(3, f"tensor: quadratic <= {worst_q:.1e}, beam ref 2.0 and "
               f"min {min_pb:.3f} > 0, flat point-source <= {worst_ps:.1e}")


# --------------------------------------------------------------------------
# 4. primal/dual tensor sign agreement
# --------------------------------------------------------------------------

def test_criterion_04_duality_sign_agreement():
    # count is padded: points whose difference stencil leaves the
    # admissible set are skipped, and 200 must actually be evaluated
    for gf in (ParallelBeam(2), PointSourcePlane(2, -1.0)):
        rep = check_G3_family(gf, _spec(gf, count=60), strict=False)
        assert rep.samples_used >= 200, rep.samples_used
        assert rep.details["sign_mismatches"] == 0, gf.name
    qot = QuadraticOT(2)
    rep = check_G3_family(qot, _spec(qot, count=40), strict=False)
    assert abs(rep.details["min_primal"]) <= 1e-7
    assert abs(rep.details["min_dual"]) <= 1e-7
    _passed(4, "primal and dual tensors agree in sign above the noise "
               "floor; both vanish for the quadratic instance")


# --------------------------------------------------------------------------
# 5. semi-discrete solves at 256^2
# --------------------------------------------------------------------------

def test_criterion_05_semidiscrete_solves(solved_cases):
    grid = solved_cases["grid"]
    total = grid.total_mass
    for n in (1, 2, 4, 16):
        state = solved_cases[n][1]
        assert state.residual <= 1e-3, (n, state.residual)
    assert solved_cases[1][1].residual <= 1e-12          # exact partition
    s2 = solved_cases[2][1]
    assert abs(s2.z[0] - s2.z[1]) <= 1e-9
    m4 = solved_cases[4][1].decomposition.masses / total
    assert np.max(np.abs(m4 - 0.25)) <= 2e-3
    assert solved_cases["elapsed"] < 60.0, solved_cases["elapsed"]
    _passed(5, f"N in {{1,2,4,16}} at 256^2 solved in "
               f"{solved_cases['elapsed']:.1f}s, residuals "
               + ", ".join(f"{solved_cases[n][1].residual:.1e}"
                           for n in (1, 2, 4, 16)))


# --------------------------------------------------------------------------
# 6. solver vs brute-force oracle
# --------------------------------------------------------------------------

def test_criterion_06_oracle_equivalence(solved_cases):
    from test_semidiscrete import oracle_solve

    prob, state = solved_cases[4]
    _z_oracle, m_oracle = oracle_solve(prob, sweeps=8)
    tol = 2.0 * prob.tolerances.mass_tol_rel * prob.grid.total_mass
    dev = float(np.max(np.abs(state.decomposition.masses - m_oracle)))
    assert dev <= tol, (dev, tol)
    _passed(6, f"solver masses within {dev:.2e} of the bisection oracle "
               f"(allowed {tol:.2e})")


# --------------------------------------------------------------------------
# 7. gradient bound and positivity of solved graphs
# --------------------------------------------------------------------------

def test_criterion_07_gradient_bound(solved_cases):
    grid = solved_cases["grid"]
    h = float(np.max(grid.h))
    worst = 0.0
    for n in (1, 2, 4, 16):
        prob, state = solved_cases[n]
        val = lipschitz_diagnostic(state, prob)
        worst = max(worst, val)
        assert val <= 1.0 + 2 * h, (n, val)
        sol = solution_function(prob, state.z)
        u = values_matrix(sol, grid).max(axis=0)
        assert np.all(u > 0), n
    _passed(7, f"grid |Du| <= 1 + 2h (max {worst:.3f}) and u > 0 on "
               f"every node, all solved cases")


# --------------------------------------------------------------------------
# 8. transform involution on solved cases
# --------------------------------------------------------------------------

def test_criterion_08_involution(solved_cases):
    grid = solved_cases["grid"]
    worst = 0.0
    for n in (1, 2, 4, 16):
        prob, state = solved_cases[n]
        sol = solution_function(prob, state.z)
        v = g_transform(sol, prob.targets, grid)
        vstar = dual_transform(prob.gf, prob.targets, v, grid)
        u = values_matrix(sol, grid).max(axis=0).reshape(grid.res)
        worst = max(worst, float(np.max(np.abs(vstar - u))))
    assert worst <= 1e-6, worst
    _passed(8, f"double transform returns the solution, worst dev "
               f"{worst:.2e} over all solved cases")


# --------------------------------------------------------------------------
# 9. interpolated supports at every adjacent-cell interface (N = 4)
# --------------------------------------------------------------------------

def test_criterion_09_support_interpolation(solved_cases):
    prob, state = solved_cases[4]
    grid = prob.grid
    sol = solution_function(prob, state.z)
    lab = state.decomposition.assignment
    a, b = neighbor_pairs(grid, lab)
    assert len(a)
    x_stars, exchange = interface_point_rows(
        sol, lab[a], lab[b], grid.centers[a], grid.centers[b])
    assert exchange.all()
    for t in np.arange(0.1, 0.95, 0.1):
        _y0, _z0, below, n_active, ok = support_rows(sol, grid, x_stars,
                                                     float(t))
        # rows where more than two pieces tie (cell corners) are skipped
        two = n_active == 2
        assert np.all(ok[two] & below[two]), (np.flatnonzero(two & ~below), t)
    checked = int(two.sum())
    assert checked >= 0.9 * len(a)
    _passed(9, f"interpolated supports hold for t in 0.1..0.9 on "
               f"{checked}/{len(a)} adjacent-cell interfaces")


# --------------------------------------------------------------------------
# 10. section convexity of solved cases
# --------------------------------------------------------------------------

def test_criterion_10_section_convexity(solved_cases):
    grid = solved_cases["grid"]
    worst = math.inf
    for n in (4, 16):
        prob, state = solved_cases[n]
        sol = solution_function(prob, state.z)
        for piece in range(n):
            for sigma in (0.01, 0.05):
                rep = section_convexity(sol, grid, piece, sigma)
                assert rep.status == "pass", (n, piece, sigma, rep)
                worst = min(worst, rep.extremal_value)
    _passed(10, f"section images convex, worst hull ratio {worst:.4f}")


# --------------------------------------------------------------------------
# 11. residual diagnostics
# --------------------------------------------------------------------------

def test_criterion_11_residual_diagnostics():
    # G-affine graphs: residual at rounding level for the instances whose
    # x-dependence central stencils reproduce exactly
    for gf in (QuadraticOT(2), ParallelBeam(2), PointSourcePlane(2, 0.0)):
        grid = SourceGrid([-0.5, -0.5], [0.5, 0.5], [64, 64])
        res = ma_residual(gf, *manufactured_case("g_affine", gf, grid))
        assert res.max_abs() <= 1e-8, gf.name

    qot = QuadraticOT(2)
    grid = SourceGrid([-0.5, -0.5], [0.5, 0.5], [64, 64])
    res = ma_residual(qot, *manufactured_case("quadratic_ot_identity",
                                              qot, grid))
    assert res.max_abs() <= 1e-6

    vals = {}
    for m in (64, 256):
        g = SourceGrid([-0.5, -0.5], [0.5, 0.5], [m, m])
        vals[m] = ma_residual(qot, *manufactured_case("quadratic_ot_cosh",
                                                      qot, g)).max_abs()
    rate = math.log(vals[64] / vals[256]) / math.log(4.0)
    assert rate >= 1.8, rate
    _passed(11, f"affine residuals <= 1e-8, identity case <= 1e-6, "
                f"refinement rate {rate:.2f} >= 1.8")


# --------------------------------------------------------------------------
# 12. point-source closed forms and strict regularity
# --------------------------------------------------------------------------

def test_criterion_12_point_source():
    ps0 = PointSourcePlane(2, 0.0)
    rng = np.random.default_rng(1212)
    x_box, y_box = instance_boxes(ps0)
    worst = 0.0
    for _ in range(500):
        x, y, z = sample_admissible(ps0, rng, x_box, y_box)
        b = ps0.bundle(x, y, z)
        u, p = b.value, b.grad_x
        a = matrix_A(ps0, x, u, p)
        assert np.all(a == 0.0)                       # A = 0 exactly
        # reference Z written out: (1 - 2 tau u / w) / (ubar^2 - |p|^2)
        w = math.sqrt(1.0 - float(x @ x))
        ubar = u - float(p @ x)
        z_ref = (1.0 - 2.0 * 0.0 * u / w) / (ubar ** 2 - float(p @ p))
        _y_num, z_num = forward_YZ(ps0, x, u, p)
        worst = max(worst, abs(z_num - z_ref) / max(1.0, abs(z_ref)))
    assert worst <= 1e-8, worst

    ps1 = PointSourcePlane(2, -1.0)
    rep = check_G3_family(ps1, _spec(ps1, count=30), strict=True)
    assert rep.status == "pass", rep
    _passed(12, f"flat target gives A = 0 and Z conformance {worst:.1e}; "
                f"lowered target passes strict regularity "
                f"(min {rep.extremal_value:.3f})")


# --------------------------------------------------------------------------
# 13. byte-stable outputs
# --------------------------------------------------------------------------

def test_criterion_13_determinism(tmp_path):
    cfg = {
        "generator": {"kind": "parallel_beam", "params": {}},
        "dimension": 2,
        "source": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                   "resolution": [48, 48]},
        "targets": {"points": [[0.3, 0.4], [0.7, 0.6]],
                    "masses": [0.5, 0.5]},
        "normalization": {"x0": [0.5, 0.5], "u0": 0.75},
        "check": {"samples": 30, "seed": 7},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for tag in ("a", "b"):
        rep = tmp_path / f"rep_{tag}.json"
        sol = tmp_path / f"sol_{tag}.json"
        grd = tmp_path / f"grd_{tag}.csv"
        assert cli_main(["check", str(cfg_path), "--out", str(rep)]) == 0
        assert cli_main(["solve", str(cfg_path), "--out", str(sol),
                         "--grid-out", str(grd)]) == 0
        blobs.append((rep.read_bytes(), sol.read_bytes(), grd.read_bytes()))
    assert blobs[0] == blobs[1]
    _passed(13, "repeated runs produce byte-identical report, solution "
                "and grid outputs")
