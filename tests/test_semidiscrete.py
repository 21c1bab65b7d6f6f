"""Semi-discrete solver: validation, convergence, diagnostics.

The oracle here is deliberately dumb: per-coordinate bisection against
full cell-mass rasterizations through the public gconvex API, iterated
to a fixed point, with no incremental caching and no clamping shortcuts.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gjet.errors import (
    AnchorInadmissible,
    InfeasibleBracket,
    MassImbalance,
    NoConvergence,
)
from gjet.gconvex import (
    PiecewiseGSolution,
    SourceGrid,
    cell_masses,
    cell_split,
    eval_piecewise,
    interface_mask,
    values_matrix,
)
from gjet.genfun import PointSourcePlane, QuadraticOT, dual_H
from gjet.semidiscrete import (
    SemiDiscreteProblem,
    SolverTolerances,
    _hull_test,
    range_diagnostic,
    solution_function,
    solve,
    validate_problem,
)

from conftest import cut_off_two_targets, declaring_g5


def unit_problem(gf, targets, masses=None, res=48, u0=0.75, x0=None,
                 tolerances=None):
    grid = SourceGrid([0.0, 0.0], [1.0, 1.0], [res, res])
    targets = np.asarray(targets, dtype=float)
    if masses is None:
        masses = np.full(len(targets), grid.total_mass / len(targets))
    if x0 is None:
        x0 = np.array([0.5, 0.5])
    return SemiDiscreteProblem(gf, grid, targets, masses, (x0, u0),
                               tolerances=tolerances or SolverTolerances())


def oracle_solve(prob, sweeps=30, steps=48):
    """Independent fixed-point iteration by raw bisection on each piece."""
    gf, grid = prob.gf, prob.grid
    x0, u0 = prob.anchor
    z_lo = np.array([dual_H(gf, x0, y, u0).z_root for y in prob.targets])
    z_hi = np.empty(len(prob.targets))
    for i, y in enumerate(prob.targets):
        _lo, hi = gf.z_interval_batch(grid.centers, y)
        z_hi[i] = np.min(hi) * (1 - 1e-12)

    def masses_for(z):
        sol = PiecewiseGSolution(gf, prob.targets, z)
        return cell_masses(sol, grid).masses

    z = z_lo.copy()
    for _ in range(sweeps):
        z_prev = z.copy()
        for i in range(len(z)):
            a, b = z_lo[i], z_hi[i]

            def mass_i(zi):
                trial = z.copy()
                trial[i] = zi
                return masses_for(trial)[i]

            if mass_i(a) <= prob.masses[i]:
                z[i] = a
                continue
            for _ in range(steps):
                mid = 0.5 * (a + b)
                if mass_i(mid) >= prob.masses[i]:
                    a = mid
                else:
                    b = mid
            z[i] = a if abs(mass_i(a) - prob.masses[i]) \
                <= abs(mass_i(b) - prob.masses[i]) else b
        if np.max(np.abs(z - z_prev)) < 1e-13:
            break
    return z, masses_for(z)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_validate_clean_problem(pb2):
    prob = unit_problem(pb2, [[0.25, 0.5], [0.75, 0.5]])
    assert validate_problem(prob) == []


def test_validate_mass_imbalance(pb2):
    grid_mass = SourceGrid([0, 0], [1, 1], [48, 48]).total_mass
    prob = unit_problem(pb2, [[0.25, 0.5], [0.75, 0.5]],
                        masses=[0.5 * grid_mass, 0.4 * grid_mass])
    diags = validate_problem(prob)
    assert any(d["kind"] == "MassImbalance" for d in diags)
    with pytest.raises(MassImbalance):
        solve(prob)


def test_validate_anchor_inadmissible(pb2):
    # u0 below m0 + K0 dist(x0, boundary) = 0 + 1 * 0.5
    prob = unit_problem(pb2, [[0.5, 0.5]], u0=0.3)
    diags = validate_problem(prob)
    assert any(d["kind"] == "AnchorInadmissible" for d in diags)
    with pytest.raises(AnchorInadmissible):
        solve(prob)


def test_validate_reads_the_declared_g5_bound(qot2):
    # the anchor floor m0 + K0 dist(x0, boundary) comes from g5_bound: the
    # quadratic's has no value floor (m0 = -inf), a declared one has
    prob = unit_problem(qot2, [[0.3, 0.4], [0.7, 0.6]], u0=0.0)
    assert validate_problem(prob) == []
    prob = unit_problem(declaring_g5(qot2, 0.5, 1.0),
                        [[0.3, 0.4], [0.7, 0.6]], u0=0.9)
    diags = validate_problem(prob)
    assert [d["kind"] for d in diags] == ["AnchorInadmissible"]
    assert diags[0]["floor"] == 1.0


def test_validate_infeasible_bracket(pb2):
    # far target with a low anchor: the anchored parameter exceeds the
    # grid-admissible cap (verified numerically for this geometry)
    prob = unit_problem(pb2, [[60.0, 60.0]], u0=0.11, x0=[0.1, 0.1])
    diags = validate_problem(prob)
    assert any(d["kind"] == "InfeasibleBracket" for d in diags)
    with pytest.raises(InfeasibleBracket):
        solve(prob)


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def test_single_target_exact(pb2):
    prob = unit_problem(pb2, [[0.5, 0.5]])
    state = solve(prob)
    # the one cell carries all mass up to float summation order
    assert state.residual <= 1e-12
    assert state.sweeps == 0
    z_ref = dual_H(pb2, [0.5, 0.5], [0.5, 0.5], 0.75).z_root
    assert state.z[0] == pytest.approx(z_ref, abs=1e-12)


def test_symmetric_pair_equal_parameters(pb2):
    prob = unit_problem(pb2, [[0.25, 0.5], [0.75, 0.5]])
    state = solve(prob)
    assert abs(state.z[0] - state.z[1]) <= 1e-9
    assert state.residual <= prob.tolerances.mass_tol_rel
    assert abs(state.anchor_value - 0.75) <= 1e-8 * (1 + 0.75)


def test_asymmetric_three_targets_against_oracle(pb2):
    targets = [[0.2, 0.3], [0.7, 0.6], [0.5, 0.85]]
    grid_mass = SourceGrid([0, 0], [1, 1], [48, 48]).total_mass
    masses = np.array([0.5, 0.3, 0.2]) * grid_mass
    prob = unit_problem(pb2, targets, masses=masses)
    state = solve(prob)
    assert state.residual <= prob.tolerances.mass_tol_rel
    z_oracle, m_oracle = oracle_solve(prob)
    tol = 2 * prob.tolerances.mass_tol_rel * grid_mass
    assert np.max(np.abs(state.decomposition.masses - m_oracle)) <= tol


def test_permutation_invariance(pb2):
    targets = [[0.2, 0.3], [0.7, 0.6], [0.5, 0.85]]
    grid_mass = SourceGrid([0, 0], [1, 1], [48, 48]).total_mass
    masses = np.array([0.5, 0.3, 0.2]) * grid_mass
    perm = [2, 0, 1]
    s1 = solve(unit_problem(pb2, targets, masses=masses))
    s2 = solve(unit_problem(pb2, [targets[k] for k in perm],
                            masses=masses[perm]))
    assert np.max(np.abs(s1.z[perm] - s2.z)) <= 1e-9


def test_determinism(pb2):
    targets = [[0.2, 0.3], [0.7, 0.6], [0.5, 0.85]]
    grid_mass = SourceGrid([0, 0], [1, 1], [48, 48]).total_mass
    masses = np.array([0.5, 0.3, 0.2]) * grid_mass
    s1 = solve(unit_problem(pb2, targets, masses=masses))
    s2 = solve(unit_problem(pb2, targets, masses=masses))
    assert np.array_equal(s1.z, s2.z)
    assert s1.residual == s2.residual
    assert s1.residual_history == s2.residual_history


def test_residual_monotone_after_first_sweep(pb2):
    pts = [((i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)]
    prob = unit_problem(pb2, pts, res=64)
    state = solve(prob)
    hist = state.residual_history
    assert all(hist[k + 1] <= hist[k] + 1e-15 for k in range(1, len(hist) - 1))


def test_partition_invariant_at_solution(pb2):
    prob = unit_problem(pb2, [[0.3, 0.4], [0.7, 0.6]])
    state = solve(prob)
    assert state.decomposition.masses.sum() == \
        pytest.approx(prob.grid.total_mass, rel=1e-13)
    # the cells with an axis neighbor owned by another piece
    assert state.interface_cells == interface_mask(
        prob.grid, state.decomposition.assignment).sum() > 0


def test_duplicate_target_infeasible(pb2):
    prob = unit_problem(pb2, [[0.5, 0.5], [0.5, 0.5]],
                        tolerances=SolverTolerances(max_sweeps=20))
    with pytest.raises(InfeasibleBracket) as exc_info:
        solve(prob)
    assert exc_info.value.piece_index == 1


def test_equal_mass_8x8_beam_converges(pb2):
    # a sweep that does not lower the residual is no certificate of
    # infeasibility: this feasible layout used to raise InfeasibleBracket
    pts = [((i + 0.5) / 8, (j + 0.5) / 8) for i in range(8) for j in range(8)]
    prob = unit_problem(pb2, pts, res=64)
    state = solve(prob)
    assert state.residual <= prob.tolerances.mass_tol_rel
    assert abs(state.anchor_value - 0.75) <= 1e-8 * (1 + 0.75)


# pinned on the damped Newton over sub-cell masses: one threshold pass,
# then four Newton steps; the same inputs must repeat it bit for bit
PINNED_4X4_Z = bytes.fromhex(
    "8e47dd9e840be53f0d52ee9e840be53fce85f19e840be53fe502f49e840be53f"
    "fbd3ec9e840be53f3bcae09e840be53fd389ee9e840be53f3197f29e840be53f"
    "18d1f19e840be53fc788f29e840be53ff9b4f29e840be53f2088ec9e840be53f"
    "9fe9ef9e840be53fac43ec9e840be53f03a4e39e840be53ff6e5f29e840be53f")
PINNED_4X4_HISTORY = (
    0.049772399398852654, 0.011262772969783647, 0.0004766896203073634,
    1.0950357951372558e-06, 7.36354199837308e-10)


def test_4x4_beam_solution_is_pinned(pb2):
    pts = [((i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)]
    state = solve(unit_problem(pb2, pts, res=64))
    assert state.z.tobytes() == PINNED_4X4_Z
    assert state.residual_history == PINNED_4X4_HISTORY


def test_no_convergence_carries_best_state(pb2):
    # one sweep cannot finish an asymmetric three-target problem
    targets = [[0.2, 0.3], [0.7, 0.6], [0.5, 0.85]]
    grid_mass = SourceGrid([0, 0], [1, 1], [48, 48]).total_mass
    masses = np.array([0.5, 0.3, 0.2]) * grid_mass
    prob = unit_problem(
        pb2, targets, masses=masses,
        tolerances=SolverTolerances(mass_tol_rel=1e-9, max_sweeps=1))
    with pytest.raises(NoConvergence) as exc_info:
        solve(prob)
    assert exc_info.value.best is not None
    assert exc_info.value.best.residual < 1.0


# 16 random beam targets on 16^2 cells: the first Newton step backtracks,
# and one threshold pass leaves a target empty
SIXTEEN_TARGETS = np.random.default_rng(2).uniform(0.0, 1.0, (16, 2))


@pytest.mark.parametrize("constant, value, message", [
    ("TAU_MIN", 1.0, "Newton damping fell below 1.0e+00 at step 1; "),
    ("START_PASSES", 1, "threshold passes left 1 targets empty"),
    ("cell_split", cut_off_two_targets(cell_split),
     "singular Newton system at step 1; best residual "),
], ids=["damping", "empty-target", "singular"])
def test_no_convergence_routes_carry_the_best_state(pb2, monkeypatch,
                                                    constant, value, message):
    import gjet.semidiscrete as sd

    monkeypatch.setattr(sd, constant, value)
    prob = unit_problem(pb2, SIXTEEN_TARGETS, res=16)
    with pytest.raises(NoConvergence) as exc_info:
        solve(prob)
    assert str(exc_info.value).startswith(message)
    best = exc_info.value.best
    assert best is not None and best.sweeps == 0
    assert best.z.shape == (16,)
    assert best.residual == np.max(np.abs(
        best.decomposition.masses - prob.masses)) / prob.grid.total_mass
    # without the limit the same problem solves
    monkeypatch.undo()
    assert solve(prob).residual <= prob.tolerances.mass_tol_rel


# interfaces on cell faces: equal masses on layouts the grid divides
# evenly, with the anchor on an interface (x0 = 1/2); every size solves
@pytest.mark.parametrize("cells", range(960, 1089, 16))
def test_face_aligned_1d_layout_solves(cells):
    grid = SourceGrid([0.0], [1.0], [cells])
    prob = SemiDiscreteProblem(QuadraticOT(1), grid,
                               np.linspace(0.1, 0.9, 8)[:, None],
                               np.full(8, 1.0 / 8), ([0.5], 0.0))
    assert solve(prob).residual <= prob.tolerances.mass_tol_rel


@pytest.mark.parametrize("res", [32, 48, 64, 96, 128, 256])
def test_face_aligned_quadratic_lattice_solves(res):
    pts = [((i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)]
    prob = unit_problem(QuadraticOT(2), pts, res=res, u0=0.0,
                        x0=[0.5, 0.5])
    state = solve(prob)
    assert state.residual <= prob.tolerances.mass_tol_rel
    assert abs(state.anchor_value) <= prob.tolerances.anchor_tolerance(0.0)


def test_solve_other_generators():
    from gjet.genfun import PointSourcePlane, QuadraticOT

    qot = QuadraticOT(2)
    grid = SourceGrid([0, 0], [1, 1], [64, 64])
    prob = SemiDiscreteProblem(
        qot, grid, [[0.313, 0.416], [0.684, 0.591]],
        [grid.total_mass * 0.6, grid.total_mass * 0.4], ([0.5, 0.5], 0.2))
    state = solve(prob)
    assert state.residual <= prob.tolerances.mass_tol_rel
    assert abs(state.anchor_value - 0.2) <= 1e-8 * 1.2

    ps = PointSourcePlane(2, tau=-1.0)
    g2 = SourceGrid([-0.4, -0.4], [0.4, 0.4], [64, 64])
    prob = SemiDiscreteProblem(
        ps, g2, [[0.17, 0.03], [-0.22, -0.08], [0.02, 0.21]],
        g2.total_mass * np.array([0.5, 0.3, 0.2]), ([0.0, 0.0], 2.5))
    state = solve(prob)
    assert state.residual <= prob.tolerances.mass_tol_rel
    assert abs(state.anchor_value - 2.5) <= 1e-8 * 3.5
    # the transform involution holds for this generator as well
    from gjet.gconvex import dual_transform, g_transform

    sol = solution_function(prob, state.z)
    v = g_transform(sol, prob.targets, g2)
    vstar = dual_transform(ps, prob.targets, v, g2)
    u = values_matrix(sol, g2).max(axis=0).reshape(g2.res)
    assert np.max(np.abs(vstar - u)) <= 1e-6


@pytest.mark.parametrize("n, res", [(2, 32), (3, 12)])
def test_point_source_cells_and_values_repeat_the_solver(n, res):
    # the solver, cell_masses, values_matrix and eval_piecewise all take
    # the pieces from the instance's one value formula, so cells, masses
    # and values agree bit for bit
    ps = PointSourcePlane(n, tau=-1.0)
    grid = SourceGrid([-0.4] * n, [0.4] * n, [res] * n)
    sites = np.array([[0.17, 0.03, 0.05], [-0.22, -0.08, 0.0],
                      [0.02, 0.21, -0.1]])[:, :n]
    prob = SemiDiscreteProblem(ps, grid, sites,
                               grid.total_mass * np.array([0.5, 0.3, 0.2]),
                               (np.zeros(n), 2.5))
    state = solve(prob)
    sol = solution_function(prob, state.z)
    dec = cell_masses(sol, grid)
    assert np.array_equal(dec.assignment, state.decomposition.assignment)
    assert np.array_equal(dec.masses, state.decomposition.masses)
    vals = values_matrix(sol, grid)
    for k, x in enumerate(grid.centers):
        assert eval_piecewise(sol, x) == (vals[:, k].max(),
                                          int(np.argmax(vals[:, k]))), k


@pytest.mark.parametrize("res", [16, 17])
def test_tetrahedral_3d_layout_solves(res):
    # the symmetric 3-D layout and anchor of the solver_stress benchmark:
    # cells on the bisector planes split between their pieces, so the
    # symmetric parameters solve it (the lowest-index tie rule of
    # center-only cells left a residual of 0.024 at 16^3)
    from gjet.genfun import QuadraticOT

    grid = SourceGrid([0.0] * 3, [1.0] * 3, [res] * 3)
    sites = [[0.25, 0.25, 0.25], [0.75, 0.75, 0.25], [0.75, 0.25, 0.75],
             [0.25, 0.75, 0.75]]
    prob = SemiDiscreteProblem(QuadraticOT(3), grid, sites,
                               np.full(4, grid.total_mass / 4),
                               ([0.5, 0.5, 0.5], 0.2),
                               SolverTolerances(mass_tol_rel=1e-3))
    state = solve(prob)
    assert state.residual <= 1e-3
    assert abs(state.anchor_value - 0.2) <= 1e-8 * 1.2
    assert np.ptp(state.z) <= 1e-12


def test_validate_rejects_inadmissible_source_box():
    from gjet.errors import DomainViolation
    from gjet.genfun import PointSourcePlane

    # the unit square leaves the |x| < 1 ball at its far corner
    ps = PointSourcePlane(2, tau=-1.0)
    grid = SourceGrid([0, 0], [1, 1], [32, 32])
    prob = SemiDiscreteProblem(ps, grid, [[0.2, 0.0]], [grid.total_mass],
                               ([0.5, 0.5], 2.5))
    diags = validate_problem(prob)
    assert any(d["kind"] == "DomainViolation" for d in diags)
    with pytest.raises(DomainViolation):
        solve(prob)


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

def lipschitz_diagnostic(state, prob):
    """Max forward-difference gradient norm of u over interior cells.

    For generators with a declared gradient bound the value should stay
    below K0 + O(h); the caller asserts the bound.
    """
    grid = prob.grid
    sol = solution_function(prob, state.z)
    u = values_matrix(sol, grid).max(axis=0).reshape(grid.res)
    corner = tuple(slice(0, r - 1) for r in grid.res)
    sq = np.zeros(u[corner].shape)
    for ax in range(grid.n):
        d = np.diff(u, axis=ax)[corner] / grid.h[ax]
        sq += d * d
    return float(np.sqrt(sq.max()))


def test_lipschitz_parallel_beam_bound(pb2):
    prob = unit_problem(pb2, [[0.3, 0.4], [0.7, 0.6]])
    state = solve(prob)
    h = float(np.max(prob.grid.h))
    val = lipschitz_diagnostic(state, prob)
    assert val <= 1.0 + 2 * h   # declared gradient bound K0 = 1


def test_lipschitz_quadratic_single_piece(qot2):
    prob = unit_problem(qot2, [[0.5, 0.5]], u0=0.2)
    state = solve(prob)
    sol = solution_function(prob, state.z)
    val = lipschitz_diagnostic(state, prob)
    # gradient of |x - y1|^2/2 is |x - y1|, maximal at the far corner
    far = max(np.linalg.norm(c - np.array([0.5, 0.5]))
              for c in prob.grid.centers)
    assert val == pytest.approx(far, rel=0.1)


def test_solution_positive_everywhere(pb2):
    prob = unit_problem(pb2, [[0.3, 0.4], [0.7, 0.6]])
    state = solve(prob)
    sol = solution_function(prob, state.z)
    u = values_matrix(sol, prob.grid).max(axis=0)
    assert np.all(u > 0)


def test_range_diagnostic_pass_and_fail(pb2):
    prob = unit_problem(pb2, [[0.25, 0.25], [0.75, 0.25],
                              [0.25, 0.75], [0.75, 0.75]])
    state = solve(prob)
    rep = range_diagnostic(state, prob)
    assert rep.status == "pass"
    assert rep.details["interfaces_checked"] > 0
    # shrink the declared hull so interpolated targets fall outside
    shrunk = np.array([[0.25, 0.25], [0.30, 0.25], [0.25, 0.30]])
    rep = range_diagnostic(state, prob, omega_star_hull=shrunk)
    assert rep.status == "fail"


def test_range_diagnostic_pinned_on_point_source_layout():
    # three point-source targets (tau = -1) jittered around fixed sites
    # with default_rng(7), as in the diagnose benchmark, at 64^2; the
    # verdict and the count of checked interfaces are pinned to the
    # values of the per-interface loop
    rng = np.random.default_rng(7)
    sites = np.array([[0.17, 0.03], [-0.22, -0.08], [0.02, 0.21]])
    targets = sites + rng.uniform(-0.03, 0.03, sites.shape)
    masses = np.array([0.5, 0.3, 0.2]) * rng.uniform(0.9, 1.1, 3)
    grid = SourceGrid([-0.4, -0.4], [0.4, 0.4], [64, 64])
    masses *= grid.total_mass / masses.sum()
    prob = SemiDiscreteProblem(PointSourcePlane(2, tau=-1.0), grid, targets,
                               masses, (np.zeros(2), 2.5))
    rep = range_diagnostic(prob=prob, state=solve(prob))
    assert rep.status == "pass"
    assert rep.details["interfaces_checked"] == 146
    assert rep.samples_used == 149


def _hull_point_sets():
    """(id, n, points) cases: random, lattice and near-lattice
    full-dimensional sets, sets that are flat in exact arithmetic, too few
    points, and n = 1."""
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for m in (n + 1, n + 2, 7, 16, 33, 64):
            yield f"random{n}d-{m}", n, rng.uniform(-1.0, 1.0, (m, n))
            yield f"thin{n}d-{m}", n, \
                5.0 + rng.normal(size=(m, n)) * [1.0, 1e-3, 1.0][:n]
        side = 4 if n == 2 else 3
        lattice = np.stack(np.meshgrid(*[np.arange(side) / side] * n,
                                       indexing="ij"), -1).reshape(-1, n)
        yield f"lattice{n}d", n, lattice
        yield f"near-lattice{n}d", n, \
            lattice + rng.uniform(-1e-9, 1e-9, lattice.shape)
        yield f"half-lattice{n}d", n, \
            lattice[rng.permutation(len(lattice))[:len(lattice) // 2]]
        k = rng.integers(-6, 7, (12, 1)).astype(float)
        yield f"collinear{n}d", n, \
            k * [1.0, 2.0, -0.5][:n] + [3.0, -1.0, 2.0][:n]
        if n == 3:   # the exact plane z = x + 2y
            ij = rng.integers(-6, 7, (12, 2)).astype(float)
            yield "coplanar3d", n, np.column_stack([ij, ij @ [1.0, 2.0]])
        yield f"simplex-face{n}d", n, rng.uniform(-1.0, 1.0, (n, n))
        yield f"one-point{n}d", n, rng.uniform(-1.0, 1.0, (1, n))
    yield "interval1d", 1, rng.uniform(-1.0, 1.0, (9, 1))
    yield "one-point1d", 1, np.array([[0.3]])


_HULL_CASES = list(_hull_point_sets())


@pytest.mark.parametrize("n, points", [c[1:] for c in _HULL_CASES],
                         ids=[c[0] for c in _HULL_CASES])
def test_hull_test_matches_qhull(n, points):
    # oracle: Qhull's facet equations, or the bounding box where Qhull
    # finds the hull flat (QhullError) and for n = 1
    from scipy.spatial import ConvexHull, QhullError

    lo, hi = points.min(axis=0), points.max(axis=0)
    tol = 0.02 * max(float(np.max(hi - lo)), 1.0)
    rng = np.random.default_rng(len(points))
    span = np.maximum(hi - lo, 0.5)
    queries = rng.uniform(lo - 0.3 * span, hi + 0.3 * span, (4000, n))
    queries = np.vstack([queries, points])
    try:
        eq = ConvexHull(points).equations if n > 1 else None
    except QhullError:
        eq = None
    if eq is None:
        excess = np.max(np.maximum(lo - queries, queries - hi), axis=1)
    else:
        excess = np.max(queries @ eq[:, :-1].T + eq[:, -1], axis=1)
    clear = np.abs(excess - tol) > 1e-9
    got = _hull_test(points, tol=tol)(queries)
    assert got.shape == (len(queries),) and got.dtype == bool
    assert np.array_equal(got[clear], excess[clear] <= tol)
    assert got[-len(points):].all()
    assert clear.sum() > 0.9 * len(queries)


def test_range_diagnostic_imports_no_scipy():
    # the diagnose path must not pull scipy in through a lazy import: the
    # first import of scipy.spatial costs about half a second and 30 MB;
    # nor gjet.conditions, whose compile was most of a first call's time
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from gjet.gconvex import SourceGrid
        from gjet.genfun import ParallelBeam
        from gjet.semidiscrete import (
            SemiDiscreteProblem, range_diagnostic, solve)
        grid = SourceGrid([0.0, 0.0], [1.0, 1.0], [24, 24])
        prob = SemiDiscreteProblem(
            ParallelBeam(2), grid, [[0.25, 0.3], [0.7, 0.35], [0.5, 0.8]],
            np.full(3, grid.total_mass / 3), (np.array([0.5, 0.5]), 0.75))
        rep = range_diagnostic(solve(prob), prob)
        assert rep.details["interfaces_checked"] > 0, rep
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] == "scipy" or m == "gjet.conditions"))
    """)
    import gjet

    src = os.path.dirname(os.path.dirname(gjet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
