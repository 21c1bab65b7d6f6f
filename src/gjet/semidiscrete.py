"""Semi-discrete second boundary value problem.

Given a source density f on a gridded box and target points y_i with
prescribed masses g_i, find focal parameters z = (z_1, ..., z_N) so the
piecewise G-affine function u(x) = max_i G(x, y_i, z_i) pushes f onto
the g_i cell by cell, normalized by u(x0) = u0.

Algorithm: a damped Newton on z over sub-cell masses, which are
continuous in z (gconvex.cell_split), as in Kitagawa-Merigot-Thibert,
"Convergence of a Newton algorithm for semi-discrete optimal transport"
(JEMS 2019).  The equations are the N mass equations, of which N - 1
are independent because the masses always sum to the source mass, plus
the anchor equation max_i G(x0, y_i, z_i) = u0.  The start (_start)
puts every piece at its anchor value z_i = H(x0, y_i, u0) and runs
Gauss-Seidel passes of exact threshold steps (_threshold_pass) while
some target is empty; the Newton starts when every target has mass.
Each Newton step solves one dense N x N system; the step is halved
until every mass stays at least half the smaller of the smallest start
mass and the smallest g_i, and the residual drops by the factor
1 - tau / 2.  One step costs one value pass over the M cells and
bundles on the cells that two pieces share.

The contract is "converged or explicit NoConvergence", and only
validation calls a problem infeasible (InfeasibleBracket).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import errors, genfun
from .errors import GjetError, NoConvergence
from .gconvex import (
    CellDecomposition,
    PiecewiseGSolution,
    SourceGrid,
    cell_split,
    grid_z_interval,
    interface_mask,
    interface_point_rows,
    interpolated_support_rows,
    neighbor_pairs,
)
from .genfun import ConditionReport, GeneratingFunction, SolverTolerances

__all__ = [
    "SolverTolerances",
    "SemiDiscreteProblem",
    "SolutionState",
    "validate_problem",
    "solve",
    "solution_function",
    "range_diagnostic",
]


@dataclass(frozen=True)
class SemiDiscreteProblem:
    gf: GeneratingFunction
    grid: SourceGrid
    targets: np.ndarray          # (N, n)
    masses: np.ndarray           # (N,)
    anchor: tuple                # (x0, u0), x0 interior to the source box
    tolerances: SolverTolerances

    def __init__(self, gf, grid, targets, masses, anchor,
                 tolerances: SolverTolerances = None):
        object.__setattr__(self, "gf", gf)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "targets",
                           np.asarray(targets, dtype=float).reshape(-1, gf.dimension))
        object.__setattr__(self, "masses",
                           np.asarray(masses, dtype=float).reshape(-1))
        x0 = np.asarray(anchor[0], dtype=float).reshape(gf.dimension)
        object.__setattr__(self, "anchor", (x0, float(anchor[1])))
        object.__setattr__(self, "tolerances", tolerances or SolverTolerances())
        if len(self.targets) != len(self.masses):
            raise ValueError("targets and masses lengths disagree")
        if len(self.targets) == 0:
            raise ValueError("at least one target is required")


@dataclass(frozen=True)
class SolutionState:
    z: np.ndarray
    decomposition: CellDecomposition
    residual: float
    anchor_value: float
    sweeps: int
    residual_history: tuple
    interface_cells: int    # cells with an axis neighbor of another label


def solution_function(prob: SemiDiscreteProblem, z) -> PiecewiseGSolution:
    return PiecewiseGSolution(prob.gf, prob.targets, z)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate_problem(prob: SemiDiscreteProblem):
    """Mass balance, anchor admissibility, brackets and distinct targets.

    Returns a list of diagnostic dicts, empty for a valid problem; solve
    raises the first one's exception.  An InfeasibleBracket proves that
    u0 lies below every grid-admissible graph of target i at x0, or that
    target i repeats an earlier target (README, "validate_problem").
    """
    return _validate(prob)[0]


def _validate(prob: SemiDiscreteProblem) -> tuple:
    """validate_problem's diagnostics, the anchored parameters and the
    grid-wide ends of z per target (NaN where a target failed): what
    solve starts from."""
    diags = []
    gf, grid = prob.gf, prob.grid
    x0, u0 = prob.anchor
    tol = prob.tolerances
    total = grid.total_mass

    if not np.all(prob.masses > 0):
        diags.append({"kind": "MassImbalance",
                      "message": "target masses must be positive"})
    imbalance = abs(float(prob.masses.sum()) - total)
    if imbalance > tol.mass_tol_rel * total:
        diags.append({
            "kind": "MassImbalance",
            "message": f"sum of target masses differs from the source mass "
                       f"by {imbalance:.6g} (> {tol.mass_tol_rel:.1e} relative)",
            "imbalance": imbalance})

    interior = np.all(x0 > grid.lo) and np.all(x0 < grid.hi)
    if not interior:
        diags.append({"kind": "AnchorInadmissible",
                      "message": "anchor point x0 is not interior to the box"})
    bound = gf.g5_bound((grid.lo, grid.hi), prob.targets)
    if bound is not None and interior:
        dist = float(min(np.min(x0 - grid.lo), np.min(grid.hi - x0)))
        floor = bound.m0 + bound.k0 * dist
        if not u0 > floor:
            diags.append({
                "kind": "AnchorInadmissible",
                "message": f"anchor height u0 = {u0} must exceed "
                           f"m0 + K0 dist(x0, boundary) = {floor:.6g}",
                "floor": floor})

    # bracket feasibility: the anchored parameter must sit strictly below
    # the largest z admissible on the whole grid
    z_anchor = np.full(len(prob.targets), math.nan)
    z_lo, z_hi = grid_z_interval(gf, grid, prob.targets)
    z_rows, status, g_range = genfun.dual_H_rows(gf, x0[None, :],
                                                 prob.targets, u0)
    for i in range(len(prob.targets)):
        same = np.flatnonzero((prob.targets[:i] == prob.targets[i]).all(1))
        if len(same):
            diags.append({"kind": "InfeasibleBracket", "piece": i,
                          "message": f"target {i} repeats target {same[0]}: "
                                     f"their graphs are ordered on the whole "
                                     f"box, so they cannot both own mass"})
        if np.isnan(z_lo[i]):
            diags.append({
                "kind": "DomainViolation", "piece": i,
                "message": f"target {i}: some grid centers pair "
                           f"inadmissibly with it (source box leaves the "
                           f"admissible set of {gf.name})"})
            continue
        sup_lo, inf_hi = float(z_lo[i]), float(z_hi[i])
        try:
            genfun._raise_for_H(gf, status[i], u0, g_range[i])
        except GjetError as exc:
            diags.append({"kind": "InfeasibleBracket", "piece": i,
                          "message": f"target {i}: anchored parameter does not "
                                     f"exist ({exc})"})
            continue
        z_anchor[i] = za = float(z_rows[i])
        if not (za > sup_lo and za < inf_hi):
            diags.append({
                "kind": "InfeasibleBracket", "piece": i,
                "message": f"target {i}: anchored parameter {za:.6g} "
                           f"leaves the grid-admissible interval "
                           f"({sup_lo:.6g}, {inf_hi:.6g})",
                "z_anchor": za, "z_hi": inf_hi})
    return diags, z_anchor, z_lo, z_hi


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------

START_PASSES = 20     # threshold passes at most while a target is empty
TAU_MIN = 2.0 ** -30  # Newton damping floor


@dataclass(frozen=True)
class _Point:
    """The solver's state at one z: cell labels, sub-cell masses, their
    z-derivatives and the anchor value with its subgradient."""

    z: np.ndarray
    assignment: np.ndarray
    masses: np.ndarray
    jac: np.ndarray
    anchor: float
    anchor_grad: np.ndarray


def _threshold_pass(prob, fns, z, values, z_lo, z_top) -> bool:
    """One Gauss-Seidel pass of exact threshold steps over the pieces.

    Piece i owns cell c iff z_i < t_c = H(x_c, y_i, others_c), others
    the max of the other pieces at each cell (one h_batch call).  z_i
    moves to the threshold where the descending cumulative cell mass
    reaches g_i, capped below z_top, when that brings the mass of the
    cells it owns closer to g_i.  Rows after i are untouched until their
    turn, so others is the running max of the rows before i and a suffix
    max built once.  Updates z and values; returns whether any z_i moved.
    """
    cm, g = prob.grid.cell_mass, prob.masses
    after = np.maximum.accumulate(values[::-1], axis=0)[::-1]
    before = np.full(prob.grid.size, -np.inf)
    moved = False
    for i in range(len(z)):
        others = np.maximum(before, after[i + 1]) if i + 1 < len(z) \
            else before
        t = prob.gf.h_batch(prob.grid.centers, prob.targets[i], others)
        order = np.argsort(-np.nan_to_num(t, nan=-np.inf), kind="stable")
        k = min(int(np.searchsorted(np.cumsum(cm[order]), g[i])), len(t) - 1)
        z_new = min(float(t[order[k]]), z_top[i])
        if z_lo[i] < z_new:
            vals = fns[i](z_new)
            if abs(cm[vals > others].sum() - g[i]) \
                    < abs(cm[values[i] > others].sum() - g[i]):
                z[i], values[i] = z_new, vals
                moved = True
        np.maximum(before, values[i], out=before)
    return moved


def _point(prob, fns, z) -> _Point:
    """The solver's state at z."""
    values = np.stack([fns[i](z[i]) for i in range(len(z))])
    assignment, masses, jac = cell_split(prob.gf, prob.targets, z, prob.grid,
                                         values)
    at_x0 = prob.gf.bundle_batch(prob.anchor[0][None, :], prob.targets, z)
    anchor = float(at_x0.value.max())
    active = at_x0.value == anchor
    return _Point(z.copy(), assignment, masses, jac, anchor,
                  np.where(active, at_x0.dz, 0.0) / active.sum())


def _start(prob, fns, z_anchor, z_lo, z_top) -> _Point:
    """Every piece at its anchored parameter, then threshold passes (N > 1)
    while a target is empty, at most START_PASSES; one may stay empty."""
    z = z_anchor.copy()
    if len(z) == 1:
        return _point(prob, fns, z)
    values = np.stack([fns[i](z[i]) for i in range(len(z))])
    for _ in range(START_PASSES):
        moved = _threshold_pass(prob, fns, z, values, z_lo, z_top)
        pt = _point(prob, fns, z)
        if not moved or np.all(pt.masses > 0):
            break
    return pt


def solve(prob: SemiDiscreteProblem) -> SolutionState:
    """Damped Newton on the sub-cell masses and the anchor.

    Raises NoConvergence with the best state attached when the start
    leaves a target empty, when max_sweeps Newton steps are used up,
    when a Newton system is singular or when the damping falls below
    TAU_MIN.  A problem that fails validate_problem raises its first
    diagnostic's exception (the only source of InfeasibleBracket), with
    every diagnostic in diagnostics and the first one's piece in
    piece_index (None if it names none).
    """
    diags, z_anchor, z_lo, z_hi = _validate(prob)
    if diags:
        # a diagnostic's kind is the name of its exception class
        exc = getattr(errors, diags[0]["kind"])(diags[0]["message"])
        exc.diagnostics, exc.piece_index = diags, diags[0].get("piece")
        raise exc
    grid, u0 = prob.grid, prob.anchor[1]
    tol = prob.tolerances
    total = grid.total_mass
    g = prob.masses
    g_fit = g * (total / g.sum())     # the masses the cells can carry
    scale = total / (1.0 + abs(u0))   # anchor equation in mass units
    finite = np.where(np.isfinite(z_hi), z_hi, 0.0)
    z_top = np.where(np.isfinite(z_hi),
                     finite - 1e-12 * np.maximum(1.0, np.abs(finite)), np.inf)
    fns = [prob.gf.piece_values_fn(grid.centers, y) for y in prob.targets]

    def residual_of(pt):
        return float(np.max(np.abs(pt.masses - g)) / total)

    def merit(pt):
        return max(float(np.max(np.abs(pt.masses - g_fit))) / total,
                   abs(pt.anchor - u0) / (1.0 + abs(u0)))

    def converged(pt):
        return residual_of(pt) <= tol.mass_tol_rel \
            and abs(pt.anchor - u0) <= tol.anchor_tolerance(u0)

    def state(pt, sweeps):
        return SolutionState(
            z=pt.z.copy(),
            decomposition=CellDecomposition(pt.assignment, pt.masses),
            residual=residual_of(pt), anchor_value=pt.anchor, sweeps=sweeps,
            residual_history=tuple(history),
            interface_cells=int(interface_mask(grid, pt.assignment).sum()))

    pt = _start(prob, fns, z_anchor, z_lo, z_top)
    history = [residual_of(pt)]
    if converged(pt):
        return state(pt, 0)
    empty = int(np.sum(pt.masses == 0))
    if empty:
        raise NoConvergence(f"threshold passes left {empty} targets empty",
                            best=state(pt, 0))

    floor = 0.5 * min(float(pt.masses.min()), float(g.min()))
    best = (residual_of(pt), pt, 0)
    for sweep in range(1, tol.max_sweeps + 1):
        lhs = pt.jac + scale * pt.anchor_grad[None, :]
        rhs = (pt.masses - g_fit) + scale * (pt.anchor - u0)
        # a step NaN where LAPACK meets a zero pivot
        step = genfun._solve_rows(lhs[None], -rhs[None])[0][0]
        tau, now = 1.0, merit(pt)
        while True:
            z_try = pt.z + tau * step
            if np.all((z_lo < z_try) & (z_try < z_top)):
                trial = _point(prob, fns, z_try)
                if trial.masses.min() >= floor \
                        and merit(trial) <= (1.0 - 0.5 * tau) * now:
                    break
            tau *= 0.5
            if tau < TAU_MIN:
                # LAPACK may factor a rank-deficient system without a
                # zero pivot; the SVD names it, on this failure path only
                what = "singular Newton system" if np.linalg.matrix_rank(lhs) \
                    < len(lhs) else f"Newton damping fell below {TAU_MIN:.1e}"
                raise NoConvergence(
                    f"{what} at step {sweep}; best residual {best[0]:.3e}",
                    best=state(best[1], best[2]))
        pt = trial
        history.append(residual_of(pt))
        if history[-1] < best[0]:
            best = (history[-1], pt, sweep)
        if converged(pt):
            return state(pt, sweep)

    raise NoConvergence(
        f"Newton step budget {tol.max_sweeps} exhausted; best residual "
        f"{best[0]:.3e}", best=state(best[1], best[2]))


# --------------------------------------------------------------------------
# diagnostics on solved states
# --------------------------------------------------------------------------

HULL_BLOCK = 2 ** 16  # side tests per block of the facet search
INTERP_T = 0.5        # range_diagnostic: support interpolation parameter
MAX_INTERFACES = 200  # range_diagnostic: interfaces sampled, about
HULL_PAD_REL = 0.01   # range_diagnostic: hull padding / hull diameter


def _hull_test(points: np.ndarray, tol: float = 1e-9):
    """Membership test in the convex hull of points, padded by tol.

    Built once into a (k, n) -> (k,) bool function.  Facets (n = 2, 3):
    the planes through n points with every point on one side up to
    rounding, oriented outward.  n = 1 and flat hulls: the bounding box.
    """
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    lo, hi = points.min(axis=0), points.max(axis=0)
    if n == 1 or np.linalg.matrix_rank(points[1:] - points[0]) < n:
        return lambda q: np.all((q >= lo - tol) & (q <= hi + tol), axis=1)
    scale = 1.0 + float(np.abs(points).max())
    slack = 1e-12 * scale  # rounding of the side test
    subsets, eqs = itertools.combinations(range(m), n), []
    while (idx := np.fromiter(itertools.chain.from_iterable(itertools.islice(
            subsets, max(1, HULL_BLOCK // m))), dtype=np.intp)).size:
        d = points[idx.reshape(-1, n)[:, 1:]] - points[idx[::n], None]
        nrm = np.cross(d[:, 0], d[:, 1]) if n == 3 else d[:, 0, ::-1] * [1, -1]
        keep = (size := np.linalg.norm(nrm, axis=1)) > slack * scale ** (n - 2)
        nrm = nrm[keep] / size[keep, None]
        off = genfun._row_dot(nrm, points[idx[::n][keep]])
        side = points @ nrm.T - off
        for sign, on in ((1.0, np.all(side <= slack, axis=0)),
                         (-1.0, np.all(side >= -slack, axis=0))):
            eqs.append(sign * np.column_stack([nrm[on], -off[on]]))
    eq = np.concatenate(eqs)
    return lambda q: np.all(q @ eq[:, :-1].T + eq[:, -1] <= tol, axis=1)


def range_diagnostic(state: SolutionState, prob: SemiDiscreteProblem,
                     omega_star_hull=None):
    """A ConditionReport: targets reached by the solution stay in the hull.

    Piece targets are the declared points, so they lie in the hull
    trivially; the substantive part maps interpolated supports at cell
    interfaces through the forward map and checks that the interpolated
    targets remain inside.  Membership is padded by HULL_PAD_REL times
    the hull diameter: interpolated supports trace curved slope-segment
    images whose chords bow outside the Euclidean hull at second order
    in the slope gap.

    At most about MAX_INTERFACES adjacent-cell pairs with different
    owners are sampled (every stride-th in axis order).  Each sampled
    interface point (interface_point_rows) whose two active pieces give
    an admissible interpolated target y0 (interpolated_support_rows) is
    checked: y0 must lie in the padded hull.  All sampled interfaces go
    through those two row calls at once.
    """
    grid = prob.grid
    hull_pts = prob.targets if omega_star_hull is None \
        else np.asarray(omega_star_hull, dtype=float)
    diam = float(np.max(np.linalg.norm(
        hull_pts[:, None, :] - hull_pts[None, :, :], axis=-1)))
    pad = HULL_PAD_REL * max(diam, 1e-12)
    sol = solution_function(prob, state.z)
    in_hull = _hull_test(hull_pts, tol=pad)
    inside = in_hull(prob.targets)
    witness = None
    samples = len(prob.targets)
    if not np.all(inside):
        k = int(np.argmin(inside))
        witness = {"target": prob.targets[k], "kind": "declared_target_outside"}

    lab = state.decomposition.assignment
    pairs = neighbor_pairs(grid, lab)
    a, b = pairs[:, ::max(1, pairs.shape[1] // MAX_INTERFACES)]
    x_star, exchange = interface_point_rows(
        sol, lab[a], lab[b], grid.centers[a], grid.centers[b])
    x_star = x_star[exchange]
    y0, *_, ok = interpolated_support_rows(sol, x_star, INTERP_T)
    x_star, y0 = x_star[ok], y0[ok]
    checked = len(y0)
    outside = np.flatnonzero(~in_hull(y0))
    ok_all = witness is None and not len(outside)
    if len(outside):
        k = outside[-1]
        witness = {"x": x_star[k], "y0": y0[k], "kind": "interpolated_outside"}
    samples += checked
    status = "pass" if ok_all else "fail"
    return ConditionReport(
        name="range_confinement", status=status,
        extremal_value=float(checked),
        witness=witness if status == "fail" else None,
        samples_used=samples,
        details={"interfaces_checked": checked, "interp_t": INTERP_T})
