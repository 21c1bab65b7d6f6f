"""Semi-discrete second boundary value problem.

Given a source density f on a gridded box and target points y_i with
prescribed masses g_i, find focal parameters z = (z_1, ..., z_N) so the
piecewise G-affine function u(x) = max_i G(x, y_i, z_i) pushes f onto
the g_i cell by cell, normalized by u(x0) = u0.

Algorithm: normalized coordinate bisection over the focal parameters
(supporting-paraboloid style).  Every piece starts at its anchor value
z_i = H(x0, y_i, u0), so the initial graph passes through (x0, u0) and
no piece is ever raised above that height (the clamp).  Sweeps bisect
each z_i to match its mass holding the others fixed; per-piece mass is
monotone non-increasing in its own z_i because G decreases in z.  If a
full sweep leaves no piece clamped and the anchor value drifted low,
all parameters shift down together until the nearest piece re-pins the
anchor; the shift size is exact (smallest clamp gap), which is the
fixed point the anchor bisection would converge to.

The contract is "converged or explicit NoConvergence": the solver never
returns a silently unconverged state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import genfun
from .conditions import ConditionReport
from .errors import (
    AnchorInadmissible,
    DomainViolation,
    GjetError,
    InfeasibleBracket,
    MassImbalance,
    NoConvergence,
)
from .gconvex import (
    CellDecomposition,
    GAffinePiece,
    PiecewiseGSolution,
    SourceGrid,
    interface_cell_count,
    interface_point_rows,
    interpolated_support_rows,
    neighbor_pairs,
    values_matrix,
)
from .genfun import GeneratingFunction

__all__ = [
    "SolverTolerances",
    "SemiDiscreteProblem",
    "SolutionState",
    "validate_problem",
    "solve",
    "solution_function",
    "lipschitz_diagnostic",
    "range_diagnostic",
]


@dataclass(frozen=True)
class SolverTolerances:
    mass_tol_rel: float = 1e-3
    anchor_tol: Optional[float] = None  # default 1e-8 * (1 + |u0|)
    max_sweeps: int = 500
    bisect_steps: int = 40
    z_tol: float = 1e-12

    def anchor_tolerance(self, u0: float) -> float:
        if self.anchor_tol is not None:
            return self.anchor_tol
        return 1e-8 * (1.0 + abs(u0))


@dataclass(frozen=True)
class SemiDiscreteProblem:
    gf: GeneratingFunction
    grid: SourceGrid
    targets: np.ndarray          # (N, n)
    masses: np.ndarray           # (N,)
    anchor: tuple                # (x0, u0), x0 interior to the source box
    tolerances: SolverTolerances = field(default_factory=SolverTolerances)

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
    interface_cells: int

    def solution(self, prob: SemiDiscreteProblem) -> PiecewiseGSolution:
        return solution_function(prob, self.z)


def solution_function(prob: SemiDiscreteProblem, z) -> PiecewiseGSolution:
    pieces = [GAffinePiece(tuple(y), float(zi))
              for y, zi in zip(prob.targets, z)]
    return PiecewiseGSolution(prob.gf, pieces, prob.anchor)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate_problem(prob: SemiDiscreteProblem, *, raise_on_error: bool = False):
    """Mass balance, anchor admissibility and bracket feasibility.

    Returns a list of diagnostic dicts; with raise_on_error the first
    failure raises its dedicated exception carrying the full list as
    its diagnostics attribute.
    """
    return _validate(prob, raise_on_error)[0]


def _validate(prob: SemiDiscreteProblem, raise_on_error: bool) -> tuple:
    """validate_problem's diagnostics, the anchored parameters and the
    grid-wide upper ends of z per target (NaN where a target failed):
    what solve starts from."""
    diags = []
    gf, grid = prob.gf, prob.grid
    x0, u0 = prob.anchor
    tol = prob.tolerances
    total = grid.total_mass

    if np.any(prob.masses <= 0):
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
    if gf.g5_constants is not None and interior:
        dist = float(min(np.min(x0 - grid.lo), np.min(grid.hi - x0)))
        floor = gf.g5_constants.m0 + gf.g5_constants.k0 * dist
        if not u0 > floor:
            diags.append({
                "kind": "AnchorInadmissible",
                "message": f"anchor height u0 = {u0} must exceed "
                           f"m0 + K0 dist(x0, boundary) = {floor:.6g}",
                "floor": floor})

    # bracket feasibility: the anchored parameter must sit strictly below
    # the largest z admissible on the whole grid
    z_anchor = np.full(len(prob.targets), math.nan)
    z_hi = np.full(len(prob.targets), math.nan)
    z_rows, status, g_range = genfun.dual_H_rows(gf, x0[None, :],
                                                 prob.targets, u0)
    for i, y in enumerate(prob.targets):
        if not np.all(gf.admissible_pair_batch(grid.centers, y)):
            diags.append({
                "kind": "DomainViolation", "piece": i,
                "message": f"target {i}: some grid centers pair "
                           f"inadmissibly with it (source box leaves the "
                           f"admissible set of {gf.name})"})
            continue
        lo_arr, hi_arr = gf.z_interval_batch(grid.centers, y)
        sup_lo = float(np.max(lo_arr))
        z_hi[i] = inf_hi = float(np.min(hi_arr))
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

    if raise_on_error and diags:
        exc_cls = {"MassImbalance": MassImbalance,
                   "AnchorInadmissible": AnchorInadmissible,
                   "InfeasibleBracket": InfeasibleBracket,
                   "DomainViolation": DomainViolation}[diags[0]["kind"]]
        exc = exc_cls(diags[0]["message"])
        exc.diagnostics = diags
        raise exc
    return diags, z_anchor, z_hi


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------

def _sweep_others(values: np.ndarray):
    """Yield (i, max of the other rows, tie flag) for each row in order.

    The caller may overwrite row i before it asks for row i + 1, as a
    coordinate sweep does.  Rows after i are not touched until then, so
    their suffix maxima are built once per sweep; the rows before i are
    folded into a running prefix max.  The tie flag marks the cells where
    no row before i attains the max of the others, i.e. where row i wins a
    tie under the lowest-index rule.  O(N * M) per sweep.
    """
    n_pieces, m = values.shape
    after = np.empty_like(values)       # after[i] = max of rows i+1..
    after[-1] = -np.inf
    for k in range(n_pieces - 2, -1, -1):
        np.maximum(values[k + 1], after[k + 1], out=after[k])
    before = np.full(m, -np.inf)
    for i in range(n_pieces):
        if i > 0:
            np.maximum(before, values[i - 1], out=before)
        yield i, np.maximum(before, after[i]), after[i] > before


def _mass_of(vals_i, m_other, wins_ties, cell_mass):
    """Mass captured by a piece (argmax with lowest-index tie rule)."""
    wins = vals_i > m_other
    ties = (vals_i == m_other) & wins_ties
    return float(cell_mass[wins | ties].sum())


def solve(prob: SemiDiscreteProblem) -> SolutionState:
    """Coordinate bisection to the prescribed cell masses.

    Raises NoConvergence with the best state attached when the sweep
    budget runs out, InfeasibleBracket on a certificate: a full sweep
    moves no parameter while a clamped target's cell stays empty
    (unreachable at this anchor).  A sweep costs O(N * M * bisect_steps)
    for N pieces and M cells (see _sweep_others).  A problem that fails
    validate_problem raises its first diagnostic's exception, with every
    diagnostic in its diagnostics attribute.
    """
    _diags, z_anchor, z_hi = _validate(prob, raise_on_error=True)
    gf, grid = prob.gf, prob.grid
    x0, u0 = prob.anchor
    tol = prob.tolerances
    anchor_tol = tol.anchor_tolerance(u0)
    total = grid.total_mass
    n_pieces = len(prob.targets)
    cell_mass = grid.cell_mass
    g = prob.masses

    fns = [gf.piece_values_fn(grid.centers, y) for y in prob.targets]
    anchor_fns = [gf.piece_values_fn(x0[None, :], y) for y in prob.targets]

    z = z_anchor.copy()
    values = np.stack([fns[i](z[i]) for i in range(n_pieces)])

    def anchor_value():
        return float(max(anchor_fns[i](z[i])[0] for i in range(n_pieces)))

    def residual_of(dec):
        return float(np.max(np.abs(dec.masses - g)) / total)

    def state(z, dec, anchor, sweeps):
        return SolutionState(
            z=z.copy(), decomposition=dec, residual=residual_of(dec),
            anchor_value=anchor, sweeps=sweeps,
            residual_history=tuple(history),
            interface_cells=interface_cell_count(grid, dec.assignment))

    dec = CellDecomposition.from_values(values, cell_mass)
    residual = residual_of(dec)
    history = [residual]
    best = (residual, z.copy(), dec, anchor_value(), 0)
    if residual <= tol.mass_tol_rel:
        return state(z, dec, anchor_value(), 0)

    empty_at_clamp = np.zeros(n_pieces, dtype=bool)
    for sweep in range(1, tol.max_sweeps + 1):
        z_start = z.copy()
        for i, m_other, wins_ties in _sweep_others(values):
            a = z_anchor[i]
            vals_a = fns[i](a)
            mass_a = _mass_of(vals_a, m_other, wins_ties, cell_mass)
            if mass_a <= g[i]:
                # even the highest admissible graph is under-massed: clamp
                z[i] = a
                values[i] = vals_a
                empty_at_clamp[i] = mass_a == 0.0
                continue
            empty_at_clamp[i] = False

            # find an over-shot upper end with mass <= g_i
            if math.isfinite(z_hi[i]):
                b = z_hi[i] - 1e-12 * max(1.0, abs(z_hi[i]))
                vals_b = fns[i](b)
                mass_b = _mass_of(vals_b, m_other, wins_ties, cell_mass)
            else:
                b = max(2.0 * a, a + 1.0)
                mass_b = math.inf
                vals_b = None
                for _ in range(80):
                    vals_b = fns[i](b)
                    mass_b = _mass_of(vals_b, m_other, wins_ties, cell_mass)
                    if mass_b <= g[i]:
                        break
                    b *= 2.0
            if mass_b > g[i]:
                # still over-massed at the admissible top: park at the edge
                z[i] = b
                values[i] = vals_b
                continue

            # bisection keeps mass(a) >= g_i >= mass(b)
            for _ in range(tol.bisect_steps):
                if b - a <= tol.z_tol * (1.0 + abs(a)):
                    break
                mid = 0.5 * (a + b)
                vals_mid = fns[i](mid)
                mass_mid = _mass_of(vals_mid, m_other, wins_ties, cell_mass)
                if mass_mid >= g[i]:
                    a, vals_a, mass_a = mid, vals_mid, mass_mid
                else:
                    b, vals_b, mass_b = mid, vals_mid, mass_mid
            if abs(mass_a - g[i]) <= abs(mass_b - g[i]):
                z[i], values[i] = a, vals_a
            else:
                z[i], values[i] = b, vals_b

        # restore the anchor when every piece floated off its clamp
        gaps = z - z_anchor
        if np.min(gaps) > 0 and anchor_value() < u0 - anchor_tol:
            shift = float(np.min(gaps))
            z = z - shift
            for i in range(n_pieces):
                values[i] = fns[i](z[i])

        dec = CellDecomposition.from_values(values, cell_mass)
        residual = residual_of(dec)
        history.append(residual)
        if residual < best[0]:
            best = (residual, z.copy(), dec, anchor_value(), sweep)

        if residual <= tol.mass_tol_rel \
                and abs(anchor_value() - u0) <= anchor_tol:
            return state(z, dec, anchor_value(), sweep)

        # certificate: a sweep that moves no parameter is a fixed point, so
        # a clamped piece whose cell is still empty can never gain mass
        stuck = empty_at_clamp & (dec.masses == 0) & (g > 0)
        if np.any(stuck) and np.array_equal(z, z_start):
            idx = int(np.argmax(stuck))
            raise InfeasibleBracket(
                f"target {idx} keeps an empty cell at its anchored parameter; "
                f"it is unreachable at this normalization", piece_index=idx)

    raise NoConvergence(
        f"sweep budget {tol.max_sweeps} exhausted; best residual {best[0]:.3e}",
        best=state(*best[1:]))


# --------------------------------------------------------------------------
# diagnostics on solved states
# --------------------------------------------------------------------------

def lipschitz_diagnostic(state: SolutionState, prob: SemiDiscreteProblem) -> float:
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


def _hull_test(points: np.ndarray, tol: float = 1e-9):
    """Membership test in the convex hull of points, padded by tol.

    The hull is built once; the returned function maps (k, n) queries to
    a (k,) bool array.
    """
    from scipy.spatial import ConvexHull, QhullError

    points = np.asarray(points, dtype=float)
    lo, hi = points.min(axis=0), points.max(axis=0)

    def in_box(queries):
        return np.all((queries >= lo - tol) & (queries <= hi + tol), axis=1)

    if points.shape[1] == 1:
        return in_box
    try:
        eq = ConvexHull(points).equations
    except QhullError:
        # degenerate hull: fall back to bounding box membership
        return in_box
    return lambda queries: np.all(queries @ eq[:, :-1].T + eq[:, -1] <= tol,
                                  axis=1)


def range_diagnostic(state: SolutionState, prob: SemiDiscreteProblem,
                     omega_star_hull=None, *,
                     interp_t: float = 0.5,
                     max_interfaces: int = 200,
                     hull_pad_rel: float = 0.01) -> ConditionReport:
    """Targets reached by the solution stay in the target hull.

    Piece targets are the declared points, so they lie in the hull
    trivially; the substantive part maps interpolated supports at cell
    interfaces through the forward map and checks that the interpolated
    targets remain inside.  Membership is padded by hull_pad_rel times
    the hull diameter: interpolated supports trace curved slope-segment
    images whose chords bow outside the Euclidean hull at second order
    in the slope gap.

    At most about max_interfaces adjacent-cell pairs with different
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
    pad = hull_pad_rel * max(diam, 1e-12)
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
    a, b = pairs[:, ::max(1, pairs.shape[1] // max_interfaces)]
    x_star, exchange = interface_point_rows(
        sol, lab[a], lab[b], grid.centers[a], grid.centers[b])
    x_star = x_star[exchange]
    y0, _u0, _n_active, ok = interpolated_support_rows(sol, x_star, interp_t)
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
        details={"interfaces_checked": checked, "interp_t": interp_t})
