"""Piecewise G-affine functions on a gridded source domain.

The central object is a finite max of graphs

    u(x) = max_i G(x, y_i, z_i),

which is G-convex by construction.  This module provides evaluation
with the active-piece index, subdifferentials, support interpolation
between two active pieces, sections and their convexity diagnostic, the
G-transform and its dual (generalized Legendre transforms), and the
cell decomposition that turns the pieces into a mass partition of the
source density (generalized Laguerre cells).

Every path evaluates the pieces through one evaluator, the (pieces,
rows) matrix of G(x_k, y_i, z_i) from the generating function's single
value formula: values_matrix on the cell centers, eval_piecewise and
subdifferential on one row, the support interpolation, interface
bisection and dual transform on their own rows.  One builder,
CellDecomposition.from_values, turns such a matrix into cells and masses
for the solver, cell_masses and the CLI.

Cell assignment happens at cell centers only (ties go to the lowest
piece index); no partial-cell clipping is attempted, so per-piece masses
carry an O(h) rasterization error that callers must budget for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import genfun
from .conditions import ConditionReport, hull_report
from .errors import DomainViolation
from .genfun import GeneratingFunction

__all__ = [
    "GAffinePiece",
    "SourceGrid",
    "PiecewiseGSolution",
    "CellDecomposition",
    "eval_piecewise",
    "values_matrix",
    "subdifferential",
    "support_check",
    "interface_point",
    "interface_point_rows",
    "interpolated_support_rows",
    "section_set",
    "section_convexity",
    "g_transform",
    "dual_transform",
    "cell_masses",
    "validate_pieces_on_grid",
    "interface_cell_count",
    "interface_mask",
]

ACTIVE_TOL = 1e-9  # relative active-set tolerance, scaled by 1 + |u|


@dataclass(frozen=True)
class GAffinePiece:
    """One graph x -> G(x, y, z): target point y and focal parameter z."""

    y: tuple
    z: float

    def y_vec(self) -> np.ndarray:
        return np.asarray(self.y, dtype=float)


class SourceGrid:
    """Uniform cell grid over a box with a per-cell density.

    Cell centers double as the nodal lattice for finite differences.
    density has shape ``res``; the total mass is sum(density) * cell_vol.
    """

    def __init__(self, lo, hi, res, density=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.res = tuple(int(r) for r in np.atleast_1d(res))
        self.n = len(self.lo)
        if len(self.res) != self.n or len(self.hi) != self.n:
            raise ValueError("box and resolution dimensions disagree")
        if np.any(self.hi <= self.lo) or any(r < 2 for r in self.res):
            raise ValueError("degenerate grid box or resolution")
        self.h = (self.hi - self.lo) / np.asarray(self.res, dtype=float)
        self.cell_vol = float(np.prod(self.h))
        if density is None:
            density = np.ones(self.res)
        self.density = np.asarray(density, dtype=float).reshape(self.res)
        if np.any(~np.isfinite(self.density)) or np.any(self.density < 0):
            raise ValueError("density must be finite and nonnegative")
        axes = [self.lo[k] + (np.arange(self.res[k]) + 0.5) * self.h[k]
                for k in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.centers = np.stack([m.ravel() for m in mesh], axis=1)
        self.axes = axes
        self.cell_mass = (self.density * self.cell_vol).ravel()
        self.total_mass = float(self.cell_mass.sum())
        if not self.total_mass > 0:
            raise ValueError("total source mass must be positive")

    @property
    def size(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class PiecewiseGSolution:
    """Finite max of G-affine pieces with a normalization anchor (x0, u0)."""

    gf: GeneratingFunction
    pieces: tuple
    anchor: tuple  # (x0, u0)

    def __init__(self, gf, pieces: Sequence, anchor):
        object.__setattr__(self, "gf", gf)
        object.__setattr__(self, "pieces", tuple(
            p if isinstance(p, GAffinePiece)
            else GAffinePiece(tuple(np.asarray(p[0], dtype=float)), float(p[1]))
            for p in pieces))
        x0 = np.asarray(anchor[0], dtype=float)
        object.__setattr__(self, "anchor", (tuple(x0), float(anchor[1])))
        if not self.pieces:
            raise ValueError("a piecewise solution needs at least one piece")


@dataclass(frozen=True)
class CellDecomposition:
    """Total single-valued cell-to-piece assignment and per-piece masses."""

    assignment: np.ndarray  # (cells,) piece index per cell
    masses: np.ndarray      # (pieces,) sums of density * cell volume

    @classmethod
    def from_values(cls, values: np.ndarray,
                    cell_mass: np.ndarray) -> "CellDecomposition":
        """Cells of a (pieces, cells) value matrix: each cell goes to its
        argmax piece (ties: lowest index), each piece gets the summed
        cell_mass of its cells."""
        assignment = np.argmax(values, axis=0)
        return cls(assignment, np.bincount(assignment, weights=cell_mass,
                                           minlength=len(values)))


def _active_tol(u):
    """Active-set tolerance at the value(s) u."""
    return ACTIVE_TOL * (1.0 + np.abs(u))


def validate_pieces_on_grid(sol: PiecewiseGSolution, grid: SourceGrid) -> None:
    """Every piece must be admissible at every cell center: the pair
    (x, y_i) in the admissible set and z inside I(x, y_i)."""
    for i, piece in enumerate(sol.pieces):
        if not np.all(sol.gf.admissible_pair_batch(grid.centers,
                                                   piece.y_vec())):
            raise DomainViolation(
                f"piece {i}: some grid centers pair inadmissibly with its "
                f"target")
        lo, hi = sol.gf.z_interval_batch(grid.centers, piece.y_vec())
        if not np.all((lo < piece.z) & (piece.z < hi)):
            raise DomainViolation(
                f"piece {i}: focal parameter {piece.z} leaves its admissible "
                f"interval on the grid")


def _piece_rows(gf: GeneratingFunction, pieces, xs) -> np.ndarray:
    """(pieces, rows) matrix G(x_k, y_i, z_i) over rows xs (m, n)."""
    return np.stack([gf.value_batch(xs, p.y_vec(), p.z) for p in pieces])


def values_matrix(sol: PiecewiseGSolution, grid: SourceGrid) -> np.ndarray:
    """(pieces, cells) matrix of piece values at cell centers."""
    return _piece_rows(sol.gf, sol.pieces, grid.centers)


def eval_piecewise(sol: PiecewiseGSolution, x):
    """u(x) = max_i G(x, y_i, z_i) and the active index (ties: lowest)."""
    x = genfun._vec(x, sol.gf.dimension)[None, :]
    vals = _piece_rows(sol.gf, sol.pieces, x)[:, 0]
    if not np.all(np.isfinite(vals)):
        raise DomainViolation("piece value is not finite at the query point")
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx


def subdifferential(sol: PiecewiseGSolution, x):
    """Slope/target pairs (G_x(x, y_i, z_i), y_i) of all active pieces."""
    x = genfun._vec(x, sol.gf.dimension)[None, :]
    vals = _piece_rows(sol.gf, sol.pieces, x)[:, 0]
    u = float(np.max(vals))
    active = u - vals <= _active_tol(u)
    return [(sol.gf.grad_x_batch(x, p.y_vec(), p.z)[0], p.y_vec())
            for p, a in zip(sol.pieces, active) if a]


def _pair_gap(sol: PiecewiseGSolution, pair: np.ndarray, xs) -> np.ndarray:
    """G_i(x_k) - G_j(x_k) with (i, j) = pair[:, k]."""
    vals = _piece_rows(sol.gf, sol.pieces, xs)
    rows = np.arange(len(xs))
    return vals[pair[0], rows] - vals[pair[1], rows]


def interface_point_rows(sol: PiecewiseGSolution, i, j, x_a, x_b,
                         tol: float = 1e-13):
    """Points on the segments [x_a[k], x_b[k]] where pieces i[k], j[k] tie.

    Every row follows the bisection of interface_point: an endpoint
    where G_i - G_j vanishes is returned as is, else the sign must flip
    between the endpoints, and the bisection stops where the gap
    vanishes or the bracket is shorter than tol.  Returns (xs, exchange):
    exchange is False (and xs NaN) where the sign does not flip.
    """
    pair = np.stack([np.asarray(i, dtype=int).reshape(-1),
                     np.asarray(j, dtype=int).reshape(-1)])
    x_a = np.atleast_2d(np.asarray(x_a, dtype=float))
    x_b = np.atleast_2d(np.asarray(x_b, dtype=float))
    d = x_b - x_a
    fa = _pair_gap(sol, pair, x_a)
    fb = _pair_gap(sol, pair, x_b)
    s = np.full(len(x_a), np.nan)
    exchange = ~(fa * fb > 0)
    run = np.flatnonzero(exchange & (fa != 0.0) & (fb != 0.0))
    a = np.zeros(len(run))
    b = np.ones(len(run))
    for _ in range(200):
        if not len(run):
            break
        m = 0.5 * (a + b)
        fm = _pair_gap(sol, pair[:, run], x_a[run] + m[:, None] * d[run])
        stop = (fm == 0.0) | (b - a < tol)
        s[run[stop]] = m[stop]
        go = ~stop
        run, a, b, m, fm = run[go], a[go], b[go], m[go], fm[go]
        left = (fm > 0) == (fa[run] > 0)
        a = np.where(left, m, a)
        b = np.where(left, b, m)
    s[run] = 0.5 * (a + b)
    xs = x_a + s[:, None] * d
    at_b = fb == 0.0
    xs[at_b] = x_b[at_b]
    at_a = fa == 0.0
    xs[at_a] = x_a[at_a]
    xs[~exchange] = np.nan
    return xs, exchange


def interface_point(sol: PiecewiseGSolution, i: int, j: int, x_a, x_b,
                    tol: float = 1e-13):
    """Point on the segment [x_a, x_b] where pieces i and j tie.

    Requires the sign of G_i - G_j to flip between the endpoints;
    bisection, deterministic.  One row of interface_point_rows.
    """
    xs, exchange = interface_point_rows(sol, [i], [j], x_a, x_b, tol)
    if not exchange[0]:
        raise ValueError("pieces do not exchange along the segment")
    return xs[0]


def interpolated_support_rows(sol: PiecewiseGSolution, xs, t: float):
    """Interpolated supports between the two pieces active at each row.

    With p1, p2 the slopes of the two active pieces (lower index first),
    p0 = (1-t) p1 + t p2 and y0 the forward target at (x, u(x), p0).
    Returns (y0, u0, n_active, ok): ok marks rows with exactly two active
    pieces, finite piece values and an admissible forward solution; y0
    is NaN elsewhere.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    gf = sol.gf
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vals = _piece_rows(gf, sol.pieces, xs)
    u0 = vals.max(axis=0)
    active = u0 - vals <= _active_tol(u0)
    n_active = active.sum(axis=0)
    rows = np.flatnonzero((n_active == 2) & np.isfinite(vals).all(axis=0))
    first = np.argmax(active[:, rows], axis=0)
    second = len(sol.pieces) - 1 - np.argmax(active[::-1, rows], axis=0)
    ys = np.array([p.y_vec() for p in sol.pieces])
    zs = np.array([p.z for p in sol.pieces])
    slopes = [gf.bundle_batch(xs[rows], ys[i], zs[i]).grad_x
              for i in (first, second)]
    p0 = (1.0 - t) * slopes[0] + t * slopes[1]
    y_rows, _z, fwd_ok = genfun.forward_YZ_rows(gf, xs[rows], u0[rows], p0)
    y0 = np.full(xs.shape, np.nan)
    y0[rows[fwd_ok]] = y_rows[fwd_ok]
    ok = np.zeros(len(xs), dtype=bool)
    ok[rows[fwd_ok]] = True
    return y0, u0, n_active, ok


def support_check(sol: PiecewiseGSolution, grid: SourceGrid, x0, t: float, *,
                  support_tol: float = None, u_grid: np.ndarray = None):
    """Interpolated support between the two pieces active at x0.

    With p1, p2 the active slopes, sets p0 = (1-t) p1 + t p2, solves the
    forward map at (x0, u(x0), p0) for the target y0 (one row of
    interpolated_support_rows), re-snaps the focal parameter through the
    dual function so the candidate graph passes exactly through
    (x0, u(x0)), and sweeps the grid for G(x, y0, z0) <= u(x) +
    support_tol.  Returns (y0, z0, ok).
    """
    x0 = np.asarray(x0, dtype=float)
    y0, u0, n_active, ok = interpolated_support_rows(sol, x0, t)
    if n_active[0] != 2:
        raise ValueError(
            f"support interpolation needs exactly two active pieces, "
            f"found {n_active[0]}")
    if not ok[0]:
        raise DomainViolation(
            "no admissible interpolated support at the query point")
    y0, u0 = y0[0], float(u0[0])
    z0 = genfun.dual_H(sol.gf, x0, y0, u0).z_root
    if support_tol is None:
        support_tol = 1e-8 * (1.0 + abs(u0))
    if u_grid is None:
        u_grid = values_matrix(sol, grid).max(axis=0)
    cand = sol.gf.value_batch(grid.centers, y0, z0)
    ok = bool(np.all(cand <= u_grid + support_tol))
    return y0, float(z0), ok


def section_set(sol: PiecewiseGSolution, grid: SourceGrid, piece_index: int,
                sigma: float) -> np.ndarray:
    """Mask of cells where u < G_piece + sigma (sigma > 0) or of the
    contact set u = G_piece within the active tolerance (sigma = 0)."""
    if not 0 <= piece_index < len(sol.pieces):
        raise ValueError("piece index out of range")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    vals = values_matrix(sol, grid)
    u = vals.max(axis=0)
    gi = vals[piece_index]
    if sigma == 0.0:
        return (u - gi) <= _active_tol(u)
    return u < gi + sigma


def section_convexity(sol: PiecewiseGSolution, grid: SourceGrid,
                      piece_index: int, sigma: float, *,
                      raster_res: int = None,
                      hull_cells_tol: float = 2.0) -> ConditionReport:
    """Convexity of the section image under Q( . , y0, z0).

    This is the hull-ratio diagnostic of the section-convexity property:
    sections of a G-convex function are G-convex with respect to the
    supporting piece, i.e. their Q-images are convex sets.
    """
    mask = section_set(sol, grid, piece_index, sigma)
    piece = sol.pieces[piece_index]
    image = sol.gf.q_batch(grid.centers[mask], piece.y_vec(), piece.z)
    return hull_report(f"section_convexity/piece{piece_index}/sigma{sigma}",
                       image, raster_res, hull_cells_tol, sigma=sigma)


def g_transform(sol: PiecewiseGSolution, targets, grid: SourceGrid, *,
                u_grid: np.ndarray = None) -> np.ndarray:
    """v(y_j) = max over grid nodes of H(x, y_j, u(x)).

    Grid nodes only; accuracy is limited by the grid, which is the
    stated contract.  For a piece (y_j, z_j) present in the solution the
    supremum equals z_j.  u_grid is u at the cell centers when the
    caller already has it.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1, sol.gf.dimension)
    u = values_matrix(sol, grid).max(axis=0) if u_grid is None else u_grid
    out = np.empty(len(targets))
    for j, y in enumerate(targets):
        out[j] = float(np.max(sol.gf.h_batch(grid.centers, y[None, :], u)))
    return out


def dual_transform(gf: GeneratingFunction, targets, v_values,
                   grid: SourceGrid) -> np.ndarray:
    """v*(x) = max_j G(x, y_j, v_j) on the grid (shape = grid.res)."""
    targets = np.asarray(targets, dtype=float).reshape(-1, gf.dimension)
    v_values = np.asarray(v_values, dtype=float).reshape(-1)
    if len(targets) != len(v_values):
        raise ValueError("targets and values lengths disagree")
    pieces = [GAffinePiece(tuple(y), float(vj))
              for y, vj in zip(targets, v_values)]
    for p in pieces:
        lo, hi = gf.z_interval_batch(grid.centers, p.y_vec())
        if not np.all((lo < p.z) & (p.z < hi)):
            raise DomainViolation(
                "transformed focal parameter leaves its admissible interval")
    return _piece_rows(gf, pieces, grid.centers).max(axis=0).reshape(grid.res)


def cell_masses(sol: PiecewiseGSolution, grid: SourceGrid) -> CellDecomposition:
    """Assign every cell to its argmax piece and sum density * volume.

    The assignment is total and single-valued (ties to the lowest piece
    index), so the masses are an exact partition of the source mass up
    to float summation order.
    """
    validate_pieces_on_grid(sol, grid)
    return CellDecomposition.from_values(values_matrix(sol, grid),
                                         grid.cell_mass)


def interface_mask(grid: SourceGrid, assignment: np.ndarray,
                   widen: int = 0) -> np.ndarray:
    """Cells with an axis-neighbor owned by another piece.

    widen dilates the mask by that many nodes per axis, covering the
    reach of finite-difference stencils across the kinks.
    """
    lab = assignment.reshape(grid.res)
    boundary = np.zeros(grid.res, dtype=bool)
    for ax in range(grid.n):
        sl_a = [slice(None)] * grid.n
        sl_b = [slice(None)] * grid.n
        sl_a[ax] = slice(0, -1)
        sl_b[ax] = slice(1, None)
        diff = lab[tuple(sl_a)] != lab[tuple(sl_b)]
        boundary[tuple(sl_a)] |= diff
        boundary[tuple(sl_b)] |= diff
    for _ in range(widen):
        grown = boundary.copy()
        for ax in range(grid.n):
            sl_a = [slice(None)] * grid.n
            sl_b = [slice(None)] * grid.n
            sl_a[ax] = slice(0, -1)
            sl_b[ax] = slice(1, None)
            grown[tuple(sl_a)] |= boundary[tuple(sl_b)]
            grown[tuple(sl_b)] |= boundary[tuple(sl_a)]
        boundary = grown
    return boundary


def interface_cell_count(grid: SourceGrid, assignment: np.ndarray) -> int:
    """Number of interface cells; mass error concentrates there, so the
    count bounds the rasterization uncertainty of the decomposition."""
    return int(interface_mask(grid, assignment).sum())
