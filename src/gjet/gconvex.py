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
bisection and dual transform on their own rows.  One mass function,
cell_split, turns such a matrix into cells, sub-cell masses and their
derivatives in z; the solver, cell_masses and `gjet report` call it.

Each cell is labelled with its argmax piece at the center (ties: lowest
index).  Its mass is split among the pieces that tie the label within
the cell: each near-tied pair's difference is linearised at the center,
the box fraction of its half-space is taken in closed form, and a
piece's share is the product of its pairwise fractions, renormalised
over the near-tied pieces.  A fraction against a piece that some third
piece nearly covers is phased in by a gate (GATE), so a piece entering a
cell changes no share by a jump.  Cells no other piece reaches keep
their whole mass.  The masses are continuous in z, treat every piece
label alike and split each cell's mass exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import genfun
from .errors import DomainViolation
from .genfun import GeneratingFunction

__all__ = [
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
    "cell_split",
    "grid_z_interval",
    "validate_pieces_on_grid",
    "interface_cell_count",
    "interface_mask",
    "neighbor_pairs",
]

ACTIVE_TOL = 1e-9   # relative active-set tolerance, scaled by 1 + |u|
FLAT = 1e-8         # cell-scaled normal components below FLAT times the
                    # largest one count as zero in a box fraction
GATE = 4.0          # j's fraction against i counts in full once j holds
                    # 1 / GATE of the cell against every third piece
BISECT_TOL = 1e-13  # interface bisection: shortest bracket, as a fraction
                    # of the segment


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
        mesh = np.meshgrid(*[lo + (np.arange(r) + 0.5) * h for lo, r, h
                             in zip(self.lo, self.res, self.h)], indexing="ij")
        self.centers = np.stack([m.ravel() for m in mesh], axis=1)
        self.cell_mass = (self.density * self.cell_vol).ravel()
        self.total_mass = float(self.cell_mass.sum())
        if not self.total_mass > 0:
            raise ValueError("total source mass must be positive")

    @property
    def size(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class PiecewiseGSolution:
    """u(x) = max_i G(x, ys[i], zs[i]): targets ys (N, n) and focal
    parameters zs (N,), read-only copies of the inputs."""

    gf: GeneratingFunction
    ys: np.ndarray
    zs: np.ndarray

    def __post_init__(self):
        ys = np.array(self.ys, dtype=float).reshape(-1, self.gf.dimension)
        zs = np.array(self.zs, dtype=float).reshape(-1)
        if not len(zs):
            raise ValueError("a piecewise solution needs at least one piece")
        if len(ys) != len(zs):
            raise ValueError("targets and focal parameters lengths disagree")
        ys.flags.writeable = zs.flags.writeable = False
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "zs", zs)


@dataclass(frozen=True)
class CellDecomposition:
    """Cell labels and sub-cell masses of a piecewise solution."""

    assignment: np.ndarray  # (cells,) argmax piece at each cell center
    masses: np.ndarray      # (pieces,) sub-cell masses (cell_split)


def _box_fraction(b: np.ndarray, a: np.ndarray) -> tuple:
    """Share of a cell where b + a.s > 0, and its derivative in b.

    s is uniform on the centered box with unit edges and a (k, n) holds
    the normals already scaled by the cell widths.  With alpha the m
    nonzero |a_j| and t = sum(alpha) / 2 - |b|, the smaller side has the
    volume F(t) = sum_S (-1)^|S| (t - alpha_S)_+^m / (m! prod alpha), an
    inclusion-exclusion over the box vertices, and the density f(t) is
    the same sum with the power m - 1.  Components below FLAT times the
    largest are dropped, so axis-aligned interfaces are exact and nearly
    aligned ones do not cancel.  Returns (phi, psi): the share and
    d phi / d b; the share of -b, -a is 1 - phi.
    """
    alpha = -np.sort(-np.abs(a), axis=1)
    alpha[alpha <= FLAT * alpha[:, :1]] = 0.0
    m_of = np.count_nonzero(alpha, axis=1)
    t = 0.5 * alpha.sum(axis=1) - np.abs(b)
    small = np.zeros(len(b))
    psi = np.zeros(len(b))
    for m in range(1, a.shape[1] + 1):
        rows = np.flatnonzero((m_of == m) & (t > 0.0))
        if not len(rows):
            continue
        al, tr = alpha[rows, :m], t[rows]
        vol = np.zeros(len(rows))
        dens = np.zeros(len(rows))
        for bits in itertools.product((False, True), repeat=m):
            r = tr - al[:, list(bits)].sum(axis=1)   # no BLAS: its buffers
            sign = -1.0 if sum(bits) % 2 else 1.0    # would cost RSS
            pos = np.maximum(r, 0.0)
            vol += sign * pos ** m
            dens += sign * (pos ** (m - 1) if m > 1 else r > 0.0)
        scale = np.prod(al, axis=1)
        small[rows] = vol / (math.factorial(m) * scale)
        psi[rows] = dens / (math.factorial(m - 1) * scale)
    phi = np.where(b > 0.0, 1.0 - small, np.where(b < 0.0, small, 0.5))
    return phi, psi


def _near_candidates(grid: "SourceGrid", values: np.ndarray,
                     owner: np.ndarray, top: np.ndarray) -> np.ndarray:
    """(pieces, cells) mask of the pieces that may tie the owner within
    a cell, from values only: owner minus piece below the sum over the
    axes of the larger change of that difference to an axis neighbor,
    about twice its linearised half-range over the cell.  One piece at a
    time, in work arrays the size of the grid that are allocated once."""
    vr = values.reshape((len(values),) + grid.res)
    own, tr = owner.reshape(grid.res), top.reshape(grid.res)
    edges = []
    for ax in range(grid.n):
        lo = (slice(None),) * ax + (slice(0, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        # the owner's own change along each edge, seen from either end
        ahead = np.take_along_axis(vr[(slice(None),) + hi], own[lo][None],
                                   axis=0)[0] - tr[lo]
        behind = tr[hi] - np.take_along_axis(vr[(slice(None),) + lo],
                                             own[hi][None], axis=0)[0]
        last = (slice(None),) * ax + (-1,)
        edges.append((lo, hi, last, ahead, behind, np.empty(ahead.shape)))
    near = np.empty(values.shape, dtype=bool)
    reach = np.empty(grid.res)
    step = np.empty(grid.res)
    for j, vj in enumerate(vr):
        reach.fill(0.0)
        for lo, hi, last, ahead, behind, change in edges:
            np.subtract(vj[hi], vj[lo], out=change)
            np.abs(np.subtract(ahead, change, out=step[lo]), out=step[lo])
            step[last] = 0.0
            np.abs(np.subtract(behind, change, out=change), out=change)
            np.maximum(step[hi], change, out=step[hi])
            reach += step
        np.subtract(tr, vj, out=step)
        np.less(step, reach, out=near[j].reshape(grid.res))
    return near


def _split_band(piece, val, grad, dz, is_owner, cm, n_p):
    """Masses and their z-derivatives that band cells give their
    near-tied pieces.

    Each row is one cell with the same number of candidate pieces:
    piece (cells, w) their indices, val their values at the center, grad
    their gradients times the cell widths, dz their G_z, is_owner the
    argmax and cm the cell masses.
    """
    rows = np.arange(len(piece))
    top = np.argmax(is_owner, axis=1)
    spread = 0.5 * np.abs(grad - grad[rows, top][:, None, :]).sum(axis=2)
    live = val[rows, top][:, None] - val < spread
    live[rows, top] = True

    # pairwise fractions; fac_ij = 1 - (1 - phi_ij) gate_ij, where the
    # gate min(1, GATE m_ij) phases j in by m_ij = min_{k != i, j} phi_jk
    width = piece.shape[1]
    slots = np.arange(width)
    pair = live[:, :, None] & live[:, None, :] & ~np.eye(width, dtype=bool)
    phi = np.ones(pair.shape)
    psi = np.zeros(pair.shape)
    phi[pair], psi[pair] = _box_fraction(
        (val[:, :, None] - val[:, None, :])[pair],
        (grad[:, :, None, :] - grad[:, None, :, :])[pair])
    low = np.argsort(phi, axis=2, kind="stable")[..., :2]  # per j: k, k'
    skip = low[:, None, :, 0] == slots[None, :, None]      # [c, i, j]: k == i

    def least(a):   # a[c, j, k] at the k != i with the smallest phi_jk
        two = np.take_along_axis(a, low, axis=2)
        return np.where(skip, two[:, None, :, 1], two[:, None, :, 0])

    m_ij = least(phi)
    gate = np.minimum(1.0, GATE * m_ij)
    fac = 1.0 - (1.0 - phi) * gate
    w = np.where(live, fac.prod(axis=2), 0.0)
    share = w / w.sum(axis=1)[:, None]
    masses = np.bincount(piece[live], weights=(cm[:, None] * share)[live],
                         minlength=n_p)
    # d w_i / d v_k = sum_j d fac_ij / d v_k prod_{l != j} fac_il: fac_ij
    # moves with b_ij = v_i - v_j and, below the gate's cap, with b_jk of
    # the k that attains m_ij
    pre = np.ones(fac.shape)
    pre[..., 1:] = np.cumprod(fac[..., :-1], axis=2)
    suf = np.ones(fac.shape)
    suf[..., :-1] = np.cumprod(fac[..., :0:-1], axis=2)[..., ::-1]
    rest = pre * suf
    dw = -psi * gate * rest
    dw[:, slots, slots] = -dw.sum(axis=2)
    by_gate = np.where(GATE * m_ij < 1.0, GATE * least(psi), 0.0) \
        * (1.0 - phi) * rest
    dw -= by_gate
    k_of = least(np.broadcast_to(slots, phi.shape))
    cell_row = np.arange(dw.size // width).reshape(dw.shape[:2])[..., None]
    dw += np.bincount((cell_row * width + k_of).ravel(),
                      weights=by_gate.ravel(),
                      minlength=dw.size).reshape(dw.shape)
    dshare = (dw - share[:, :, None] * dw.sum(axis=1)[:, None, :]) \
        / w.sum(axis=1)[:, None, None]
    both = live[:, :, None] & live[:, None, :]
    flat = (piece[:, :, None] * n_p + piece[:, None, :])[both]
    jac = np.bincount(
        flat, weights=(cm[:, None, None] * dshare * dz[:, None, :])[both],
        minlength=n_p * n_p).reshape(n_p, n_p)
    return masses, jac


def cell_split(gf: GeneratingFunction, ys, zs, grid: "SourceGrid",
               values: np.ndarray) -> tuple:
    """Cell labels, sub-cell masses and their z-derivatives.

    values is the (pieces, cells) matrix of the pieces (ys[i], zs[i]) at
    the cell centers.  A piece is near-tied with a cell's argmax piece
    when their difference, linearised at the center, changes sign in the
    cell; only cells with a near-tied piece evaluate bundles (gradients
    and G_z of the near-tied pieces, one bundle_batch call).  Returns
    (assignment, masses, jac): jac[i, k] = d masses[i] / d z_k, summed
    over the cells as cell mass x d share / d gap x G_z with the
    gradients held fixed.  The columns of jac sum to zero, as the masses
    sum to grid.total_mass.
    """
    n_p, m = values.shape
    cols = np.arange(m)
    owner = np.argmax(values, axis=0)
    near = _near_candidates(grid, values, owner, values[owner, cols])
    near[owner, cols] = True
    cells = np.flatnonzero(near.sum(axis=0) > 1)
    whole = grid.cell_mass.copy()
    whole[cells] = 0.0
    masses = np.bincount(owner, weights=whole, minlength=n_p)
    jac = np.zeros((n_p, n_p))
    if not len(cells):
        return owner, masses, jac

    # the near-tied candidates of each band cell, by piece index, in
    # groups of cells with the same count
    c_of, p_of = np.nonzero(near[:, cells].T)
    del near
    count = np.bincount(c_of, minlength=len(cells))
    first = np.cumsum(count) - count
    b = gf.bundle_batch(grid.centers[cells[c_of]], ys[p_of], zs[p_of])
    grad, dz = b.grad_x * grid.h, b.dz
    del b
    for width in np.flatnonzero(np.bincount(count)):
        sel = np.flatnonzero(count == width)
        k = (first[sel][:, None] + np.arange(width)).ravel()
        piece = p_of[k].reshape(-1, width)
        part, dpart = _split_band(
            piece, values[piece, cells[sel][:, None]],
            grad[k].reshape(-1, width, grid.n), dz[k].reshape(-1, width),
            piece == owner[cells[sel]][:, None], grid.cell_mass[cells[sel]],
            n_p)
        masses += part
        jac += dpart
    return owner, masses, jac


def _active_tol(u):
    """Active-set tolerance at the value(s) u."""
    return ACTIVE_TOL * (1.0 + np.abs(u))


def grid_z_interval(gf: GeneratingFunction, grid: SourceGrid, ys) -> tuple:
    """(lo, hi): per target y_i of ys, the focal parameters admissible at
    every cell center, max_c lo(x_c, y_i) < z < min_c hi(x_c, y_i).  Both
    ends are NaN for a target that some center pairs inadmissibly with."""
    ys = np.asarray(ys, dtype=float).reshape(-1, gf.dimension)
    ends = np.full((2, len(ys)), np.nan)
    for i, y in enumerate(ys):
        if np.all(gf.admissible_pair_batch(grid.centers, y)):
            lo, hi = gf.z_interval_batch(grid.centers, y)
            ends[:, i] = np.max(lo), np.min(hi)
    return ends[0], ends[1]


def validate_pieces_on_grid(sol: PiecewiseGSolution, grid: SourceGrid) -> None:
    """Every piece must be admissible at every cell center: the pair
    (x, y_i) in the admissible set and z inside I(x, y_i).  Raises
    DomainViolation for the first piece that is not."""
    lo, hi = grid_z_interval(sol.gf, grid, sol.ys)
    bad = np.flatnonzero(~((lo < sol.zs) & (sol.zs < hi)))
    if len(bad):
        i = bad[0]
        raise DomainViolation(
            f"piece {i}: some grid centers pair inadmissibly with its target"
            if np.isnan(lo[i]) else f"piece {i}: focal parameter "
            f"{sol.zs[i]} leaves its admissible interval on the grid")


def _piece_rows(gf: GeneratingFunction, ys, zs, xs) -> np.ndarray:
    """(pieces, rows) matrix G(x_k, ys[i], zs[i]) over rows xs (m, n)."""
    return np.stack([gf.value_batch(xs, y, z) for y, z in zip(ys, zs)])


def values_matrix(sol: PiecewiseGSolution, grid: SourceGrid) -> np.ndarray:
    """(pieces, cells) matrix of piece values at cell centers."""
    return _piece_rows(sol.gf, sol.ys, sol.zs, grid.centers)


def eval_piecewise(sol: PiecewiseGSolution, x):
    """u(x) = max_i G(x, y_i, z_i) and the active index (ties: lowest)."""
    x = genfun._vec(x, sol.gf.dimension)[None, :]
    vals = _piece_rows(sol.gf, sol.ys, sol.zs, x)[:, 0]
    if not np.all(np.isfinite(vals)):
        raise DomainViolation("piece value is not finite at the query point")
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx


def subdifferential(sol: PiecewiseGSolution, x):
    """Slope/target pairs (G_x(x, y_i, z_i), y_i) of all active pieces."""
    x = genfun._vec(x, sol.gf.dimension)[None, :]
    vals = _piece_rows(sol.gf, sol.ys, sol.zs, x)[:, 0]
    u = float(np.max(vals))
    active = np.flatnonzero(u - vals <= _active_tol(u))
    return [(sol.gf.bundle_batch(x, sol.ys[i], sol.zs[i]).grad_x[0], sol.ys[i])
            for i in active]


def _pair_gap(sol: PiecewiseGSolution, pair: np.ndarray, xs) -> np.ndarray:
    """G_i(x_k) - G_j(x_k) with (i, j) = pair[:, k]."""
    vals = _piece_rows(sol.gf, sol.ys, sol.zs, xs)
    rows = np.arange(len(xs))
    return vals[pair[0], rows] - vals[pair[1], rows]


def interface_point_rows(sol: PiecewiseGSolution, i, j, x_a, x_b):
    """Points on the segments [x_a[k], x_b[k]] where pieces i[k], j[k] tie.

    Every row follows the bisection of interface_point: an endpoint
    where G_i - G_j vanishes is returned as is, else the sign must flip
    between the endpoints, and the bisection stops where the gap
    vanishes or the bracket is shorter than BISECT_TOL.  Returns
    (xs, exchange): exchange is False (and xs NaN) where the sign does not
    flip.
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
        stop = (fm == 0.0) | (b - a < BISECT_TOL)
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


def interface_point(sol: PiecewiseGSolution, i: int, j: int, x_a, x_b):
    """Point on the segment [x_a, x_b] where pieces i and j tie.

    Requires the sign of G_i - G_j to flip between the endpoints;
    bisection, deterministic.  One row of interface_point_rows.
    """
    xs, exchange = interface_point_rows(sol, [i], [j], x_a, x_b)
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
    vals = _piece_rows(gf, sol.ys, sol.zs, xs)
    u0 = vals.max(axis=0)
    active = u0 - vals <= _active_tol(u0)
    n_active = active.sum(axis=0)
    rows = np.flatnonzero((n_active == 2) & np.isfinite(vals).all(axis=0))
    first = np.argmax(active[:, rows], axis=0)
    second = len(vals) - 1 - np.argmax(active[::-1, rows], axis=0)
    slopes = [gf.bundle_batch(xs[rows], sol.ys[i], sol.zs[i]).grad_x
              for i in (first, second)]
    p0 = (1.0 - t) * slopes[0] + t * slopes[1]
    y_rows, _z, fwd_ok = genfun.forward_YZ_rows(gf, xs[rows], u0[rows], p0)
    y0 = np.full(xs.shape, np.nan)
    y0[rows[fwd_ok]] = y_rows[fwd_ok]
    ok = np.zeros(len(xs), dtype=bool)
    ok[rows[fwd_ok]] = True
    return y0, u0, n_active, ok


def support_check(sol: PiecewiseGSolution, grid: SourceGrid, x0, t: float, *,
                  u_grid: np.ndarray = None):
    """Interpolated support between the two pieces active at x0.

    With p1, p2 the active slopes, sets p0 = (1-t) p1 + t p2, solves the
    forward map at (x0, u(x0), p0) for the target y0 (one row of
    interpolated_support_rows), re-snaps the focal parameter through the
    dual function so the candidate graph passes exactly through
    (x0, u(x0)), and sweeps the grid for G(x, y0, z0) <= u(x) +
    1e-8 (1 + |u(x0)|).  Returns (y0, z0, ok).
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
    if u_grid is None:
        u_grid = values_matrix(sol, grid).max(axis=0)
    cand = sol.gf.value_batch(grid.centers, y0, z0)
    ok = bool(np.all(cand <= u_grid + 1e-8 * (1.0 + abs(u0))))
    return y0, float(z0), ok


def section_set(sol: PiecewiseGSolution, grid: SourceGrid, piece_index: int,
                sigma: float) -> np.ndarray:
    """Mask of cells where u < G_piece + sigma (sigma > 0) or of the
    contact set u = G_piece within the active tolerance (sigma = 0)."""
    if not 0 <= piece_index < len(sol.zs):
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
                      piece_index: int, sigma: float):
    """Convexity of the section image under Q( . , y0, z0): a ConditionReport.

    This is the hull-ratio diagnostic of the section-convexity property:
    sections of a G-convex function are G-convex with respect to the
    supporting piece, i.e. their Q-images are convex sets.
    """
    from .conditions import hull_report  # here: solve does not load it
    mask = section_set(sol, grid, piece_index, sigma)
    image = sol.gf.q_batch(grid.centers[mask], sol.ys[piece_index],
                           sol.zs[piece_index])
    return hull_report(f"section_convexity/piece{piece_index}/sigma{sigma}",
                       image, sigma=sigma)


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
    """v*(x) = max_j G(x, y_j, v_j) on the grid (shape = grid.res), for
    pieces (y_j, v_j) admissible there (validate_pieces_on_grid)."""
    sol = PiecewiseGSolution(gf, targets, v_values)
    validate_pieces_on_grid(sol, grid)
    return values_matrix(sol, grid).max(axis=0).reshape(grid.res)


def cell_masses(sol: PiecewiseGSolution, grid: SourceGrid) -> CellDecomposition:
    """Label every cell with its argmax piece and split its mass among
    the near-tied pieces (cell_split).

    Every cell's mass is split exactly, so the masses partition the
    source mass up to float summation order.
    """
    validate_pieces_on_grid(sol, grid)
    return CellDecomposition(*cell_split(sol.gf, sol.ys, sol.zs, grid,
                                         values_matrix(sol, grid))[:2])


def neighbor_pairs(grid: SourceGrid, assignment: np.ndarray) -> np.ndarray:
    """(2, k) flat indices (a, b) of the axis-neighbor cells owned by
    different pieces, b one step after a along an axis; axis by axis, each
    in C order."""
    idx = np.arange(grid.size).reshape(grid.res)
    lab = assignment.reshape(grid.res)
    pairs = []
    for ax in range(grid.n):
        head = (slice(None),) * ax
        a, b = head + (slice(0, -1),), head + (slice(1, None),)
        diff = lab[a] != lab[b]
        pairs.append(np.stack([idx[a][diff], idx[b][diff]]))
    return np.concatenate(pairs, axis=1)


def interface_mask(grid: SourceGrid, assignment: np.ndarray,
                   widen: int = 0) -> np.ndarray:
    """Cells with an axis-neighbor owned by another piece.

    widen dilates the mask by that many nodes per axis, covering the
    reach of finite-difference stencils across the kinks.
    """
    boundary = np.zeros(grid.size, dtype=bool)
    boundary[neighbor_pairs(grid, assignment).ravel()] = True
    for _ in range(widen):
        # the cells next to the mask: the other ends of the pairs it splits
        boundary[neighbor_pairs(grid, boundary).ravel()] = True
    return boundary.reshape(grid.res)


def interface_cell_count(grid: SourceGrid, assignment: np.ndarray) -> int:
    """Number of interface cells: the cells with an axis neighbor of
    another label.  cell_split splits a different set, the cells where a
    piece near-ties the label, which may be larger."""
    return int(interface_mask(grid, assignment).sum())
