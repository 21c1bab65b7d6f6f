"""Finite-difference residuals of the equations on grid functions.

Diagnostics, not a PDE solver: given values of a function on the grid's
nodal lattice (the cell centers), evaluate

  * the Monge-Ampere residual   det[D^2 u - A(., u, Du)] - B(., u, Du),
  * the raw Jacobian residual   det DT - psi  with T = Y(., u, Du),
  * the ellipticity field       min eig (D^2 u - A),
  * the dual-equation residual  det[D^2 v - A*(., v, Dv)] - B*(., v, Dv).

Central differences with the grid's own spacing; a one-node margin is
excluded (two for the Jacobian residual, which differentiates the
composed map).  Interior nodes that get no value (the forward map has
no admissible solution there, or the caller excluded them) are masked
and counted, never silently filled.

The right-hand density psi is a caller-supplied row evaluator
psi(xs, us, ps) -> (m,) over (m, n) points, (m,) values and (m, n)
slopes, called once per residual on the evaluated nodes (a scalar
result is broadcast); pointwise(fn) adapts a scalar fn(x, u, p).  For
separable data the sign convention is psi = f/(g o Y) * sign(det E),
which makes B = det E * psi nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import genfun
from .errors import DomainViolation
from .gconvex import SourceGrid, grid_z_interval
from .genfun import GeneratingFunction

__all__ = [
    "GridFunction",
    "ResidualField",
    "ma_residual",
    "pje_residual",
    "ellipticity_check",
    "dual_residual",
    "make_separable_psi",
    "pointwise",
    "manufactured_case",
    "MANUFACTURED_NAMES",
]

ELLIP_TOL = 1e-8  # min eig of D^2 u - A counted as zero: below -ELLIP_TOL
                  # not elliptic, below +ELLIP_TOL degenerate


@dataclass(frozen=True)
class GridFunction:
    """Values on the grid's nodal lattice, one value per node."""

    grid: SourceGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.grid.res)
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function has non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ResidualField:
    """Residual values with NaN outside the evaluated interior."""

    grid: SourceGrid
    values: np.ndarray
    mask: np.ndarray          # True where a value was computed
    masked_count: int         # margin-interior nodes without a value

    def max_abs(self) -> float:
        if not self.mask.any():
            return math.nan
        return float(np.nanmax(np.abs(self.values[self.mask])))


def _gradient(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(n, res...) central-difference gradient (edges one-sided, unused)."""
    if values.ndim == 1:
        return np.gradient(values, *h)[None, :]
    return np.stack(np.gradient(values, *h), axis=0)


def _shifted(values: np.ndarray, shifts) -> np.ndarray:
    """View of the margin-1 interior shifted by one node per axis."""
    sl = []
    for k, s in enumerate(shifts):
        stop = values.shape[k] - 1 + s
        sl.append(slice(1 + s, stop if stop != 0 else None))
    return values[tuple(sl)]


def _hessian(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(n, n, res...) second-order stencils on the margin-1 interior.

    Direct stencils, not composed gradients: composing first differences
    drags the one-sided edge error one ring into the interior.
    """
    n = values.ndim
    out = np.zeros((n, n) + values.shape)
    interior = tuple(slice(1, -1) for _ in range(n))
    zero = (0,) * n

    def unit(ax, s):
        e = [0] * n
        e[ax] = s
        return tuple(e)

    for i in range(n):
        out[(i, i) + interior] = (
            _shifted(values, unit(i, 1)) - 2.0 * _shifted(values, zero)
            + _shifted(values, unit(i, -1))) / h[i] ** 2
        for j in range(i + 1, n):
            pp = tuple(a + b for a, b in zip(unit(i, 1), unit(j, 1)))
            pm = tuple(a + b for a, b in zip(unit(i, 1), unit(j, -1)))
            mp = tuple(a + b for a, b in zip(unit(i, -1), unit(j, 1)))
            mm = tuple(a + b for a, b in zip(unit(i, -1), unit(j, -1)))
            cross = (_shifted(values, pp) - _shifted(values, pm)
                     - _shifted(values, mp) + _shifted(values, mm)) \
                / (4.0 * h[i] * h[j])
            out[(i, j) + interior] = cross
            out[(j, i) + interior] = cross
    return out


def _interior_mask(res, margin: int) -> np.ndarray:
    mask = np.zeros(res, dtype=bool)
    sl = tuple(slice(margin, r - margin) for r in res)
    mask[sl] = True
    return mask


def _field(grid: SourceGrid, margin: int, idx: np.ndarray,
           vals) -> ResidualField:
    """vals at the flat nodes idx and NaN elsewhere; every node of the
    margin interior outside idx counts as masked, whatever the reason."""
    out = np.full(grid.size, np.nan)
    out[idx] = vals
    mask = np.zeros(grid.size, dtype=bool)
    mask[idx] = True
    mask = mask.reshape(grid.res)
    masked = int((_interior_mask(grid.res, margin) & ~mask).sum())
    return ResidualField(grid, out.reshape(grid.res), mask, masked)


def _linearization(gf, ufun: GridFunction, exclude) -> tuple:
    """(idx, D^2 u - A, det E, u, Du): the matrices and det E at the
    margin-1 interior nodes outside exclude whose forward map is
    admissible with G_z < 0 (flat indices idx), from matrix_A_B_rows."""
    grid = ufun.grid
    u = ufun.values
    interior = _interior_mask(grid.res, 1)
    if exclude is not None:
        interior = interior & ~np.asarray(exclude, dtype=bool).reshape(grid.res)
    u_flat = u.ravel()
    p_flat = _gradient(u, grid.h).reshape(grid.n, -1).T
    a, det = genfun.matrix_A_B_rows(gf, grid.centers, u_flat, p_flat)[:2]
    idx = np.flatnonzero(~np.isnan(det) & interior.ravel())
    d2u = _hessian(u, grid.h).reshape(grid.n, grid.n, -1).transpose(2, 0, 1)
    return idx, d2u[idx] - a[idx], det[idx], u_flat, p_flat


def ma_residual(gf: GeneratingFunction, ufun: GridFunction,
                psi: Callable, exclude: np.ndarray = None) -> ResidualField:
    """det[D^2 u - A(., u, Du)] - det E * psi(., u, Du) per interior node.

    exclude masks nodes whose stencils are known to be meaningless, e.g.
    kink neighborhoods of a piecewise input; they count as masked.
    """
    grid = ufun.grid
    idx, mats, det, u_flat, p_flat = _linearization(gf, ufun, exclude)
    vals = []
    if len(idx):
        psi_vals = genfun._psi_rows(psi, grid.centers[idx], u_flat[idx],
                                   p_flat[idx])
        vals = np.linalg.det(mats) - det * psi_vals
    return _field(grid, 1, idx, vals)


def pje_residual(gf: GeneratingFunction, ufun: GridFunction,
                 psi: Callable) -> ResidualField:
    """det DT - psi with T = Y(., u, Du) differentiated on the grid.

    Related to the Monge-Ampere residual by the factor det E pointwise
    up to O(h).
    """
    grid = ufun.grid
    u = ufun.values
    du = _gradient(u, grid.h)
    u_flat = u.ravel()
    p_flat = du.reshape(grid.n, -1).T
    ys, _zs, ok = genfun.forward_YZ_rows(gf, grid.centers, u_flat, p_flat)
    t_field = ys.T.reshape((grid.n,) + grid.res)
    # margin 2: the map itself already used one node of differences
    interior = _interior_mask(grid.res, 2)
    ok_grid = ok.reshape(grid.res)
    for ax in range(grid.n):
        ok_grid &= np.roll(ok_grid, 1, axis=ax) & np.roll(ok_grid, -1, axis=ax)
    dt = np.stack([_gradient(t_field[i], grid.h) for i in range(grid.n)])
    idx = np.flatnonzero((interior & ok_grid).ravel())
    vals = []
    if len(idx):
        mats = dt.reshape(grid.n, grid.n, -1).transpose(2, 0, 1)[idx]
        psi_vals = genfun._psi_rows(psi, grid.centers[idx], u_flat[idx],
                                   p_flat[idx])
        vals = np.linalg.det(mats) - psi_vals
    return _field(grid, 2, idx, vals)


def ellipticity_check(gf: GeneratingFunction, ufun: GridFunction, *,
                      exclude: np.ndarray = None):
    """Min eigenvalue field of D^2 u - A and the admissibility verdict.

    The matrix is symmetrized before the eigensolve (it is symmetric up
    to finite-difference noise).  Returns (field, admissible) where
    admissible means min eig >= -ELLIP_TOL on every evaluated node.
    exclude masks nodes whose stencils straddle kinks of a piecewise
    input; the difference quotients carry no eigenvalue information
    there, and they count as masked.
    """
    idx, mats, _det, _u, _p = _linearization(gf, ufun, exclude)
    vals = np.linalg.eigvalsh(0.5 * (mats + mats.transpose(0, 2, 1)))[:, 0]
    field = _field(ufun.grid, 1, idx, vals)
    admissible = bool(len(idx) and np.nanmin(vals) >= -ELLIP_TOL)
    return field, admissible


def dual_residual(gf: GeneratingFunction, vfun: GridFunction,
                  f: Callable = None, g: Callable = None) -> ResidualField:
    """Residual of the dual equation for a function v on a target grid.

    Per node: z = v(y), q = Dv(y); X solves the slope inversion; then
    det[D^2 v - A*(y, z, q)] - B*(y, z, q) with the dual coefficients
    assembled from exact derivatives at (X, y, z).  All interior nodes go
    through one dual_Astar_Bstar_rows call, each node Newton-started on
    its own (no warm start from a neighbour).  Densities are pointwise
    callables, default 1; pass g = 0 for graphs of the dual function
    itself.  Nodes whose slope inversion fails are masked.
    """
    grid = vfun.grid
    v = vfun.values
    dv = _gradient(v, grid.h)
    d2v = _hessian(v, grid.h)
    interior = _interior_mask(grid.res, 1)
    idx = np.flatnonzero(interior.ravel())
    q_flat = dv.reshape(grid.n, -1).T
    d2_flat = d2v.reshape(grid.n, grid.n, -1).transpose(2, 0, 1)
    astar, bstar, status, _rnorm = genfun.dual_Astar_Bstar_rows(
        gf, grid.centers[idx], v.ravel()[idx], q_flat[idx], f=f, g=g)
    good = status == genfun.RowStatus.OK
    k = idx[good]
    return _field(grid, 1, k,
                  np.linalg.det(d2_flat[k] - astar[good]) - bstar[good])


def pointwise(fn: Callable) -> Callable:
    """Row evaluator psi(xs, us, ps) from a scalar fn(x, u, p) -> float."""

    def psi(xs, us, ps):
        return np.array([float(fn(x, float(u), p))
                         for x, u, p in zip(xs, us, ps)], dtype=float)

    return psi


def make_separable_psi(gf: GeneratingFunction, f: Callable, g: Callable):
    """psi = f(x) / g(Y(x, u, p)) * sign(det E at (x, Y, Z)) over rows.

    f and g are pointwise densities.  Y, Z come from the batched forward
    map; a row without an admissible forward solution raises
    DomainViolation.
    """

    def psi(xs, us, ps):
        xs = np.asarray(xs, dtype=float).reshape(-1, gf.dimension)
        ys, zs, ok = genfun.forward_YZ_rows(gf, xs, us, ps)
        if not np.all(ok):
            raise DomainViolation(
                "separable psi: no admissible forward solution at some rows")
        det = np.linalg.det(genfun._e_matrix(gf.bundle_batch(xs, ys, zs)))
        fx = np.array([float(f(x)) for x in xs])
        gy = np.array([float(g(y)) for y in ys])
        return fx / gy * np.copysign(1.0, det)

    return psi


# --------------------------------------------------------------------------
# manufactured inputs for the residual diagnostics
# --------------------------------------------------------------------------

MANUFACTURED_NAMES = ("g_affine", "quadratic_ot_identity", "quadratic_ot_cosh")


def manufactured_case(name: str, gf: GeneratingFunction, grid: SourceGrid):
    """Named (GridFunction, psi) pairs with analytically known residuals.

    g_affine: one graph of G itself, for the target at the box's center
    (DomainViolation where the grid leaves the domain of G); the map T is
    constant, so psi = 0 and the residual vanishes.  quadratic_ot_identity:
    u = |x|^2 under the quadratic instance with psi = sign(det E); the
    residual is exactly zero.  quadratic_ot_cosh: u = sum 2 cosh(x_k) with
    the matching analytic right-hand side; the discrete residual decays at
    the central-difference rate under refinement.
    """
    n = grid.n
    if name == "g_affine":
        y0 = 0.5 * (grid.lo + grid.hi)
        lo, hi = grid_z_interval(gf, grid, y0)
        if np.isnan(lo[0]):
            raise DomainViolation("g_affine: the grid leaves the domain of G")
        vals = gf.value_batch(grid.centers, y0,
                              genfun._map_fraction(lo[0], hi[0], 0.5))
        return GridFunction(grid, vals.reshape(grid.res)), \
            (lambda xs, us, ps: np.zeros(len(xs)))
    if name == "quadratic_ot_identity":
        if gf.name != "quadratic_ot":
            raise ValueError(f"case {name!r} requires the quadratic generator")
        sign = (-1.0) ** n
        vals = np.einsum("ij,ij->i", grid.centers, grid.centers)
        return GridFunction(grid, vals.reshape(grid.res)), \
            (lambda xs, us, ps: np.full(len(xs), sign))
    if name == "quadratic_ot_cosh":
        if gf.name != "quadratic_ot":
            raise ValueError(f"case {name!r} requires the quadratic generator")
        sign = (-1.0) ** n
        vals = 2.0 * np.cosh(grid.centers).sum(axis=1)

        def psi(xs, us, ps):
            return sign * np.prod(2.0 * np.cosh(np.asarray(xs)) - 1.0, axis=1)

        return GridFunction(grid, vals.reshape(grid.res)), psi
    raise ValueError(f"unknown manufactured case {name!r}; "
                     f"choose from {MANUFACTURED_NAMES}")
