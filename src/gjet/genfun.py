"""Generating functions and the maps and matrices they induce.

A generating function G(x, y, z) is a scalar function of a source point
x in R^n, a target point y in R^n and a focal parameter z, strictly
decreasing in z (G_z < 0) on its admissible set.  The graphs
x -> G(x, y0, z0) play the role that affine supports play in classical
convexity.  From G we build:

  * the forward maps Y(x, u, p), Z(x, u, p) solving
        G_x(x, Y, Z) = p,   G(x, Y, Z) = u,
  * the dual function H(x, y, u), the z-inverse of G:
        G(x, y, H(x, y, u)) = u,
  * the mixed matrix  E = G_xy - (1/G_z) G_xz (x) G_y  with Y_p = E^{-1},
  * the target-slope map  Q = -G_y / G_z  and its x-inverse X(y, z, q),
  * the Monge-Ampere coefficients
        A(x, u, p) = G_xx(x, Y, Z),   B = det E * psi,
    and their dual counterparts A*, B*.

Three concrete instances are provided, each with exact closed-form
derivatives: a quadratic-cost instance (classical optimal transport with
G = c - z), a parallel-beam reflector and a point-source reflector with
a hyperplane target.  All formulas below were derived by direct
differentiation and are cross-checked against central finite differences
in the test suite.

Conventions: points are 1-d float arrays; batch arguments are (m, n)
arrays; intervals are open with IEEE infinities for unbounded ends and
strict-inequality membership.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainViolation,
    NoConvergence,
    NoRoot,
    OutOfImage,
    RangeViolation,
    SingularE,
)

__all__ = [
    "BatchBundle",
    "DualValue",
    "G5Constants",
    "GeneratingFunction",
    "QuadraticOT",
    "ParallelBeam",
    "PointSourcePlane",
    "eval_bundle",
    "dual_H",
    "dual_H_rows",
    "forward_YZ",
    "forward_YZ_rows",
    "matrix_E",
    "matrix_A",
    "matrix_A_B",
    "matrix_A_B_rows",
    "matrix_A_via_yp",
    "map_Q",
    "map_X",
    "map_X_rows",
    "dual_Astar_Bstar",
    "dual_Astar_Bstar_rows",
    "RowStatus",
    "fd_step",
]

NEWTON_TOL = 1e-11      # forward and slope Newtons: acceptance, relative
NEWTON_ITER = 50        # forward and slope Newtons: iteration budget
SINGULAR_E_TOL = 1e-12  # matrix_E raises SingularE below this |det E|
H_TOL = 1e-12           # H's bracket closes at H_TOL * (1 + |z|)
H_ITER = 60             # H's bisection-guarded Newton steps
H_INSET = 1e-13         # H's bracket inset from a finite end of I, relative
H_DOUBLINGS = 200       # H's doublings towards an infinite end of I
FD_BASE = 1e-5          # central-difference step per unit of max(1, |scale|)
TENSOR_STEP = 1e-3      # G3 stencil step in p or q: conditions, check.fd_step


# --------------------------------------------------------------------------
# value containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchBundle:
    """G and its first and second partial derivatives over rows.

    The leading axis indexes evaluation points; hess_xy[k, i, j] is
    d^2 G / dx_i dy_j at row k.  hess_yy is carried in addition to the
    x-side blocks because the dual linearization A* needs exact y,y second
    derivatives.  GeneratingFunction.bundle returns row 0 of a one-row
    bundle: scalars for value, dz and dzz, and the arrays without their
    leading axis.
    """

    value: np.ndarray      # (m,)
    grad_x: np.ndarray     # (m, n)
    grad_y: np.ndarray     # (m, n)
    dz: np.ndarray         # (m,)
    hess_xx: np.ndarray    # (m, n, n)
    hess_xy: np.ndarray    # (m, n, n)
    hess_yy: np.ndarray    # (m, n, n)
    grad_xz: np.ndarray    # (m, n)
    grad_yz: np.ndarray    # (m, n)
    dzz: np.ndarray        # (m,)


@dataclass(frozen=True)
class DualValue:
    """Root H(x, y, u) of G(x, y, .) = u together with its gradients.

    h_x = -G_x/G_z, h_y = -G_y/G_z, h_u = 1/G_z, all evaluated at the
    root; h_u < 0 under the sign convention G_z < 0.
    """

    z_root: float
    h_x: np.ndarray
    h_y: np.ndarray
    h_u: float


@dataclass(frozen=True)
class G5Constants:
    """Gradient-bound constants: |G_x| <= k0 wherever G > m0."""

    m0: float
    k0: float


@dataclass(frozen=True)
class SolverTolerances:     # semidiscrete.solve's; every config embeds them
    mass_tol_rel: float = 1e-3
    anchor_tol: Optional[float] = None  # default 1e-8 * (1 + |u0|)
    max_sweeps: int = 500        # Newton step budget

    def anchor_tolerance(self, u0: float) -> float:
        if self.anchor_tol is not None:
            return self.anchor_tol
        return 1e-8 * (1.0 + abs(u0))


def fd_step(scale):
    """Central-difference step: FD_BASE * max(1, |scale|), elementwise.

    Documented so finite-difference oracle tolerances are reproducible.
    """
    return FD_BASE * np.maximum(1.0, np.abs(scale))


def jsonable(obj):
    """obj for json.dumps: numpy values, tuples and dict keys converted."""
    if isinstance(obj, np.ndarray) and obj.ndim:
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if isinstance(v, float) else jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.ndarray)):
        return float(obj)
    return int(obj) if isinstance(obj, np.integer) else obj


def _vec(p, n: int) -> np.ndarray:
    v = np.asarray(p, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"expected a point of dimension {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite entries")
    return v


def _rows(xs, n: int) -> np.ndarray:
    a = np.asarray(xs, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, n)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected (m, {n}) array, got shape {a.shape}")
    return a


def _per_row(vals, m: int) -> np.ndarray:
    """(m,) float values; a single value is broadcast."""
    v = np.asarray(vals, dtype=float).reshape(-1)
    return v if len(v) == m else np.broadcast_to(v, (m,))


def _pair_rows(xs, ys, n: int) -> tuple:
    """xs and ys as (m, n) rows; a single point on either side is broadcast."""
    xs = _rows(xs, n)
    ys = _rows(ys, n)
    if len(xs) != len(ys):
        if len(ys) == 1:
            ys = np.broadcast_to(ys, xs.shape)
        elif len(xs) == 1:
            xs = np.broadcast_to(xs, ys.shape)
        else:
            raise ValueError(f"{len(xs)} x rows cannot pair with {len(ys)} y rows")
    return xs, ys


def _eye_batch(m: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n), (m, n, n)).copy()


# --------------------------------------------------------------------------
# the generating-function contract
# --------------------------------------------------------------------------

class GeneratingFunction(abc.ABC):
    """Contract shared by all generating functions.

    A subclass supplies exact derivatives over rows (``_raw_batch``) and
    the focal intervals I(x, y) over rows (``z_interval_batch``).  It may
    write G once as a per-target closure (``_piece_values``) that serves
    every value path and the bundle's value alike, narrow the admissible
    pair set U (``admissible_pair_batch``; the default admits every finite
    pair) and supply closed-form inverses as batched hooks that return
    None when there is none: ``forward_yz_batch`` for (Y, Z) (the start
    of the forward row Newton), ``_h_of`` for H (the start of
    dual_H_rows) and ``_x_of`` for X.  The scalar methods are one-row
    calls of these.  Instances are immutable after construction and safe
    to share; every method is pure.
    """

    name = "generic"

    def __init__(self, dimension: int, g5_constants: Optional[G5Constants] = None):
        if dimension not in (1, 2, 3):
            raise ValueError("supported dimensions are 1, 2 and 3")
        self.dimension = int(dimension)
        self.g5_constants = g5_constants

    # -- admissibility -----------------------------------------------------

    def admissible_pair(self, x, y) -> bool:
        n = self.dimension
        return bool(self.admissible_pair_batch(_vec(x, n)[None, :],
                                               _vec(y, n)[None, :])[0])

    def admissible_pair_batch(self, xs, y) -> np.ndarray:
        """Admissibility of the pairs (x_k, y_k); y is one point or rows."""
        xs, ys = _pair_rows(xs, y, self.dimension)
        # by column: reducing (m, n) rows over their short axis is ~15x slower
        ok = np.ones(len(xs), dtype=bool)
        for k in range(self.dimension):
            ok &= np.isfinite(xs[:, k]) & np.isfinite(ys[:, k])
        return ok

    def z_interval(self, x, y) -> tuple:
        """Open interval I(x, y) of admissible focal parameters."""
        n = self.dimension
        lo, hi = self.z_interval_batch(_vec(x, n)[None, :], _vec(y, n)[None, :])
        return float(lo[0]), float(hi[0])

    @abc.abstractmethod
    def z_interval_batch(self, xs, y) -> tuple:
        """(lo, hi) arrays of I(x_k, y_k); y is one point or rows."""

    # -- derivatives -------------------------------------------------------

    @abc.abstractmethod
    def _raw_batch(self, xs, ys, zs) -> BatchBundle:
        """Exact derivative bundle over rows; no admissibility checks."""

    def bundle(self, x, y, z) -> BatchBundle:
        """Derivative bundle at one point: row 0 of a one-row batch."""
        b = self._raw_batch(_vec(x, self.dimension)[None, :],
                            _vec(y, self.dimension)[None, :], np.array([float(z)]))
        return BatchBundle(*(getattr(b, f.name)[0] for f in fields(b)))

    def bundle_batch(self, xs, ys, zs) -> BatchBundle:
        xs, ys = _pair_rows(xs, ys, self.dimension)
        return self._raw_batch(xs, ys, _per_row(zs, len(xs)))

    # -- values against one target -----------------------------------------

    def _piece_values(self, xs, ys) -> Callable:
        """Closure z -> G(x_k, y_k, z) over rows xs (m, n), ys (1, n) or
        (m, n), for one z or one per row; the built-in instances write G
        only here (with einsum row sums, which round alike for any row
        count) and take _raw_batch's value from it, passing the z-free
        terms (``_terms``) that _raw_batch computes once for both.  The
        default evaluates the kernel."""
        xs = xs.copy()
        ys = np.broadcast_to(ys, xs.shape)
        return lambda z: self._raw_batch(xs, ys, np.full(len(xs), z, float)).value

    def piece_values_fn(self, xs, y) -> Callable[[float], np.ndarray]:
        """Closure z -> G(xs, y, z) for one target y."""
        return self._piece_values(_rows(xs, self.dimension),
                                  _vec(y, self.dimension)[None, :])

    def value(self, x, y, z) -> float:
        return float(self.value_batch(_vec(x, self.dimension)[None, :], y, z)[0])

    def value_batch(self, xs, y, z) -> np.ndarray:
        return self.piece_values_fn(xs, y)(z)

    def q_batch(self, xs, y, z) -> np.ndarray:
        """Target-slope map Q = -G_y/G_z over rows of xs."""
        return _q_of(self.bundle_batch(xs, y, z))

    def h_batch(self, xs, ys, us) -> np.ndarray:
        """z-inverse H over rows: the closed form when the instance has
        one, else dual_H_rows (NaN where a row has no root)."""
        xs, ys = _pair_rows(xs, ys, self.dimension)
        us = _per_row(us, len(xs))
        closed = self._h_of(xs, ys, us)
        return dual_H_rows(self, xs, ys, us)[0] if closed is None else closed

    # -- closed-form inverses: None when the instance has none -------------

    def forward_yz_batch(self, xs, us, ps):
        """Vectorized closed-form forward map, or None when unavailable;
        the forward row Newton starts from it where it is valid.

        Returns (Y (m,n), Z (m,), valid (m,) bool)."""
        return None

    def _h_of(self, xs, ys, us):
        """Closed-form H for rows xs, ys (m, n) and us (m,), or None; also
        the start of dual_H_rows' Newton."""
        return None

    def _x_of(self, ys, zs, qs):
        """Closed-form X for rows ys (m, n), zs (m,) and qs (m, n), or None.

        Returns (xs (m, n), ok (m,) bool); a row is not ok when its slope
        lies outside the image of Q(., y, z)."""
        return None


# --------------------------------------------------------------------------
# built-in instance: quadratic cost (optimal transport with G = c - z)
# --------------------------------------------------------------------------

class QuadraticOT(GeneratingFunction):
    """G(x, y, z) = |x - y|^2 / 2 - z with I(x, y) = R.

    The induced equation is the classical Monge-Ampere / optimal
    transport specialization: E = -I, A = I, Q = y - x.
    """

    name = "quadratic_ot"

    def __init__(self, dimension: int):
        super().__init__(dimension, g5_constants=None)

    def z_interval_batch(self, xs, y):
        m = len(_rows(xs, self.dimension))
        return np.full(m, -math.inf), np.full(m, math.inf)

    def _terms(self, xs, ys):
        d = xs - ys
        return d, 0.5 * np.einsum("ij,ij->i", d, d)

    def _piece_values(self, xs, ys, terms=None):
        _d, c = terms or self._terms(xs, ys)
        return lambda z: c - z

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        terms = self._terms(xs, ys)
        d = terms[0]
        eye = _eye_batch(m, n)
        zero_v = np.zeros((m, n))
        return BatchBundle(
            value=self._piece_values(xs, ys, terms)(zs),
            grad_x=d,
            grad_y=-d,
            dz=np.full(m, -1.0),
            hess_xx=eye,
            hess_xy=-eye.copy(),
            hess_yy=eye.copy(),
            grad_xz=zero_v,
            grad_yz=zero_v.copy(),
            dzz=np.zeros(m),
        )

    def _h_of(self, xs, ys, us):
        _d, c = self._terms(xs, ys)
        return c - us

    def forward_yz_batch(self, xs, us, ps):
        xs = _rows(xs, self.dimension)
        ps = _rows(ps, self.dimension)
        us = np.asarray(us, dtype=float).reshape(-1)
        ys = xs - ps
        zs = 0.5 * np.einsum("ij,ij->i", ps, ps) - us
        return ys, zs, np.ones(len(xs), dtype=bool)

    def _x_of(self, ys, zs, qs):
        return ys - qs, np.ones(len(ys), dtype=bool)


# --------------------------------------------------------------------------
# built-in instance: parallel-beam reflector
# --------------------------------------------------------------------------

class ParallelBeam(GeneratingFunction):
    """G(x, y, z) = 1/(2z) - (z/2)|x - y|^2 on I(x, y) = (0, 1/|x - y|).

    Graphs of G(., y, z) are focal paraboloids: a vertical beam reflected
    off the graph of u converges to the focus (y, 0).  Derivatives below
    come from direct differentiation:

        G_x  = -z (x - y),          G_y  =  z (x - y),
        G_z  = -(z^-2 + r^2)/2,     r = |x - y|,
        E    =  z [ (1 + z^2 r^2) I - 2 z^2 w (x) w ] / (1 + z^2 r^2),
        detE =  z^n (1 - z^2 r^2) / (1 + z^2 r^2),
        Y    =  x + 2 u p / (1 - |p|^2),   Z = (1 - |p|^2) / (2u),
        A    = -Z I,                H = 1 / (u + sqrt(u^2 + r^2)).

    The gradient bound holds with m0 = 0, K0 = 1: G > 0 forces zr < 1,
    hence |G_x| = zr < 1.
    """

    name = "parallel_beam"

    def __init__(self, dimension: int):
        super().__init__(dimension, g5_constants=G5Constants(m0=0.0, k0=1.0))

    def z_interval_batch(self, xs, y):
        _d, r2 = self._terms(*_pair_rows(xs, y, self.dimension))
        r = np.sqrt(r2)
        hi = np.full(len(r), math.inf)
        np.divide(1.0, r, out=hi, where=r > 0)
        return np.zeros(len(r)), hi

    def _terms(self, xs, ys):
        d = xs - ys
        return d, np.einsum("ij,ij->i", d, d)

    def _piece_values(self, xs, ys, terms=None):
        _d, r2 = terms or self._terms(xs, ys)
        return lambda z: 0.5 / z - 0.5 * z * r2

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        terms = self._terms(xs, ys)
        w, r2 = terms
        z = zs
        eye = _eye_batch(m, n)
        return BatchBundle(
            value=self._piece_values(xs, ys, terms)(z),
            grad_x=-z[:, None] * w,
            grad_y=z[:, None] * w,
            dz=-0.5 * (z ** -2 + r2),
            hess_xx=-z[:, None, None] * eye,
            hess_xy=z[:, None, None] * eye.copy(),
            hess_yy=-z[:, None, None] * eye.copy(),
            grad_xz=-w,
            grad_yz=w.copy(),
            dzz=z ** -3,
        )

    def _h_of(self, xs, ys, us):
        _d, r2 = self._terms(xs, ys)
        return 1.0 / (us + np.sqrt(us ** 2 + r2))

    def forward_yz_batch(self, xs, us, ps):
        xs = _rows(xs, self.dimension)
        ps = _rows(ps, self.dimension)
        us = np.asarray(us, dtype=float).reshape(-1)
        p2 = np.einsum("ij,ij->i", ps, ps)
        valid = (us > 0) & (p2 < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            zs = (1.0 - p2) / (2.0 * us)
            ys = xs + (2.0 * us / (1.0 - p2))[:, None] * ps
        return ys, zs, valid

    def _x_of(self, ys, zs, qs):
        # invert q = 2 z^3 w / (1 + z^2 |w|^2) on the admissible branch;
        # matmul rounds |q|^2 as the scalar q @ q does (einsum does not),
        # and float_power is the C pow, which numpy's ** 4 is not
        qn = np.sqrt(np.matmul(qs[:, None, :], qs[:, :, None])[:, 0, 0])
        z2 = zs * zs
        ok = ~((qn > 0.0) & (qn >= z2))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (z2 - np.sqrt(np.float_power(zs, 4) - qn * qn)) / (zs * qn)
            xs = ys + (t / qn)[:, None] * qs
        return np.where((qn == 0.0)[:, None], ys, xs), ok


# --------------------------------------------------------------------------
# built-in instance: point-source reflector with hyperplane target
# --------------------------------------------------------------------------

class PointSourcePlane(GeneratingFunction):
    """Point-source reflection onto the hyperplane at height tau <= 0.

    G(x, y, z) = (1/z) [ sqrt(z + |y|^2 + tau^2) - x.y - sqrt(1-|x|^2) tau ]

    with |x| < 1, I(x, y) = (0, inf).  Writing s = sqrt(z + |y|^2 + tau^2)
    and w = sqrt(1 - |x|^2), direct differentiation gives

        G_x  = (-y + tau x / w) / z,
        G_xx = tau ( w^2 I + x (x) x ) / (z w^3),
        G_y  = (y/s - x) / z,        G_xy = -I / z,
        G_z  = -G/z + 1/(2 z s),     G_xz = -G_x / z.

    Given (x, u, p) the forward map solves in closed form with
    ubar = u - p.x:

        Z = (1 - 2 tau u / w) / (ubar^2 - |p|^2),
        Y = -p Z + tau x / w.

    At tau = 0 the function is linear in x, so A = G_xx = 0 identically.
    """

    name = "point_source"

    def __init__(self, dimension: int, tau: float = 0.0):
        if tau > 0.0:
            raise ValueError("the hyperplane height tau must satisfy tau <= 0")
        super().__init__(dimension, g5_constants=None)
        self.tau = float(tau)

    def z_interval_batch(self, xs, y):
        m = len(_rows(xs, self.dimension))
        return np.zeros(m), np.full(m, math.inf)

    def admissible_pair_batch(self, xs, y):
        xs = _rows(xs, self.dimension)
        return np.einsum("ij,ij->i", xs, xs) < 1.0

    def _terms(self, xs, ys):
        w = np.sqrt(1.0 - np.einsum("ij,ij->i", xs, xs))
        return (w, np.einsum("ij,ij->i", xs, ys),
                np.einsum("ij,ij->i", ys, ys))

    def _piece_values(self, xs, ys, terms=None):
        w, xy, y2 = terms or self._terms(xs, ys)
        tt = self.tau * self.tau
        wt = w * self.tau
        return lambda z: (np.sqrt(z + y2 + tt) - xy - wt) / z

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        tau = self.tau
        terms = self._terms(xs, ys)
        w, _xy, y2 = terms
        s = np.sqrt(zs + y2 + tau * tau)
        z = zs
        value = self._piece_values(xs, ys, terms)(z)
        grad_x = (-ys + (tau / w)[:, None] * xs) / z[:, None]
        grad_y = (ys / s[:, None] - xs) / z[:, None]
        dz = -value / z + 1.0 / (2.0 * z * s)
        eye = _eye_batch(m, n)
        xx = np.einsum("ij,ik->ijk", xs, xs)
        yy = np.einsum("ij,ik->ijk", ys, ys)
        hess_xx = (tau / (z * w ** 3))[:, None, None] * (
            (w ** 2)[:, None, None] * eye + xx)
        hess_xy = -eye.copy() / z[:, None, None]
        hess_yy = (eye.copy() / s[:, None, None] - yy / (s ** 3)[:, None, None]) \
            / z[:, None, None]
        grad_xz = -grad_x / z[:, None]
        grad_yz = -grad_y / z[:, None] - ys / (2.0 * z * s ** 3)[:, None]
        dzz = -dz / z + value / z ** 2 - 1.0 / (2.0 * z ** 2 * s) \
            - 1.0 / (4.0 * z * s ** 3)
        return BatchBundle(value, grad_x, grad_y, dz, hess_xx, hess_xy,
                           hess_yy, grad_xz, grad_yz, dzz)

    def _h_of(self, xs, ys, us):
        w, xy, y2 = self._terms(xs, ys)
        beta = xy + w * self.tau
        disc = 1.0 - 4.0 * us * beta + 4.0 * us ** 2 * (y2 + self.tau ** 2)
        return ((1.0 - 2.0 * us * beta) + np.sqrt(disc)) / (2.0 * us ** 2)

    def forward_yz_batch(self, xs, us, ps):
        xs = _rows(xs, self.dimension)
        ps = _rows(ps, self.dimension)
        us = np.asarray(us, dtype=float).reshape(-1)
        x2 = np.einsum("ij,ij->i", xs, xs)
        ubar = us - np.einsum("ij,ij->i", ps, xs)
        p2 = np.einsum("ij,ij->i", ps, ps)
        denom = ubar ** 2 - p2
        valid = (x2 < 1.0) & (ubar > 0) & (denom > 0) & (us > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.sqrt(1.0 - x2)
            zs = (1.0 - 2.0 * self.tau * us / w) / denom
            ys = -ps * zs[:, None] + (self.tau / w)[:, None] * xs
        valid &= np.isfinite(zs) & (zs > 0)
        return ys, zs, valid


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def eval_bundle(gf: GeneratingFunction, x, y, z) -> BatchBundle:
    """Exact derivative bundle at an admissible point.

    Raises DomainViolation when (x, y) is inadmissible, z falls outside
    I(x, y), or the monotonicity convention G_z < 0 fails there.
    """
    x = _vec(x, gf.dimension)
    y = _vec(y, gf.dimension)
    z = float(z)
    if not gf.admissible_pair(x, y):
        raise DomainViolation(f"pair (x, y) outside the admissible set for {gf.name}")
    lo, hi = gf.z_interval(x, y)
    if not (lo < z < hi):
        raise DomainViolation(
            f"z = {z} outside the open interval ({lo}, {hi}) for {gf.name}")
    b = gf.bundle(x, y, z)
    if not b.dz < 0.0:
        raise DomainViolation(f"G_z = {b.dz} is not negative at the requested point")
    return b


# --------------------------------------------------------------------------
# row Newton shared by the forward map and the slope inversion
# --------------------------------------------------------------------------

class RowStatus:
    """Outcome codes of the row solvers; only OK rows carry a result."""

    OK = 0
    OUT_OF_IMAGE = 1   # the closed form rules the slope out
    BAD_START = 2      # the initial iterate (for H: the pair) is inadmissible
    SINGULAR = 3       # singular Newton system
    NO_STEP = 4        # no admissible decreasing step within 45 halvings
    BUDGET = 5         # iteration budget exhausted
    NO_LOWER = 6       # H: no lower bracket end within H_DOUBLINGS
    NO_UPPER = 7       # H: no upper bracket end within H_DOUBLINGS
    OUT_OF_RANGE = 8   # H: u outside the attainable range on I(x, y)


def _raise_for_status(errors: dict, status: int, **fmt) -> None:
    """Raise the exception that errors names for a row's status."""
    if status != RowStatus.OK:
        exc, msg = errors[int(status)]
        raise exc(msg.format(**fmt))


def _on_slice(gf: GeneratingFunction, xs, ys, zs) -> np.ndarray:
    """Rows with (x, y) admissible and z inside I(x, y)."""
    lo, hi = gf.z_interval_batch(xs, ys)
    return gf.admissible_pair_batch(xs, ys) & (lo < zs) & (zs < hi)


def _solve_rows(a, rhs) -> tuple:
    """Row-wise solve a_k s_k = rhs_k; returns (s, singular mask or None)."""
    try:
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        singular = np.zeros(len(a), dtype=bool)
        for k in range(len(a)):
            try:
                out[k] = np.linalg.solve(a[k], rhs[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return out, singular


def _newton_rows(v, ctx, thr, status, *, evaluate, jacobian,
                 admissible) -> tuple:
    """Masked, safeguarded, damped Newton over rows.

    v (m, k) holds the starting iterates, ctx a tuple of per-row arrays
    that the callbacks receive with them, thr the per-row acceptance
    thresholds and status the rows' RowStatus so far (only OK rows run).
    evaluate(v, ctx) -> (bundle, residual (r, k), max-norm (r,));
    jacobian(bundle) -> (r, k, k); admissible(v, ctx) -> (r,) bool.
    Rows with an inadmissible start are BAD_START.  A row is done when its
    norm is at most thr; otherwise it solves its Newton system and takes
    the first of 45 halved steps that stays admissible and lowers its norm
    or meets thr; rows still running after NEWTON_ITER steps are BUDGET.
    The kernel runs on the still-active rows only.

    Returns (out, status, rnorm): out is NaN where status is not OK, and
    rnorm is each row's last residual norm (NaN for rows that never
    reached the kernel).
    """
    m = len(v)
    out = np.full(v.shape, np.nan)
    rnorm = np.full(m, np.nan)
    start = admissible(v, ctx)
    status[~start & (status == RowStatus.OK)] = RowStatus.BAD_START
    act = (status == RowStatus.OK).nonzero()[0]
    if not len(act):
        return out, status, rnorm
    if len(act) < m:
        v, thr = v[act], thr[act]
        ctx = tuple(a[act] for a in ctx)
    b, res, rn = evaluate(v, ctx)
    jac = None

    def jac_now():
        nonlocal jac
        if jac is None:
            jac = jacobian(b)
        return jac

    def finish(mask, code):
        nonlocal act, v, ctx, thr, res, rn, jac
        every = mask.all()
        sel = slice(None) if every else mask
        status[act[sel]] = code
        rnorm[act[sel]] = rn[sel]
        if code == RowStatus.OK:
            out[act[sel]] = v[sel]
        if every:
            act = act[:0]
        else:
            keep = ~mask
            act, v, thr, res, rn, jac = (
                a[keep] for a in (act, v, thr, res, rn, jac_now()))
            ctx = tuple(a[keep] for a in ctx)

    for it in range(NEWTON_ITER + 1):
        if not len(act):
            break
        done = rn <= thr
        if done.any():
            finish(done, RowStatus.OK)
            if not len(act):
                break
        if it == NEWTON_ITER:
            finish(np.ones(len(act), dtype=bool), RowStatus.BUDGET)
            break
        step, singular = _solve_rows(jac_now(), -res)
        if singular is not None:
            finish(singular, RowStatus.SINGULAR)
            if not len(act):
                break
            step = step[~singular]
        # line search over the rows that have not accepted a step yet;
        # pend is None while that is every row
        pend = None
        lam = 1.0
        for _ in range(45):
            rows = slice(None) if pend is None else pend
            v_try = v[rows] + lam * step[rows]
            sub = ctx if pend is None else tuple(a[rows] for a in ctx)
            adm = admissible(v_try, sub)
            if not adm.all():
                if pend is None:
                    pend = np.arange(len(act))
                rows, v_try = pend[adm], v_try[adm]
                sub = tuple(a[rows] for a in ctx)
            if len(v_try):
                bt, res_t, rn_t = evaluate(v_try, sub)
                acc = (rn_t < rn[rows]) | (rn_t <= thr[rows])
                if pend is None and acc.all():
                    # every row accepted its full step: swap, no gathers
                    v, res, rn, jac, b = v_try, res_t, rn_t, None, bt
                    break
                if acc.any():
                    if pend is None:
                        pend = rows = np.arange(len(act))
                    sel = rows[acc]
                    v[sel] = v_try[acc]
                    res[sel] = res_t[acc]
                    rn[sel] = rn_t[acc]
                    jac_now()[sel] = jacobian(bt)[acc]
                    pend = pend[~np.isin(pend, sel)]
                    if not len(pend):
                        break
            lam *= 0.5
        else:
            failed = np.zeros(len(act), dtype=bool)
            failed[slice(None) if pend is None else pend] = True
            finish(failed, RowStatus.NO_STEP)
    return out, status, rnorm


def _map_fraction_rows(lo, hi, f) -> np.ndarray:
    """Place interior quantiles f into possibly unbounded open intervals
    (lo, hi); the arguments broadcast against each other."""
    f = np.asarray(f, dtype=float)
    with np.errstate(invalid="ignore"):
        # math.log, whose rounding np.log does not always repeat; once per f
        logit = np.reshape([math.log(v / (1.0 - v)) for v in f.ravel()], f.shape)
        lo, hi, f, logit = np.broadcast_arrays(lo, hi, f, logit)
        flo, fhi = np.isfinite(lo), np.isfinite(hi)
        return np.where(flo & fhi, lo + f * (hi - lo), np.where(
            flo, lo + f / (1.0 - f), np.where(fhi, hi - (1.0 - f) / f, logit)))


def _map_fraction(lo: float, hi: float, f: float) -> float:
    """One interior quantile: one row of _map_fraction_rows."""
    return float(_map_fraction_rows(lo, hi, f))


# --------------------------------------------------------------------------
# the dual function H
# --------------------------------------------------------------------------

def dual_H_rows(gf: GeneratingFunction, xs, ys, us) -> tuple:
    """Solve G(x_k, y_k, z) = u_k for z in I(x_k, y_k) over rows.

    G decreases in z.  A bracket end starts H_INSET inside a finite end
    of I, or at -1 or 1 and doubles towards an infinite one; an end that
    fails the sign test moves halfway to a finite end of I while it can.
    A bisection-guarded Newton from _h_of (else the bracket midpoint)
    runs until the bracket closes, then takes two polish steps.  Returns
    (zs, status, g_range): zs is NaN where status is not RowStatus.OK;
    g_range (m, 2) is G at the upper and the lower bracket end.
    """
    xs, ys = (np.ascontiguousarray(a) for a in _pair_rows(xs, ys, gf.dimension))
    us = _per_row(us, len(xs))
    status = np.where(gf.admissible_pair_batch(xs, ys),
                      RowStatus.OK, RowStatus.BAD_START)
    lo, hi = gf.z_interval_batch(xs, ys)

    def settle(z, end, reached, code):
        # G at the running rows' bracket end z, moving an end that fails
        # the sign test (code after H_DOUBLINGS tries at an infinite end)
        gz = np.full(len(xs), np.nan)
        rows = np.flatnonzero(status == RowStatus.OK)
        for tries in itertools.count(1):
            if not len(rows):
                return gz
            gz[rows] = gf._piece_values(xs[rows], ys[rows])(z[rows])
            rows = rows[~reached(gz[rows], us[rows])]
            free = ~np.isfinite(end[rows])
            if tries == H_DOUBLINGS:
                status[rows[free]] = code
                rows, free = rows[~free], free[~free]
            zn = np.where(free, 2.0 * z[rows], 0.5 * (z[rows] + end[rows]))
            moves = (zn != z[rows]) & (zn != end[rows])
            rows = rows[moves]
            z[rows] = zn[moves]

    with np.errstate(invalid="ignore", divide="ignore"):
        flo, fhi = np.isfinite(lo), np.isfinite(hi)
        span = np.where(flo & fhi, hi - lo, 1.0)
        inset = [H_INSET * np.maximum(np.maximum(span, np.abs(e)), 1.0)
                 for e in (lo, hi)]
        a = np.where(flo, lo + inset[0],
                     np.where(fhi, np.minimum(-1.0, hi - 1.0), -1.0))
        ga = settle(a, lo, np.greater_equal, RowStatus.NO_LOWER)
        b = np.where(fhi, hi - inset[1], np.maximum(1.0, a + 1.0))
        gb = settle(b, hi, np.less_equal, RowStatus.NO_UPPER)
        status[(status == RowStatus.OK) & ~((ga >= us) & (us >= gb))] = \
            RowStatus.OUT_OF_RANGE

        run = np.flatnonzero(status == RowStatus.OK)
        z = np.full(len(xs), np.nan)
        x, y, u, ar, br = (v[run] for v in (xs, ys, us, a, b))
        h, zr = gf._h_of(x, y, u), 0.5 * (ar + br)
        if h is not None:
            zr = np.where(np.isfinite(h) & (ar < h) & (h < br), h, zr)
        for _ in range(H_ITER):
            if not len(run):
                break
            bnd = gf._raw_batch(x, y, zr)
            f, dz = bnd.value - u, bnd.dz
            above = f >= 0.0
            ar, br = np.where(above, zr, ar), np.where(above, br, zr)
            done = br - ar <= H_TOL * (1.0 + np.abs(zr))
            if done.any():
                z[run], a[run], b[run] = zr, ar, br
                run, x, y, u, zr, ar, br, f, dz = (
                    v[~done] for v in (run, x, y, u, zr, ar, br, f, dz))
            zn = zr - f / dz
            zr = np.where((dz < 0.0) & (ar < zn) & (zn < br), zn, 0.5 * (ar + br))
        z[run], a[run], b[run] = zr, ar, br
        # quadratic polish: the bracket ends carry rounding noise of the
        # sign test, so the Newton target gets a bracket-width slack
        slack = (b - a) + H_TOL * (1.0 + np.abs(z))
        run = np.flatnonzero(status == RowStatus.OK)
        for _ in range(2):
            if not len(run):
                break
            bnd = gf._raw_batch(xs[run], ys[run], z[run])
            zn = z[run] - (bnd.value - us[run]) / bnd.dz
            ok = (bnd.dz < 0.0) & (a[run] - slack[run] <= zn) \
                & (zn <= b[run] + slack[run]) & (lo[run] < zn) & (zn < hi[run])
            run = run[ok]
            z[run] = zn[ok]
    return z, status, np.stack([gb, ga], axis=1)


_DUAL_ERRORS = {
    RowStatus.BAD_START: (
        DomainViolation, "pair (x, y) outside the admissible set for {name}"),
    RowStatus.NO_LOWER: (NoRoot, "could not bracket the root from below"),
    RowStatus.NO_UPPER: (NoRoot, "could not bracket the root from above"),
    RowStatus.OUT_OF_RANGE: (
        RangeViolation,
        "u = {u} outside the attainable range [{gb}, {ga}] on I(x, y)"),
}


def _raise_for_H(gf: GeneratingFunction, status: int, u, g_range) -> None:
    """Raise the exception that dual_H raises for a row of dual_H_rows."""
    _raise_for_status(_DUAL_ERRORS, status, name=gf.name, u=float(u),
                      gb=float(g_range[0]), ga=float(g_range[1]))


def dual_H(gf: GeneratingFunction, x, y, u) -> DualValue:
    """Solve G(x, y, z) = u for z; one row of dual_H_rows.

    Raises DomainViolation when (x, y) is inadmissible, RangeViolation
    when u lies outside the attainable range J(x, y) and NoRoot when no
    bracket can be established.
    """
    x, y, u = _vec(x, gf.dimension), _vec(y, gf.dimension), float(u)
    zs, status, g_range = dual_H_rows(gf, x[None, :], y[None, :], u)
    _raise_for_H(gf, status[0], u, g_range[0])
    b = gf.bundle(x, y, zs[0])
    return DualValue(float(zs[0]), -b.grad_x / b.dz, -b.grad_y / b.dz,
                     float(1.0 / b.dz))


def _forward_rows(gf: GeneratingFunction, xs, us, ps, initial=None) -> tuple:
    """Newton for G_x(x_k, Y, Z) = p_k, G(x_k, Y, Z) = u_k over rows, from
    the closed form where it holds, else the row of initial = (ys, zs),
    else (x_k, quantile 1/2 of I(x_k, x_k)).  The Jacobian is [[G_xy,
    G_xz], [G_y, G_z]]; a start within NEWTON_TOL * (1 + |u| + |p|_inf) is
    returned unchanged.  Returns (v (m, n+1) = [Y, Z], status, rnorm) as
    _newton_rows does.
    """
    n = gf.dimension
    if initial is None:
        ys, zs = xs, _map_fraction_rows(*gf.z_interval_batch(xs, xs), 0.5)
    else:
        ys, zs = initial
    closed = gf.forward_yz_batch(xs, us, ps)
    if closed is not None:
        ys = np.where(closed[2][:, None], closed[0], ys)
        zs = np.where(closed[2], closed[1], zs)

    def evaluate(v, ctx):
        x, u, p = ctx
        b = gf._raw_batch(x, v[:, :n], v[:, n])
        res = np.concatenate([b.grad_x - p, (b.value - u)[:, None]], axis=1)
        return b, res, np.abs(res).max(axis=1)

    def jacobian(b):
        jac = np.empty((len(b.dz), n + 1, n + 1))
        jac[:, :n, :n] = b.hess_xy
        jac[:, :n, n] = b.grad_xz
        jac[:, n, :n] = b.grad_y
        jac[:, n, n] = b.dz
        return jac

    def admissible(v, ctx):
        return _on_slice(gf, ctx[0], v[:, :n], v[:, n])

    return _newton_rows(
        np.concatenate([ys, zs[:, None]], axis=1), (xs, us, ps),
        NEWTON_TOL * (1.0 + np.abs(us) + np.abs(ps).max(axis=1)),
        np.zeros(len(xs), dtype=int), evaluate=evaluate, jacobian=jacobian,
        admissible=admissible)


_FORWARD_ERRORS = {
    RowStatus.BAD_START: (
        DomainViolation, "forward map: initial iterate is inadmissible"),
    RowStatus.SINGULAR: (NoConvergence, "forward map: singular Newton system"),
    RowStatus.NO_STEP: (
        DomainViolation,
        "forward map: Newton step could not stay in the admissible set"),
    RowStatus.BUDGET: (
        NoConvergence,
        "forward map: iteration budget exhausted (residual {rnorm:.3e})"),
}


def forward_YZ(gf: GeneratingFunction, x, u, p, *, initial=None) -> tuple:
    """Solve G_x(x, Y, Z) = p, G(x, Y, Z) = u for (Y, Z).

    Damped Newton on the (n+1)-system with the Jacobian assembled from
    exact second derivatives.  The initial guess comes from the closed
    form where the instance has one that holds, else from the caller,
    else from (y, z) = (x, quantile 1/2 of I(x, x)).  One row of
    forward_YZ_rows; raises the exception its row status names.
    """
    n = gf.dimension
    init = None if initial is None else (_vec(initial[0], n)[None, :],
                                         np.array([float(initial[1])]))
    v, status, rnorm = _forward_rows(
        gf, _vec(x, n)[None, :], np.array([float(u)]), _vec(p, n)[None, :], init)
    _raise_for_status(_FORWARD_ERRORS, status[0], rnorm=rnorm[0])
    return v[0, :n], float(v[0, n])


def forward_YZ_rows(gf: GeneratingFunction, xs, us, ps) -> tuple:
    """(Y, Z) over rows: the row Newton of forward_YZ, started from the
    instance's closed form where it holds.

    Returns (ys (m, n), zs (m,), ok (m,) bool); rows without an
    admissible solution are not ok and hold NaN.
    """
    n = gf.dimension
    xs = _rows(xs, n)
    v, status, _rnorm = _forward_rows(gf, xs, _per_row(us, len(xs)), _rows(ps, n))
    return v[:, :n].copy(), v[:, n].copy(), status == RowStatus.OK


def matrix_E(gf: GeneratingFunction, x, y, z) -> tuple:
    """Mixed matrix E = G_xy - (1/G_z) G_xz (x) G_y and its determinant.

    E inverts the p-derivative of the forward map: Y_p = E^{-1}.  Raises
    SingularE when |det E| falls below SINGULAR_E_TOL.
    """
    e = _e_matrix(eval_bundle(gf, x, y, z))
    det = float(np.linalg.det(e))
    if abs(det) < SINGULAR_E_TOL:
        raise SingularE(f"|det E| = {abs(det):.3e} below {SINGULAR_E_TOL:.1e}")
    return e, det


def _e_matrix(b) -> np.ndarray:
    """E from a one-point bundle (n, n) or a batched bundle (m, n, n)."""
    return b.hess_xy - b.grad_xz[..., :, None] * b.grad_y[..., None, :] \
        / np.asarray(b.dz)[..., None, None]


def _psi_rows(psi: Callable, xs, us, ps) -> np.ndarray:
    """Right-hand density psi over rows, as an (m,) array.

    psi(xs, us, ps) takes (m, n) points, (m,) values and (m, n) slopes;
    a scalar result is broadcast to every row.
    """
    return np.broadcast_to(np.asarray(psi(xs, us, ps), dtype=float), (len(xs),))


def matrix_A_B_rows(gf: GeneratingFunction, xs, us, ps, psi=None) -> tuple:
    """A = G_xx(x_k, Y, Z) and B = det E(x_k, Y, Z) * psi(x_k, u_k, p_k)
    over rows, with (Y, Z) from the forward row Newton and one kernel call
    on the solved rows.  psi is a row evaluator psi(xs, us, ps) -> (m,)
    (default 1, so B = det E).  Returns (a (m, n, n), b (m,), status,
    rnorm): a and b are NaN where status is not RowStatus.OK, and b also
    where G_z >= 0 at (x_k, Y, Z), off the set where G decreases in z."""
    n = gf.dimension
    xs, ps = _rows(xs, n), _rows(ps, n)
    us = _per_row(us, len(xs))
    v, status, rnorm = _forward_rows(gf, xs, us, ps)
    ok = status == RowStatus.OK
    a = np.full((len(xs), n, n), np.nan)
    b = np.full(len(xs), np.nan)
    bnd = gf._raw_batch(xs[ok], v[ok, :n], v[ok, n])
    a[ok] = bnd.hess_xx
    b[ok] = np.where(bnd.dz < 0.0, np.linalg.det(_e_matrix(bnd)), np.nan)
    if psi is not None and ok.any():
        b[ok] *= _psi_rows(psi, xs[ok], us[ok], ps[ok])
    return a, b, status, rnorm


def matrix_A(gf: GeneratingFunction, x, u, p) -> np.ndarray:
    """Monge-Ampere coefficient A(x, u, p) = G_xx(x, Y, Z); one row of
    matrix_A_B_rows, raising as forward_YZ does."""
    return matrix_A_B(gf, x, u, p)[0]


def matrix_A_B(gf: GeneratingFunction, x, u, p, psi=None) -> tuple:
    """A and the right-hand side B = det E(x, Y, Z) * psi(x, u, p), psi a
    row evaluator (default 1); one row of matrix_A_B_rows, raising as
    forward_YZ does."""
    n = gf.dimension
    a, b, status, rnorm = matrix_A_B_rows(gf, _vec(x, n)[None, :], float(u),
                                          _vec(p, n)[None, :], psi)
    _raise_for_status(_FORWARD_ERRORS, status[0], rnorm=rnorm[0])
    return a[0], float(b[0])


def matrix_A_via_yp(gf: GeneratingFunction, x, u, p) -> np.ndarray:
    """A by the vector-field formula A = -Y_p^{-1} (Y_x + Y_u (x) p).

    All blocks are central finite differences of the forward map; this is
    the independent cross-check route for the closed assembly above.
    """
    n = gf.dimension
    x = _vec(x, n)
    u = float(u)
    p = _vec(p, n)
    h = fd_step(max(abs(u), float(np.max(np.abs(p))), float(np.max(np.abs(x)))))

    def yy(xv, uv, pv):
        return forward_YZ(gf, xv, uv, pv)[0]

    yp = np.zeros((n, n))
    yx = np.zeros((n, n))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = h
        yp[:, j] = (yy(x, u, p + ej) - yy(x, u, p - ej)) / (2 * h)
        yx[:, j] = (yy(x + ej, u, p) - yy(x - ej, u, p)) / (2 * h)
    yu = (yy(x, u + h, p) - yy(x, u - h, p)) / (2 * h)
    return -np.linalg.solve(yp, yx + np.outer(yu, p))


def _q_of(b: BatchBundle) -> np.ndarray:
    """Q = -G_y / G_z from a one-point (n,) or batched (m, n) bundle."""
    return -b.grad_y / np.asarray(b.dz)[..., None]


def map_Q(gf: GeneratingFunction, x, y, z) -> np.ndarray:
    """Target-slope map Q = -G_y / G_z at an admissible point."""
    return _q_of(eval_bundle(gf, x, y, z))


_SLOPE_ERRORS = {
    RowStatus.OUT_OF_IMAGE: (
        OutOfImage, "slope q = {q} outside the image of Q(., y, z)"),
    RowStatus.BAD_START: (
        DomainViolation, "slope inversion: initial iterate is inadmissible"),
    RowStatus.SINGULAR: (NoConvergence, "slope inversion: singular Jacobian"),
    RowStatus.NO_STEP: (
        NoConvergence, "slope inversion: no admissible decreasing step found"),
    RowStatus.BUDGET: (
        NoConvergence,
        "slope inversion: iteration budget exhausted (residual {rnorm:.3e})"),
}


def map_X_rows(gf: GeneratingFunction, ys, zs, qs, *, initial=None) -> tuple:
    """Invert x -> Q(x, y_k, z_k) = q_k for every row at once.

    Every row starts from the closed form (rows it rules out are
    OUT_OF_IMAGE), else from the row of initial, else from y or 0, and
    runs the row Newton with residual Q - q, Jacobian Q_x = -E^T / G_z and
    acceptance test against NEWTON_TOL * (1 + |q|_inf).

    Returns (xs, status, rnorm): xs is NaN where status is not
    RowStatus.OK, and rnorm is each row's last residual norm (NaN for rows
    that never reached the kernel).
    """
    n = gf.dimension
    ys = _rows(ys, n)
    qs = _rows(qs, n)
    m = len(ys)
    zs = _per_row(zs, m)
    status = np.zeros(m, dtype=int)    # RowStatus.OK
    closed = gf._x_of(ys, zs, qs)
    if closed is not None:
        xs, in_image = closed
        status[~in_image] = RowStatus.OUT_OF_IMAGE
    elif initial is not None:
        xs = np.array(_pair_rows(initial, ys, n)[0])
    else:
        xs = np.where(gf.admissible_pair_batch(ys, ys)[:, None], ys, 0.0)

    def evaluate(x, ctx):
        y, z, q = ctx
        b = gf._raw_batch(x, y, z)
        res = _q_of(b) - q
        return b, res, np.abs(res).max(axis=1)

    def jacobian(b):
        return -_e_matrix(b).transpose(0, 2, 1) / b.dz[:, None, None]

    def admissible(x, ctx):
        return _on_slice(gf, x, ctx[0], ctx[1])

    return _newton_rows(xs, (ys, zs, qs),
                        NEWTON_TOL * (1.0 + np.abs(qs).max(axis=1)),
                        status, evaluate=evaluate, jacobian=jacobian,
                        admissible=admissible)


def map_X(gf: GeneratingFunction, y, z, q, *, initial=None) -> np.ndarray:
    """Invert x -> Q(x, y, z) on the admissible slice.

    Damped Newton with Jacobian Q_x = -E^T / G_z; the admissible-slice
    restriction z in I(x, y) pins the correct branch.  Raises OutOfImage
    when the closed form rules the slope out, DomainViolation when the
    initial iterate is inadmissible, NoConvergence otherwise on failure.
    One row of map_X_rows.
    """
    n = gf.dimension
    y = _vec(y, n)
    q = _vec(q, n)
    init = None if initial is None else _vec(initial, n)[None, :]
    xs, status, rnorm = map_X_rows(gf, y[None, :], float(z), q[None, :],
                                   initial=init)
    _raise_for_status(_SLOPE_ERRORS, status[0], q=q, rnorm=rnorm[0])
    return xs[0]


def dual_Astar_Bstar_rows(gf: GeneratingFunction, ys, zs, qs, f=None, g=None,
                          *, x_initial=None) -> tuple:
    """Dual Monge-Ampere coefficients at every row (y_k, z_k, q_k).

    X comes from map_X_rows; A* and B* are assembled from one kernel call
    over the rows it inverted.  f and g are pointwise densities (default
    1).  Returns (astar (m, n, n), bstar (m,), status, rnorm); A* and B*
    are NaN where status is not RowStatus.OK.
    """
    n = gf.dimension
    ys = _rows(ys, n)
    qs = _rows(qs, n)
    m = len(ys)
    zs = _per_row(zs, m)
    xs, status, rnorm = map_X_rows(gf, ys, zs, qs, initial=x_initial)
    ok = status == RowStatus.OK
    every = ok.all()
    x, y, z, q = (xs, ys, zs, qs) if every else (xs[ok], ys[ok], zs[ok], qs[ok])
    b = gf._raw_batch(x, y, z)
    gz = b.dz
    # float_power is the C pow of the scalar formula; ** 2 would square
    gz2 = np.float_power(gz, 2)
    q_y = -b.hess_yy / gz[:, None, None] \
        + b.grad_y[:, :, None] * b.grad_yz[:, None, :] / gz2[:, None, None]
    q_z = -b.grad_yz / gz[:, None] + b.grad_y * (b.dzz / gz2)[:, None]
    astar = q_y + q_z[:, :, None] * q[:, None, :]
    det = np.linalg.det(_e_matrix(b))
    fx = 1.0 if f is None else np.array([float(f(v)) for v in x])
    gy = 1.0 if g is None else np.array([float(g(v)) for v in y])
    bstar = np.float_power(-1.0 / gz, n) * np.abs(det) * gy / fx
    if every:
        return astar, bstar, status, rnorm
    astar_all = np.full((m, n, n), np.nan)
    bstar_all = np.full(m, np.nan)
    astar_all[ok] = astar
    bstar_all[ok] = bstar
    return astar_all, bstar_all, status, rnorm


def dual_Astar_Bstar(gf: GeneratingFunction, y, z, q, f=None, g=None, *,
                     x_initial=None) -> tuple:
    """Dual Monge-Ampere coefficients at (y, z, q).

    A* is the Hessian of the dual function along its own graph,

        A*(y, z, q) = Q_y(X, y, z) + Q_z(X, y, z) (x) q,

    assembled from exact second derivatives at X = X(y, z, q); B* is
    (-1/G_z)^n |det E| g(y) / f(X).  Densities default to 1.  One row of
    dual_Astar_Bstar_rows; raises as map_X does.
    """
    n = gf.dimension
    y = _vec(y, n)
    q = _vec(q, n)
    init = None if x_initial is None else _vec(x_initial, n)[None, :]
    astar, bstar, status, rnorm = dual_Astar_Bstar_rows(
        gf, y[None, :], float(z), q[None, :], f, g, x_initial=init)
    _raise_for_status(_SLOPE_ERRORS, status[0], q=q, rnorm=rnorm[0])
    return astar[0], float(bstar[0])
