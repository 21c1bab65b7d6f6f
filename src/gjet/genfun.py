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
from dataclasses import dataclass, field, fields
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
ROOT_STEP_TOL = 1e-10   # bracketed roots: a row stops on a step below this * |s|
ROOT_ITER = 100         # bracketed roots: iteration cap
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
    """obj for strict json.dumps: numpy values, tuples and dict keys
    converted, and every non-finite float (NaN, +-inf) as None (null)."""
    if isinstance(obj, np.ndarray) and obj.ndim:
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating, np.ndarray)):
        obj = float(obj)
        return obj if math.isfinite(obj) else None
    return int(obj) if isinstance(obj, np.integer) else obj


@dataclass
class ConditionReport:
    """Per-condition verdict with the extremal sampled value.

    witness is present whenever status == "fail"; details carries
    condition-specific diagnostics (coverage counters, thresholds).
    """

    name: str
    status: str
    extremal_value: float
    witness: Optional[dict]
    samples_used: int
    details: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return jsonable(vars(self))


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


def _row_dot(a, b, diff: bool = False) -> np.ndarray:
    """a_k . b_k over (m, n) or (1, n) rows, or |a_k - b_k|^2 if diff,
    added a column at a time from +0.0 in the order numpy's einsum takes
    on C-ordered rows (columns 0, 2, 1 at n = 3): the same bits for any
    memory layout and row count, and several times faster on C-ordered
    rows than a reduction over their short axis."""
    def column(k):
        return np.square(a[:, k] - b[:, k]) if diff else a[:, k] * b[:, k]
    s = column(0)
    s += 0.0
    for k in (2, 1) if a.shape[1] == 3 else range(1, a.shape[1]):
        s += column(k)
    return s


def _eye_batch(m: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n), (m, n, n)).copy()


def _corners(lo, hi) -> np.ndarray:
    """The 2^n corners of the box [lo, hi], one per row."""
    mesh = np.meshgrid(*zip(lo, hi), indexing="ij")
    return np.array(mesh).reshape(len(lo), -1).T


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
    pair), declare G5's constants on a domain pair (``g5_bound``) and
    supply closed-form inverses as batched hooks that return None when
    there is none: ``forward_yz_batch`` for (Y, Z) (the start of the
    forward row Newton), ``_h_of`` for H (the start of dual_H_rows) and
    ``_x_of`` for X.  The scalar methods are one-row calls of these.
    Instances are immutable after construction and safe to share; every
    method is pure.
    """

    name = "generic"

    def __init__(self, dimension: int):
        if dimension not in (1, 2, 3):
            raise ValueError("supported dimensions are 1, 2 and 3")
        self.dimension = int(dimension)

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

    def g5_bound(self, omega, omega_star) -> Optional[G5Constants]:
        """G5's constants (m0, K0) on the source box omega = (lo, hi) and
        the hull of the target points omega_star (rows), or None when the
        instance declares none."""
        return None

    # -- derivatives -------------------------------------------------------

    @abc.abstractmethod
    def _raw_batch(self, xs, ys, zs) -> BatchBundle:
        """Exact derivative bundle over rows; no admissibility checks."""

    def bundle(self, x, y, z) -> BatchBundle:
        """Derivative bundle at one point: row 0 of a one-row batch."""
        b = self._raw_batch(_vec(x, self.dimension)[None, :],
                            _vec(y, self.dimension)[None, :], np.array([float(z)]))
        return _fieldwise(lambda a: a[0], b)

    def bundle_batch(self, xs, ys, zs) -> BatchBundle:
        xs, ys = _pair_rows(xs, ys, self.dimension)
        return self._raw_batch(xs, ys, _per_row(zs, len(xs)))

    # -- values against one target -----------------------------------------

    def _piece_values(self, xs, ys) -> Callable:
        """Closure z -> G(x_k, y_k, z) over rows xs (m, n), ys (1, n) or
        (m, n), for one z or one per row; the built-in instances write G
        only here and take _raw_batch's value from it, passing the z-free
        terms that _raw_batch computes once for both.  The default
        evaluates the kernel."""
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
        """Closed-form forward map for rows xs, ps (m, n) and us (m,), or
        None when unavailable.

        Returns (Y (m, n), Z (m,), valid (m,) bool).  valid is False only
        where no admissible (Y, Z) has G = u and G_x = p at x: the forward
        row Newton retires those rows and starts the others from (Y, Z)."""
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

    def z_interval_batch(self, xs, y):
        m = len(_rows(xs, self.dimension))
        return np.full(m, -math.inf), np.full(m, math.inf)

    def _piece_values(self, xs, ys):
        c = 0.5 * _row_dot(xs, ys, diff=True)
        return lambda z: c - z

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        d = xs - ys
        eye = _eye_batch(m, n)
        zero_v = np.zeros((m, n))
        return BatchBundle(
            value=self._piece_values(xs, ys)(zs),
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
        return self._piece_values(xs, ys)(us)   # G = c - z, so H = c - u

    def forward_yz_batch(self, xs, us, ps):
        ys = xs - ps
        zs = 0.5 * _row_dot(ps, ps) - us
        return ys, zs, np.ones(len(xs), dtype=bool)   # every (u, p) is reached

    def _x_of(self, ys, zs, qs):
        return ys - qs, np.ones(len(ys), dtype=bool)

    def g5_bound(self, omega, omega_star):
        """|G_x| = |x - y| is convex in (x, y), so on omega x hull(omega_star)
        it peaks at a corner of omega and a point of omega_star; K0 is that
        peak with a relative margin of 1e-12, and no value floor m0."""
        n = self.dimension
        d = (_corners(*omega)[:, None, :] - np.asarray(
            omega_star, dtype=float).reshape(1, -1, n)).reshape(-1, n)
        # |d| as np.linalg.norm rounds it, sqrt of the dot product per row
        k0 = float(np.sqrt(np.matmul(d[:, None, :], d[:, :, None])).max())
        return G5Constants(m0=-math.inf, k0=k0 * (1 + 1e-12))


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

    def g5_bound(self, omega, omega_star):
        return G5Constants(m0=0.0, k0=1.0)

    def z_interval_batch(self, xs, y):
        r = np.sqrt(_row_dot(*_pair_rows(xs, y, self.dimension), diff=True))
        hi = np.full(len(r), math.inf)
        np.divide(1.0, r, out=hi, where=r > 0)
        return np.zeros(len(r)), hi

    def _piece_values(self, xs, ys, r2=None):
        r2 = _row_dot(xs, ys, diff=True) if r2 is None else r2
        return lambda z: 0.5 / z - 0.5 * z * r2

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        w = xs - ys
        r2 = _row_dot(w, w)
        z = zs
        eye = _eye_batch(m, n)
        return BatchBundle(
            value=self._piece_values(xs, ys, r2)(z),
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
        return 1.0 / (us + np.sqrt(us ** 2 + _row_dot(xs, ys, diff=True)))

    def forward_yz_batch(self, xs, us, ps):
        """valid is exact: on I, G = 1/(2z) - z r^2/2 > 0 and |G_x| = z r < 1,
        so a root needs u > 0 and |p| < 1; then Z > 0 and Z r = |p| < 1."""
        p2 = _row_dot(ps, ps)
        valid = (us > 0) & (p2 < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            zs = (1.0 - p2) / (2.0 * us)
            ys = xs + (2.0 * us / (1.0 - p2))[:, None] * ps
        return ys, zs, valid

    def _x_of(self, ys, zs, qs):
        # q = 2 z^3 w / (1 + t^2), t = z |w| < 1: qh = q / z^2 has norm
        # rho = 2t / (1 + t^2), so w = qh / (z (1 + sqrt(1 - rho^2)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            qh = qs / (zs * zs)[:, None]
            rho = np.sqrt(_row_dot(qh, qh))
            xs = ys + qh / (zs * (1.0 + np.sqrt(1.0 - rho * rho)))[:, None]
        return xs, rho <= 1.0


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

    Given (y, z, q), x = a + t q inverts Q = (y/s - x) / (G - 1/(2s)),
    with a = y/s - (s/z - 1/(2s)) q and k = z - q.y: t = (x.y + tau w)/z
    solves k t - a.y = tau w(t).  Its square has discriminant tau^2 D, and
    t is the root with the smaller k t - a.y (t = a.y/k at tau = 0):

        D = k^2 (1-|a|^2) - 2k (a.y)(a.q) - (a.y)^2 |q|^2
            + tau^2 ((a.q)^2 + |q|^2 (1-|a|^2)),
        t = (k a.y - tau^2 a.q - sgn(k) |tau| sqrt(D)) / (k^2 + tau^2 |q|^2).

    At tau = 0 the function is linear in x, so A = G_xx = 0 identically.
    """

    name = "point_source"

    def __init__(self, dimension: int, tau: float = 0.0):
        if tau > 0.0:
            raise ValueError("the hyperplane height tau must satisfy tau <= 0")
        super().__init__(dimension)
        self.tau = float(tau)

    def z_interval_batch(self, xs, y):
        m = len(_rows(xs, self.dimension))
        return np.zeros(m), np.full(m, math.inf)

    def admissible_pair_batch(self, xs, y):
        xs = _rows(xs, self.dimension)
        return _row_dot(xs, xs) < 1.0

    def _terms(self, xs, ys):
        w = np.sqrt(1.0 - _row_dot(xs, xs))
        return w, _row_dot(xs, ys), _row_dot(ys, ys)

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
        """valid is exact (tau <= 0).  G > 0, as s > |y| >= x.y and -w tau
        >= 0; a root has s = z ubar + tau/w and z (ubar^2 - |p|^2) = 1 - 2
        tau u/w, so it needs u > 0, ubar > 0 and ubar^2 > |p|^2.  Then Z > 0
        and (Y, Z) is a root: s^2 = (Z ubar + tau/w)^2, and Z ubar + tau/w =
        (ubar + |tau| (u^2 + |p|^2 - (p.x)^2)/w) / (ubar^2 - |p|^2) > 0."""
        x2 = _row_dot(xs, xs)
        ubar = us - _row_dot(ps, xs)
        p2 = _row_dot(ps, ps)
        denom = ubar ** 2 - p2
        valid = (x2 < 1.0) & (us > 0) & (ubar > 0) & (denom > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.sqrt(1.0 - x2)
            zs = (1.0 - 2.0 * self.tau * us / w) / denom
            ys = -ps * zs[:, None] + (self.tau / w)[:, None] * xs
        return ys, zs, valid

    def _x_of(self, ys, zs, qs):
        """ok is exact: False only where no x with |x| < 1 has Q = q.  The
        root taken has k t - a.y = -|tau| w1, w1 = (|tau| (k a.q + |q|^2 a.y)
        + |k| sqrt(D)) / (k^2 + tau^2 |q|^2); ok is w1 > 0.  A preimage has
        k t - a.y = tau w, w > 0, so D >= 0 and w1 >= w (at tau = 0 it is
        the root, as k = 0 would make a + t q a line of preimages).  If w1 >
        0, 1 - |x|^2 = w1^2 and x is a preimage wherever G_z != 0."""
        tt, at = self.tau * self.tau, abs(self.tau)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = np.sqrt(zs + _row_dot(ys, ys) + tt)
            a = ys / s[:, None] - (s / zs - 0.5 / s)[:, None] * qs
            ay, aq, qq = _row_dot(a, ys), _row_dot(a, qs), _row_dot(qs, qs)
            k, e = zs - _row_dot(qs, ys), 1.0 - _row_dot(a, a)
            root = np.sqrt(k * k * e - 2.0 * k * ay * aq - ay * ay * qq
                           + tt * (aq * aq + qq * e))
            den = k * k + tt * qq
            t = (k * ay - tt * aq - np.sign(k) * at * root) / den
            w1 = (at * (k * aq + qq * ay) + np.abs(k) * root) / den
            return a + t[:, None] * qs, w1 > 0.0


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
    OUT_OF_IMAGE = 1   # the closed form rules (u, p) or the slope q out
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


def _fieldwise(fn, *bundles) -> BatchBundle:
    """The bundle of fn over the bundles' arrays, one field at a time."""
    return BatchBundle(*(fn(*(getattr(b, f.name) for b in bundles))
                         for f in fields(BatchBundle)))


def _newton_rows(v, ctx, thr, status, *, evaluate, jacobian,
                 admissible) -> tuple:
    """Masked, safeguarded, damped Newton over rows.

    v (m, k) holds the starting iterates, ctx a tuple of per-row arrays
    that the callbacks receive with them, thr the per-row acceptance
    thresholds and status the rows' RowStatus so far (only OK rows run).
    evaluate(v, ctx) -> (bundle, residual (r, k), max-norm (r,));
    jacobian(bundle) -> (r, k, k); admissible(v, ctx) -> (r,) bool.
    Rows with an inadmissible start are BAD_START.  A row is done when its
    norm is at most thr; otherwise it solves the Newton system built from
    the bundle at its iterate and takes the first of 45 halved steps that
    stays admissible and lowers its norm or meets thr; rows still running
    after NEWTON_ITER steps are BUDGET.  The kernel runs on the still-active
    rows only, never on zero rows.

    Returns (out, status, rnorm, bundle): out is NaN where status is not
    OK, rnorm is each row's last residual norm (NaN for rows that never
    reached the kernel), bundle the OK rows' bundles at their accepted
    iterates, in row order (None when no row is OK).
    """
    m = len(v)
    out, rnorm = np.full(v.shape, np.nan), np.full(m, np.nan)
    start = admissible(v, ctx)
    status[~start & (status == RowStatus.OK)] = RowStatus.BAD_START
    act = (status == RowStatus.OK).nonzero()[0]
    if not len(act):
        return out, status, rnorm, None
    if len(act) < m:
        v, thr = v[act], thr[act]
        ctx = tuple(a[act] for a in ctx)
    b, res, rn = evaluate(v, ctx)
    kept = []       # (rows, bundle) of the rows that finished OK

    def finish(mask, code):
        nonlocal act, v, ctx, thr, res, rn, b
        every = mask.all()
        sel = slice(None) if every else mask
        status[act[sel]] = code
        rnorm[act[sel]] = rn[sel]
        if code == RowStatus.OK:
            out[act[sel]] = v[sel]
            kept.append((act[sel], b if every else _fieldwise(lambda a: a[mask], b)))
        if every:
            act = act[:0]
        else:
            keep = ~mask
            act, v, thr, res, rn = (a[keep] for a in (act, v, thr, res, rn))
            ctx = tuple(a[keep] for a in ctx)
            b = _fieldwise(lambda a: a[keep], b)

    for it in range(NEWTON_ITER + 1):
        if not len(act):
            break
        done = rn <= thr
        if done.any():
            finish(done, RowStatus.OK)
        if len(act) and it == NEWTON_ITER:
            finish(np.ones(len(act), dtype=bool), RowStatus.BUDGET)
        if not len(act):
            break
        step, singular = _solve_rows(jacobian(b), -res)
        if singular is not None:
            finish(singular, RowStatus.SINGULAR)
            step = step[~singular]
        # line search over the rows pend that have not accepted a step yet
        pend, lam = np.arange(len(act)), 1.0
        for _ in range(45):
            if not len(pend):
                break
            v_try = v[pend] + lam * step[pend]
            sub = tuple(a[pend] for a in ctx)
            adm = admissible(v_try, sub)
            rows, v_try = pend[adm], v_try[adm]
            if len(rows):
                bt, res_t, rn_t = evaluate(v_try, tuple(a[adm] for a in sub))
                acc = (rn_t < rn[rows]) | (rn_t <= thr[rows])
                sel = rows[acc]
                v[sel], res[sel], rn[sel] = v_try[acc], res_t[acc], rn_t[acc]
                # bt's accepted rows replace b's rows sel in new arrays: the
                # kernel's arrays need not be fresh or writable
                idx = np.arange(len(act))
                idx[sel] = len(act) + np.arange(len(sel))
                b = _fieldwise(lambda a, at: np.concatenate([a, at[acc]])[idx], b, bt)
                pend = pend[~np.isin(pend, sel)]
            lam *= 0.5
        if len(pend):
            finish(np.isin(np.arange(len(act)), pend), RowStatus.NO_STEP)
    bundle = kept[0][1] if len(kept) == 1 else None
    if len(kept) > 1:
        order = np.argsort(np.concatenate([r for r, _ in kept]))
        bundle = _fieldwise(lambda *a: np.concatenate(a)[order], *(k for _, k in kept))
    return out, status, rnorm, bundle


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


def _bracket_root_rows(fn, a, b, s) -> np.ndarray:
    """Roots over rows, from s in brackets [a, b] with f(a) >= 0 >= f(b).

    fn(rows, s) -> (f, df, mag): f and its derivative at s for the row
    indices rows, and the size of the values f is a difference of.  A
    step moves the bracket end of f's sign to s, then goes to the Newton
    point where it lies strictly inside the bracket, else to the
    midpoint.  A row stops at the first of |f| <= 2 eps mag (rounding
    level), a Newton step of at most ROOT_STEP_TOL |s| (taken) and a
    bracket that no longer splits; ROOT_ITER steps cap the loop.
    """
    a, b, s = (np.array(v, dtype=float) for v in (a, b, s))
    out, run = s.copy(), np.arange(len(s))
    for _ in range(ROOT_ITER):
        if not len(run):
            break
        f, df, mag = fn(run, s)
        up = f >= 0.0
        a, b = np.where(up, s, a), np.where(up, b, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            zn = s - f / df
        inside, mid = (a < zn) & (zn < b), 0.5 * (a + b)
        stop = (np.abs(f) <= 2.0 * np.finfo(float).eps * mag) \
            | (~inside & ((mid <= a) | (mid >= b)))
        nxt = np.where(inside, zn, mid)
        out[run] = np.where(stop, s, nxt)
        keep = ~stop & ~(inside & (np.abs(zn - s) <= ROOT_STEP_TOL * np.abs(s)))
        run, a, b, s = run[keep], a[keep], b[keep], nxt[keep]
    return out


# --------------------------------------------------------------------------
# the dual function H
# --------------------------------------------------------------------------

def dual_H_rows(gf: GeneratingFunction, xs, ys, us) -> tuple:
    """Solve G(x_k, y_k, z) = u_k for z in I(x_k, y_k) over rows.

    G decreases in z.  A bracket end starts H_INSET inside a finite end
    of I, or at -1 or 1 and doubles towards an infinite one; an end that
    fails the sign test moves halfway to a finite end of I while it can.
    _bracket_root_rows runs from _h_of (else the bracket midpoint) on
    G - u, so a root is accurate relative to z down to the rounding of
    u: |H - z| <= 1e-10 |z| + 4 eps |u| / |G_z|.  Returns
    (zs, status, g_range): zs is NaN where status is not RowStatus.OK;
    g_range (m, 2) is G at the upper and the lower bracket end.
    """
    xs, ys = _pair_rows(xs, ys, gf.dimension)
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
        x, y, u, ar, br = (v[run] for v in (xs, ys, us, a, b))
        h, start = gf._h_of(x, y, u), 0.5 * (ar + br)
        if h is not None:
            start = np.where(np.isfinite(h) & (ar < h) & (h < br), h, start)

    def g_minus_u(rows, z):
        bnd = gf._raw_batch(x[rows], y[rows], z)
        return bnd.value - u[rows], bnd.dz, np.abs(bnd.value) + np.abs(u[rows])

    z = np.full(len(xs), np.nan)
    z[run] = _bracket_root_rows(g_minus_u, ar, br, start)
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


def _forward_rows(gf: GeneratingFunction, xs, us, ps) -> tuple:
    """Newton for G_x(x_k, Y, Z) = p_k, G(x_k, Y, Z) = u_k over rows, from
    the closed form when the instance has one (rows it rules out are
    OUT_OF_IMAGE and never reach the kernel), else from (x_k, quantile
    1/2 of I(x_k, x_k)).  The Jacobian is [[G_xy, G_xz], [G_y, G_z]]; a
    start within NEWTON_TOL * (1 + |u| + |p|_inf) is returned unchanged.
    Returns ([Y, Z] (m, n+1), status, rnorm, bundle) as _newton_rows does.
    """
    n = gf.dimension
    status = np.zeros(len(xs), dtype=int)    # RowStatus.OK
    closed = gf.forward_yz_batch(xs, us, ps)
    if closed is not None:
        ys, zs, valid = closed
        status[~valid] = RowStatus.OUT_OF_IMAGE
    else:
        ys, zs = xs, _map_fraction_rows(*gf.z_interval_batch(xs, xs), 0.5)

    def evaluate(v, ctx):
        x, u, p = ctx
        b = gf._raw_batch(x, v[:, :n], v[:, n])
        res = np.concatenate([b.grad_x - p, (b.value - u)[:, None]], axis=1)
        return b, res, np.abs(res).max(axis=1)

    def jacobian(b):
        top = np.concatenate([b.hess_xy, b.grad_xz[:, :, None]], axis=2)
        bottom = np.concatenate([b.grad_y, b.dz[:, None]], axis=1)
        return np.concatenate([top, bottom[:, None, :]], axis=1)

    def admissible(v, ctx):
        return _on_slice(gf, ctx[0], v[:, :n], v[:, n])

    return _newton_rows(
        np.concatenate([ys, zs[:, None]], axis=1), (xs, us, ps),
        NEWTON_TOL * (1.0 + np.abs(us) + np.abs(ps).max(axis=1)),
        status, evaluate=evaluate, jacobian=jacobian, admissible=admissible)


_FORWARD_ERRORS = {
    RowStatus.OUT_OF_IMAGE: (
        OutOfImage, "forward map: no solution, the closed form rules (u, p) out"),
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


def forward_YZ(gf: GeneratingFunction, x, u, p) -> tuple:
    """Solve G_x(x, Y, Z) = p, G(x, Y, Z) = u for (Y, Z).

    Damped Newton on the (n+1)-system with the Jacobian assembled from
    exact second derivatives.  It starts from the closed form when the
    instance has one, else from (y, z) = (x, quantile 1/2 of I(x, x)).
    One row of forward_YZ_rows; raises the exception its row status
    names: OutOfImage where the closed form rules (u, p) out.
    """
    n = gf.dimension
    v, status, rnorm, _b = _forward_rows(
        gf, _vec(x, n)[None, :], np.array([float(u)]), _vec(p, n)[None, :])
    _raise_for_status(_FORWARD_ERRORS, status[0], rnorm=rnorm[0])
    return v[0, :n], float(v[0, n])


def forward_YZ_rows(gf: GeneratingFunction, xs, us, ps) -> tuple:
    """(Y, Z) over rows: the row Newton of forward_YZ, started from the
    instance's closed form, which retires the rows without a solution
    before the first kernel call.

    Returns (ys (m, n), zs (m,), ok (m,) bool); rows without an
    admissible solution are not ok and hold NaN.
    """
    n = gf.dimension
    xs = _rows(xs, n)
    v, status = _forward_rows(gf, xs, _per_row(us, len(xs)), _rows(ps, n))[:2]
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
    over rows, from the bundle the forward row Newton accepted at (x_k, Y,
    Z): no kernel call of its own.  psi is a row evaluator psi(xs, us, ps)
    -> (m,) (default 1, so B = det E), called once on the rows whose B
    exists and on no others.  Returns (a (m, n, n), b (m,), status, rnorm):
    a and b are NaN where status is not RowStatus.OK, and b also where G_z
    >= 0 at (x_k, Y, Z), off the set where G decreases."""
    n = gf.dimension
    xs, ps = _rows(xs, n), _rows(ps, n)
    us = _per_row(us, len(xs))
    _v, status, rnorm, bnd = _forward_rows(gf, xs, us, ps)
    ok = status == RowStatus.OK
    a = np.full((len(xs), n, n), np.nan)
    b = np.full(len(xs), np.nan)
    if bnd is not None:
        a[ok] = bnd.hess_xx
        b[ok] = np.where(bnd.dz < 0.0, np.linalg.det(_e_matrix(bnd)), np.nan)
        has = np.flatnonzero(~np.isnan(b))
        if psi is not None and len(has):
            b[has] *= _psi_rows(psi, xs[has], us[has], ps[has])
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


def _x_rows(gf: GeneratingFunction, ys, zs, qs) -> tuple:
    """Newton for Q(x, y_k, z_k) = q_k over rows, from the closed form
    (rows it rules out are OUT_OF_IMAGE), else from y or 0, with Jacobian
    Q_x = -E^T / G_z; a row is done within NEWTON_TOL * (1 + |q|_inf).
    Returns (xs, status, rnorm, bundle) as _newton_rows does."""
    status = np.zeros(len(ys), dtype=int)    # RowStatus.OK
    closed = gf._x_of(ys, zs, qs)
    if closed is not None:
        xs, in_image = closed
        status[~in_image] = RowStatus.OUT_OF_IMAGE
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


def map_X_rows(gf: GeneratingFunction, ys, zs, qs) -> tuple:
    """Invert x -> Q(x, y_k, z_k) = q_k for every row at once: the slope
    row Newton of map_X.  Returns (xs, status, rnorm) as _newton_rows
    does."""
    n = gf.dimension
    ys, qs = _rows(ys, n), _rows(qs, n)
    return _x_rows(gf, ys, _per_row(zs, len(ys)), qs)[:3]


def map_X(gf: GeneratingFunction, y, z, q) -> np.ndarray:
    """Invert x -> Q(x, y, z) on the admissible slice.

    Damped Newton with Jacobian Q_x = -E^T / G_z; the admissible-slice
    restriction z in I(x, y) pins the correct branch.  Raises OutOfImage
    when the closed form rules the slope out, DomainViolation when the
    start is inadmissible, NoConvergence otherwise on failure.
    One row of map_X_rows.
    """
    n = gf.dimension
    y = _vec(y, n)
    q = _vec(q, n)
    xs, status, rnorm = map_X_rows(gf, y[None, :], float(z), q[None, :])
    _raise_for_status(_SLOPE_ERRORS, status[0], q=q, rnorm=rnorm[0])
    return xs[0]


def dual_Astar_Bstar_rows(gf: GeneratingFunction, ys, zs, qs, f=None,
                          g=None) -> tuple:
    """Dual Monge-Ampere coefficients at every row (y_k, z_k, q_k).

    X comes from the row Newton of map_X_rows, and A* and B* from the
    bundle it accepted at (X, y_k, z_k): no kernel call of their own.  f
    and g are pointwise densities (default 1).  Returns (astar (m, n, n),
    bstar (m,), status, rnorm); NaN where status is not RowStatus.OK.
    """
    n = gf.dimension
    ys, qs = _rows(ys, n), _rows(qs, n)
    m = len(ys)
    xs, status, rnorm, b = _x_rows(gf, ys, _per_row(zs, m), qs)
    ok = status == RowStatus.OK
    if b is None:       # no row solved
        return np.full((m, n, n), np.nan), np.full(m, np.nan), status, rnorm
    every = ok.all()
    x, y, q = (xs, ys, qs) if every else (xs[ok], ys[ok], qs[ok])
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


def dual_Astar_Bstar(gf: GeneratingFunction, y, z, q, f=None, g=None) -> tuple:
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
    astar, bstar, status, rnorm = dual_Astar_Bstar_rows(
        gf, y[None, :], float(z), q[None, :], f, g)
    _raise_for_status(_SLOPE_ERRORS, status[0], q=q, rnorm=rnorm[0])
    return astar[0], float(bstar[0])
