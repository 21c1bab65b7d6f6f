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
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainViolation,
    GjetError,
    NoConvergence,
    NoRoot,
    OutOfImage,
    RangeViolation,
    SingularE,
)

__all__ = [
    "DerivativeBundle",
    "BatchBundle",
    "DualValue",
    "G5Constants",
    "ClosedForms",
    "GeneratingFunction",
    "QuadraticOT",
    "ParallelBeam",
    "PointSourcePlane",
    "eval_bundle",
    "dual_H",
    "forward_YZ",
    "forward_YZ_rows",
    "matrix_E",
    "matrix_A",
    "matrix_A_B",
    "matrix_A_via_yp",
    "map_Q",
    "map_X",
    "map_X_rows",
    "dual_Astar_Bstar",
    "dual_Astar_Bstar_rows",
    "RowStatus",
    "fd_step",
]


# --------------------------------------------------------------------------
# value containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeBundle:
    """G and its first and second partial derivatives at one point.

    hess_xy[i, j] is d^2 G / dx_i dy_j.  hess_yy is carried in addition
    to the x-side blocks because the dual linearization A* needs exact
    y,y second derivatives.
    """

    value: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    dz: float
    hess_xx: np.ndarray
    hess_xy: np.ndarray
    hess_yy: np.ndarray
    grad_xz: np.ndarray
    grad_yz: np.ndarray
    dzz: float


@dataclass(frozen=True)
class BatchBundle:
    """Vectorized bundle: leading axis indexes evaluation points."""

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

    def at(self, k: int) -> DerivativeBundle:
        return DerivativeBundle(
            value=float(self.value[k]),
            grad_x=self.grad_x[k].copy(),
            grad_y=self.grad_y[k].copy(),
            dz=float(self.dz[k]),
            hess_xx=self.hess_xx[k].copy(),
            hess_xy=self.hess_xy[k].copy(),
            hess_yy=self.hess_yy[k].copy(),
            grad_xz=self.grad_xz[k].copy(),
            grad_yz=self.grad_yz[k].copy(),
            dzz=float(self.dzz[k]),
        )


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
class ClosedForms:
    """Optional analytic oracles used as Newton initializers and in tests.

    forward_yz(x, u, p) -> (Y, Z) or None when (x, u, p) is infeasible.
    h(x, y, u) -> z root (caller checks range).
    det_e(x, y, z) -> scalar.
    a_matrix(x, u, p) -> (n, n).
    x_of(y, z, q) -> preimage of q under Q(., y, z), or None.
    """

    forward_yz: Optional[Callable] = None
    h: Optional[Callable] = None
    det_e: Optional[Callable] = None
    a_matrix: Optional[Callable] = None
    x_of: Optional[Callable] = None


def fd_step(scale: float, base: float = 1e-5) -> float:
    """Central-difference step: base * max(1, |scale|).

    Documented so finite-difference oracle tolerances are reproducible.
    """
    return base * max(1.0, abs(scale))


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


def _nans(shape) -> np.ndarray:
    a = np.empty(shape)
    a.fill(np.nan)
    return a


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

    Subclasses supply exact derivatives through ``_raw_batch`` and the
    admissibility data (the pair set U and the focal interval I(x, y)).
    Instances are immutable after construction and safe to share; every
    method is pure.
    """

    name = "generic"

    def __init__(self, dimension: int, g5_constants: Optional[G5Constants] = None):
        if dimension not in (1, 2, 3):
            raise ValueError("supported dimensions are 1, 2 and 3")
        self.dimension = int(dimension)
        self.g5_constants = g5_constants
        self.closed_forms: Optional[ClosedForms] = None

    # -- admissibility -----------------------------------------------------

    def admissible_pair(self, x, y) -> bool:
        x = _vec(x, self.dimension)
        y = _vec(y, self.dimension)
        return bool(np.all(np.isfinite(x)) and np.all(np.isfinite(y)))

    def admissible_pair_batch(self, xs, y) -> np.ndarray:
        """Admissibility of the pairs (x_k, y_k); y is one point or rows."""
        xs, ys = _pair_rows(xs, y, self.dimension)
        return np.array([self.admissible_pair(x, yk) for x, yk in zip(xs, ys)],
                        dtype=bool)

    @abc.abstractmethod
    def z_interval(self, x, y) -> tuple:
        """Open interval I(x, y) of admissible focal parameters."""

    def z_interval_batch(self, xs, y):
        """(lo, hi) arrays of I(x_k, y_k); y is one point or rows."""
        xs, ys = _pair_rows(xs, y, self.dimension)
        lo = np.empty(len(xs))
        hi = np.empty(len(xs))
        for k in range(len(xs)):
            lo[k], hi[k] = self.z_interval(xs[k], ys[k])
        return lo, hi

    # -- derivatives -------------------------------------------------------

    @abc.abstractmethod
    def _raw_batch(self, xs, ys, zs) -> BatchBundle:
        """Exact derivative bundle over rows; no admissibility checks."""

    def bundle(self, x, y, z) -> DerivativeBundle:
        x = _vec(x, self.dimension)
        y = _vec(y, self.dimension)
        return self._raw_batch(x[None, :], y[None, :], np.array([float(z)])).at(0)

    def bundle_batch(self, xs, ys, zs) -> BatchBundle:
        xs, ys = _pair_rows(xs, ys, self.dimension)
        return self._raw_batch(xs, ys, _per_row(zs, len(xs)))

    # -- fast closed-form paths (overridden by the built-in instances) ------

    def value(self, x, y, z) -> float:
        return float(self.value_batch(_vec(x, self.dimension)[None, :], y, z)[0])

    def value_batch(self, xs, y, z) -> np.ndarray:
        xs = _rows(xs, self.dimension)
        y = _vec(y, self.dimension)
        return self._raw_batch(xs, np.broadcast_to(y, xs.shape),
                               np.full(len(xs), float(z))).value

    def grad_x_batch(self, xs, y, z) -> np.ndarray:
        xs = _rows(xs, self.dimension)
        y = _vec(y, self.dimension)
        return self._raw_batch(xs, np.broadcast_to(y, xs.shape),
                               np.full(len(xs), float(z))).grad_x

    def q_batch(self, xs, y, z) -> np.ndarray:
        """Target-slope map Q = -G_y/G_z over rows of xs."""
        xs = _rows(xs, self.dimension)
        y = _vec(y, self.dimension)
        b = self._raw_batch(xs, np.broadcast_to(y, xs.shape),
                            np.full(len(xs), float(z)))
        return -b.grad_y / b.dz[:, None]

    def h_batch(self, xs, ys, us) -> np.ndarray:
        """Vectorized z-inverse; falls back to scalar root finding."""
        xs, ys = _pair_rows(xs, ys, self.dimension)
        us = _per_row(us, len(xs))
        out = np.empty(len(xs))
        for k in range(len(xs)):
            out[k] = dual_H(self, xs[k], ys[k], us[k]).z_root
        return out

    def piece_values_fn(self, xs, y) -> Callable[[float], np.ndarray]:
        """Closure z -> G(xs, y, z); instances cache per-target geometry."""
        xs = _rows(xs, self.dimension).copy()
        y = _vec(y, self.dimension)
        return lambda z: self.value_batch(xs, y, z)

    def forward_yz_batch(self, xs, us, ps):
        """Vectorized closed-form forward map, or None when unavailable.

        Returns (Y (m,n), Z (m,), valid (m,) bool)."""
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
        self.closed_forms = ClosedForms(
            forward_yz=self._cf_forward,
            h=self._cf_h,
            det_e=lambda x, y, z: (-1.0) ** self.dimension,
            a_matrix=lambda x, u, p: np.eye(self.dimension),
            x_of=lambda y, z, q: _vec(y, self.dimension) - _vec(q, self.dimension),
        )

    def z_interval(self, x, y):
        return (-math.inf, math.inf)

    def z_interval_batch(self, xs, y):
        m = len(_rows(xs, self.dimension))
        return np.full(m, -math.inf), np.full(m, math.inf)

    def admissible_pair_batch(self, xs, y):
        return np.ones(len(_rows(xs, self.dimension)), dtype=bool)

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        d = xs - ys
        eye = _eye_batch(m, n)
        zero_v = np.zeros((m, n))
        return BatchBundle(
            value=0.5 * np.einsum("ij,ij->i", d, d) - zs,
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

    def value_batch(self, xs, y, z):
        d = _rows(xs, self.dimension) - _vec(y, self.dimension)
        return 0.5 * np.einsum("ij,ij->i", d, d) - float(z)

    def grad_x_batch(self, xs, y, z):
        return _rows(xs, self.dimension) - _vec(y, self.dimension)

    def q_batch(self, xs, y, z):
        return _vec(y, self.dimension) - _rows(xs, self.dimension)

    def h_batch(self, xs, ys, us):
        xs = _rows(xs, self.dimension)
        ys = _rows(ys, self.dimension)
        d = xs - ys
        return 0.5 * np.einsum("ij,ij->i", d, d) - np.asarray(us, dtype=float)

    def piece_values_fn(self, xs, y):
        d = _rows(xs, self.dimension) - _vec(y, self.dimension)
        c = 0.5 * np.einsum("ij,ij->i", d, d)
        return lambda z: c - z

    def forward_yz_batch(self, xs, us, ps):
        xs = _rows(xs, self.dimension)
        ps = _rows(ps, self.dimension)
        us = np.asarray(us, dtype=float).reshape(-1)
        ys = xs - ps
        zs = 0.5 * np.einsum("ij,ij->i", ps, ps) - us
        return ys, zs, np.ones(len(xs), dtype=bool)

    def _cf_forward(self, x, u, p):
        x = _vec(x, self.dimension)
        p = _vec(p, self.dimension)
        return x - p, 0.5 * float(p @ p) - float(u)

    def _cf_h(self, x, y, u):
        d = _vec(x, self.dimension) - _vec(y, self.dimension)
        return 0.5 * float(d @ d) - float(u)


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
        self.closed_forms = ClosedForms(
            forward_yz=self._cf_forward,
            h=self._cf_h,
            det_e=self._cf_det_e,
            a_matrix=self._cf_a,
            x_of=self._cf_x,
        )

    def z_interval(self, x, y):
        r = float(np.linalg.norm(_vec(x, self.dimension) - _vec(y, self.dimension)))
        return (0.0, math.inf if r == 0.0 else 1.0 / r)

    def z_interval_batch(self, xs, y):
        xs, ys = _pair_rows(xs, y, self.dimension)
        d = xs - ys
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        hi = np.full(len(d), math.inf)
        np.divide(1.0, r, out=hi, where=r > 0)
        return np.zeros(len(d)), hi

    def admissible_pair_batch(self, xs, y):
        return np.ones(len(_rows(xs, self.dimension)), dtype=bool)

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        w = xs - ys
        r2 = np.einsum("ij,ij->i", w, w)
        z = zs
        eye = _eye_batch(m, n)
        return BatchBundle(
            value=0.5 / z - 0.5 * z * r2,
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

    def value_batch(self, xs, y, z):
        d = _rows(xs, self.dimension) - _vec(y, self.dimension)
        r2 = np.einsum("ij,ij->i", d, d)
        z = float(z)
        return 0.5 / z - 0.5 * z * r2

    def grad_x_batch(self, xs, y, z):
        d = _rows(xs, self.dimension) - _vec(y, self.dimension)
        return -float(z) * d

    def q_batch(self, xs, y, z):
        d = _rows(xs, self.dimension) - _vec(y, self.dimension)
        r2 = np.einsum("ij,ij->i", d, d)
        z = float(z)
        return (2.0 * z ** 3 / (1.0 + z ** 2 * r2))[:, None] * d

    def h_batch(self, xs, ys, us):
        xs = _rows(xs, self.dimension)
        ys = _rows(ys, self.dimension)
        d = xs - ys
        r2 = np.einsum("ij,ij->i", d, d)
        us = np.asarray(us, dtype=float).reshape(-1)
        return 1.0 / (us + np.sqrt(us ** 2 + r2))

    def piece_values_fn(self, xs, y):
        d = _rows(xs, self.dimension) - _vec(y, self.dimension)
        r2 = np.einsum("ij,ij->i", d, d)
        return lambda z: 0.5 / z - 0.5 * z * r2

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

    def _cf_forward(self, x, u, p):
        x = _vec(x, self.dimension)
        p = _vec(p, self.dimension)
        u = float(u)
        p2 = float(p @ p)
        if u <= 0.0 or p2 >= 1.0:
            return None
        z = (1.0 - p2) / (2.0 * u)
        return x + (2.0 * u / (1.0 - p2)) * p, z

    def _cf_h(self, x, y, u):
        d = _vec(x, self.dimension) - _vec(y, self.dimension)
        r2 = float(d @ d)
        u = float(u)
        return 1.0 / (u + math.sqrt(u * u + r2))

    def _cf_det_e(self, x, y, z):
        d = _vec(x, self.dimension) - _vec(y, self.dimension)
        r2 = float(d @ d)
        z = float(z)
        return z ** self.dimension * (1.0 - z * z * r2) / (1.0 + z * z * r2)

    def _cf_a(self, x, u, p):
        p = _vec(p, self.dimension)
        zval = (1.0 - float(p @ p)) / (2.0 * float(u))
        return -zval * np.eye(self.dimension)

    def _cf_x(self, y, z, q):
        # invert q = 2 z^3 w / (1 + z^2 |w|^2) on the admissible branch
        y = _vec(y, self.dimension)
        q = _vec(q, self.dimension)
        z = float(z)
        qn = float(np.linalg.norm(q))
        if qn == 0.0:
            return y.copy()
        if qn >= z * z:
            return None
        t = (z * z - math.sqrt(z ** 4 - qn * qn)) / (z * qn)
        return y + (t / qn) * q


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
        self.closed_forms = ClosedForms(
            forward_yz=self._cf_forward,
            h=self._cf_h,
            a_matrix=self._cf_a,
        )

    def admissible_pair(self, x, y) -> bool:
        x = _vec(x, self.dimension)
        _vec(y, self.dimension)
        return bool(x @ x < 1.0)

    def z_interval(self, x, y):
        return (0.0, math.inf)

    def z_interval_batch(self, xs, y):
        m = len(_rows(xs, self.dimension))
        return np.zeros(m), np.full(m, math.inf)

    def admissible_pair_batch(self, xs, y):
        xs = _rows(xs, self.dimension)
        return np.einsum("ij,ij->i", xs, xs) < 1.0

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        tau = self.tau
        x2 = np.einsum("ij,ij->i", xs, xs)
        y2 = np.einsum("ij,ij->i", ys, ys)
        xy = np.einsum("ij,ij->i", xs, ys)
        w = np.sqrt(1.0 - x2)
        s = np.sqrt(zs + y2 + tau * tau)
        z = zs
        value = (s - xy - w * tau) / z
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

    def value_batch(self, xs, y, z):
        xs = _rows(xs, self.dimension)
        y = _vec(y, self.dimension)
        z = float(z)
        w = np.sqrt(1.0 - np.einsum("ij,ij->i", xs, xs))
        s = math.sqrt(z + float(y @ y) + self.tau ** 2)
        return (s - xs @ y - w * self.tau) / z

    def grad_x_batch(self, xs, y, z):
        xs = _rows(xs, self.dimension)
        y = _vec(y, self.dimension)
        w = np.sqrt(1.0 - np.einsum("ij,ij->i", xs, xs))
        return (-y + (self.tau / w)[:, None] * xs) / float(z)

    def h_batch(self, xs, ys, us):
        xs, ys = _pair_rows(xs, ys, self.dimension)
        us = _per_row(us, len(xs))
        w = np.sqrt(1.0 - np.einsum("ij,ij->i", xs, xs))
        beta = np.einsum("ij,ij->i", xs, ys) + w * self.tau
        y2 = np.einsum("ij,ij->i", ys, ys)
        disc = 1.0 - 4.0 * us * beta + 4.0 * us ** 2 * (y2 + self.tau ** 2)
        return ((1.0 - 2.0 * us * beta) + np.sqrt(disc)) / (2.0 * us ** 2)

    def piece_values_fn(self, xs, y):
        xs = _rows(xs, self.dimension)
        y = _vec(y, self.dimension)
        w = np.sqrt(1.0 - np.einsum("ij,ij->i", xs, xs))
        xy = xs @ y
        c = float(y @ y) + self.tau ** 2
        wt = w * self.tau
        return lambda z: (np.sqrt(z + c) - xy - wt) / z

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

    def _cf_forward(self, x, u, p):
        ys, zs, ok = self.forward_yz_batch(_vec(x, self.dimension)[None, :],
                                           [float(u)],
                                           _vec(p, self.dimension)[None, :])
        if not ok[0]:
            return None
        return ys[0], float(zs[0])

    def _cf_h(self, x, y, u):
        return float(self.h_batch(_vec(x, self.dimension)[None, :],
                                  _vec(y, self.dimension)[None, :],
                                  [float(u)])[0])

    def _cf_a(self, x, u, p):
        x = _vec(x, self.dimension)
        cf = self._cf_forward(x, u, p)
        if cf is None:
            return None
        _, zval = cf
        w2 = 1.0 - float(x @ x)
        w = math.sqrt(w2)
        return (self.tau / (zval * w ** 3)) * (w2 * np.eye(self.dimension)
                                               + np.outer(x, x))


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def _check_point(gf: GeneratingFunction, x, y, z) -> tuple:
    x = _vec(x, gf.dimension)
    y = _vec(y, gf.dimension)
    z = float(z)
    if not gf.admissible_pair(x, y):
        raise DomainViolation(f"pair (x, y) outside the admissible set for {gf.name}")
    lo, hi = gf.z_interval(x, y)
    if not (lo < z < hi):
        raise DomainViolation(
            f"z = {z} outside the open interval ({lo}, {hi}) for {gf.name}")
    return x, y, z


def eval_bundle(gf: GeneratingFunction, x, y, z) -> DerivativeBundle:
    """Exact derivative bundle at an admissible point.

    Raises DomainViolation when (x, y) is inadmissible, z falls outside
    I(x, y), or the monotonicity convention G_z < 0 fails there.
    """
    x, y, z = _check_point(gf, x, y, z)
    b = gf.bundle(x, y, z)
    if not b.dz < 0.0:
        raise DomainViolation(f"G_z = {b.dz} is not negative at the requested point")
    return b


def dual_H(gf: GeneratingFunction, x, y, u, *,
           z_tol: float = 1e-12, max_iter: int = 60) -> DualValue:
    """Solve G(x, y, z) = u for z by safeguarded bisection plus Newton.

    G is strictly decreasing in z, so a bracket inside I(x, y) makes the
    iteration unconditionally safe.  Raises RangeViolation when u lies
    outside the attainable range J(x, y) and NoRoot when no bracket can
    be established.
    """
    x = _vec(x, gf.dimension)
    y = _vec(y, gf.dimension)
    u = float(u)
    if not gf.admissible_pair(x, y):
        raise DomainViolation(f"pair (x, y) outside the admissible set for {gf.name}")
    lo, hi = gf.z_interval(x, y)
    span = (hi - lo) if (math.isfinite(lo) and math.isfinite(hi)) else 1.0

    def g(z):
        return gf.value(x, y, z)

    # establish a bracket [a, b] with g(a) >= u >= g(b)
    if math.isfinite(lo):
        a = lo + 1e-13 * max(span, abs(lo), 1.0)
    else:
        a = min(-1.0, hi - 1.0) if math.isfinite(hi) else -1.0
        for _ in range(200):
            if g(a) >= u:
                break
            a = a * 2.0 if a < 0 else a - 1.0
        else:
            raise NoRoot("could not bracket the root from below")
    if math.isfinite(hi):
        b = hi - 1e-13 * max(span, abs(hi), 1.0)
    else:
        b = max(1.0, a + 1.0) if math.isfinite(lo) else max(1.0, a + 1.0)
        for _ in range(200):
            if g(b) <= u:
                break
            b *= 2.0
        else:
            raise NoRoot("could not bracket the root from above")
    ga, gb = g(a), g(b)
    if not (ga >= u >= gb):
        raise RangeViolation(
            f"u = {u} outside the attainable range [{gb}, {ga}] on I(x, y)")

    # hint from the closed form, clipped into the bracket
    if gf.closed_forms is not None and gf.closed_forms.h is not None:
        zc = gf.closed_forms.h(x, y, u)
        if np.isfinite(zc) and a < zc < b:
            mid = zc
        else:
            mid = 0.5 * (a + b)
    else:
        mid = 0.5 * (a + b)

    z = mid
    for _ in range(max_iter):
        bnd = gf.bundle(x, y, z)
        f = bnd.value - u
        if f >= 0.0:
            a = z
        else:
            b = z
        if b - a <= z_tol * (1.0 + abs(z)):
            break
        step_ok = False
        if bnd.dz < 0.0:
            zn = z - f / bnd.dz
            if a < zn < b:
                z = zn
                step_ok = True
        if not step_ok:
            z = 0.5 * (a + b)
    # quadratic polish: the bracket endpoints carry rounding noise of the
    # residual sign test, so allow the Newton target a bracket-width slack
    slack = (b - a) + z_tol * (1.0 + abs(z))
    for _ in range(2):
        bnd = gf.bundle(x, y, z)
        if not bnd.dz < 0.0:
            break
        zn = z - (bnd.value - u) / bnd.dz
        if not (a - slack <= zn <= b + slack) or not (lo < zn < hi):
            break
        z = zn
    bnd = gf.bundle(x, y, z)
    return DualValue(
        z_root=z,
        h_x=-bnd.grad_x / bnd.dz,
        h_y=-bnd.grad_y / bnd.dz,
        h_u=1.0 / bnd.dz,
    )


def _z_mid(lo: float, hi: float) -> float:
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 0.0


def forward_YZ(gf: GeneratingFunction, x, u, p, *,
               tol: float = 1e-11, max_iter: int = 50,
               initial=None) -> tuple:
    """Solve G_x(x, Y, Z) = p, G(x, Y, Z) = u for (Y, Z).

    Damped Newton on the (n+1)-system with the Jacobian assembled from
    exact second derivatives.  The initial guess comes from the closed
    form when the instance has one, else from the caller, else from
    (y, z) = (x, midpoint of I(x, x)).
    """
    n = gf.dimension
    x = _vec(x, n)
    u = float(u)
    p = _vec(p, n)
    scale = 1.0 + abs(u) + float(np.max(np.abs(p)))

    y = None
    if gf.closed_forms is not None and gf.closed_forms.forward_yz is not None:
        cf = gf.closed_forms.forward_yz(x, u, p)
        if cf is not None:
            y, z = np.asarray(cf[0], dtype=float), float(cf[1])
    if y is None and initial is not None:
        y, z = _vec(initial[0], n).copy(), float(initial[1])
    if y is None:
        y = x.copy()
        lo, hi = gf.z_interval(x, y)
        z = _z_mid(lo, hi)

    def admissible(yv, zv):
        if not gf.admissible_pair(x, yv):
            return False
        lo, hi = gf.z_interval(x, yv)
        return lo < zv < hi

    if not admissible(y, z):
        raise DomainViolation("forward map: initial iterate is inadmissible")

    bnd = gf.bundle(x, y, z)
    res = np.concatenate([bnd.grad_x - p, [bnd.value - u]])
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm <= tol * scale:
            return y, z
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = bnd.hess_xy
        jac[:n, n] = bnd.grad_xz
        jac[n, :n] = bnd.grad_y
        jac[n, n] = bnd.dz
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise NoConvergence("forward map: singular Newton system")
        lam = 1.0
        for _ in range(45):
            y_try = y + lam * step[:n]
            z_try = z + lam * step[n]
            if admissible(y_try, z_try):
                bnd_try = gf.bundle(x, y_try, z_try)
                res_try = np.concatenate([bnd_try.grad_x - p, [bnd_try.value - u]])
                rn_try = float(np.max(np.abs(res_try)))
                if rn_try < rnorm or rn_try <= tol * scale:
                    y, z, bnd, res, rnorm = y_try, z_try, bnd_try, res_try, rn_try
                    break
            lam *= 0.5
        else:
            raise DomainViolation(
                "forward map: Newton step could not stay in the admissible set")
    if rnorm <= tol * scale:
        return y, z
    raise NoConvergence(
        f"forward map: iteration budget exhausted (residual {rnorm:.3e})")


def forward_YZ_rows(gf: GeneratingFunction, xs, us, ps) -> tuple:
    """(Y, Z) over rows: the instance's closed form when it has one, else
    forward_YZ row by row.

    Returns (ys (m, n), zs (m,), ok (m,) bool); rows without an
    admissible solution are not ok and hold NaN or unchecked values.
    """
    n = gf.dimension
    xs = _rows(xs, n)
    ps = _rows(ps, n)
    us = _per_row(us, len(xs))
    closed = gf.forward_yz_batch(xs, us, ps)
    if closed is not None:
        return closed
    m = len(xs)
    ys = _nans((m, n))
    zs = _nans(m)
    ok = np.zeros(m, dtype=bool)
    for k in range(m):
        try:
            ys[k], zs[k] = forward_YZ(gf, xs[k], float(us[k]), ps[k])
            ok[k] = True
        except GjetError:
            pass
    return ys, zs, ok


def matrix_E(gf: GeneratingFunction, x, y, z, *,
             singular_tol: float = 1e-12) -> tuple:
    """Mixed matrix E = G_xy - (1/G_z) G_xz (x) G_y and its determinant.

    E inverts the p-derivative of the forward map: Y_p = E^{-1}.  Raises
    SingularE when |det E| falls below singular_tol.
    """
    e = _e_matrix(eval_bundle(gf, x, y, z))
    det = float(np.linalg.det(e))
    if abs(det) < singular_tol:
        raise SingularE(f"|det E| = {abs(det):.3e} below {singular_tol:.1e}")
    return e, det


def _e_matrix(b) -> np.ndarray:
    """E from a DerivativeBundle (n, n) or a BatchBundle (m, n, n)."""
    return b.hess_xy - b.grad_xz[..., :, None] * b.grad_y[..., None, :] \
        / np.asarray(b.dz)[..., None, None]


def matrix_A(gf: GeneratingFunction, x, u, p, **fw_kwargs) -> np.ndarray:
    """Monge-Ampere coefficient A(x, u, p) = G_xx(x, Y, Z)."""
    y, z = forward_YZ(gf, x, u, p, **fw_kwargs)
    return gf.bundle(_vec(x, gf.dimension), y, z).hess_xx


def _psi_rows(psi: Callable, xs, us, ps) -> np.ndarray:
    """Right-hand density psi over rows, as an (m,) array.

    psi(xs, us, ps) takes (m, n) points, (m,) values and (m, n) slopes;
    a scalar result is broadcast to every row.
    """
    return np.broadcast_to(np.asarray(psi(xs, us, ps), dtype=float), (len(xs),))


def matrix_A_B(gf: GeneratingFunction, x, u, p, psi, **fw_kwargs) -> tuple:
    """A and the right-hand side B = det E(x, Y, Z) * psi(x, u, p).

    psi is a row evaluator psi(xs, us, ps) -> (m,), called on one row.
    """
    x = _vec(x, gf.dimension)
    p = _vec(p, gf.dimension)
    y, z = forward_YZ(gf, x, u, p, **fw_kwargs)
    b = gf.bundle(x, y, z)
    det = float(np.linalg.det(_e_matrix(b)))
    psi_val = _psi_rows(psi, x[None, :], np.array([float(u)]), p[None, :])[0]
    return b.hess_xx, det * float(psi_val)


def matrix_A_via_yp(gf: GeneratingFunction, x, u, p, *,
                    step: float = None) -> np.ndarray:
    """A by the vector-field formula A = -Y_p^{-1} (Y_x + Y_u (x) p).

    All blocks are central finite differences of the forward map; this is
    the independent cross-check route for the closed assembly above.
    """
    n = gf.dimension
    x = _vec(x, n)
    u = float(u)
    p = _vec(p, n)
    h = fd_step(max(abs(u), float(np.max(np.abs(p))), float(np.max(np.abs(x))))) \
        if step is None else step

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


def map_Q(gf: GeneratingFunction, x, y, z) -> np.ndarray:
    """Target-slope map Q = -G_y / G_z at an admissible point."""
    b = eval_bundle(gf, x, y, z)
    return -b.grad_y / b.dz


class RowStatus:
    """Outcome codes of map_X_rows; only OK rows carry a result."""

    OK = 0
    OUT_OF_IMAGE = 1   # the closed form rules the slope out
    BAD_START = 2      # the initial iterate is inadmissible
    SINGULAR = 3       # singular Newton system
    NO_STEP = 4        # no admissible decreasing step within 45 halvings
    BUDGET = 5         # iteration budget exhausted


_STATUS_ERRORS = {
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


def _raise_for_status(status: int, q, rnorm: float) -> None:
    """Raise the exception map_X raises for a row with this status."""
    if status != RowStatus.OK:
        exc, msg = _STATUS_ERRORS[int(status)]
        raise exc(msg.format(q=q, rnorm=rnorm))


def _on_slice(gf: GeneratingFunction, xs, ys, zs) -> np.ndarray:
    """Rows with (x, y) admissible and z inside I(x, y)."""
    lo, hi = gf.z_interval_batch(xs, ys)
    return gf.admissible_pair_batch(xs, ys) & (lo < zs) & (zs < hi)


def _slope_residual(b: BatchBundle, qs) -> tuple:
    """Residual Q - q and its max-norm per row."""
    res = -b.grad_y / b.dz[:, None] - qs
    return res, np.abs(res).max(axis=1)


def _slope_jacobian(b: BatchBundle) -> np.ndarray:
    """Q_x = -E^T / G_z per row."""
    return -_e_matrix(b).transpose(0, 2, 1) / b.dz[:, None, None]


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


def map_X_rows(gf: GeneratingFunction, ys, zs, qs, *,
               tol: float = 1e-11, max_iter: int = 50, initial=None) -> tuple:
    """Invert x -> Q(x, y_k, z_k) = q_k for every row at once.

    Every row runs the damped Newton of map_X with exactly its
    arithmetic: the same initial point (closed form, else the row of
    initial, else y or 0), residual, Jacobian Q_x = -E^T / G_z, solve,
    45 step halvings and acceptance test against tol * (1 + |q|_inf).
    The kernel is evaluated on the still-active rows only.

    Returns (xs, status, rnorm): xs is NaN where status is not
    RowStatus.OK, and rnorm is each row's last residual norm (NaN for rows
    that never reached the kernel).
    """
    n = gf.dimension
    ys = _rows(ys, n)
    qs = _rows(qs, n)
    m = len(ys)
    zs = _per_row(zs, m)
    scale = 1.0 + np.abs(qs).max(axis=1)
    status = np.zeros(m, dtype=int)    # RowStatus.OK
    out = _nans((m, n))
    rnorm = _nans(m)

    x_of = gf.closed_forms.x_of if gf.closed_forms is not None else None
    if x_of is not None:
        xs = np.zeros((m, n))
        for k in range(m):
            cf = x_of(ys[k], float(zs[k]), qs[k])
            if cf is None:
                status[k] = RowStatus.OUT_OF_IMAGE
            else:
                xs[k] = cf
    elif initial is not None:
        xs = np.array(_pair_rows(initial, ys, n)[0])
    else:
        xs = np.where(gf.admissible_pair_batch(ys, ys)[:, None], ys, 0.0)
    start = _on_slice(gf, xs, ys, zs)
    if not start.all():
        status[~start & (status == RowStatus.OK)] = RowStatus.BAD_START
    act = (status == RowStatus.OK).nonzero()[0]

    # per active row: x, y, z, q, threshold, residual and norm; the
    # Jacobian is formed from the bundle bj when a Newton step needs it
    thr = tol * scale
    x, y, z, q, thr = (xs, ys, zs, qs, thr) if len(act) == m else \
        (xs[act], ys[act], zs[act], qs[act], thr[act])
    bj = gf._raw_batch(x, y, z)
    res, rn = _slope_residual(bj, q)
    jac = None

    def jacobian():
        nonlocal jac
        if jac is None:
            jac = _slope_jacobian(bj)
        return jac

    def finish(mask, code):
        nonlocal act, x, y, z, q, thr, res, rn, jac
        every = mask.all()
        sel = slice(None) if every else mask
        status[act[sel]] = code
        rnorm[act[sel]] = rn[sel]
        if code == RowStatus.OK:
            out[act[sel]] = x[sel]
        if every:
            act = act[:0]
        else:
            keep = ~mask
            act, x, y, z, q, thr, res, rn, jac = (
                a[keep] for a in (act, x, y, z, q, thr, res, rn, jacobian()))

    for it in range(max_iter + 1):
        if not len(act):
            break
        done = rn <= thr
        if done.any():
            finish(done, RowStatus.OK)
            if not len(act):
                break
        if it == max_iter:
            finish(np.ones(len(act), dtype=bool), RowStatus.BUDGET)
            break
        step, singular = _solve_rows(jacobian(), -res)
        if singular is not None:
            finish(singular, RowStatus.SINGULAR)
            step = step[~singular]
        # line search over the rows that have not accepted a step yet;
        # pend is None while that is every row
        pend = None
        lam = 1.0
        for _ in range(45):
            rows = slice(None) if pend is None else pend
            x_try = x[rows] + lam * step[rows]
            adm = _on_slice(gf, x_try, y[rows], z[rows])
            if not adm.all():
                if pend is None:
                    pend = np.arange(len(act))
                rows, x_try = pend[adm], x_try[adm]
            if len(x_try):
                bt = gf._raw_batch(x_try, y[rows], z[rows])
                res_t, rn_t = _slope_residual(bt, q[rows])
                acc = (rn_t < rn[rows]) | (rn_t <= thr[rows])
                if pend is None and acc.all():
                    # every row accepted its full step: swap, no gathers
                    x, res, rn, jac, bj = x_try, res_t, rn_t, None, bt
                    break
                if acc.any():
                    if pend is None:
                        pend = rows = np.arange(len(act))
                    sel = rows[acc]
                    x[sel] = x_try[acc]
                    res[sel] = res_t[acc]
                    rn[sel] = rn_t[acc]
                    jacobian()[sel] = _slope_jacobian(bt)[acc]
                    pend = pend[~np.isin(pend, sel)]
                    if not len(pend):
                        break
            lam *= 0.5
        else:
            failed = np.zeros(len(act), dtype=bool)
            failed[slice(None) if pend is None else pend] = True
            finish(failed, RowStatus.NO_STEP)
    return out, status, rnorm


def map_X(gf: GeneratingFunction, y, z, q, *,
          tol: float = 1e-11, max_iter: int = 50, initial=None) -> np.ndarray:
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
                                   tol=tol, max_iter=max_iter, initial=init)
    _raise_for_status(status[0], q, rnorm[0])
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
    astar_all = _nans((m, n, n))
    bstar_all = _nans(m)
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
    _raise_for_status(status[0], q, rnorm[0])
    return astar[0], float(bstar[0])
