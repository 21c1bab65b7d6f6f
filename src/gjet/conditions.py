"""Sampling-based certification of the structural conditions.

The conditions are universally quantified over the admissible set, so a
finite sample can only certify "no violation found" or produce a
concrete witness of failure.  Reports therefore carry three verdicts:

  pass          no violation on the sample, margins above threshold
  fail          a witness point violates the condition
  inconclusive  the sample is too sparse, or the extremal value sits at
                the edge of the admissible set where degeneration is
                expected

Checks covered: injectivity of the primal map (y, z) -> (G_x, G) and of
the dual slope map x -> Q, nondegeneracy of det E, the fourth-order
regularity tensor (strict and weak, primal and dual, plus the sign
agreement between the two sides), monotonicity of A in u, the gradient
bound, and domain-convexity tests (boundary form for balls, hull-ratio
for rasterized images).

Each sampled check draws its rows in a fixed RNG order, evaluates all of
them in a fixed number of batched calls, whatever the sample size, and
reduces them with first-argmin rules.  Determinism: identical SampleSpec
values produce bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import genfun
from .errors import DomainViolation, GjetError, UnsupportedGeometry
from .genfun import (
    TENSOR_STEP,
    GeneratingFunction,
    _map_fraction,
    _map_fraction_rows,
    fd_step,
    jsonable,
)

__all__ = [
    "SampleSpec",
    "ConditionReport",
    "Ball",
    "BoxRegion",
    "Annulus",
    "sample_triples",
    "check_injectivity",
    "check_G2",
    "mtw_tensor",
    "mtw_tensor_rows",
    "check_G3_family",
    "dp_A_chainrule",
    "dp_A_chainrule_rows",
    "check_G4w",
    "check_G5",
    "domain_convexity",
    "hull_ratio",
    "hull_report",
    "orthonormal_pair",
    "orthonormal_pairs",
]

# default thresholds (see module report fields for the values in effect)
DET_TOL = 1e-8          # delta for G2 and injectivity Jacobians
WEAK_TOL = 1e-6         # tolerance for weak (>= 0) verdicts
G3_MIN = 1e-6           # strict positivity margin for the tensor
COLLISION_TOL = 1e-9    # output distance counted as a collision
INPUT_TOL = 1e-6        # input separation required to call it a collision
BOUNDARY_FRAC = 0.05    # interval fraction treated as "near the endpoint"
ORTHO_TOL = 1e-12       # |xi.eta| allowed after normalizing both
G5_TOL = 1e-9           # relative slack on the gradient bound k0
BOUNDARY_SAMPLES = 256  # ball boundary points of the boundary-form test
HULL_CELLS_TOL = 2.0    # hull-ratio verdicts pass within this many raster
                        # cells of the hull volume


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan over a box in (x, y)-space.

    count is the number of (x, y) pairs; each pair contributes one z per
    entry of z_fracs, placed at interior quantiles of I(x, y).  Infinite
    interval ends are mapped through f/(1-f)-style transforms.
    """

    count: int
    seed: int
    x_lo: tuple
    x_hi: tuple
    y_lo: tuple
    y_hi: tuple
    z_fracs: tuple = (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6)

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("count must be positive")
        for f in self.z_fracs:
            if not 0.0 < f < 1.0:
                raise ValueError("z_fracs must lie strictly inside (0, 1)")


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


# --------------------------------------------------------------------------
# sampling helpers
# --------------------------------------------------------------------------

def _uniform(rng, lo, hi, rows: int = None):
    """One uniform point of the box [lo, hi), or (rows, n) points drawn as
    that many single draws in turn would be."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    shape = lo.shape if rows is None else (rows,) + lo.shape
    return lo + rng.random(shape) * (hi - lo)


def _dots(a, b) -> np.ndarray:
    """Row dot products a_k . b_k; the stacked matmul rounds as the
    one-point a @ b and np.linalg.norm do (einsum does not)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _first_min(vals):
    """(k, vals[k]) at the first minimum, where a running strict-< minimum
    from +inf ends (NaN never counts); (None, inf) if none is below inf."""
    v = np.append(np.where(np.isnan(vals), math.inf, vals), math.inf)
    k = int(np.argmin(v))
    return (k, v[k]) if v[k] < math.inf else (None, math.inf)


def _at_z_fracs(gf: GeneratingFunction, xs, ys, z_fracs) -> tuple:
    """(xs, ys, zs): each pair (xs[k], ys[k]) once per z at a quantile
    z_fracs of I(x, y); C-ordered, as einsum rounds by memory layout."""
    fracs = np.asarray(z_fracs, dtype=float)
    z_lo, z_hi = gf.z_interval_batch(xs, ys)
    zs = _map_fraction_rows(z_lo[:, None], z_hi[:, None], fracs).ravel()
    xs, ys = (np.repeat(v, len(fracs), axis=0) for v in (xs, ys))
    return xs, ys, zs


def sample_triples(gf: GeneratingFunction, spec: SampleSpec):
    """Deterministic admissible triples as arrays (xs, ys, zs, fracs).

    The pairs are the first spec.count admissible (x, y) draws among
    60 * spec.count; each pair gives one row per entry of z_fracs, with z
    at that quantile of I(x, y).
    """
    n = gf.dimension
    xy = _uniform(np.random.default_rng(spec.seed), np.r_[spec.x_lo, spec.y_lo],
                  np.r_[spec.x_hi, spec.y_hi], 60 * spec.count)
    xy = xy[gf.admissible_pair_batch(xy[:, :n], xy[:, n:])][:spec.count]
    xs, ys, zs = _at_z_fracs(gf, xy[:, :n], xy[:, n:], spec.z_fracs)
    return xs, ys, zs, np.tile(np.asarray(spec.z_fracs, dtype=float), len(xy))


def _unit(v):
    return v / np.sqrt(_dots(v, v))[:, None]


def orthonormal_pairs(rng, n: int, count: int):
    """count rows of orthonormal_pair as (count, n) arrays xi and eta, from
    the same draws and leaving the generator in the same state."""
    draws = rng.standard_normal((count, 2 if n > 1 else 1, n))
    if n == 1:
        # no orthogonal direction exists in 1-d; degenerate pairs
        return _unit(draws[:, 0]), np.zeros((count, 1))
    redrawn = []
    while True:
        xi = _unit(draws[:, 0])
        eta = draws[:, 1] - _dots(draws[:, 1], xi)[:, None] * xi
        nrm = np.sqrt(_dots(eta, eta))
        short = np.flatnonzero(nrm < 1e-6)
        if not len(short):
            break
        # pair k draws eta again, and every later draw moves on by one row
        k = short[0]
        redrawn.append(k)
        if redrawn.count(k) == 64:
            raise GjetError("failed to draw an orthogonal pair")
        draws = np.concatenate([np.delete(draws.reshape(-1, n), 2 * k + 1, 0),
                                rng.standard_normal((1, n))]).reshape(count, 2, n)
    eta = eta / nrm[:, None]
    # mtw_tensor renormalizes both before its test: rounding along xi left
    # by a large cancelled component goes when the unit eta is projected again
    far = np.abs(_dots(_unit(xi), _unit(eta))) > ORTHO_TOL
    eta[far] = _unit(eta[far] - _dots(eta[far], xi[far])[:, None] * xi[far])
    return xi, eta


def orthonormal_pair(rng, n: int):
    """Unit xi and unit eta orthogonal to it: one row of orthonormal_pairs."""
    xi, eta = orthonormal_pairs(rng, n, 1)
    return xi[0], eta[0]


# --------------------------------------------------------------------------
# injectivity (primal and dual one-to-one conditions)
# --------------------------------------------------------------------------

def check_injectivity(gf: GeneratingFunction, direction: str,
                      spec: SampleSpec) -> ConditionReport:
    """Sampled one-to-one check of the primal or dual generated map.

    primal: for fixed x the map (y, z) -> (G_x, G) must separate inputs;
    its Jacobian determinant G_z det E must stay away from zero.
    dual: for fixed (y, z) the slope map x -> Q must separate inputs;
    its Jacobian is -E/G_z.  Every base point's rows are drawn first, then
    evaluated in one kernel call.
    """
    if direction not in ("primal", "dual"):
        raise ValueError("direction must be 'primal' or 'dual'")
    rng = np.random.default_rng(spec.seed)
    n = gf.dimension
    fracs = np.asarray(spec.z_fracs, dtype=float)
    # each base point's (x, y, z) rows, after an empty one; C-ordered, as
    # the kernel's einsum row sums round by memory layout
    bases = [(np.empty((0, n)), np.empty((0, n)), np.empty(0))]
    for _ in range(max(3, spec.count // 10)):
        for _ in range(40):
            if direction == "primal":
                xs = np.tile(_uniform(rng, spec.x_lo, spec.x_hi), (12, 1))
                ys = _uniform(rng, spec.y_lo, spec.y_hi, 12)
                keep = gf.admissible_pair_batch(xs, ys)
                if keep.any():
                    break
            else:
                y = _uniform(rng, spec.y_lo, spec.y_hi)
                x_ref = _uniform(rng, spec.x_lo, spec.x_hi)
                if gf.admissible_pair(x_ref, y):
                    break
        else:
            continue
        if direction == "primal":
            xs, ys, zs = _at_z_fracs(gf, xs[keep], ys[keep], fracs)
        else:
            z = _map_fraction(*gf.z_interval(x_ref, y), fracs[len(fracs) // 2])
            xs = _uniform(rng, spec.x_lo, spec.x_hi, 12 * len(fracs))
            ys, zs = np.tile(y, (len(xs), 1)), np.full(len(xs), z)
            keep = genfun._on_slice(gf, xs, ys, zs)
            xs, ys, zs = xs[keep], ys[keep], zs[keep]
        bases.append((xs, ys, zs))

    xs, ys, zs = (np.concatenate(c) for c in zip(*bases))
    base_of = np.repeat(np.arange(len(bases)), [len(b[2]) for b in bases])
    b = gf.bundle_batch(xs, ys, zs)
    det = np.linalg.det(genfun._e_matrix(b))
    if direction == "primal":
        jac = np.abs(b.dz * det)
        inputs = np.concatenate([ys, zs[:, None]], axis=1)
        outputs = np.concatenate([b.grad_x, b.value[:, None]], axis=1)
    else:
        # float_power is the C pow of the one-point b.dz ** n
        jac = np.abs(det / np.float_power(b.dz, n))
        inputs, outputs = xs, genfun._q_of(b)
    k, min_jac = _first_min(jac)
    # the last event in draw order names the witness; a base's collision
    # test follows that base's rows
    witness = None
    if min_jac < DET_TOL:
        witness = {"x": xs[k], "y": ys[k], "z": zs[k], "jacobian": min_jac,
                   "kind": "degenerate_jacobian"}
    for i in reversed(range(base_of[k] if witness else 0, len(bases))):
        rows = np.flatnonzero(base_of == i)
        col = _find_collision(inputs[rows], outputs[rows])
        if col is not None:
            ia, ib = rows[list(col)]
            witness = {**({"x": xs[ia]} if direction == "primal"
                          else {"y": ys[ia], "z": zs[ia]}),
                       "input_a": inputs[ia], "input_b": inputs[ib],
                       "output_a": outputs[ia], "output_b": outputs[ib],
                       "kind": "collision"}
            break
    return ConditionReport(
        name=f"G1{'*' if direction == 'dual' else ''}",
        status="inconclusive" if len(zs) < 10 else "pass" if witness is None
        else "fail",
        extremal_value=min_jac,
        witness=witness,
        samples_used=len(zs),
        details={"direction": direction, "delta": DET_TOL,
                 "collision_tol": COLLISION_TOL, "input_tol": INPUT_TOL},
    )


def _find_collision(inputs, outputs):
    d_out = np.linalg.norm(outputs[:, None, :] - outputs[None, :, :], axis=-1)
    d_in = np.linalg.norm(inputs[:, None, :] - inputs[None, :, :], axis=-1)
    bad = (d_out < COLLISION_TOL) & (d_in > INPUT_TOL)
    idx = np.argwhere(np.triu(bad, k=1))
    return (int(idx[0, 0]), int(idx[0, 1])) if len(idx) else None


# --------------------------------------------------------------------------
# G2: nondegeneracy of det E
# --------------------------------------------------------------------------

def check_G2(gf: GeneratingFunction, spec: SampleSpec) -> ConditionReport:
    """min |det E| over the sample; degeneration at an interval endpoint
    is reported inconclusive rather than fail (the condition is interior)."""
    xs, ys, zs, fracs = sample_triples(gf, spec)
    if not len(zs):
        return ConditionReport("G2", "inconclusive", math.nan, None, 0,
                               {"delta": DET_TOL})
    det = np.linalg.det(genfun._e_matrix(gf.bundle_batch(xs, ys, zs)))
    k, min_abs = _first_min(np.abs(det))
    status = "pass"
    if min_abs < DET_TOL:
        near_edge = fracs[k] <= BOUNDARY_FRAC or fracs[k] >= 1.0 - BOUNDARY_FRAC
        status = "inconclusive" if near_edge else "fail"
    return ConditionReport(
        name="G2",
        status=status,
        extremal_value=min_abs,
        witness={"x": xs[k], "y": ys[k], "z": zs[k], "det_e": min_abs}
        if status == "fail" else None,
        samples_used=len(zs),
        details={"delta": DET_TOL, "min_det_signed": _first_min(det)[1],
                 "extremal_z_frac": fracs[k]},
    )


# --------------------------------------------------------------------------
# regularity tensor (fourth-order condition) and its dual
# --------------------------------------------------------------------------

def mtw_tensor_rows(gf: GeneratingFunction, side: str, a, b, zs, xi, eta, *,
                    step: float = TENSOR_STEP) -> tuple:
    """mtw_tensor over rows (a_k, b_k, z_k, xi_k, eta_k): all stencil
    points go through one matrix_A_B_rows (primal) or dual_Astar_Bstar_rows
    (dual) call.  Returns (values (m,), ok (m,)); a row is not ok, and its
    value NaN, when its point is off the admissible slice, G_z is not
    negative there, or a stencil point has no solution.
    """
    n = gf.dimension
    a, b, xi, eta = (genfun._rows(v, n) for v in (a, b, xi, eta))
    zs = genfun._per_row(zs, len(a))
    xi = _unit(xi)
    ena = np.sqrt(_dots(eta, eta))[:, None]
    eta = np.divide(eta, ena, out=eta.copy(), where=ena > 0)
    if np.any(np.abs(_dots(xi, eta)) > ORTHO_TOL):
        raise ValueError("xi and eta must be orthogonal")
    if side not in ("primal", "dual"):
        raise ValueError("side must be 'primal' or 'dual'")
    x, y = (a, b) if side == "primal" else (b, a)
    bnd = gf.bundle_batch(x, y, zs)
    ok = genfun._on_slice(gf, x, y, zs) & (bnd.dz < 0.0)
    # three stencil rows per ok row: the slope p = G_x (primal) or q = Q
    # (dual) stepped by h, 0 and -h along eta
    base = (bnd.grad_x if side == "primal" else genfun._q_of(bnd))[ok]
    h = step * np.maximum(1.0, np.abs(base).max(axis=1, initial=0.0))
    slopes = (base + np.stack([h, 0 * h, -h])[:, :, None] * eta[ok]).reshape(-1, n)
    x3, xi3 = np.tile(x[ok], (3, 1)), np.tile(xi[ok], (3, 1))
    if side == "primal":
        amat, _b, status, _ = genfun.matrix_A_B_rows(
            gf, x3, np.tile(bnd.value[ok], 3), slopes)
    else:
        amat, _, status, _ = genfun.dual_Astar_Bstar_rows(
            gf, np.tile(y[ok], (3, 1)), np.tile(zs[ok], 3), slopes, x_initial=x3)
    phi = _dots(np.matmul(xi3[:, None, :], amat)[:, 0, :], xi3).reshape(3, -1)
    solved = (status == genfun.RowStatus.OK).reshape(3, -1).all(axis=0)
    out = np.full(len(a), np.nan)
    out[ok] = np.where(solved, (phi[0] - 2.0 * phi[1] + phi[2]) / (h * h), np.nan)
    ok[ok] = solved
    return out, ok


def mtw_tensor(gf: GeneratingFunction, side: str, a, b, z, xi, eta, *,
               step: float = TENSOR_STEP) -> float:
    """Contracted second slope-derivative of A (primal) or A* (dual).

    primal: second central difference in p of xi^T A(x, u, p) xi along
    eta, holding (x, u) fixed with u = G(x, y, z), p = G_x(x, y, z).
    dual: same in q of xi^T A*(y, z, q) xi holding (y, z) fixed, with
    q = Q(x, y, z).  Requires xi.eta = 0 after normalization.  One row of
    mtw_tensor_rows; raises DomainViolation when that row is not ok.
    """
    vals, ok = mtw_tensor_rows(gf, side, a, b, float(z), xi, eta, step=step)
    if not ok[0]:
        raise DomainViolation(f"{side} tensor: no admissible stencil solution")
    return float(vals[0])


def _tensor_noise_floor(scale, step: float):
    # rounding amplification of the second difference plus solver noise
    return 1e3 * np.finfo(float).eps * np.maximum(1.0, scale) / (step * step)


def check_G3_family(gf: GeneratingFunction, spec: SampleSpec, strict: bool, *,
                    step: float = TENSOR_STEP) -> ConditionReport:
    """Primal and dual tensors at corresponding points plus sign agreement.

    The dual point for (x, y, z) is (y, z, q) with q = Q(x, y, z); both
    contractions use the same random orthonormal pair.  Sign agreement
    between the two sides is asserted wherever the magnitudes exceed ten
    times the stencil noise floor; this is the executable content of the
    primal/dual equivalence of the condition.
    """
    xs, ys, zs, _f = sample_triples(gf, spec)
    n = gf.dimension
    xi, eta = orthonormal_pairs(np.random.default_rng(spec.seed + 1), n, len(zs))
    if n == 1:
        # no orthogonal direction exists: nothing is evaluated
        xs, ys, zs, xi, eta = (v[:0] for v in (xs, ys, zs, xi, eta))
    tp, ok = mtw_tensor_rows(gf, "primal", xs, ys, zs, xi, eta, step=step)
    td, ok_dual = mtw_tensor_rows(gf, "dual", ys, xs, zs, xi, eta, step=step)
    ok &= ok_dual
    skipped = int(len(ok) - ok.sum())
    xs, ys, zs, xi, eta, tp, td = (v[ok] for v in (xs, ys, zs, xi, eta, tp, td))
    evaluated = len(tp)
    k, min_primal = _first_min(tp)
    min_dual = _first_min(td)[1]
    scale = np.abs(gf.bundle_batch(xs, ys, zs).hess_xx).max(axis=(1, 2), initial=1.0)
    floor = 10 * _tensor_noise_floor(scale, step)
    bad = np.flatnonzero((np.abs(tp) > floor) & (np.abs(td) > floor) & (tp * td < 0))
    strict_ok = min_primal > G3_MIN and min_dual > G3_MIN
    weak_ok = min_primal >= -WEAK_TOL and min_dual >= -WEAK_TOL
    full = len(bad) == 0 and evaluated >= 10
    status = "inconclusive" if evaluated < 10 else "fail" if len(bad) \
        else "pass" if (strict_ok if strict else weak_ok) else "fail"
    witness = None
    if len(bad):
        j = bad[-1]         # the last mismatch in draw order
        witness = {"x": xs[j], "y": ys[j], "z": zs[j], "xi": xi[j], "eta": eta[j],
                   "primal": tp[j], "dual": td[j], "kind": "sign_mismatch"}
    elif status == "fail" and k is not None:
        witness = {"x": xs[k], "y": ys[k], "z": zs[k], "xi": xi[k], "eta": eta[k],
                   "primal": min_primal, "dual": min_dual,
                   "kind": "insufficient_positivity"}
    return ConditionReport(
        name="G3" if strict else "G3w",
        status=status,
        extremal_value=min(min_primal, min_dual),
        witness=witness,
        samples_used=evaluated,
        details={"min_primal": min_primal, "min_dual": min_dual,
                 "sign_mismatches": len(bad), "skipped": skipped,
                 "strict": strict, "g3_min": G3_MIN, "weak_tol": WEAK_TOL,
                 "strict_pass": bool(strict_ok and full),
                 "weak_pass": bool(weak_ok and full)},
    )


def dp_A_chainrule_rows(gf: GeneratingFunction, xs, ys, zs) -> tuple:
    """Slope derivative D_{p_k} A_ij over rows (x_m, y_m, z_m), assembled
    through the chain rule:

        D_{p_k} A_ij = sum_r (E^{-1})_{r k} dE_{i r}/dx_j
                       + (G_{x_i z} / G_z) delta_{j k},

    symmetrized over (i, j); dE/dx comes from central differences of the
    exact E assembly, the 2n stencil points of every row in one
    bundle_batch call.  Returns (out (m, n, n, n), ok (m,)); a row is not
    ok, and its out NaN, when its point is off the admissible slice, G_z
    is not negative there or E is singular.  Cross-checked against direct
    differences of A in p by the test suite.
    """
    n = gf.dimension
    xs, ys = genfun._pair_rows(xs, ys, n)
    zs = genfun._per_row(zs, len(xs))
    ok = genfun._on_slice(gf, xs, ys, zs)
    x, y, z = xs[ok], ys[ok], zs[ok]
    b = gf.bundle_batch(x, y, z)
    e = genfun._e_matrix(b)
    keep = (b.dz < 0.0) & (np.linalg.det(e) != 0.0)
    ok[ok] = keep
    x, y, z, e = x[keep], y[keep], z[keep], e[keep]
    h = fd_step(np.abs(x).max(axis=1))[:, None, None]
    stencil = x[:, None] + h * np.concatenate([np.eye(n), -np.eye(n)])  # x +- h e_j
    e_pm = genfun._e_matrix(gf.bundle_batch(stencil.reshape(-1, n), np.repeat(
        y, 2 * n, axis=0), np.repeat(z, 2 * n))).reshape(len(x), 2, n, n, n)
    de_dx = (e_pm[:, 0] - e_pm[:, 1]) / (2.0 * h[..., None])   # [m, j, i, r]
    d = np.einsum("mrk,mjir->mijk", np.linalg.inv(e), de_dx) + np.einsum(
        "mi,jk->mijk", (b.grad_xz / b.dz[:, None])[keep], np.eye(n))
    out = np.full((len(xs), n, n, n), np.nan)
    out[ok] = 0.5 * (d + d.transpose(0, 2, 1, 3))
    return out, ok


def dp_A_chainrule(gf: GeneratingFunction, x, y, z) -> np.ndarray:
    """D_{p_k} A_ij at one point: one row of dp_A_chainrule_rows.  Raises
    DomainViolation as eval_bundle does, and LinAlgError when E is
    singular."""
    genfun.eval_bundle(gf, x, y, z)
    out, ok = dp_A_chainrule_rows(gf, x, y, float(z))
    if not ok[0]:
        raise np.linalg.LinAlgError("Singular matrix")
    return out[0]


# --------------------------------------------------------------------------
# G4w: monotonicity of A in u
# --------------------------------------------------------------------------

def check_G4w(gf: GeneratingFunction, spec: SampleSpec) -> ConditionReport:
    """min eigenvalue of the central difference of A in u over the sample."""
    xs, ys, zs, _f = sample_triples(gf, spec)
    b = gf.bundle_batch(xs, ys, zs)
    u, p = b.value, b.grad_x
    h = fd_step(u)
    a, _b, rows, _ = genfun.matrix_A_B_rows(gf, np.tile(xs, (2, 1)),
                                            np.concatenate([u + h, u - h]),
                                            np.tile(p, (2, 1)))
    ok = (rows == genfun.RowStatus.OK).reshape(2, -1).all(axis=0)
    evaluated = int(ok.sum())
    ap, am = a.reshape((2, -1) + a.shape[1:])[:, ok]
    dua = (ap - am) / (2.0 * h[ok])[:, None, None]
    dua = 0.5 * (dua + dua.transpose(0, 2, 1))
    k, min_eig = _first_min(np.linalg.eigvalsh(dua)[:, 0])
    status = "inconclusive" if evaluated < 10 \
        else "pass" if min_eig >= -WEAK_TOL else "fail"
    return ConditionReport(
        name="G4w",
        status=status,
        extremal_value=min_eig,
        witness={"x": xs[ok][k], "y": ys[ok][k], "z": zs[ok][k], "min_eig": min_eig}
        if status == "fail" else None,
        samples_used=evaluated,
        details={"weak_tol": WEAK_TOL, "skipped": len(zs) - evaluated,
                 "strictly_positive": bool(min_eig > WEAK_TOL)},
    )


# --------------------------------------------------------------------------
# G5: gradient bound
# --------------------------------------------------------------------------

def check_G5(gf: GeneratingFunction, omega, omega_star, spec: SampleSpec, *,
             m0: float = None, k0: float = None) -> ConditionReport:
    """Verify |G_x| <= k0 on samples with G > m0.

    omega is a source box (lo, hi); omega_star is a point set whose
    convex hull is the target region (samples are random convex
    combinations, so they stay inside the hull exactly).  m0 and k0
    default to the instance constants; overrides support derived bounds,
    e.g. a diameter bound for the quadratic instance.
    """
    if m0 is None or k0 is None:
        if gf.g5_constants is None:
            raise ValueError("no gradient-bound constants declared or supplied")
        m0 = gf.g5_constants.m0 if m0 is None else m0
        k0 = gf.g5_constants.k0 if k0 is None else k0
    rng = np.random.default_rng(spec.seed)
    n = gf.dimension
    pts = np.asarray(omega_star, dtype=float).reshape(-1, n)
    xs, ys = [], []
    for _ in range(spec.count):
        xs.append(_uniform(rng, omega[0], omega[1]))
        ys.append(rng.dirichlet(np.ones(len(pts))) @ pts)
    xs, ys = (np.reshape(v, (-1, n)) for v in (xs, ys))
    adm = gf.admissible_pair_batch(xs, ys)
    xs, ys, zs = _at_z_fracs(gf, xs[adm], ys[adm], spec.z_fracs)
    b = gf.bundle_batch(xs, ys, zs)
    keep = b.value > m0
    xs, ys, zs, value, grad = (v[keep] for v in (xs, ys, zs, b.value, b.grad_x))
    # the first maximum, where a running strict-> maximum from 0 ends
    k, neg = _first_min(-np.sqrt(_dots(grad, grad)))
    max_grad = -neg if k is not None and neg < 0.0 else 0.0
    status = "inconclusive" if len(zs) < 10 \
        else "pass" if max_grad <= k0 * (1.0 + G5_TOL) else "fail"
    return ConditionReport(
        name="G5",
        status=status,
        extremal_value=max_grad,
        witness={"x": xs[k], "y": ys[k], "z": zs[k], "grad_norm": max_grad,
                 "value": value[k]} if status == "fail" and max_grad > 0.0 else None,
        samples_used=len(zs),
        details={"m0": m0, "k0": k0, "g5_tol": G5_TOL},
    )


# --------------------------------------------------------------------------
# domain convexity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def boundary_samples(self, count: int):
        c = np.asarray(self.center, dtype=float)
        n = len(c)
        if n == 1:
            return np.array([c - self.radius, c + self.radius])
        if n == 2:
            th = 2.0 * np.pi * np.arange(count) / count
            return c + self.radius * np.stack([np.cos(th), np.sin(th)], axis=1)
        # Fibonacci sphere for n = 3
        k = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / count)
        golden = np.pi * (1.0 + 5.0 ** 0.5)
        th = golden * k
        pts = np.stack([np.cos(th) * np.sin(phi),
                        np.sin(th) * np.sin(phi),
                        np.cos(phi)], axis=1)
        return c + self.radius * pts

    def raster(self, res: int):
        c = np.asarray(self.center, dtype=float)
        pts = BoxRegion(tuple(c - self.radius), tuple(c + self.radius)).raster(res)
        keep = np.linalg.norm(pts - c, axis=1) <= self.radius
        return pts[keep]


@dataclass(frozen=True)
class BoxRegion:
    lo: tuple
    hi: tuple

    def raster(self, res: int):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        axes = [lo[k] + (np.arange(res) + 0.5) * (hi[k] - lo[k]) / res
                for k in range(len(lo))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class Annulus:
    center: tuple
    r_inner: float
    r_outer: float

    def raster(self, res: int):
        c = np.asarray(self.center, dtype=float)
        pts = BoxRegion(tuple(c - self.r_outer), tuple(c + self.r_outer)).raster(res)
        r = np.linalg.norm(pts - c, axis=1)
        return pts[(r >= self.r_inner) & (r <= self.r_outer)]


def hull_ratio(points: np.ndarray):
    """Occupied-to-hull volume ratio of a rasterized point cloud.

    The m points are binned onto a regular raster over their bounding box,
    round(m^(1/n) / 2) pixels per axis clipped to 8..64; the occupied-pixel
    volume is compared with the convex hull volume of the occupied pixel
    centers.  A convex image yields ratio >= 1 up to boundary pixels;
    holes and dents push the ratio below 1.  Returns (ratio, details)
    where details carries the pixel volume used for the tolerance rule.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m, n = pts.shape
    if m < n + 2:
        return 1.0, {"degenerate": True, "pixel_vol": 0.0, "hull_vol": 0.0}
    raster_res = int(np.clip(round(m ** (1.0 / n) / 2.0), 8, 64))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    idx = np.minimum((pts - lo) / span * raster_res, raster_res - 1e-9).astype(int)
    flat = np.ravel_multi_index(idx.T, (raster_res,) * n)
    occupied = np.unique(flat)
    centers = (np.stack(np.unravel_index(occupied, (raster_res,) * n), axis=1)
               + 0.5) / raster_res * span + lo
    pixel_vol = float(np.prod(span / raster_res))
    occ_vol = pixel_vol * len(occupied)
    if n == 1:
        hull_vol = float(centers.max() - centers.min())
    else:
        try:
            hull_vol = float(ConvexHull(centers).volume)
        except QhullError:
            return 1.0, {"degenerate": True, "pixel_vol": pixel_vol,
                         "hull_vol": 0.0}
    if hull_vol <= 0:
        return 1.0, {"degenerate": True, "pixel_vol": pixel_vol, "hull_vol": 0.0}
    return occ_vol / hull_vol, {"degenerate": False, "pixel_vol": pixel_vol,
                                "hull_vol": hull_vol, "raster_res": raster_res,
                                "occupied": int(len(occupied))}


def domain_convexity(gf: GeneratingFunction, kind: str, geometry,
                     anchor) -> ConditionReport:
    """Domain convexity tests with respect to the generating function.

    kind = "source_boundary": the least value of the boundary form

        [ D_i gamma_j - (D_{p_k} G_xx)_{ij} gamma_k ] tau_i tau_j

    over unit tangent vectors tau, at BOUNDARY_SAMPLES points of an
    analytic ball boundary with anchor (y0, z0), must be >= 0; the slope
    derivative of G_xx comes from one dp_A_chainrule_rows call.  The
    minimum over the tangent plane is the least eigenvalue of P S P, S the
    symmetrized form and P = I - gamma gamma^T, with gamma gamma^T lifted
    above the tangent eigenvalues; the witness tau is its eigenvector.

    kind = "source_image": the image of the region under Q(., y0, z0)
    must be convex (hull-ratio test); anchor is (y0, z0).

    kind = "target_image": the image of the target region under
    y -> G_x(x0, y, H(x0, y, u0)) must be convex; anchor is (x0, u0).
    """
    n = gf.dimension
    if kind == "source_boundary":
        if not isinstance(geometry, Ball):
            raise UnsupportedGeometry(
                "boundary form requires an analytic ball boundary")
        pts = geometry.boundary_samples(BOUNDARY_SAMPLES)
        gamma = (pts - np.asarray(geometry.center, dtype=float)) / geometry.radius
        dpa, ok = dp_A_chainrule_rows(gf, pts, anchor[0], float(anchor[1]))
        ok &= np.isfinite(dpa).all(axis=(1, 2, 3))
        pts, gamma, dpa = pts[ok], gamma[ok], dpa[ok]
        proj = np.eye(n) - gamma[:, :, None] * gamma[:, None, :]
        form = proj / geometry.radius - np.einsum("mijk,mk->mij", dpa, gamma)
        form = proj @ (0.5 * (form + form.transpose(0, 2, 1))) @ proj
        lift = 1.0 + np.sqrt((form * form).sum(axis=(1, 2)))  # > |eigenvalues|
        w, v = np.linalg.eigh(form + lift[:, None, None] * (np.eye(n) - proj))
        k, min_form = _first_min(np.min(w[:, :n - 1], axis=1, initial=math.inf))
        status = "inconclusive" if len(pts) < 3 \
            else "pass" if min_form >= -WEAK_TOL else "fail"
        return ConditionReport(
            name="domain_convexity/source_boundary", status=status,
            extremal_value=min_form,
            witness={"x": pts[k], "tau": v[k, :, 0], "form": min_form}
            if status == "fail" else None,
            samples_used=len(pts),
            details={"weak_tol": WEAK_TOL})

    if kind == "source_image":
        y0 = np.asarray(anchor[0], dtype=float)
        z0 = float(anchor[1])
        pts = geometry if isinstance(geometry, np.ndarray) else geometry.raster(64)
        image = gf.q_batch(pts, y0, z0)
    elif kind == "target_image":
        x0 = np.asarray(anchor[0], dtype=float)
        u0 = float(anchor[1])
        ys = geometry if isinstance(geometry, np.ndarray) else geometry.raster(64)
        zs = gf.h_batch(x0[None, :], ys, np.full(len(ys), u0))
        bb = gf.bundle_batch(np.broadcast_to(x0, ys.shape), ys, zs)
        image = bb.grad_x
    else:
        raise UnsupportedGeometry(f"unknown domain-convexity kind: {kind}")

    return hull_report(f"domain_convexity/{kind}", image)


def hull_report(name: str, image: np.ndarray, **details) -> ConditionReport:
    """Hull-ratio convexity verdict on a point image: it passes within
    HULL_CELLS_TOL raster cells of the hull volume."""
    ratio, info = hull_ratio(image)
    tol = HULL_CELLS_TOL * info["pixel_vol"] / info["hull_vol"] \
        if info.get("hull_vol", 0) > 0 else 0.0
    status = "pass" if ratio >= 1.0 - tol else "fail"
    return ConditionReport(
        name=name, status=status, extremal_value=ratio,
        witness={"hull_ratio": ratio, **info} if status == "fail" else None,
        samples_used=len(image), details={**details, "hull_tol": tol, **info})
