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

Determinism: identical SampleSpec values produce bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import genfun
from .errors import GjetError, UnsupportedGeometry
from .genfun import GeneratingFunction, fd_step

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
    "check_G3_family",
    "dp_A_chainrule",
    "check_G4w",
    "check_G5",
    "domain_convexity",
    "hull_ratio",
    "hull_report",
    "orthonormal_pair",
]

# default thresholds (see module report fields for the values in effect)
DET_TOL = 1e-8          # delta for G2 and injectivity Jacobians
WEAK_TOL = 1e-6         # tolerance for weak (>= 0) verdicts
G3_MIN = 1e-6           # strict positivity margin for the tensor
COLLISION_TOL = 1e-9    # output distance counted as a collision
INPUT_TOL = 1e-6        # input separation required to call it a collision
BOUNDARY_FRAC = 0.05    # interval fraction treated as "near the endpoint"
TENSOR_STEP = 1e-3      # second-difference stencil step in p or q
ORTHO_TOL = 1e-12       # |xi.eta| allowed after normalizing both


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
        return {
            "name": self.name,
            "status": self.status,
            "extremal_value": _jsonable(self.extremal_value),
            "witness": _jsonable(self.witness),
            "samples_used": int(self.samples_used),
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()] if obj.ndim else float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# --------------------------------------------------------------------------
# sampling helpers
# --------------------------------------------------------------------------

def _map_fraction(lo: float, hi: float, f: float) -> float:
    """Place an interior quantile into a possibly unbounded open interval."""
    if math.isfinite(lo) and math.isfinite(hi):
        return lo + f * (hi - lo)
    if math.isfinite(lo):
        return lo + f / (1.0 - f)
    if math.isfinite(hi):
        return hi - (1.0 - f) / f
    return math.log(f / (1.0 - f))


def _uniform(rng, lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + rng.random(lo.shape) * (hi - lo)


def sample_triples(gf: GeneratingFunction, spec: SampleSpec):
    """Deterministic admissible triples (x, y, z, frac) from the plan."""
    rng = np.random.default_rng(spec.seed)
    out = []
    tries = 0
    max_tries = 60 * spec.count
    while len(out) < spec.count * len(spec.z_fracs) and tries < max_tries:
        tries += 1
        x = _uniform(rng, spec.x_lo, spec.x_hi)
        y = _uniform(rng, spec.y_lo, spec.y_hi)
        if not gf.admissible_pair(x, y):
            continue
        lo, hi = gf.z_interval(x, y)
        for f in spec.z_fracs:
            out.append((x, y, _map_fraction(lo, hi, f), f))
    return out


def orthonormal_pair(rng, n: int):
    """Random unit xi and unit eta with eta projected orthogonal to xi."""
    xi = rng.standard_normal(n)
    xi /= np.linalg.norm(xi)
    if n == 1:
        # no orthogonal direction exists in 1-d; degenerate pair
        return xi, np.zeros(1)
    for _ in range(64):
        eta = rng.standard_normal(n)
        eta -= (eta @ xi) * xi
        nrm = np.linalg.norm(eta)
        if nrm >= 1e-6:
            eta = eta / nrm
            # mtw_tensor renormalizes both vectors before its test
            unit_xi = xi / np.linalg.norm(xi)
            if abs(float(unit_xi @ (eta / np.linalg.norm(eta)))) > ORTHO_TOL:
                # a large cancelled component leaves rounding along xi;
                # projecting the unit vector again removes it
                eta -= (eta @ xi) * xi
                eta /= np.linalg.norm(eta)
            return xi, eta
    raise GjetError("failed to draw an orthogonal pair")


# --------------------------------------------------------------------------
# injectivity (primal and dual one-to-one conditions)
# --------------------------------------------------------------------------

def check_injectivity(gf: GeneratingFunction, direction: str, spec: SampleSpec, *,
                      delta: float = DET_TOL,
                      collision_tol: float = COLLISION_TOL,
                      input_tol: float = INPUT_TOL) -> ConditionReport:
    """Sampled one-to-one check of the primal or dual generated map.

    primal: for fixed x the map (y, z) -> (G_x, G) must separate inputs;
    its Jacobian determinant G_z det E must stay away from zero.
    dual: for fixed (y, z) the slope map x -> Q must separate inputs;
    its Jacobian is -E/G_z.
    """
    if direction not in ("primal", "dual"):
        raise ValueError("direction must be 'primal' or 'dual'")
    rng = np.random.default_rng(spec.seed)
    n = gf.dimension
    base_count = max(3, spec.count // 10)
    draws = 12
    min_jac = math.inf
    witness = None
    used = 0
    status = "pass"

    for _ in range(base_count):
        if direction == "primal":
            for _ in range(40):
                x = _uniform(rng, spec.x_lo, spec.x_hi)
                ys = [_uniform(rng, spec.y_lo, spec.y_hi) for _ in range(draws)]
                ys = [y for y in ys if gf.admissible_pair(x, y)]
                if ys:
                    break
            else:
                continue
            inputs, outputs = [], []
            for y in ys:
                lo, hi = gf.z_interval(x, y)
                for f in spec.z_fracs:
                    z = _map_fraction(lo, hi, f)
                    b = gf.bundle(x, y, z)
                    det = float(np.linalg.det(genfun._e_matrix(b)))
                    jac = abs(b.dz * det)
                    if jac < min_jac:
                        min_jac = jac
                        if jac < delta:
                            status = "fail"
                            witness = {"x": x, "y": y, "z": z,
                                       "jacobian": jac, "kind": "degenerate_jacobian"}
                    inputs.append(np.concatenate([y, [z]]))
                    outputs.append(np.concatenate([b.grad_x, [b.value]]))
            used += len(inputs)
            col = _find_collision(inputs, outputs, collision_tol, input_tol)
            if col is not None:
                ia, ib = col
                status = "fail"
                witness = {"x": x,
                           "input_a": inputs[ia], "input_b": inputs[ib],
                           "output_a": outputs[ia], "output_b": outputs[ib],
                           "kind": "collision"}
        else:
            for _ in range(40):
                y = _uniform(rng, spec.y_lo, spec.y_hi)
                x_ref = _uniform(rng, spec.x_lo, spec.x_hi)
                if gf.admissible_pair(x_ref, y):
                    break
            else:
                continue
            lo, hi = gf.z_interval(x_ref, y)
            z = _map_fraction(lo, hi, spec.z_fracs[len(spec.z_fracs) // 2])
            inputs, outputs = [], []
            for _ in range(draws * len(spec.z_fracs)):
                x = _uniform(rng, spec.x_lo, spec.x_hi)
                if not gf.admissible_pair(x, y):
                    continue
                lo_x, hi_x = gf.z_interval(x, y)
                if not (lo_x < z < hi_x):
                    continue
                b = gf.bundle(x, y, z)
                det = float(np.linalg.det(genfun._e_matrix(b)))
                jac = abs(det / b.dz ** n)
                if jac < min_jac:
                    min_jac = jac
                    if jac < delta:
                        status = "fail"
                        witness = {"x": x, "y": y, "z": z,
                                   "jacobian": jac, "kind": "degenerate_jacobian"}
                inputs.append(x)
                outputs.append(genfun._q_of(b))
            used += len(inputs)
            col = _find_collision(inputs, outputs, collision_tol, input_tol)
            if col is not None:
                ia, ib = col
                status = "fail"
                witness = {"y": y, "z": z,
                           "input_a": inputs[ia], "input_b": inputs[ib],
                           "output_a": outputs[ia], "output_b": outputs[ib],
                           "kind": "collision"}

    if used < 10:
        status = "inconclusive"
    return ConditionReport(
        name=f"G1{'*' if direction == 'dual' else ''}",
        status=status,
        extremal_value=min_jac,
        witness=witness,
        samples_used=used,
        details={"direction": direction, "delta": delta,
                 "collision_tol": collision_tol, "input_tol": input_tol},
    )


def _find_collision(inputs, outputs, collision_tol, input_tol):
    if len(inputs) < 2:
        return None
    ins = np.asarray(inputs)
    outs = np.asarray(outputs)
    d_out = np.linalg.norm(outs[:, None, :] - outs[None, :, :], axis=-1)
    d_in = np.linalg.norm(ins[:, None, :] - ins[None, :, :], axis=-1)
    bad = (d_out < collision_tol) & (d_in > input_tol)
    idx = np.argwhere(np.triu(bad, k=1))
    if len(idx):
        return int(idx[0, 0]), int(idx[0, 1])
    return None


# --------------------------------------------------------------------------
# G2: nondegeneracy of det E
# --------------------------------------------------------------------------

def check_G2(gf: GeneratingFunction, spec: SampleSpec, *,
             delta: float = DET_TOL,
             boundary_frac: float = BOUNDARY_FRAC) -> ConditionReport:
    """min |det E| over the sample; degeneration at an interval endpoint
    is reported inconclusive rather than fail (the condition is interior)."""
    triples = sample_triples(gf, spec)
    min_abs = math.inf
    min_signed = math.inf
    arg = None
    for x, y, z, f in triples:
        b = gf.bundle(x, y, z)
        det = float(np.linalg.det(genfun._e_matrix(b)))
        if abs(det) < min_abs:
            min_abs = abs(det)
            arg = (x, y, z, f)
        min_signed = min(min_signed, det)
    if not triples:
        return ConditionReport("G2", "inconclusive", math.nan, None, 0,
                               {"delta": delta})
    status = "pass"
    witness = None
    if min_abs < delta:
        near_edge = arg[3] <= boundary_frac or arg[3] >= 1.0 - boundary_frac
        status = "inconclusive" if near_edge else "fail"
        witness = None if status == "inconclusive" else {
            "x": arg[0], "y": arg[1], "z": arg[2], "det_e": min_abs}
    return ConditionReport(
        name="G2",
        status=status,
        extremal_value=min_abs,
        witness=witness,
        samples_used=len(triples),
        details={"delta": delta, "min_det_signed": min_signed,
                 "extremal_z_frac": arg[3]},
    )


# --------------------------------------------------------------------------
# regularity tensor (fourth-order condition) and its dual
# --------------------------------------------------------------------------

def mtw_tensor(gf: GeneratingFunction, side: str, a, b, z, xi, eta, *,
               step: float = TENSOR_STEP) -> float:
    """Contracted second slope-derivative of A (primal) or A* (dual).

    primal: second central difference in p of xi^T A(x, u, p) xi along
    eta, holding (x, u) fixed with u = G(x, y, z), p = G_x(x, y, z).
    dual: same in q of xi^T A*(y, z, q) xi holding (y, z) fixed, with
    q = Q(x, y, z).  Requires xi.eta = 0 after normalization.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    xi = xi / np.linalg.norm(xi)
    ena = np.linalg.norm(eta)
    if ena > 0:
        eta = eta / ena
    if abs(float(xi @ eta)) > ORTHO_TOL:
        raise ValueError("xi and eta must be orthogonal")
    if side == "primal":
        x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        bnd = genfun.eval_bundle(gf, x, y, z)
        u, p = bnd.value, bnd.grad_x
        h = step * max(1.0, float(np.max(np.abs(p))))

        def phi(t):
            amat = genfun.matrix_A(gf, x, u, p + t * eta)
            return float(xi @ amat @ xi)

    elif side == "dual":
        y, x = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        q = genfun.map_Q(gf, x, y, z)
        h = step * max(1.0, float(np.max(np.abs(q))))

        def phi(t):
            amat, _ = genfun.dual_Astar_Bstar(gf, y, z, q + t * eta,
                                              x_initial=x)
            return float(xi @ amat @ xi)

    else:
        raise ValueError("side must be 'primal' or 'dual'")
    return (phi(h) - 2.0 * phi(0.0) + phi(-h)) / (h * h)


def _tensor_noise_floor(scale: float, step: float) -> float:
    # rounding amplification of the second difference plus solver noise
    return 1e3 * np.finfo(float).eps * max(1.0, scale) / (step * step)


def check_G3_family(gf: GeneratingFunction, spec: SampleSpec, strict: bool, *,
                    g3_min: float = G3_MIN, weak_tol: float = WEAK_TOL,
                    step: float = TENSOR_STEP, rng_seed_offset: int = 1,
                    ) -> ConditionReport:
    """Primal and dual tensors at corresponding points plus sign agreement.

    The dual point for (x, y, z) is (y, z, q) with q = Q(x, y, z); both
    contractions use the same random orthonormal pair.  Sign agreement
    between the two sides is asserted wherever the magnitudes exceed ten
    times the stencil noise floor; this is the executable content of the
    primal/dual equivalence of the condition.
    """
    triples = sample_triples(gf, spec)
    rng = np.random.default_rng(spec.seed + rng_seed_offset)
    n = gf.dimension
    min_primal = math.inf
    min_dual = math.inf
    mismatches = 0
    evaluated = 0
    skipped = 0
    witness = None
    arg_primal = None
    for x, y, z, _f in triples:
        xi, eta = orthonormal_pair(rng, n)
        if n == 1:
            continue
        try:
            tp = mtw_tensor(gf, "primal", x, y, z, xi, eta, step=step)
            td = mtw_tensor(gf, "dual", y, x, z, xi, eta, step=step)
        except GjetError:
            skipped += 1
            continue
        evaluated += 1
        if tp < min_primal:
            min_primal = tp
            arg_primal = (x, y, z, xi, eta)
        min_dual = min(min_dual, td)
        bnd = gf.bundle(x, y, z)
        scale = max(1.0, float(np.max(np.abs(bnd.hess_xx))))
        floor = _tensor_noise_floor(scale, step)
        if abs(tp) > 10 * floor and abs(td) > 10 * floor and tp * td < 0:
            mismatches += 1
            witness = {"x": x, "y": y, "z": z, "xi": xi, "eta": eta,
                       "primal": tp, "dual": td, "kind": "sign_mismatch"}

    if evaluated < 10:
        status = "inconclusive"
    elif mismatches > 0:
        status = "fail"
    elif strict:
        status = "pass" if (min_primal > g3_min and min_dual > g3_min) else "fail"
    else:
        status = "pass" if (min_primal >= -weak_tol and min_dual >= -weak_tol) \
            else "fail"
    if status == "fail" and witness is None and arg_primal is not None:
        x, y, z, xi, eta = arg_primal
        witness = {"x": x, "y": y, "z": z, "xi": xi, "eta": eta,
                   "primal": min_primal, "dual": min_dual,
                   "kind": "insufficient_positivity"}
    return ConditionReport(
        name="G3" if strict else "G3w",
        status=status,
        extremal_value=min(min_primal, min_dual),
        witness=witness,
        samples_used=evaluated,
        details={"min_primal": min_primal, "min_dual": min_dual,
                 "sign_mismatches": mismatches, "skipped": skipped,
                 "strict": strict, "g3_min": g3_min, "weak_tol": weak_tol,
                 "strict_pass": bool(min_primal > g3_min and min_dual > g3_min
                                     and mismatches == 0 and evaluated >= 10),
                 "weak_pass": bool(min_primal >= -weak_tol
                                   and min_dual >= -weak_tol
                                   and mismatches == 0 and evaluated >= 10)},
    )


def dp_A_chainrule(gf: GeneratingFunction, x, y, z, *,
                   step: float = None) -> np.ndarray:
    """Slope derivative D_{p_k} A_ij assembled through the chain rule.

    Out[i, j, k] combines the inverse of E with x-derivatives of E and
    the exact mixed xz-gradient:

        D_{p_k} A_ij = sum_r (E^{-1})_{r k} dE_{i r}/dx_j
                       + (G_{x_i z} / G_z) delta_{j k},

    symmetrized over (i, j); dE/dx comes from central differences of the
    exact E assembly.  Cross-checked against direct differences of A in
    p by the test suite.
    """
    n = gf.dimension
    x = np.asarray(x, dtype=float).reshape(n)
    y = np.asarray(y, dtype=float).reshape(n)
    z = float(z)
    b = genfun.eval_bundle(gf, x, y, z)
    e = genfun._e_matrix(b)
    einv = np.linalg.inv(e)
    h = fd_step(float(np.max(np.abs(x)))) if step is None else step

    de_dx = np.zeros((n, n, n))  # [i, r, j] = dE_ir/dx_j
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = h
        bp = gf.bundle(x + ej, y, z)
        bm = gf.bundle(x - ej, y, z)
        de_dx[:, :, j] = (genfun._e_matrix(bp) - genfun._e_matrix(bm)) / (2.0 * h)

    term1 = np.einsum("rk,irj->ijk", einv, de_dx)
    term2 = np.einsum("i,jk->ijk", b.grad_xz / b.dz, np.eye(n))
    out = term1 + term2
    return 0.5 * (out + out.transpose(1, 0, 2))


# --------------------------------------------------------------------------
# G4w: monotonicity of A in u
# --------------------------------------------------------------------------

def check_G4w(gf: GeneratingFunction, spec: SampleSpec, *,
              weak_tol: float = WEAK_TOL, step: float = None) -> ConditionReport:
    """min eigenvalue of the central difference of A in u over the sample."""
    triples = sample_triples(gf, spec)
    min_eig = math.inf
    witness = None
    evaluated = 0
    skipped = 0
    for x, y, z, _f in triples:
        b = gf.bundle(x, y, z)
        u, p = b.value, b.grad_x
        h = fd_step(u) if step is None else step
        try:
            ap = genfun.matrix_A(gf, x, u + h, p)
            am = genfun.matrix_A(gf, x, u - h, p)
        except GjetError:
            skipped += 1
            continue
        evaluated += 1
        dua = (ap - am) / (2.0 * h)
        dua = 0.5 * (dua + dua.T)
        lam = float(np.linalg.eigvalsh(dua)[0])
        if lam < min_eig:
            min_eig = lam
            if lam < -weak_tol:
                witness = {"x": x, "y": y, "z": z, "min_eig": lam}
    if evaluated < 10:
        status = "inconclusive"
    else:
        status = "pass" if min_eig >= -weak_tol else "fail"
    return ConditionReport(
        name="G4w",
        status=status,
        extremal_value=min_eig,
        witness=witness if status == "fail" else None,
        samples_used=evaluated,
        details={"weak_tol": weak_tol, "skipped": skipped,
                 "strictly_positive": bool(min_eig > weak_tol)},
    )


# --------------------------------------------------------------------------
# G5: gradient bound
# --------------------------------------------------------------------------

def check_G5(gf: GeneratingFunction, omega, omega_star, spec: SampleSpec, *,
             m0: float = None, k0: float = None,
             g5_tol: float = 1e-9) -> ConditionReport:
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
    lo_b, hi_b = np.asarray(omega[0], dtype=float), np.asarray(omega[1], dtype=float)
    pts = np.asarray(omega_star, dtype=float).reshape(-1, gf.dimension)
    max_grad = 0.0
    witness = None
    used = 0
    for _ in range(spec.count):
        x = _uniform(rng, lo_b, hi_b)
        wts = rng.dirichlet(np.ones(len(pts)))
        y = wts @ pts
        if not gf.admissible_pair(x, y):
            continue
        ilo, ihi = gf.z_interval(x, y)
        for f in spec.z_fracs:
            z = _map_fraction(ilo, ihi, f)
            b = gf.bundle(x, y, z)
            if not b.value > m0:
                continue
            used += 1
            gn = float(np.linalg.norm(b.grad_x))
            if gn > max_grad:
                max_grad = gn
                if gn > k0 * (1.0 + g5_tol):
                    witness = {"x": x, "y": y, "z": z, "grad_norm": gn,
                               "value": b.value}
    if used < 10:
        status = "inconclusive"
    else:
        status = "pass" if max_grad <= k0 * (1.0 + g5_tol) else "fail"
    return ConditionReport(
        name="G5",
        status=status,
        extremal_value=max_grad,
        witness=witness if status == "fail" else None,
        samples_used=used,
        details={"m0": m0, "k0": k0, "g5_tol": g5_tol},
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


def hull_ratio(points: np.ndarray, raster_res: int = None):
    """Occupied-to-hull volume ratio of a rasterized point cloud.

    Points are binned onto a regular raster over their bounding box; the
    occupied-pixel volume is compared with the convex hull volume of the
    occupied pixel centers.  A convex image yields ratio >= 1 up to
    boundary pixels; holes and dents push the ratio below 1.  Returns
    (ratio, details) where details carries the pixel volume used for the
    tolerance rule.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m, n = pts.shape
    if m < n + 2:
        return 1.0, {"degenerate": True, "pixel_vol": 0.0, "hull_vol": 0.0}
    if raster_res is None:
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


def _tangent_basis(gamma: np.ndarray):
    n = len(gamma)
    basis = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        t = e - (e @ gamma) * gamma
        nrm = np.linalg.norm(t)
        if nrm > 1e-8:
            basis.append(t / nrm)
    return basis[: n - 1]


def domain_convexity(gf: GeneratingFunction, kind: str, geometry, anchor, *,
                     boundary_samples: int = 256, weak_tol: float = WEAK_TOL,
                     raster_res: int = None,
                     hull_cells_tol: float = 2.0) -> ConditionReport:
    """Domain convexity tests with respect to the generating function.

    kind = "source_boundary": evaluate the boundary form

        [ D_i gamma_j - (D_{p_k} G_xx)_{ij} gamma_k ] tau_i tau_j >= 0

    on an analytic ball boundary with anchor (y0, z0); the slope
    derivative of G_xx comes from dp_A_chainrule.

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
        y0 = np.asarray(anchor[0], dtype=float)
        z0 = float(anchor[1])
        pts = geometry.boundary_samples(boundary_samples)
        c = np.asarray(geometry.center, dtype=float)
        min_form = math.inf
        witness = None
        used = 0
        for x in pts:
            gamma = (x - c) / geometry.radius
            dgamma = (np.eye(n) - np.outer(gamma, gamma)) / geometry.radius
            try:
                dpa = dp_A_chainrule(gf, x, y0, z0)
            except GjetError:
                continue
            used += 1
            corr = np.einsum("ijk,k->ij", dpa, gamma)
            mat = dgamma - corr
            for tau in _tangent_basis(gamma):
                val = float(tau @ mat @ tau)
                if val < min_form:
                    min_form = val
                    if val < -weak_tol:
                        witness = {"x": x, "tau": tau, "form": val}
        if used < 3:
            status = "inconclusive"
        else:
            status = "pass" if min_form >= -weak_tol else "fail"
        return ConditionReport(
            name="domain_convexity/source_boundary", status=status,
            extremal_value=min_form,
            witness=witness if status == "fail" else None,
            samples_used=used,
            details={"weak_tol": weak_tol})

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

    return hull_report(f"domain_convexity/{kind}", image, raster_res,
                       hull_cells_tol)


def hull_report(name: str, image: np.ndarray, raster_res: int,
                hull_cells_tol: float, **details) -> ConditionReport:
    """Hull-ratio convexity verdict on a point image: it passes within
    hull_cells_tol raster cells of the hull volume."""
    ratio, info = hull_ratio(image, raster_res)
    tol = hull_cells_tol * info["pixel_vol"] / info["hull_vol"] \
        if info.get("hull_vol", 0) > 0 else 0.0
    status = "pass" if ratio >= 1.0 - tol else "fail"
    return ConditionReport(
        name=name, status=status, extremal_value=ratio,
        witness={"hull_ratio": ratio, **info} if status == "fail" else None,
        samples_used=len(image), details={**details, "hull_tol": tol, **info})
