"""Condition certification: injectivity, nondegeneracy, tensors, bounds."""

import math

import numpy as np
import pytest

from gjet import conditions as C, genfun
from gjet.conditions import (
    Annulus,
    Ball,
    BoxRegion,
    SampleSpec,
    check_G2,
    check_G3_family,
    check_G4w,
    check_G5,
    check_injectivity,
    domain_convexity,
    dp_A_chainrule,
    dp_A_chainrule_rows,
    hull_ratio,
    mtw_tensor,
)
from gjet.errors import DomainViolation, GjetError, UnsupportedGeometry
from gjet.genfun import (
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    matrix_A,
)

from conftest import ConstantInY, instance_boxes, sample_admissible


def spec_for(gf, count=30, seed=42):
    (x_lo, x_hi), (y_lo, y_hi) = instance_boxes(gf)
    return SampleSpec(count=count, seed=seed,
                      x_lo=tuple(x_lo), x_hi=tuple(x_hi),
                      y_lo=tuple(y_lo), y_hi=tuple(y_hi))


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------

def test_reports_are_deterministic(pb2):
    spec = spec_for(pb2, count=20)
    r1 = check_G2(pb2, spec).to_jsonable()
    r2 = check_G2(pb2, spec).to_jsonable()
    assert r1 == r2
    r1 = check_injectivity(pb2, "primal", spec).to_jsonable()
    r2 = check_injectivity(pb2, "primal", spec).to_jsonable()
    assert r1 == r2


# --------------------------------------------------------------------------
# injectivity
# --------------------------------------------------------------------------

def test_injectivity_passes_for_builtin(pb2, qot2):
    for gf in (pb2, qot2):
        for direction in ("primal", "dual"):
            rep = check_injectivity(gf, direction, spec_for(gf))
            assert rep.status == "pass", (gf.name, direction, rep)


def test_injectivity_degenerate_fails_with_witness():
    gf = ConstantInY(2)
    rep = check_injectivity(gf, "primal", spec_for(QuadraticOT(2)))
    assert rep.status == "fail"
    assert rep.witness is not None


def test_injectivity_inconclusive_when_sparse(pb2):
    spec = spec_for(pb2, count=1)
    rep = check_injectivity(pb2, "primal", spec)
    # one base point still yields ~60 pairs; force sparsity via dual slice
    assert rep.samples_used >= 0  # structural smoke; status checked below
    tiny = SampleSpec(count=1, seed=1, x_lo=(0.0,) * 2, x_hi=(1e-9,) * 2,
                      y_lo=(0.0,) * 2, y_hi=(1e-9,) * 2, z_fracs=(0.5,))
    rep = check_injectivity(pb2, "primal", tiny)
    assert rep.status in ("pass", "inconclusive")


# --------------------------------------------------------------------------
# G2
# --------------------------------------------------------------------------

def test_G2_parallel_beam_positive(pb2):
    rep = check_G2(pb2, spec_for(pb2))
    assert rep.status == "pass"
    assert rep.details["min_det_signed"] > 0


def test_G2_quadratic_unit_determinant(qot2):
    rep = check_G2(qot2, spec_for(qot2))
    assert rep.status == "pass"
    assert rep.extremal_value == pytest.approx(1.0)


def test_G2_near_boundary_inconclusive(pb2):
    (x_lo, x_hi), (y_lo, y_hi) = instance_boxes(pb2)
    spec = SampleSpec(count=20, seed=3, x_lo=tuple(x_lo), x_hi=tuple(x_hi),
                      y_lo=tuple(y_lo), y_hi=tuple(y_hi),
                      z_fracs=(1.0 - 1e-9,))
    rep = check_G2(pb2, spec)
    assert rep.status == "inconclusive"


# --------------------------------------------------------------------------
# regularity tensor
# --------------------------------------------------------------------------

def test_tensor_quadratic_vanishes(qot2):
    val = mtw_tensor(qot2, "primal", [0.3, -0.2], [0.1, 0.4], 0.7,
                     [1, 0], [0, 1])
    assert abs(val) <= 1e-7


def test_tensor_parallel_beam_reference_value(pb2):
    # at u = 1/2, p = 0 the contraction equals 1/u = 2 for unit vectors
    val = mtw_tensor(pb2, "primal", [0.3, -0.2], [0.3, -0.2], 1.0,
                     [1, 0], [0, 1])
    assert val == pytest.approx(2.0, abs=1e-3)


def test_tensor_point_source_flat_vanishes(ps0):
    val = mtw_tensor(ps0, "primal", [0.2, 0.1], [0.3, -0.4], 1.2,
                     [1, 0], [0, 1])
    assert abs(val) <= 1e-7


def test_tensor_even_in_each_vector(pb2):
    args = ([0.2, 0.3], [0.5, 0.1], 0.9)
    xi, eta = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
    base = mtw_tensor(pb2, "primal", *args, xi, eta)
    assert mtw_tensor(pb2, "primal", *args, -xi, eta) == pytest.approx(base)
    assert mtw_tensor(pb2, "primal", *args, xi, -eta) == pytest.approx(base)


def test_tensor_requires_orthogonality(pb2):
    with pytest.raises(ValueError):
        mtw_tensor(pb2, "primal", [0.2, 0.3], [0.5, 0.1], 0.9,
                   [1, 0], [1, 1e-3])


def test_tensor_stencil_domain_violation(pb2):
    # |p| close to 1: the p-stencil exits the admissible slope ball
    x = np.array([0.0, 0.0])
    y = np.array([0.999, 0.0])
    z = 1.0 / 0.9995  # z r close to 1 from inside
    with pytest.raises(GjetError):
        mtw_tensor(pb2, "primal", x, y, z, [0, 1], [1, 0], step=1e-2)


@pytest.mark.parametrize("side", ["primal", "dual"])
@pytest.mark.parametrize("gf", [QuadraticOT(3), ParallelBeam(2), ParallelBeam(3),
                                PointSourcePlane(2, tau=-1.0),
                                PointSourcePlane(3, tau=-1.0)],
                         ids=lambda g: f"{g.name}{g.dimension}")
def test_mtw_tensor_is_one_row_of_mtw_tensor_rows(gf, side):
    xs, ys, zs, _f = C.sample_triples(gf, spec_for(gf, count=4, seed=9))
    rng = np.random.default_rng(9)
    xi, eta = (np.array(v) for v in zip(*(C.orthonormal_pair(rng, gf.dimension)
                                          for _ in zs)))
    a, b = (xs, ys) if side == "primal" else (ys, xs)
    # a wide stencil leaves the beam's admissible slopes on some rows
    vals, ok = C.mtw_tensor_rows(gf, side, a, b, zs, xi, eta, step=0.05)
    for k in range(len(zs)):
        if ok[k]:
            assert mtw_tensor(gf, side, a[k], b[k], zs[k], xi[k], eta[k],
                              step=0.05) == vals[k], k
        else:
            with pytest.raises(GjetError):
                mtw_tensor(gf, side, a[k], b[k], zs[k], xi[k], eta[k], step=0.05)
    assert ok.sum() >= 5


def test_G3_family_verdicts(pb2, qot2, ps_neg):
    rep = check_G3_family(pb2, spec_for(pb2), strict=True)
    assert rep.status == "pass"
    assert rep.details["min_dual"] > 0
    rep = check_G3_family(qot2, spec_for(qot2), strict=False)
    assert rep.status == "pass"
    assert abs(rep.details["min_primal"]) <= 1e-7
    rep = check_G3_family(qot2, spec_for(qot2), strict=True)
    assert rep.status == "fail"   # identically zero tensor is not strict
    rep = check_G3_family(ps_neg, spec_for(ps_neg), strict=True)
    assert rep.status == "pass"


def test_G3_family_sign_agreement(pb2):
    rep = check_G3_family(pb2, spec_for(pb2, count=40), strict=False)
    assert rep.details["sign_mismatches"] == 0


def test_G3_sign_mismatch_witness_is_the_last_mismatch(pb2, monkeypatch):
    # the dual tensor with the signs of every third row flipped disagrees
    # with the primal one there; the witness is the last such row drawn
    spec = spec_for(pb2, count=20)
    xs, ys, zs, _f = C.sample_triples(pb2, spec)
    xi, eta = C.orthonormal_pairs(np.random.default_rng(spec.seed + 1), 2,
                                  len(zs))
    real = C.mtw_tensor_rows
    tp, ok = real(pb2, "primal", xs, ys, zs, xi, eta)
    td, ok_dual = real(pb2, "dual", ys, xs, zs, xi, eta)
    assert ok.all() and ok_dual.all() and np.all(tp * td > 0)
    flip = np.arange(len(zs)) % 3 == 1

    def flipped(gf, side, *args, **kwargs):
        vals, good = real(gf, side, *args, **kwargs)
        return (np.where(flip, -vals, vals) if side == "dual" else vals), good

    monkeypatch.setattr(C, "mtw_tensor_rows", flipped)
    rep = check_G3_family(pb2, spec, strict=False)
    j = np.flatnonzero(flip)[-1]
    assert j != len(zs) - 1
    assert rep.status == "fail"
    assert rep.details["sign_mismatches"] == flip.sum()
    w = rep.witness
    assert w["kind"] == "sign_mismatch"
    assert (w["primal"], w["dual"]) == (tp[j], -td[j])
    for key, rows in (("x", xs), ("y", ys), ("z", zs), ("xi", xi), ("eta", eta)):
        assert np.array_equal(w[key], rows[j]), key


# --------------------------------------------------------------------------
# slope chain rule
# --------------------------------------------------------------------------

def test_dp_A_quadratic_zero(qot2):
    dpa = dp_A_chainrule(qot2, [0.3, -0.2], [0.1, 0.4], 0.7)
    assert np.allclose(dpa, 0.0, atol=1e-9)


def test_dp_A_parallel_beam_values(pb2):
    # u = 1/2, p = 0: derivative vanishes
    dpa = dp_A_chainrule(pb2, [0.1, 0.7], [0.1, 0.7], 1.0)
    assert np.allclose(dpa, 0.0, atol=1e-9)
    # u = 1/2, p = (0.2, 0): D_{p_1} A_11 = p_1 / u = 0.4
    x = np.array([0.0, 0.0])
    z = (1.0 - 0.04) / (2 * 0.5)
    y = x + np.array([0.2 / z, 0.0])
    dpa = dp_A_chainrule(pb2, x, y, z)
    assert dpa[0, 0, 0] == pytest.approx(0.4, abs=1e-6)
    assert dpa[1, 1, 0] == pytest.approx(0.4, abs=1e-6)
    assert dpa[0, 0, 1] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("gf", [
    QuadraticOT(2), ParallelBeam(3), PointSourcePlane(2, -1.0),
    PointSourcePlane(3, -0.5)], ids=["qot2", "pb3", "ps2", "ps3"])
def test_dp_A_chainrule_is_one_row_of_dp_A_chainrule_rows(gf):
    rng = np.random.default_rng(29)
    x_box, y_box = instance_boxes(gf)
    xs, ys, zs = (np.array(v) for v in zip(
        *[sample_admissible(gf, rng, x_box, y_box) for _ in range(6)]))
    if gf.name != "quadratic_ot":
        zs[2] = -1.0            # below I(x, y) = (0, ...): off the slice
    out, ok = dp_A_chainrule_rows(gf, xs, ys, zs)
    assert ok.sum() == (6 if gf.name == "quadratic_ot" else 5)
    for k in range(len(xs)):
        if ok[k]:
            assert np.array_equal(dp_A_chainrule(gf, xs[k], ys[k], zs[k]),
                                  out[k]), k
        else:
            assert np.isnan(out[k]).all()
            with pytest.raises(DomainViolation):
                dp_A_chainrule(gf, xs[k], ys[k], zs[k])


@pytest.mark.parametrize("maker", [
    lambda: QuadraticOT(2), lambda: ParallelBeam(2),
    lambda: PointSourcePlane(2, 0.0), lambda: PointSourcePlane(2, -1.0)],
    ids=["qot", "pb", "ps0", "ps-1"])
def test_dp_A_matches_slope_differences(maker):
    from conftest import sample_admissible

    gf = maker()
    rng = np.random.default_rng(31)
    x_box, y_box = instance_boxes(gf)
    for _ in range(5):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        dpa = dp_A_chainrule(gf, x, y, z)
        b = gf.bundle(x, y, z)
        h = 1e-5 * max(1.0, float(np.max(np.abs(b.grad_x))))
        fd = np.zeros_like(dpa)
        for k in range(gf.dimension):
            ek = np.zeros(gf.dimension)
            ek[k] = h
            fd[:, :, k] = (matrix_A(gf, x, b.value, b.grad_x + ek)
                           - matrix_A(gf, x, b.value, b.grad_x - ek)) / (2 * h)
        assert np.max(np.abs(dpa - fd)) <= 1e-4, gf.name


# --------------------------------------------------------------------------
# G4w
# --------------------------------------------------------------------------

def test_G4w_verdicts(pb2, qot2, ps0):
    rep = check_G4w(pb2, spec_for(pb2))
    assert rep.status == "pass"
    assert rep.details["strictly_positive"]
    rep = check_G4w(qot2, spec_for(qot2))
    assert rep.status == "pass"
    assert abs(rep.extremal_value) <= 1e-8
    rep = check_G4w(ps0, spec_for(ps0))
    assert rep.status == "pass"
    assert abs(rep.extremal_value) <= 1e-8


# --------------------------------------------------------------------------
# G5
# --------------------------------------------------------------------------

def test_G5_parallel_beam(pb2):
    omega = (np.zeros(2), np.ones(2))
    star = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.9]])
    rep = check_G5(pb2, omega, star, spec_for(pb2, count=60))
    assert rep.status == "pass"
    assert rep.extremal_value <= 1.0


def test_G5_quadratic_with_diameter_bound(qot2):
    omega = (np.zeros(2), np.ones(2))
    star = np.array([[0.0, 0.0], [1.0, 1.0]])
    k0 = math.sqrt(2.0)  # max |x - y| over box corners and hull points
    rep = check_G5(qot2, omega, star, spec_for(qot2, count=40),
                   m0=-math.inf, k0=k0)
    assert rep.status == "pass"


def test_G5_misdeclared_bound_fails(pb2):
    omega = (np.zeros(2), np.ones(2))
    star = np.array([[0.2, 0.2], [0.8, 0.8]])
    rep = check_G5(pb2, omega, star, spec_for(pb2, count=60), k0=0.5)
    assert rep.status == "fail"
    assert rep.witness is not None


# --------------------------------------------------------------------------
# domain convexity
# --------------------------------------------------------------------------

def test_boundary_form_quadratic_unit_ball(qot2):
    # the slope term vanishes, the form reduces to the curvature 1/R = 1
    rep = domain_convexity(qot2, "source_boundary",
                           Ball((0.0, 0.0), 1.0), ([0.2, 0.1], 0.5))
    assert rep.status == "pass"
    assert rep.extremal_value == pytest.approx(1.0, abs=1e-6)


def test_boundary_form_is_the_tangent_plane_minimum():
    # 3-D: the form's least value over the whole tangent plane, checked
    # against tangent directions sampled on a fine circle at every point
    gf = PointSourcePlane(3, tau=-0.5)
    ball = Ball((0.1, 0.0, 0.2), 0.4)
    anchor = ([1.0, -0.5, 0.7], 0.5)
    rep = domain_convexity(gf, "source_boundary", ball, anchor)
    th = np.linspace(0.0, np.pi, 721)
    sampled = math.inf
    for x in ball.boundary_samples(C.BOUNDARY_SAMPLES):
        g = (x - ball.center) / ball.radius
        form = (np.eye(3) - np.outer(g, g)) / ball.radius \
            - np.einsum("ijk,k->ij", dp_A_chainrule(gf, x, *anchor), g)
        t1 = np.cross(g, np.eye(3)[np.argmin(np.abs(g))])
        t1 /= np.linalg.norm(t1)
        taus = np.outer(np.cos(th), t1) + np.outer(np.sin(th), np.cross(g, t1))
        sampled = min(sampled, np.einsum("ki,ij,kj->k", taus, form, taus).min())
    assert rep.status == "pass" and rep.samples_used == C.BOUNDARY_SAMPLES
    assert sampled - 1e-4 <= rep.extremal_value <= sampled + 1e-12


def test_boundary_form_in_one_dimension_is_inconclusive():
    # the boundary of a 1-d ball is two points with no tangent direction
    rep = domain_convexity(QuadraticOT(1), "source_boundary",
                           Ball((0.0,), 1.0), ([0.2], 0.5))
    assert rep.status == "inconclusive"
    assert rep.samples_used == 2 and rep.extremal_value == math.inf
    assert rep.witness is None


def test_boundary_form_requires_ball(qot2):
    with pytest.raises(UnsupportedGeometry):
        domain_convexity(qot2, "source_boundary",
                         BoxRegion((0, 0), (1, 1)), ([0.2, 0.1], 0.5))


def test_source_image_ball_convex(pb2):
    y0 = np.array([0.3, 0.3])
    rep = domain_convexity(pb2, "source_image", Ball((0.3, 0.3), 0.2),
                           (y0, 0.8))
    assert rep.status == "pass"


def test_source_image_annulus_fails(qot2):
    rep = domain_convexity(qot2, "source_image",
                           Annulus((0.0, 0.0), 0.45, 1.0), ([0.0, 0.0], 0.5))
    assert rep.status == "fail"


def test_target_image_box_convex(pb2):
    rep = domain_convexity(pb2, "target_image", BoxRegion((0.1, 0.1),
                                                          (0.9, 0.9)),
                           ([0.5, 0.5], 0.8))
    assert rep.status == "pass"


def test_hull_ratio_detects_hole():
    box = BoxRegion((-1, -1), (1, 1)).raster(64)
    ratio, _ = hull_ratio(box)
    assert ratio >= 1.0 - 1e-6
    ann = Annulus((0, 0), 0.5, 1.0).raster(64)
    ratio, _ = hull_ratio(ann)
    assert ratio < 0.95


# --------------------------------------------------------------------------
# the row checks against the per-sample loops they replaced
# --------------------------------------------------------------------------

def reference_sample_triples(gf, spec):
    """Admissible (x, y, z, frac) triples drawn one pair at a time."""
    rng = np.random.default_rng(spec.seed)
    out = []
    tries = 0
    while len(out) < spec.count * len(spec.z_fracs) and tries < 60 * spec.count:
        tries += 1
        x = C._uniform(rng, spec.x_lo, spec.x_hi)
        y = C._uniform(rng, spec.y_lo, spec.y_hi)
        if not gf.admissible_pair(x, y):
            continue
        lo, hi = gf.z_interval(x, y)
        for f in spec.z_fracs:
            out.append((x, y, C._map_fraction(lo, hi, f), f))
    return out


def reference_find_collision(inputs, outputs):
    if len(inputs) < 2:
        return None
    ins = np.asarray(inputs)
    outs = np.asarray(outputs)
    d_out = np.linalg.norm(outs[:, None, :] - outs[None, :, :], axis=-1)
    d_in = np.linalg.norm(ins[:, None, :] - ins[None, :, :], axis=-1)
    bad = (d_out < C.COLLISION_TOL) & (d_in > C.INPUT_TOL)
    idx = np.argwhere(np.triu(bad, k=1))
    return (int(idx[0, 0]), int(idx[0, 1])) if len(idx) else None


def reference_injectivity(gf, direction, spec):
    rng = np.random.default_rng(spec.seed)
    n = gf.dimension
    draws = 12
    min_jac = math.inf
    witness = None
    used = 0
    status = "pass"
    for _ in range(max(3, spec.count // 10)):
        if direction == "primal":
            for _ in range(40):
                x = C._uniform(rng, spec.x_lo, spec.x_hi)
                ys = [C._uniform(rng, spec.y_lo, spec.y_hi) for _ in range(draws)]
                ys = [y for y in ys if gf.admissible_pair(x, y)]
                if ys:
                    break
            else:
                continue
            inputs, outputs = [], []
            for y in ys:
                lo, hi = gf.z_interval(x, y)
                for f in spec.z_fracs:
                    z = C._map_fraction(lo, hi, f)
                    b = gf.bundle(x, y, z)
                    jac = abs(b.dz * float(np.linalg.det(genfun._e_matrix(b))))
                    if jac < min_jac:
                        min_jac = jac
                        if jac < C.DET_TOL:
                            status = "fail"
                            witness = {"x": x, "y": y, "z": z, "jacobian": jac,
                                       "kind": "degenerate_jacobian"}
                    inputs.append(np.concatenate([y, [z]]))
                    outputs.append(np.concatenate([b.grad_x, [b.value]]))
            anchor = {"x": x}
        else:
            for _ in range(40):
                y = C._uniform(rng, spec.y_lo, spec.y_hi)
                x_ref = C._uniform(rng, spec.x_lo, spec.x_hi)
                if gf.admissible_pair(x_ref, y):
                    break
            else:
                continue
            lo, hi = gf.z_interval(x_ref, y)
            z = C._map_fraction(lo, hi, spec.z_fracs[len(spec.z_fracs) // 2])
            inputs, outputs = [], []
            for _ in range(draws * len(spec.z_fracs)):
                x = C._uniform(rng, spec.x_lo, spec.x_hi)
                if not gf.admissible_pair(x, y):
                    continue
                lo_x, hi_x = gf.z_interval(x, y)
                if not (lo_x < z < hi_x):
                    continue
                b = gf.bundle(x, y, z)
                jac = abs(float(np.linalg.det(genfun._e_matrix(b))) / b.dz ** n)
                if jac < min_jac:
                    min_jac = jac
                    if jac < C.DET_TOL:
                        status = "fail"
                        witness = {"x": x, "y": y, "z": z, "jacobian": jac,
                                   "kind": "degenerate_jacobian"}
                inputs.append(x)
                outputs.append(genfun._q_of(b))
            anchor = {"y": y, "z": z}
        used += len(inputs)
        col = reference_find_collision(inputs, outputs)
        if col is not None:
            ia, ib = col
            status = "fail"
            witness = {**anchor, "input_a": inputs[ia], "input_b": inputs[ib],
                       "output_a": outputs[ia], "output_b": outputs[ib],
                       "kind": "collision"}
    if used < 10:
        status = "inconclusive"
    return C.ConditionReport(
        f"G1{'*' if direction == 'dual' else ''}", status, min_jac, witness, used,
        {"direction": direction, "delta": C.DET_TOL,
         "collision_tol": C.COLLISION_TOL, "input_tol": C.INPUT_TOL})


def reference_G2(gf, spec):
    triples = reference_sample_triples(gf, spec)
    min_abs = min_signed = math.inf
    arg = None
    for x, y, z, f in triples:
        det = float(np.linalg.det(genfun._e_matrix(gf.bundle(x, y, z))))
        if abs(det) < min_abs:
            min_abs = abs(det)
            arg = (x, y, z, f)
        min_signed = min(min_signed, det)
    if not triples:
        return C.ConditionReport("G2", "inconclusive", math.nan, None, 0,
                                 {"delta": C.DET_TOL})
    status, witness = "pass", None
    if min_abs < C.DET_TOL:
        edge = arg[3] <= C.BOUNDARY_FRAC or arg[3] >= 1.0 - C.BOUNDARY_FRAC
        status = "inconclusive" if edge else "fail"
        if status == "fail":
            witness = {"x": arg[0], "y": arg[1], "z": arg[2], "det_e": min_abs}
    return C.ConditionReport("G2", status, min_abs, witness, len(triples),
                             {"delta": C.DET_TOL, "min_det_signed": min_signed,
                              "extremal_z_frac": arg[3]})


def reference_G3(gf, spec, strict, step=C.TENSOR_STEP):
    triples = reference_sample_triples(gf, spec)
    rng = np.random.default_rng(spec.seed + 1)
    min_primal = min_dual = math.inf
    mismatches = evaluated = skipped = 0
    witness = arg_primal = None
    for x, y, z, _f in triples:
        xi, eta = C.orthonormal_pair(rng, gf.dimension)
        if gf.dimension == 1:
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
        scale = max(1.0, float(np.max(np.abs(gf.bundle(x, y, z).hess_xx))))
        floor = C._tensor_noise_floor(scale, step)
        if abs(tp) > 10 * floor and abs(td) > 10 * floor and tp * td < 0:
            mismatches += 1
            witness = {"x": x, "y": y, "z": z, "xi": xi, "eta": eta,
                       "primal": tp, "dual": td, "kind": "sign_mismatch"}
    strict_ok = min_primal > C.G3_MIN and min_dual > C.G3_MIN
    weak_ok = min_primal >= -C.WEAK_TOL and min_dual >= -C.WEAK_TOL
    if evaluated < 10:
        status = "inconclusive"
    elif mismatches > 0:
        status = "fail"
    else:
        status = "pass" if (strict_ok if strict else weak_ok) else "fail"
    if status == "fail" and witness is None and arg_primal is not None:
        x, y, z, xi, eta = arg_primal
        witness = {"x": x, "y": y, "z": z, "xi": xi, "eta": eta,
                   "primal": min_primal, "dual": min_dual,
                   "kind": "insufficient_positivity"}
    full = mismatches == 0 and evaluated >= 10
    return C.ConditionReport(
        "G3" if strict else "G3w", status, min(min_primal, min_dual), witness,
        evaluated,
        {"min_primal": min_primal, "min_dual": min_dual,
         "sign_mismatches": mismatches, "skipped": skipped, "strict": strict,
         "g3_min": C.G3_MIN, "weak_tol": C.WEAK_TOL,
         "strict_pass": bool(strict_ok and full), "weak_pass": bool(weak_ok and full)})


def reference_G4w(gf, spec):
    min_eig = math.inf
    witness = None
    evaluated = skipped = 0
    for x, y, z, _f in reference_sample_triples(gf, spec):
        b = gf.bundle(x, y, z)
        u, p = b.value, b.grad_x
        h = 1e-5 * max(1.0, abs(u))
        try:
            ap = matrix_A(gf, x, u + h, p)
            am = matrix_A(gf, x, u - h, p)
        except GjetError:
            skipped += 1
            continue
        evaluated += 1
        dua = (ap - am) / (2.0 * h)
        lam = float(np.linalg.eigvalsh(0.5 * (dua + dua.T))[0])
        if lam < min_eig:
            min_eig = lam
            if lam < -C.WEAK_TOL:
                witness = {"x": x, "y": y, "z": z, "min_eig": lam}
    status = "inconclusive" if evaluated < 10 else \
        ("pass" if min_eig >= -C.WEAK_TOL else "fail")
    return C.ConditionReport(
        "G4w", status, min_eig, witness if status == "fail" else None, evaluated,
        {"weak_tol": C.WEAK_TOL, "skipped": skipped,
         "strictly_positive": bool(min_eig > C.WEAK_TOL)})


def reference_G5(gf, omega, omega_star, spec, m0, k0):
    rng = np.random.default_rng(spec.seed)
    pts = np.asarray(omega_star, dtype=float).reshape(-1, gf.dimension)
    max_grad = 0.0
    witness = None
    used = 0
    for _ in range(spec.count):
        x = C._uniform(rng, omega[0], omega[1])
        y = rng.dirichlet(np.ones(len(pts))) @ pts
        if not gf.admissible_pair(x, y):
            continue
        lo, hi = gf.z_interval(x, y)
        for f in spec.z_fracs:
            z = C._map_fraction(lo, hi, f)
            b = gf.bundle(x, y, z)
            if not b.value > m0:
                continue
            used += 1
            gn = float(np.linalg.norm(b.grad_x))
            if gn > max_grad:
                max_grad = gn
                if gn > k0 * (1.0 + C.G5_TOL):
                    witness = {"x": x, "y": y, "z": z, "grad_norm": gn,
                               "value": b.value}
    status = "inconclusive" if used < 10 else \
        ("pass" if max_grad <= k0 * (1.0 + C.G5_TOL) else "fail")
    return C.ConditionReport(
        "G5", status, max_grad, witness if status == "fail" else None, used,
        {"m0": m0, "k0": k0, "g5_tol": C.G5_TOL})


ORACLE_INSTANCES = [cls(n) for n in (1, 2, 3) for cls in (QuadraticOT, ParallelBeam)] \
    + [PointSourcePlane(n, tau=-1.0) for n in (1, 2, 3)] \
    + [PointSourcePlane(2, tau=0.0)]


def oracle_cases():
    """(label, row check, reference loop) over every instance and n = 1..3,
    the degenerate ConstantInY and a sparse spec."""
    cases = []
    for gf in ORACLE_INSTANCES:
        spec = spec_for(gf, count=10, seed=7)
        n = gf.dimension
        lo, hi = instance_boxes(gf)[0]
        star = np.random.default_rng(n).uniform(-0.5, 0.5, (3, n))
        m0, k0 = (0.0, 0.7) if gf.g5_constants else (-math.inf, 1.1)
        label = f"{gf.name}{n}"
        cases += [
            (label + "-G1", lambda gf=gf, s=spec: check_injectivity(gf, "primal", s),
             lambda gf=gf, s=spec: reference_injectivity(gf, "primal", s)),
            (label + "-G1*", lambda gf=gf, s=spec: check_injectivity(gf, "dual", s),
             lambda gf=gf, s=spec: reference_injectivity(gf, "dual", s)),
            (label + "-G2", lambda gf=gf, s=spec: check_G2(gf, s),
             lambda gf=gf, s=spec: reference_G2(gf, s)),
            (label + "-G3", lambda gf=gf, s=spec: check_G3_family(gf, s, True),
             lambda gf=gf, s=spec: reference_G3(gf, s, True)),
            (label + "-G4w", lambda gf=gf, s=spec: check_G4w(gf, s),
             lambda gf=gf, s=spec: reference_G4w(gf, s)),
            (label + "-G5", lambda gf=gf, s=spec, a=(lo, hi, star, m0, k0):
             check_G5(gf, (a[0], a[1]), a[2], s, m0=a[3], k0=a[4]),
             lambda gf=gf, s=spec, a=(lo, hi, star, m0, k0):
             reference_G5(gf, (a[0], a[1]), a[2], s, a[3], a[4])),
        ]
    flat = ConstantInY(2)
    spec = spec_for(QuadraticOT(2), count=10, seed=5)
    cases += [
        ("constant-G1", lambda: check_injectivity(flat, "primal", spec),
         lambda: reference_injectivity(flat, "primal", spec)),
        ("constant-G1*", lambda: check_injectivity(flat, "dual", spec),
         lambda: reference_injectivity(flat, "dual", spec)),
        ("constant-G2", lambda: check_G2(flat, spec), lambda: reference_G2(flat, spec)),
        ("constant-G3w", lambda: check_G3_family(flat, spec, False),
         lambda: reference_G3(flat, spec, False)),
    ]
    pb = ParallelBeam(2)
    for gf, step in ((pb, 0.05), (PointSourcePlane(2, tau=-1.0), 0.2)):
        # wide stencils leave the admissible set on some rows: skipped
        spec = spec_for(gf, count=10, seed=7)
        cases.append((f"{gf.name}-G3w-skips",
                      lambda gf=gf, s=spec, h=step: check_G3_family(gf, s, False, step=h),
                      lambda gf=gf, s=spec, h=step: reference_G3(gf, s, False, h)))
    sparse = SampleSpec(count=1, seed=1, x_lo=(0.0,) * 2, x_hi=(1e-9,) * 2,
                        y_lo=(0.0,) * 2, y_hi=(1e-9,) * 2, z_fracs=(0.5,))
    cases += [
        ("sparse-G1", lambda: check_injectivity(pb, "primal", sparse),
         lambda: reference_injectivity(pb, "primal", sparse)),
        ("sparse-G2", lambda: check_G2(pb, sparse), lambda: reference_G2(pb, sparse)),
        ("sparse-G3", lambda: check_G3_family(pb, sparse, True),
         lambda: reference_G3(pb, sparse, True)),
        ("sparse-G4w", lambda: check_G4w(pb, sparse), lambda: reference_G4w(pb, sparse)),
    ]
    return cases


def test_row_checks_repeat_the_per_sample_loops():
    # every sampled check evaluates all its rows at once; the report must
    # be the per-sample loop's, byte for byte, witnesses included
    statuses = set()
    for label, rows, loop in oracle_cases():
        got, want = rows().to_jsonable(), loop().to_jsonable()
        assert got == want, label
        statuses.add((label.split("-")[0], got["status"]))
    assert ("constant", "fail") in statuses
    assert ("sparse", "inconclusive") in statuses


def reference_orthonormal_pair(rng, n, reprojected=None):
    """One (xi, eta) draw in turn: the per-pair loop orthonormal_pairs
    replaced.  A pair that takes the ORTHO_TOL re-projection appends to
    reprojected."""
    xi = rng.standard_normal(n)
    xi /= np.linalg.norm(xi)
    if n == 1:
        return xi, np.zeros(1)
    for _ in range(64):
        eta = rng.standard_normal(n)
        eta -= (eta @ xi) * xi
        nrm = np.linalg.norm(eta)
        if nrm >= 1e-6:
            eta = eta / nrm
            unit_xi = xi / np.linalg.norm(xi)
            if abs(float(unit_xi @ (eta / np.linalg.norm(eta)))) > C.ORTHO_TOL:
                if reprojected is not None:
                    reprojected.append(len(reprojected))
                eta -= (eta @ xi) * xi
                eta /= np.linalg.norm(eta)
            return xi, eta
    raise GjetError("failed to draw an orthogonal pair")


def assert_same_pairs(got, pairs, n):
    for i in (0, 1):
        assert got[i].shape == (len(pairs), n)
        assert got[i].tobytes() == np.reshape([p[i] for p in pairs], (-1, n)).tobytes()


# the check seed that made the old check_defect workload fail; its G3
# draws (seed + 1) take the ORTHO_TOL re-projection at n = 2
DEFECT_G3_SEED = 641987627 + 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7, DEFECT_G3_SEED])
def test_orthonormal_pairs_repeat_the_per_pair_draws(seed, n):
    count = 1000
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    reprojected = []
    loop = [reference_orthonormal_pair(rngs[0], n, reprojected) for _ in range(count)]
    rows = [C.orthonormal_pair(rngs[1], n) for _ in range(count)]
    got = C.orthonormal_pairs(rngs[2], n, count)
    assert_same_pairs(got, loop, n)
    assert_same_pairs(got, rows, n)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state \
        == rngs[2].bit_generator.state
    if seed == DEFECT_G3_SEED and n == 2:
        assert reprojected


class FixedNormals:
    """A generator stub whose standard_normal hands out a fixed sequence
    in order; used counts the values handed out."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def standard_normal(self, size):
        k = int(np.prod(size))
        out = self.values[self.used:self.used + k].copy()
        assert len(out) == k, "sequence exhausted"
        self.used += k
        return out.reshape(size)


@pytest.mark.parametrize("n", [2, 3])
def test_orthonormal_pairs_redraw_a_short_eta_in_draw_order(n):
    # an eta drawn parallel to xi leaves |eta_perp| < 1e-6: that pair
    # draws eta again, and every later pair's draws move on
    rows = np.random.default_rng(3).standard_normal((30, n))
    rows[1], rows[2] = 2.0 * rows[0], -0.5 * rows[0]   # pair 0: twice
    rows[5] = 3.0 * rows[4]                            # pair 1
    rows[26] = 1.5 * rows[25]                          # pair 11, the last
    count = 12
    loop_rng, rows_rng, batch_rng = (FixedNormals(rows.ravel()) for _ in range(3))
    loop = [reference_orthonormal_pair(loop_rng, n) for _ in range(count)]
    ones = [C.orthonormal_pair(rows_rng, n) for _ in range(count)]
    got = C.orthonormal_pairs(batch_rng, n, count)
    assert loop_rng.used == 28 * n    # 2 rows per pair and 4 redraws
    assert rows_rng.used == batch_rng.used == loop_rng.used
    assert_same_pairs(got, loop, n)
    assert_same_pairs(got, ones, n)
    # 64 short draws in a row give up, as the loop does
    for draw in (lambda r: reference_orthonormal_pair(r, 2),
                 lambda r: C.orthonormal_pairs(r, 2, 3)):
        with pytest.raises(GjetError, match="orthogonal pair"):
            draw(FixedNormals([1.0, 0.0] * 200))
