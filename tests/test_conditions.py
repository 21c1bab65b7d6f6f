"""Condition certification: injectivity, nondegeneracy, tensors, bounds."""

import math

import numpy as np
import pytest

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
    hull_ratio,
    mtw_tensor,
)
from gjet.errors import GjetError, UnsupportedGeometry
from gjet.genfun import (
    GeneratingFunction,
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    matrix_A,
)

from conftest import instance_boxes


def spec_for(gf, count=30, seed=42):
    (x_lo, x_hi), (y_lo, y_hi) = instance_boxes(gf)
    return SampleSpec(count=count, seed=seed,
                      x_lo=tuple(x_lo), x_hi=tuple(x_hi),
                      y_lo=tuple(y_lo), y_hi=tuple(y_hi))


class ConstantInY(GeneratingFunction):
    """Toy degenerate generator G = -z: every target collides."""

    name = "constant_in_y"

    def __init__(self, dimension=2):
        super().__init__(dimension)

    def z_interval_batch(self, xs, y):
        m = len(np.atleast_2d(xs))
        return np.full(m, -math.inf), np.full(m, math.inf)

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        zero_v = np.zeros((m, n))
        zero_m = np.zeros((m, n, n))
        return type(QuadraticOT(n)._raw_batch(xs, ys, zs))(
            value=-zs, grad_x=zero_v, grad_y=zero_v.copy(),
            dz=np.full(m, -1.0), hess_xx=zero_m, hess_xy=zero_m.copy(),
            hess_yy=zero_m.copy(), grad_xz=zero_v.copy(),
            grad_yz=zero_v.copy(), dzz=np.zeros(m))


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
                           Ball((0.0, 0.0), 1.0), ([0.2, 0.1], 0.5),
                           boundary_samples=64)
    assert rep.status == "pass"
    assert rep.extremal_value == pytest.approx(1.0, abs=1e-6)


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
