"""Finite-difference residuals and ellipticity diagnostics."""

import math

import numpy as np
import pytest

from gjet.gconvex import SourceGrid, values_matrix
from gjet.genfun import (
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    dual_H,
    forward_YZ,
)
from gjet.madiag import (
    GridFunction,
    dual_residual,
    ellipticity_check,
    ma_residual,
    make_separable_psi,
    manufactured_case,
    pje_residual,
    pointwise,
)


def box_grid(res, lo=-0.5, hi=0.5, n=2):
    return SourceGrid([lo] * n, [hi] * n, [res] * n)


# --------------------------------------------------------------------------
# Monge-Ampere residual
# --------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [
    lambda: QuadraticOT(2), lambda: ParallelBeam(2),
    lambda: PointSourcePlane(2, 0.0)], ids=["qot", "pb", "ps0"])
def test_g_affine_residual_vanishes(maker):
    # these generators are quadratic or linear in x, so the central
    # stencils reproduce the graph exactly and the residual is zero
    gf = maker()
    grid = box_grid(64)
    ufun, psi = manufactured_case("g_affine", gf, grid)
    res = ma_residual(gf, ufun, psi)
    assert res.masked_count == 0
    assert res.max_abs() <= 1e-8


def test_g_affine_residual_curved_target():
    # tau < 0 brings quartic x-dependence: the residual is the product
    # of two O(h^2) entries, so it shrinks at roughly fourth order
    gf = PointSourcePlane(2, -1.0)
    r64 = ma_residual(gf, *manufactured_case("g_affine", gf, box_grid(64)))
    r128 = ma_residual(gf, *manufactured_case("g_affine", gf, box_grid(128)))
    assert r64.max_abs() <= 1e-4
    rate = math.log(r64.max_abs() / r128.max_abs()) / math.log(2.0)
    assert rate >= 3.0


def test_identity_case_zero_residual():
    gf = QuadraticOT(2)
    grid = box_grid(64)
    ufun, psi = manufactured_case("quadratic_ot_identity", gf, grid)
    res = ma_residual(gf, ufun, psi)
    assert res.max_abs() <= 1e-6


def test_identity_case_requires_quadratic():
    with pytest.raises(ValueError):
        manufactured_case("quadratic_ot_identity", ParallelBeam(2),
                          box_grid(16))


def test_refinement_rate_on_smooth_case():
    gf = QuadraticOT(2)
    vals = {}
    for m in (64, 256):
        grid = box_grid(m)
        ufun, psi = manufactured_case("quadratic_ot_cosh", gf, grid)
        vals[m] = ma_residual(gf, ufun, psi).max_abs()
    rate = math.log(vals[64] / vals[256]) / math.log(4.0)
    assert rate >= 1.8


def test_parallel_beam_perturbation_coefficient():
    # u = G-affine + eps |x|^2: near the vertex the residual is (2 eps)^n
    gf = ParallelBeam(2)
    grid = box_grid(128)
    y0 = np.zeros(2)
    z0 = 0.4 / float(np.max(np.linalg.norm(grid.centers, axis=1)))
    r2 = np.einsum("ij,ij->i", grid.centers, grid.centers)
    k_center = int(np.argmin(r2))
    for eps in (1e-2, 1e-3):
        vals = gf.value_batch(grid.centers, y0, z0) + eps * r2
        res = ma_residual(gf, GridFunction(grid, vals.reshape(grid.res)),
                          lambda x, u, p: 0.0)
        coeff = res.values.ravel()[k_center] / eps ** 2
        assert coeff == pytest.approx(4.0, abs=0.05)


# --------------------------------------------------------------------------
# Jacobian-form residual
# --------------------------------------------------------------------------

def test_pje_g_affine_constant_map():
    gf = ParallelBeam(2)
    grid = box_grid(48)
    ufun, psi = manufactured_case("g_affine", gf, grid)
    res = pje_residual(gf, ufun, psi)
    # T is constant, det DT = 0, psi = 0
    assert res.max_abs() <= 1e-9


def test_pje_identity_case():
    gf = QuadraticOT(2)
    grid = box_grid(48)
    ufun, psi = manufactured_case("quadratic_ot_identity", gf, grid)
    res = pje_residual(gf, ufun, psi)
    assert res.max_abs() <= 1e-10


def test_pje_consistent_with_ma_over_det_e():
    gf = QuadraticOT(2)
    grid = box_grid(48)
    ufun, psi = manufactured_case("quadratic_ot_cosh", gf, grid)
    rma = ma_residual(gf, ufun, psi)
    rpj = pje_residual(gf, ufun, psi)
    both = rma.mask & rpj.mask
    det_e = 1.0  # E = -I for the quadratic instance, det = (-1)^2
    diff = np.abs(rpj.values - rma.values / det_e)
    h = float(np.max(grid.h))
    assert np.nanmax(diff[both]) <= 10.0 * h


def test_make_separable_psi_sign_convention(qot2):
    from gjet.genfun import QuadraticOT
    from gjet.madiag import make_separable_psi

    # n = 1: det E = -1, so psi carries the negative sign and B >= 0
    qot1 = QuadraticOT(1)
    psi = make_separable_psi(qot1, f=lambda x: 2.0, g=lambda y: 4.0)
    assert psi(np.array([0.3]), 0.1, np.array([0.2])) == pytest.approx(-0.5)
    # n = 2: det E = +1
    psi = make_separable_psi(qot2, f=lambda x: 2.0, g=lambda y: 4.0)
    assert psi(np.array([0.3, 0.0]), 0.1,
               np.array([0.2, 0.1])) == pytest.approx(0.5)


@pytest.mark.parametrize("maker", [
    lambda: QuadraticOT(2), lambda: ParallelBeam(2),
    lambda: PointSourcePlane(2, -1.0)], ids=["qot", "pb", "ps"])
def test_separable_psi_matches_pointwise_scalar_formula(maker):
    # the row psi against the per-node formula it replaced, adapted by
    # pointwise: forward_YZ per node, sign of det E from one bundle
    gf = maker()
    grid = box_grid(12, lo=-0.4, hi=0.4)
    rng = np.random.default_rng(37)
    xs = grid.centers
    y0 = np.array([0.1, -0.05])
    z0 = 0.4 if gf.name == "parallel_beam" else 0.8
    us = gf.value_batch(xs, y0, z0)
    ps = gf.grad_x_batch(xs, y0, z0) + rng.normal(0.0, 0.01, xs.shape)

    def f(x):
        return 1.0 + float(x @ x)

    def g(y):
        return 2.0 + math.sin(float(y[0]))

    def scalar_psi(x, u, p):
        y, z = forward_YZ(gf, x, u, p)
        b = gf.bundle(x, y, z)
        det = float(np.linalg.det(
            b.hess_xy - np.outer(b.grad_xz, b.grad_y) / b.dz))
        return f(x) / g(y) * math.copysign(1.0, det)

    rows = make_separable_psi(gf, f, g)(xs, us, ps)
    ref = pointwise(scalar_psi)(xs, us, ps)
    assert rows.shape == (grid.size,)
    assert np.array_equal(np.sign(rows), np.sign(ref))
    # forward targets: closed form per row against a Newton-polished one
    assert np.allclose(rows, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["quadratic_ot_identity", "quadratic_ot_cosh"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_manufactured_psi_matches_pointwise_scalar_formula(name, n):
    gf = QuadraticOT(n)
    grid = box_grid(6, n=n)
    ufun, psi = manufactured_case(name, gf, grid)
    sign = (-1.0) ** n
    scalar = {
        "quadratic_ot_identity": lambda x, u, p: sign,
        "quadratic_ot_cosh": lambda x, u, p: sign * float(
            np.prod(2.0 * np.cosh(np.asarray(x)) - 1.0)),
    }[name]
    us = ufun.values.ravel()
    ps = np.zeros_like(grid.centers)
    assert np.array_equal(psi(grid.centers, us, ps),
                          pointwise(scalar)(grid.centers, us, ps))


def test_ma_residual_calls_psi_once_on_the_evaluated_nodes():
    gf = QuadraticOT(2)
    grid = box_grid(16)
    ufun, psi = manufactured_case("quadratic_ot_cosh", gf, grid)
    calls = []

    def counted(xs, us, ps):
        calls.append(len(xs))
        return psi(xs, us, ps)

    res = ma_residual(gf, ufun, counted)
    assert calls == [int(res.mask.sum())]


# --------------------------------------------------------------------------
# ellipticity
# --------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [
    lambda: QuadraticOT(2), lambda: ParallelBeam(2),
    lambda: PointSourcePlane(2, 0.0)], ids=["qot", "pb", "ps0"])
def test_ellipticity_zero_on_g_affine(maker):
    gf = maker()
    grid = box_grid(48)
    ufun, _psi = manufactured_case("g_affine", gf, grid)
    field, admissible = ellipticity_check(gf, ufun)
    assert admissible
    assert np.nanmax(np.abs(field.values[field.mask])) <= 1e-10


def test_ellipticity_identity_eigenvalue_one():
    gf = QuadraticOT(2)
    grid = box_grid(48)
    ufun, _psi = manufactured_case("quadratic_ot_identity", gf, grid)
    field, admissible = ellipticity_check(gf, ufun)
    assert admissible
    assert np.allclose(field.values[field.mask], 1.0)


def test_ellipticity_concave_case_fails():
    gf = QuadraticOT(2)
    grid = box_grid(48)
    vals = -np.einsum("ij,ij->i", grid.centers, grid.centers)
    field, admissible = ellipticity_check(
        gf, GridFunction(grid, vals.reshape(grid.res)))
    assert not admissible
    assert np.nanmin(field.values[field.mask]) == pytest.approx(-3.0)


def test_ellipticity_solved_piecewise_degenerate(pb2):
    from gjet.gconvex import interface_mask
    from gjet.semidiscrete import SemiDiscreteProblem, solution_function, solve

    grid = SourceGrid([0, 0], [1, 1], [48, 48])
    prob = SemiDiscreteProblem(
        pb2, grid, [[0.3, 0.4], [0.7, 0.6]],
        [grid.total_mass / 2] * 2, ([0.5, 0.5], 0.75))
    state = solve(prob)
    sol = solution_function(prob, state.z)
    vals = values_matrix(sol, grid).max(axis=0)
    ufun = GridFunction(grid, vals.reshape(grid.res))
    # stencils across the kinks carry no information and are masked
    excl = interface_mask(grid, state.decomposition.assignment, widen=1)
    field, admissible = ellipticity_check(pb2, ufun, exclude=excl)
    assert admissible
    assert field.masked_count == 0
    # away from the kinks every node sits on one exact graph
    assert np.nanmax(np.abs(field.values[field.mask])) <= 1e-10
    # the unmasked run reports the kink nodes as evaluated: noisy there
    raw_field, _raw_adm = ellipticity_check(pb2, ufun)
    assert raw_field.mask.sum() > field.mask.sum()


# --------------------------------------------------------------------------
# dual-equation residual
# --------------------------------------------------------------------------

def test_dual_residual_on_dual_affine_graph(pb2):
    grid = box_grid(64)
    x0 = np.array([0.1, 0.0])
    u0 = 0.8
    vals = pb2.h_batch(x0[None, :], grid.centers, np.full(grid.size, u0))
    vfun = GridFunction(grid, vals.reshape(grid.res))
    res = dual_residual(pb2, vfun, g=lambda y: 0.0)
    assert res.masked_count == 0
    assert res.max_abs() <= 1e-6


def test_dual_residual_pinned_on_point_source_dual_graph():
    # v = H(x0, ., u0) of the point source (tau = -1, x0 = 0, u0 = 2.5) on
    # a 48^2 target grid solves the dual equation with g = 0; max_abs and
    # the masked count are pinned to the values of the per-node loop that
    # warm-started each node from its neighbour's X
    gf = PointSourcePlane(2, tau=-1.0)
    grid = box_grid(48, lo=-0.3, hi=0.3)
    vals = gf.h_batch(np.zeros((1, 2)), grid.centers, np.full(grid.size, 2.5))
    res = dual_residual(gf, GridFunction(grid, vals.reshape(grid.res)),
                        g=lambda y: 0.0)
    assert res.max_abs().hex() == "0x1.676df3eebcd52p-34"
    assert res.masked_count == 0


def test_dual_residual_legendre_pair(qot2):
    # u = |x|^2 has transform v = |y|^2; A* = I, B* = 1: residual zero
    grid = box_grid(48)
    vals = np.einsum("ij,ij->i", grid.centers, grid.centers)
    vfun = GridFunction(grid, vals.reshape(grid.res))
    res = dual_residual(qot2, vfun, f=lambda x: 1.0, g=lambda y: 1.0)
    assert res.max_abs() <= 1e-10


def test_dual_residual_from_forward_transform(qot2):
    # smooth elliptic u with diffeomorphic T: the transform v built by
    # composing H with T^{-1} solves the dual equation to O(h)
    grid = box_grid(72, lo=-0.4, hi=0.4)
    ufun, psi = manufactured_case("quadratic_ot_cosh", qot2, grid)

    # T(x) = x - Du = x - 2 sinh(x), separable and strictly decreasing
    def t_inv(yv):
        out = np.empty_like(yv)
        for k, target in enumerate(yv):
            a, b = -2.0, 2.0
            for _ in range(80):
                mid = 0.5 * (a + b)
                if mid - 2.0 * math.sinh(mid) > target:
                    a = mid
                else:
                    b = mid
            out[k] = 0.5 * (a + b)
        return out

    def u_exact(xv):
        return float(np.sum(2.0 * np.cosh(xv)))

    tg = box_grid(72, lo=-0.3, hi=0.3)
    vals = np.empty(tg.size)
    for k, y in enumerate(tg.centers):
        x = t_inv(y)
        vals[k] = dual_H(qot2, x, y, u_exact(x)).z_root
    vfun = GridFunction(tg, vals.reshape(tg.res))

    def f_density(x):
        # push-forward density along T: f = g(T) |det DT| with g = 1
        return float(np.prod(np.abs(1.0 - 2.0 * np.cosh(np.asarray(x)))))

    res = dual_residual(qot2, vfun, f=f_density, g=lambda y: 1.0)
    h = float(np.max(tg.h))
    assert res.max_abs() <= 5.0 * h
