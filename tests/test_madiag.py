"""Finite-difference residuals and ellipticity diagnostics."""

import math

import numpy as np
import pytest

from gjet.errors import DomainViolation
from gjet.gconvex import SourceGrid, values_matrix
from gjet.genfun import (
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    RowStatus,
    dual_Astar_Bstar_rows,
    forward_YZ,
    matrix_A_B_rows,
)
from gjet.madiag import (
    GridFunction,
    _gradient,
    _hessian,
    dual_residual,
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


def test_g_affine_rejects_a_grid_outside_the_domain():
    # the unit square leaves the point source's ball |x| < 1
    with pytest.raises(DomainViolation, match="g_affine"):
        manufactured_case("g_affine", PointSourcePlane(2, -1.0),
                          box_grid(16, lo=0.0, hi=1.0))


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
    ps = gf.bundle_batch(xs, y0, z0).grad_x + rng.normal(0.0, 0.01, xs.shape)

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

def _zero(xs, us, ps):
    return 0.0


@pytest.mark.parametrize("maker", [
    lambda: QuadraticOT(2), lambda: ParallelBeam(2),
    lambda: PointSourcePlane(2, 0.0)], ids=["qot", "pb", "ps0"])
def test_ellipticity_zero_on_g_affine(maker):
    gf = maker()
    grid = box_grid(48)
    ufun, _psi = manufactured_case("g_affine", gf, grid)
    res = ma_residual(gf, ufun, _zero)
    assert res.ellipticity() != "not-elliptic"
    assert np.nanmax(np.abs(res.min_eig[res.mask])) <= 1e-10


def test_ellipticity_identity_eigenvalue_one():
    gf = QuadraticOT(2)
    grid = box_grid(48)
    ufun, _psi = manufactured_case("quadratic_ot_identity", gf, grid)
    res = ma_residual(gf, ufun, _zero)
    assert res.ellipticity() != "not-elliptic"
    assert np.allclose(res.min_eig[res.mask], 1.0)


def _concave(grid):
    vals = -np.einsum("ij,ij->i", grid.centers, grid.centers)
    return GridFunction(grid, vals.reshape(grid.res))


def test_ellipticity_concave_case_fails():
    gf = QuadraticOT(2)
    grid = box_grid(48)
    res = ma_residual(gf, _concave(grid), _zero)
    assert res.ellipticity() == "not-elliptic"
    assert np.nanmin(res.min_eig[res.mask]) == pytest.approx(-3.0)


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
    res = ma_residual(pb2, ufun, _zero, exclude=excl)
    assert res.ellipticity() != "not-elliptic"
    assert res.masked_count == excl[1:-1, 1:-1].sum()
    # away from the kinks every node sits on one exact graph
    assert np.nanmax(np.abs(res.min_eig[res.mask])) <= 1e-10
    # the unmasked run reports the kink nodes as evaluated: noisy there
    raw = ma_residual(pb2, ufun, _zero)
    assert raw.mask.sum() > res.mask.sum()


@pytest.mark.parametrize("case, exclude_all, verdict", [
    ("g_affine", False, "degenerate-elliptic"),
    ("quadratic_ot_identity", False, "elliptic"),
    ("concave", False, "not-elliptic"),
    ("quadratic_ot_identity", True, "not-elliptic"),
], ids=["g_affine", "identity", "concave", "nothing-evaluated"])
def test_ma_residual_carries_the_ellipticity_field(case, exclude_all,
                                                   verdict):
    # one linearization gives the residual, the min-eig field of the same
    # matrices on the same nodes, and the verdict
    gf = QuadraticOT(2)
    grid = box_grid(24)
    ufun = _concave(grid) if case == "concave" \
        else manufactured_case(case, gf, grid)[0]
    exclude = np.ones(grid.res, dtype=bool) if exclude_all else None
    res = ma_residual(gf, ufun, _zero, exclude=exclude)
    assert res.ellipticity() == verdict
    assert np.array_equal(np.isnan(res.min_eig), ~res.mask)
    assert np.array_equal(np.isnan(res.values), ~res.mask)
    assert res.masked_count == (22 * 22 if exclude_all else 0)


def test_ellipticity_needs_the_eigenvalue_field(qot2):
    # only ma_residual fields carry min_eig: the other residuals' fields
    # have no verdict, and say so
    grid = box_grid(8)
    ufun, _psi = manufactured_case("quadratic_ot_identity", qot2, grid)
    fields = [pje_residual(qot2, ufun, lambda xs, us, ps: 1.0),
              dual_residual(qot2, ufun)]
    for field in fields:
        assert field.min_eig is None
        with pytest.raises(ValueError, match="only ma_residual fields"):
            field.ellipticity()


@pytest.mark.parametrize("exclude", [False, True], ids=["all", "exclude"])
def test_masked_count_is_the_nan_interior(pb2, exclude):
    # masked counts every interior node that carries no value: the nodes
    # where u < 0 leaves the beam's forward map without a solution, and
    # the excluded kink nodes
    from gjet.gconvex import PiecewiseGSolution, interface_mask
    from gjet.genfun import dual_H

    grid = SourceGrid([0, 0], [1, 1], [16, 16])
    ys = [[0.3, 0.4], [0.7, 0.6]]
    zs = [dual_H(pb2, [0.5, 0.5], y, 0.75).z_root for y in ys]
    vals = values_matrix(PiecewiseGSolution(pb2, ys, zs), grid)
    u = vals.max(axis=0).reshape(grid.res)
    u[:, :4] -= 2.0
    ufun = GridFunction(grid, u)
    excl = interface_mask(grid, np.argmax(vals, axis=0), widen=1) \
        if exclude else None
    psi = lambda xs, us, ps: np.zeros(len(xs))
    res = ma_residual(pb2, ufun, psi, exclude=excl)
    for values in (res.values, res.min_eig):
        nan = np.isnan(values[1:-1, 1:-1]).sum()
        assert res.masked_count == nan
        assert nan > (excl[1:-1, 1:-1].sum() if exclude else 0)
    pje = pje_residual(pb2, ufun, psi)
    assert pje.masked_count == np.isnan(pje.values[2:-2, 2:-2]).sum() > 0


def test_ma_residual_reads_B_from_matrix_A_B_rows(pb2):
    # psi runs once, inside matrix_A_B_rows, on exactly the nodes that get
    # a value; the residual is det(D^2 u - A) - B with that B, bit for bit
    from gjet.gconvex import PiecewiseGSolution, interface_mask
    from gjet.genfun import dual_H

    grid = SourceGrid([0, 0], [1, 1], [16, 16])
    ys = [[0.3, 0.4], [0.7, 0.6]]
    zs = [dual_H(pb2, [0.5, 0.5], y, 0.75).z_root for y in ys]
    vals = values_matrix(PiecewiseGSolution(pb2, ys, zs), grid)
    u = vals.max(axis=0).reshape(grid.res)
    u[:, :4] -= 2.0          # no forward solution there: psi must not see it
    ufun = GridFunction(grid, u)
    excl = interface_mask(grid, np.argmax(vals, axis=0), widen=1)
    separable = make_separable_psi(pb2, f=lambda x: 1.0 + x[0],
                                   g=lambda y: 2.0 + y[1])
    calls = []

    def recording(xs, us, ps):
        calls.append((xs.copy(), us.copy(), ps.copy()))
        return separable(xs, us, ps)

    res = ma_residual(pb2, ufun, recording, exclude=excl)
    node = res.mask.ravel()
    assert 0 < node.sum() < (~excl[1:-1, 1:-1]).sum()
    p = _gradient(u, grid.h).reshape(2, -1).T
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], grid.centers[node])
    assert np.array_equal(calls[0][1], u.ravel()[node])
    assert np.array_equal(calls[0][2], p[node])
    a, b = matrix_A_B_rows(pb2, grid.centers[node], u.ravel()[node], p[node],
                           separable)[:2]
    mats = _hessian(u, grid.h).reshape(2, 2, -1).transpose(2, 0, 1)[node] - a
    assert np.array_equal(res.values.ravel()[node], np.linalg.det(mats) - b)
    assert np.array_equal(res.min_eig.ravel()[node], np.linalg.eigvalsh(
        0.5 * (mats + mats.transpose(0, 2, 1)))[:, 0])


def _hessian_by_shifts(values, h):
    """The stencils built from shift tuples, as madiag did before one
    slicing helper replaced them: the reference for _hessian on grids
    whose axes all have at least three nodes."""

    def _shifted(values, shifts):
        sl = []
        for k, s in enumerate(shifts):
            stop = values.shape[k] - 1 + s
            sl.append(slice(1 + s, stop if stop != 0 else None))
        return values[tuple(sl)]

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


def test_hessian_equals_the_shift_tuple_stencils():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        shape = tuple(int(r) for r in rng.integers(3, 9, size=n))
        values = rng.normal(size=shape)
        h = rng.uniform(0.01, 1.0, size=n)
        assert np.array_equal(_hessian(values, h),
                              _hessian_by_shifts(values, h))


@pytest.mark.parametrize("res", [[2, 8], [8, 2], [2, 2]])
def test_a_two_node_axis_gives_an_empty_field(qot2, res):
    grid = SourceGrid([0.1, 0.1], [0.9, 0.9], res)
    ufun = GridFunction(grid, np.sum(grid.centers ** 2, axis=1))
    fields = [ma_residual(qot2, ufun, lambda xs, us, ps: 1.0),
              pje_residual(qot2, ufun, lambda xs, us, ps: 1.0),
              dual_residual(qot2, ufun)]
    for res_field in fields:
        assert not res_field.mask.any() and res_field.masked_count == 0
        assert np.all(np.isnan(res_field.values))
        assert math.isnan(res_field.max_abs())
    assert fields[0].ellipticity() == "not-elliptic"


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

    # T(x) = x - Du = x - 2 sinh(x), separable and strictly decreasing:
    # T^{-1} by bisection on every coordinate at once, then v = H(x, T(x), u)
    tg = box_grid(72, lo=-0.3, hi=0.3)
    ys = tg.centers
    a = np.full(ys.shape, -2.0)
    b = np.full(ys.shape, 2.0)
    for _ in range(80):
        mid = 0.5 * (a + b)
        above = mid - 2.0 * np.sinh(mid) > ys
        a = np.where(above, mid, a)
        b = np.where(above, b, mid)
    xs = 0.5 * (a + b)
    us = np.sum(2.0 * np.cosh(xs), axis=1)
    vfun = GridFunction(tg, qot2.h_batch(xs, ys, us).reshape(tg.res))

    def f_density(x):
        # push-forward density along T: f = g(T) |det DT| with g = 1
        return float(np.prod(np.abs(1.0 - 2.0 * np.cosh(np.asarray(x)))))

    res = dual_residual(qot2, vfun, f=f_density, g=lambda y: 1.0)
    h = float(np.max(tg.h))
    assert res.max_abs() <= 5.0 * h


@pytest.mark.parametrize("maker", [
    lambda: ParallelBeam(2), lambda: PointSourcePlane(2, tau=-1.0)],
    ids=["pb", "ps"])
def test_dual_residual_masks_the_nodes_without_B_star(maker):
    # slopes that leave the slope image on part of the grid: the masked
    # nodes are those whose B* is NaN, for the built-ins the rows whose
    # status is not OK
    gf = maker()
    grid = box_grid(12, lo=-0.4, hi=0.4)
    c = grid.centers
    vfun = GridFunction(grid, 0.8 + 2.0 * c[:, 0] ** 2 + 0.5 * c[:, 1])
    res = dual_residual(gf, vfun)
    nodes = np.flatnonzero(np.pad(np.ones((10, 10), dtype=bool), 1))
    q = _gradient(vfun.values, grid.h).reshape(2, -1).T
    _a, bstar, status, _r = dual_Astar_Bstar_rows(
        gf, c[nodes], vfun.values.ravel()[nodes], q[nodes])
    assert np.array_equal(np.isnan(bstar), status != RowStatus.OK)
    assert 0 < np.isnan(bstar).sum() < len(nodes)
    assert np.array_equal(np.flatnonzero(res.mask), nodes[~np.isnan(bstar)])
    assert res.masked_count == int(np.isnan(bstar).sum())


def test_dual_residual_masks_a_nan_density(qot2):
    # the Legendre pair of test_dual_residual_legendre_pair with a target
    # density that is NaN at one node: that node is masked, not NaN-valued
    grid = box_grid(16)
    vfun = GridFunction(grid, np.sum(grid.centers ** 2, axis=1))
    k = 5 * 16 + 7
    hole = grid.centers[k]
    res = dual_residual(qot2, vfun, f=lambda x: 1.0,
                        g=lambda y: math.nan if np.array_equal(y, hole) else 1.0)
    assert not res.mask.ravel()[k] and res.masked_count == 1
    assert res.max_abs() <= 1e-10
