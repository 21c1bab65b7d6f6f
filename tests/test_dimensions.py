"""Dimension coverage: the library supports n = 1, 2 and 3."""

import numpy as np
import pytest

from gjet.gconvex import PiecewiseGSolution, SourceGrid, cell_masses
from gjet.genfun import (
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    dual_H,
    forward_YZ,
    map_Q,
    map_X,
    matrix_A,
    matrix_E,
)
from gjet.semidiscrete import SemiDiscreteProblem, solve

from conftest import instance_boxes, sample_admissible
from test_genfun import fd_bundle, matrix_A_via_yp


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("maker", [QuadraticOT, ParallelBeam,
                                   lambda n: PointSourcePlane(n, -0.5)],
                         ids=["qot", "pb", "ps"])
def test_bundle_and_maps_other_dimensions(n, maker):
    gf = maker(n)
    rng = np.random.default_rng(n)
    x_box, y_box = instance_boxes(gf)
    for _ in range(3):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        b = gf.bundle(x, y, z)
        fd = fd_bundle(gf, x, y, z)
        for name, ref in fd.items():
            got = getattr(b, name)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.allclose(got, ref, atol=1e-6 * scale), (gf.name, name)
        y2, z2 = forward_YZ(gf, x, b.value, b.grad_x)
        assert np.allclose(y2, y, atol=1e-8)
        assert z2 == pytest.approx(z, abs=1e-8)
        assert dual_H(gf, x, y, b.value).z_root == pytest.approx(z, abs=1e-9)
        q = map_Q(gf, x, y, z)
        assert np.allclose(map_X(gf, y, z, q), x, atol=1e-8)
        a1 = matrix_A(gf, x, b.value, b.grad_x)
        a2 = matrix_A_via_yp(gf, x, b.value, b.grad_x)
        assert np.allclose(a1, a2, atol=1e-5)


def test_det_e_one_dimensional():
    pb = ParallelBeam(1)
    _, det = matrix_E(pb, [0.0], [1.0], 0.5)
    assert det == pytest.approx(0.3)
    qot = QuadraticOT(1)
    _, det = matrix_E(qot, [0.3], [0.1], 0.0)
    assert det == pytest.approx(-1.0)   # (-1)^n with n = 1


def test_solve_one_dimensional():
    from gjet.semidiscrete import SolverTolerances

    # in 1-d the cell interface is a single cell, so the achievable mass
    # granularity is one cell of mass: tolerance must budget for it
    pb = ParallelBeam(1)
    grid = SourceGrid([0.0], [1.0], [256])
    prob = SemiDiscreteProblem(
        pb, grid, [[0.3], [0.8]],
        [0.6 * grid.total_mass, 0.4 * grid.total_mass], ([0.5], 0.75),
        tolerances=SolverTolerances(mass_tol_rel=1.0 / 256))
    state = solve(prob)
    assert state.residual <= prob.tolerances.mass_tol_rel
    assert abs(state.anchor_value - 0.75) <= 1e-8 * 1.75


def test_cell_masses_three_dimensional():
    qot = QuadraticOT(3)
    grid = SourceGrid([0.0] * 3, [1.0] * 3, [12, 12, 12])
    sol = PiecewiseGSolution(
        qot, [(0.25, 0.5, 0.5), (0.75, 0.5, 0.5)], [0.0, 0.0])
    dec = cell_masses(sol, grid)
    assert dec.masses.sum() == pytest.approx(grid.total_mass, rel=1e-13)
    # symmetric split (quadratic pieces grow away from their targets)
    assert dec.masses[0] == pytest.approx(dec.masses[1], rel=1e-12)
