"""Piecewise G-affine machinery: evaluation, cells, transforms, sections."""

import math

import numpy as np
import pytest

from gjet.errors import DomainViolation
from gjet.gconvex import (
    PiecewiseGSolution,
    SourceGrid,
    cell_masses,
    dual_transform,
    eval_piecewise,
    g_transform,
    interface_cell_count,
    interface_point,
    interface_point_rows,
    interpolated_support_rows,
    section_convexity,
    section_set,
    subdifferential,
    support_check,
    validate_pieces_on_grid,
    values_matrix,
)
from gjet.genfun import GeneratingFunction, dual_H


def unit_grid(res=32, n=2):
    return SourceGrid(np.zeros(n), np.ones(n), [res] * n)


def pb_two_piece(pb2, grid):
    """Two admissible symmetric parallel-beam pieces through (x0, u0)."""
    x0 = np.array([0.5, 0.5])
    u0 = 0.8
    y1, y2 = np.array([0.3, 0.5]), np.array([0.7, 0.5])
    z1 = dual_H(pb2, x0, y1, u0).z_root
    z2 = dual_H(pb2, x0, y2, u0).z_root
    return PiecewiseGSolution(pb2, [(y1, z1), (y2, z2)], (x0, u0))


# --------------------------------------------------------------------------
# evaluation and subdifferential
# --------------------------------------------------------------------------

def test_single_piece_eval(qot2):
    sol = PiecewiseGSolution(qot2, [((0.2, 0.2), 0.1)], ((0.5, 0.5), 0.0))
    u, idx = eval_piecewise(sol, [0.6, 0.4])
    assert idx == 0
    assert u == pytest.approx(qot2.value([0.6, 0.4], [0.2, 0.2], 0.1))


def test_tie_break_lowest_index(qot2):
    sol = PiecewiseGSolution(qot2, [((0.2, 0.2), 0.1), ((0.2, 0.2), 0.1)],
                             ((0.5, 0.5), 0.0))
    _, idx = eval_piecewise(sol, [0.6, 0.4])
    assert idx == 0


def test_symmetric_pieces_equal_values(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    x = np.array([0.5, 0.37])   # on the symmetry axis
    vals = [pb2.value(x, p.y_vec(), p.z) for p in sol.pieces]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    _, idx = eval_piecewise(sol, x)
    assert idx == 0


def test_subdifferential_interior_and_kink(qot2):
    sol = PiecewiseGSolution(qot2, [((0.0, 0.0), 0.0), ((1.0, 0.0), 0.0)],
                             ((0.5, 0.5), 0.0))
    # interior of cell 1 (quadratic pieces win far from their target)
    pairs = subdifferential(sol, [0.9, 0.5])
    assert len(pairs) == 1
    p, y = pairs[0]
    assert np.allclose(y, [0.0, 0.0])
    assert np.allclose(p, np.array([0.9, 0.5]) - y)
    # equidistant point: both active, opposite tangential slopes
    pairs = subdifferential(sol, [0.5, 0.3])
    assert len(pairs) == 2
    assert pairs[0][0][0] == pytest.approx(-pairs[1][0][0])


def test_subdifferential_forward_map_identity(pb2):
    # every (p, y) pair must invert through the forward map: the target
    # of the active piece is recovered from its slope and height
    from gjet.genfun import forward_YZ

    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    targets = [p.y_vec() for p in sol.pieces]
    for x in ([0.2, 0.3], [0.5, 0.37], [0.8, 0.64]):
        u, _ = eval_piecewise(sol, x)
        for p, y in subdifferential(sol, x):
            assert any(np.allclose(y, t) for t in targets)
            y2, _z2 = forward_YZ(pb2, np.asarray(x, dtype=float), u, p)
            assert np.allclose(y2, y, atol=1e-8)


def test_subdifferential_symmetric_beam_pieces(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    x_star = interface_point(sol, 0, 1, [0.45, 0.5], [0.55, 0.5])
    pairs = subdifferential(sol, x_star)
    assert len(pairs) == 2
    # opposite tangential slope components across the symmetry plane
    assert pairs[0][0][0] == pytest.approx(-pairs[1][0][0], abs=1e-9)
    assert pairs[0][0][1] == pytest.approx(pairs[1][0][1], abs=1e-9)


# --------------------------------------------------------------------------
# support interpolation (normal-map convexity property)
# --------------------------------------------------------------------------

def test_support_check_endpoint_returns_piece(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    x_star = interface_point(sol, 0, 1, [0.45, 0.5], [0.55, 0.5])
    y0, z0, ok = support_check(sol, grid, x_star, 0.0)
    assert ok
    assert np.allclose(y0, sol.pieces[0].y_vec(), atol=1e-7)
    assert z0 == pytest.approx(sol.pieces[0].z, abs=1e-7)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_support_check_midpoints(pb2, qot2, t):
    grid = unit_grid(48)
    for gf, mk in ((pb2, pb_two_piece),):
        sol = mk(gf, grid)
        x_star = interface_point(sol, 0, 1, [0.45, 0.42], [0.55, 0.42])
        _y0, _z0, ok = support_check(sol, grid, x_star, t)
        assert ok, gf.name
    # classical convexity: max of two quadratic supports
    sol = PiecewiseGSolution(qot2, [((0.3, 0.5), -0.1), ((0.7, 0.5), -0.1)],
                             ((0.5, 0.5), 0.0))
    x_star = interface_point(sol, 0, 1, [0.45, 0.5], [0.55, 0.5])
    _y0, _z0, ok = support_check(sol, grid, x_star, t)
    assert ok


def reference_interface_point(sol, i, j, x_a, x_b, tol=1e-13):
    """The per-segment bisection that interface_point_rows replaced, kept
    as the oracle."""
    gf = sol.gf
    pi, pj = sol.pieces[i], sol.pieces[j]
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)

    def diff(s):
        x = x_a + s * (x_b - x_a)
        return gf.value(x, pi.y_vec(), pi.z) - gf.value(x, pj.y_vec(), pj.z)

    fa, fb = diff(0.0), diff(1.0)
    if fa == 0.0:
        return x_a.copy()
    if fb == 0.0:
        return x_b.copy()
    if fa * fb > 0:
        raise ValueError("pieces do not exchange along the segment")
    a, b = 0.0, 1.0
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = diff(m)
        if fm == 0.0 or b - a < tol:
            return x_a + m * (x_b - x_a)
        if (fm > 0) == (fa > 0):
            a = m
        else:
            b = m
    return x_a + 0.5 * (a + b) * (x_b - x_a)


def test_interface_rows_match_scalar_reference(pb2, qot2):
    # the batched bisection against the per-segment loop it replaced and
    # against its own one-row calls, with a segment the pieces do not
    # exchange on and, where the tie at x1 = 0.5 is exact (quadratic
    # pieces at 0.25 and 0.75), segments that start or end on it
    rng = np.random.default_rng(43)
    x_a = np.array([[0.45, 0.5], [0.45, 0.2], [0.1, 0.5], [0.5, 0.3],
                    [0.4, 0.5]])
    x_b = np.array([[0.55, 0.5], [0.52, 0.9], [0.2, 0.5], [0.6, 0.3],
                    [0.5, 0.7]])
    i, j = np.array([0, 0, 0, 0, 1]), np.array([1, 1, 1, 1, 0])
    # plus random segments across x1 = 0.5, in both piece orders
    k = 40
    x_a = np.vstack([x_a, np.c_[rng.uniform(0.3, 0.48, k), rng.uniform(0, 1, k)]])
    x_b = np.vstack([x_b, np.c_[rng.uniform(0.52, 0.7, k), rng.uniform(0, 1, k)]])
    i = np.concatenate([i, np.arange(k) % 2])
    j = np.concatenate([j, 1 - np.arange(k) % 2])
    for sol in (pb_two_piece(pb2, unit_grid()),
                PiecewiseGSolution(qot2, [((0.25, 0.5), -0.1),
                                          ((0.75, 0.5), -0.1)],
                                   ((0.5, 0.5), 0.0))):
        xs, exchange = interface_point_rows(sol, i, j, x_a, x_b)
        assert not exchange[2] and exchange[[0, 1]].all()
        for r in range(len(x_a)):
            if exchange[r]:
                ref = reference_interface_point(sol, i[r], j[r], x_a[r], x_b[r])
                assert np.array_equal(xs[r], ref), r
                assert np.array_equal(
                    xs[r], interface_point(sol, i[r], j[r], x_a[r], x_b[r]))
            else:
                assert np.all(np.isnan(xs[r]))
                with pytest.raises(ValueError):
                    reference_interface_point(sol, i[r], j[r], x_a[r], x_b[r])
                with pytest.raises(ValueError):
                    interface_point(sol, i[r], j[r], x_a[r], x_b[r])
    assert np.array_equal(xs[3], x_a[3])
    assert np.array_equal(xs[4], x_b[4])


def test_interpolated_support_rows_flags_rows(pb2):
    # one row on the interface (two active pieces), one inside a cell
    sol = pb_two_piece(pb2, unit_grid())
    x_star = interface_point(sol, 0, 1, [0.45, 0.5], [0.55, 0.5])
    y0, u0, n_active, ok = interpolated_support_rows(
        sol, np.stack([x_star, [0.2, 0.2]]), 0.0)
    assert n_active.tolist() == [2, 1]
    assert ok.tolist() == [True, False]
    assert np.allclose(y0[0], sol.pieces[0].y_vec(), atol=1e-7)
    assert np.all(np.isnan(y0[1]))
    assert u0[1] == pytest.approx(eval_piecewise(sol, [0.2, 0.2])[0])
    with pytest.raises(ValueError):
        interpolated_support_rows(sol, x_star, 1.5)


def test_support_check_needs_two_active(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    with pytest.raises(ValueError):
        support_check(sol, grid, [0.2, 0.2], 0.5)


# --------------------------------------------------------------------------
# sections
# --------------------------------------------------------------------------

def test_section_large_sigma_whole_grid(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    mask = section_set(sol, grid, 0, 10.0)
    assert mask.all()


def test_section_zero_is_active_set(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    mask = section_set(sol, grid, 0, 0.0)
    vals = values_matrix(sol, grid)
    assert np.array_equal(mask, np.argmax(vals, axis=0) == 0)


def test_section_two_piece_quadratic_band(qot2):
    grid = unit_grid(48)
    sol = PiecewiseGSolution(qot2, [((0.3, 0.5), -0.2), ((0.7, 0.5), -0.2)],
                             ((0.5, 0.5), 0.0))
    mask = section_set(sol, grid, 0, 0.02)
    # the section of a quadratic pair is a half-space band: convex image
    rep = section_convexity(sol, grid, 0, 0.02)
    assert rep.status == "pass"
    assert 0 < mask.sum() < grid.size


def test_section_convexity_single_piece(pb2):
    grid = unit_grid()
    x0 = np.array([0.5, 0.5])
    z = dual_H(pb2, x0, [0.5, 0.5], 0.8).z_root
    sol = PiecewiseGSolution(pb2, [((0.5, 0.5), z)], (x0, 0.8))
    rep = section_convexity(sol, grid, 0, 0.05)
    assert rep.status == "pass"


class BentSlope(GeneratingFunction):
    """Toy generator whose slope map bends a rectangle into a parabola
    strip: Q(x) = (x1, x2 + x1^2), a regularity-violating image map."""

    name = "bent_slope"

    def __init__(self):
        super().__init__(2)

    def z_interval(self, x, y):
        return (-math.inf, math.inf)

    def _raw_batch(self, xs, ys, zs):
        import numpy as np
        from gjet.genfun import BatchBundle

        m, n = xs.shape
        # G = -y1 x1 - y2 (x2 + x1^2) - z: then -G_y/G_z = (x1, x2 + x1^2)
        q1 = xs[:, 0]
        q2 = xs[:, 1] + xs[:, 0] ** 2
        value = -(ys[:, 0] * q1 + ys[:, 1] * q2) - zs
        grad_x = np.stack([-(ys[:, 0] + 2 * xs[:, 0] * ys[:, 1]),
                           -ys[:, 1]], axis=1)
        grad_y = np.stack([-q1, -q2], axis=1)
        hess_xx = np.zeros((m, n, n))
        hess_xx[:, 0, 0] = -2 * ys[:, 1]
        hess_xy = np.zeros((m, n, n))
        hess_xy[:, 0, 0] = -1.0
        hess_xy[:, 0, 1] = -2 * xs[:, 0]
        hess_xy[:, 1, 1] = -1.0
        hess_yy = np.zeros((m, n, n))
        return BatchBundle(value, grad_x, grad_y, np.full(m, -1.0),
                           hess_xx, hess_xy, hess_yy,
                           np.zeros((m, n)), np.zeros((m, n)), np.zeros(m))


def test_section_convexity_fails_for_bent_toy():
    gf = BentSlope()
    grid = SourceGrid([-1.0, -0.05], [1.0, 0.05], [96, 12])
    sol = PiecewiseGSolution(gf, [((0.0, 1.0), 0.0)], ((0.0, 0.0), 0.0))
    rep = section_convexity(sol, grid, 0, 10.0)
    assert rep.status == "fail"


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------

def test_g_transform_recovers_focal_parameters(pb2):
    grid = unit_grid(48)
    sol = pb_two_piece(pb2, grid)
    targets = np.array([p.y_vec() for p in sol.pieces])
    v = g_transform(sol, targets, grid)
    for j, p in enumerate(sol.pieces):
        assert v[j] == pytest.approx(p.z, abs=1e-9)


def test_g_transform_single_piece_exact(qot2):
    grid = unit_grid(16)
    sol = PiecewiseGSolution(qot2, [((0.4, 0.6), 0.25)], ((0.5, 0.5), 0.0))
    v = g_transform(sol, [[0.4, 0.6]], grid)
    assert v[0] == pytest.approx(0.25, abs=1e-12)


def test_g_transform_is_classical_c_transform(qot2):
    grid = unit_grid(24)
    sol = PiecewiseGSolution(qot2, [((0.3, 0.3), -0.1), ((0.8, 0.6), 0.05)],
                             ((0.5, 0.5), 0.0))
    targets = np.array([[0.1, 0.9], [0.6, 0.2]])
    v = g_transform(sol, targets, grid)
    u = values_matrix(sol, grid).max(axis=0)
    for j, y in enumerate(targets):
        brute = max(0.5 * float((x - y) @ (x - y)) - u[k]
                    for k, x in enumerate(grid.centers))
        assert v[j] == pytest.approx(brute, abs=1e-12)


def test_involution_on_two_piece_solution(pb2):
    grid = unit_grid(48)
    sol = pb_two_piece(pb2, grid)
    targets = np.array([p.y_vec() for p in sol.pieces])
    v = g_transform(sol, targets, grid)
    vstar = dual_transform(pb2, targets, v, grid)
    u = values_matrix(sol, grid).max(axis=0).reshape(grid.res)
    assert np.max(np.abs(vstar - u)) <= 1e-6


def test_dual_transform_single_piece(pb2):
    grid = unit_grid(16)
    z = dual_H(pb2, [0.5, 0.5], [0.5, 0.5], 0.8).z_root
    out = dual_transform(pb2, [[0.5, 0.5]], [z], grid)
    ref = pb2.value_batch(grid.centers, [0.5, 0.5], z).reshape(grid.res)
    assert np.array_equal(out, ref)


def test_dual_transform_rejects_inadmissible(pb2):
    grid = unit_grid(16)
    with pytest.raises(DomainViolation):
        dual_transform(pb2, [[0.5, 0.5]], [5.0], grid)  # z beyond 1/max r


# --------------------------------------------------------------------------
# cell masses
# --------------------------------------------------------------------------

def test_single_piece_carries_all_mass(pb2):
    grid = unit_grid(32)
    z = dual_H(pb2, [0.5, 0.5], [0.5, 0.5], 0.8).z_root
    sol = PiecewiseGSolution(pb2, [((0.5, 0.5), z)], ((0.5, 0.5), 0.8))
    dec = cell_masses(sol, grid)
    assert dec.masses[0] == pytest.approx(grid.total_mass)


def test_symmetric_pieces_split_evenly(pb2):
    grid = unit_grid(32)
    sol = pb_two_piece(pb2, grid)
    dec = cell_masses(sol, grid)
    row_mass = grid.total_mass / grid.res[0]
    assert abs(dec.masses[0] - dec.masses[1]) <= row_mass


def test_partition_and_monotonicity(pb2):
    grid = unit_grid(32)
    sol = pb_two_piece(pb2, grid)
    dec = cell_masses(sol, grid)
    assert dec.masses.sum() == pytest.approx(grid.total_mass, rel=1e-13)
    # raising z of piece 0 strictly lowers its graph and its mass
    z_new = sol.pieces[0].z * 1.1
    bumped = PiecewiseGSolution(sol.gf,
                                [(sol.pieces[0].y, z_new), sol.pieces[1]],
                                sol.anchor)
    dec2 = cell_masses(bumped, grid)
    assert dec2.masses[0] < dec.masses[0]
    assert dec2.masses[1] > dec.masses[1]
    assert dec2.masses.sum() == pytest.approx(grid.total_mass, rel=1e-13)


def test_monotonicity_random_perturbations(qot2):
    rng = np.random.default_rng(5)
    grid = unit_grid(24)
    pieces = [((0.2, 0.3), 0.0), ((0.7, 0.4), 0.02), ((0.5, 0.8), -0.03)]
    sol = PiecewiseGSolution(qot2, pieces, ((0.5, 0.5), 0.0))
    base = cell_masses(sol, grid).masses
    for _ in range(5):
        i = int(rng.integers(3))
        dz = float(rng.random()) * 0.05
        newp = list(pieces)
        newp[i] = (pieces[i][0], pieces[i][1] + dz)
        masses = cell_masses(PiecewiseGSolution(qot2, newp, sol.anchor),
                             grid).masses
        assert masses[i] <= base[i] + 1e-12
        for j in range(3):
            if j != i:
                assert masses[j] >= base[j] - 1e-12


def test_piece_admissibility_enforced(pb2):
    grid = unit_grid(16)
    # z too large: leaves I(x, y) at far grid corners
    sol = PiecewiseGSolution(pb2, [((0.5, 0.5), 2.0)], ((0.5, 0.5), 0.8))
    with pytest.raises(DomainViolation):
        validate_pieces_on_grid(sol, grid)
    with pytest.raises(DomainViolation):
        cell_masses(sol, grid)


def test_interface_cell_count(pb2):
    grid = unit_grid(32)
    sol = pb_two_piece(pb2, grid)
    dec = cell_masses(sol, grid)
    count = interface_cell_count(grid, dec.assignment)
    # one vertical interface: about two columns of cells
    assert 32 <= count <= 4 * 32
