"""Piecewise G-affine machinery: evaluation, cells, transforms, sections."""

import math

import numpy as np
import pytest

from gjet.errors import DomainViolation
from gjet.gconvex import (
    PiecewiseGSolution,
    SourceGrid,
    cell_masses,
    cell_split,
    dual_transform,
    eval_piecewise,
    g_transform,
    grid_z_interval,
    interface_mask,
    interface_point_rows,
    interpolated_support_rows,
    neighbor_pairs,
    section_convexity,
    section_set,
    subdifferential,
    support_rows,
    validate_pieces_on_grid,
    values_matrix,
)
from gjet.genfun import (
    BatchBundle,
    GeneratingFunction,
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    dual_H,
)
from gjet.semidiscrete import SemiDiscreteProblem, solution_function, solve


def unit_grid(res=32, n=2):
    return SourceGrid(np.zeros(n), np.ones(n), [res] * n)


def pb_two_piece(pb2, grid):
    """Two admissible symmetric parallel-beam pieces through (x0, u0)."""
    x0 = np.array([0.5, 0.5])
    u0 = 0.8
    y1, y2 = np.array([0.3, 0.5]), np.array([0.7, 0.5])
    z1 = dual_H(pb2, x0, y1, u0).z_root
    z2 = dual_H(pb2, x0, y2, u0).z_root
    return PiecewiseGSolution(pb2, [y1, y2], [z1, z2])


# --------------------------------------------------------------------------
# evaluation and subdifferential
# --------------------------------------------------------------------------

def test_solution_holds_read_only_copies(qot2):
    ys = np.array([[0.2, 0.2], [0.6, 0.1]])
    zs = [0.1, -0.2]
    sol = PiecewiseGSolution(qot2, ys, zs)
    assert sol.ys.shape == (2, 2) and sol.zs.shape == (2,)
    ys[0, 0] = 9.0
    zs[0] = 9.0
    assert sol.ys[0, 0] == 0.2 and sol.zs[0] == 0.1
    for arr in (sol.ys, sol.zs):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_solution_rejects_empty_and_mismatched_pieces(qot2):
    with pytest.raises(ValueError, match="at least one piece"):
        PiecewiseGSolution(qot2, np.empty((0, 2)), [])
    with pytest.raises(ValueError, match="lengths disagree"):
        PiecewiseGSolution(qot2, [(0.2, 0.2), (0.6, 0.1)], [0.1])


def test_single_piece_eval(qot2):
    sol = PiecewiseGSolution(qot2, [(0.2, 0.2)], [0.1])
    u, idx = eval_piecewise(sol, [0.6, 0.4])
    assert idx == 0
    assert u == pytest.approx(qot2.value([0.6, 0.4], [0.2, 0.2], 0.1))


def test_tie_break_lowest_index(qot2):
    sol = PiecewiseGSolution(qot2, [(0.2, 0.2), (0.2, 0.2)], [0.1, 0.1])
    _, idx = eval_piecewise(sol, [0.6, 0.4])
    assert idx == 0


def test_symmetric_pieces_equal_values(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    x = np.array([0.5, 0.37])   # on the symmetry axis
    vals = [pb2.value(x, y, z) for y, z in zip(sol.ys, sol.zs)]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    _, idx = eval_piecewise(sol, x)
    assert idx == 0


def test_subdifferential_interior_and_kink(qot2):
    sol = PiecewiseGSolution(qot2, [(0.0, 0.0), (1.0, 0.0)], [0.0, 0.0])
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
    targets = sol.ys
    for x in ([0.2, 0.3], [0.5, 0.37], [0.8, 0.64]):
        u, _ = eval_piecewise(sol, x)
        for p, y in subdifferential(sol, x):
            assert any(np.allclose(y, t) for t in targets)
            y2, _z2 = forward_YZ(pb2, np.asarray(x, dtype=float), u, p)
            assert np.allclose(y2, y, atol=1e-8)


def tie_point(sol, x_a, x_b):
    """Where pieces 0 and 1 tie on [x_a, x_b]: a one-row
    interface_point_rows call."""
    xs, exchange = interface_point_rows(sol, [0], [1], x_a, x_b)
    assert exchange[0]
    return xs[0]


def test_subdifferential_symmetric_beam_pieces(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    x_star = tie_point(sol, [0.45, 0.5], [0.55, 0.5])
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
    x_star = tie_point(sol, [0.45, 0.5], [0.55, 0.5])
    y0, z0, below, _n_active, ok = support_rows(sol, grid, x_star, 0.0)
    assert ok[0] and below[0]
    assert np.allclose(y0[0], sol.ys[0], atol=1e-7)
    assert z0[0] == pytest.approx(sol.zs[0], abs=1e-7)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_support_check_midpoints(pb2, qot2, t):
    grid = unit_grid(48)
    for gf, mk in ((pb2, pb_two_piece),):
        sol = mk(gf, grid)
        x_star = tie_point(sol, [0.45, 0.42], [0.55, 0.42])
        _y0, _z0, below, _n_active, ok = support_rows(sol, grid, x_star, t)
        assert ok[0] and below[0], gf.name
    # classical convexity: max of two quadratic supports
    sol = PiecewiseGSolution(qot2, [(0.3, 0.5), (0.7, 0.5)], [-0.1, -0.1])
    x_star = tie_point(sol, [0.45, 0.5], [0.55, 0.5])
    _y0, _z0, below, _n_active, ok = support_rows(sol, grid, x_star, t)
    assert ok[0] and below[0]


def reference_support_check(sol, grid, x0, t):
    """The scalar support test that support_rows replaced, kept as the
    oracle: one row of interpolated supports, the focal parameter
    re-snapped through dual_H so the graph passes exactly through
    (x0, u(x0)), and a sweep of the whole grid.  Returns (y0, z0, ok)."""
    x0 = np.asarray(x0, dtype=float)
    y0, _z0, u0, n_active, ok = interpolated_support_rows(sol, x0, t)
    if n_active[0] != 2:
        raise ValueError(
            f"support interpolation needs exactly two active pieces, "
            f"found {n_active[0]}")
    if not ok[0]:
        raise DomainViolation(
            "no admissible interpolated support at the query point")
    y0, u0 = y0[0], float(u0[0])
    z0 = dual_H(sol.gf, x0, y0, u0).z_root
    u_grid = values_matrix(sol, grid).max(axis=0)
    cand = sol.gf.value_batch(grid.centers, y0, z0)
    return y0, float(z0), bool(np.all(cand <= u_grid + 1e-8 * (1.0 + abs(u0))))


class Hyperbolic(GeneratingFunction):
    """Toy generator G = sqrt(1 + |x - y|^2) - z, whose supports
    interpolated between two pieces rise above their max."""

    name = "hyperbolic"

    def __init__(self):
        super().__init__(2)

    def z_interval_batch(self, xs, y):
        m = len(np.atleast_2d(xs))
        return np.full(m, -math.inf), np.full(m, math.inf)

    def _raw_batch(self, xs, ys, zs):
        m, n = xs.shape
        d = xs - ys
        s = np.sqrt(1.0 + np.einsum("ij,ij->i", d, d))
        h = np.eye(n) / s[:, None, None] \
            - d[:, :, None] * d[:, None, :] / s[:, None, None] ** 3
        return BatchBundle(s - zs, d / s[:, None], -d / s[:, None],
                           np.full(m, -1.0), h, -h, h, np.zeros((m, n)),
                           np.zeros((m, n)), np.zeros(m))


@pytest.fixture(scope="module")
def support_cases():
    """(sol, grid, rows): the two-piece beam, quadratic and Hyperbolic
    toy with rows on and off their interface, and a solved 4-target beam
    at 48^2 with every adjacent-cell interface point and the center,
    where all four pieces meet."""
    pb2, grid = ParallelBeam(2), unit_grid(48)
    off = np.array([[0.2, 0.2], [0.8, 0.6]])
    x_a = np.array([[0.45, 0.5], [0.45, 0.42], [0.4, 0.1], [0.45, 0.9]])
    cases = []
    for sol in (pb_two_piece(pb2, grid),
                PiecewiseGSolution(QuadraticOT(2), [(0.3, 0.5), (0.7, 0.5)],
                                   [-0.1, -0.1]),
                PiecewiseGSolution(Hyperbolic(), [(0.3, 0.5), (0.7, 0.6)],
                                   [0.0, 0.0])):
        xs, _exchange = interface_point_rows(sol, [0] * 4, [1] * 4, x_a,
                                             x_a + [0.1, 0.0])
        cases.append((sol, grid, np.vstack([xs, off])))
    pts = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
    prob = SemiDiscreteProblem(pb2, grid, pts, np.full(4, grid.total_mass / 4),
                               ([0.5, 0.5], 0.75))
    state = solve(prob)
    sol = solution_function(prob, state.z)
    lab = state.decomposition.assignment
    a, b = neighbor_pairs(grid, lab)
    xs, _exchange = interface_point_rows(sol, lab[a], lab[b], grid.centers[a],
                                         grid.centers[b])
    cases.append((sol, grid, np.vstack([xs, [[0.5, 0.5]]])))
    return cases


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_support_rows_match_scalar_reference(support_cases, t):
    # below is the reference's verdict, and n_active and ok its
    # ValueError and DomainViolation.  The supports hold for the beam and
    # the quadratic and, between the ends, fail for the toy.  Where the
    # forward map has a closed form, z0 is the re-snapped focal
    # parameter to rounding; the toy's Newton z0 meets G = u only to the
    # Newton tolerance
    for sol, grid, xs in support_cases:
        y0, z0, below, n_active, ok = support_rows(sol, grid, xs, t)
        assert ok.any() and (n_active != 2).any()
        toy = isinstance(sol.gf, Hyperbolic)
        assert np.array_equal(below, ok & (not toy or t in (0.0, 1.0))), \
            sol.gf.name
        for r, x0 in enumerate(xs):
            if n_active[r] != 2:
                with pytest.raises(ValueError):
                    reference_support_check(sol, grid, x0, t)
            elif not ok[r]:
                with pytest.raises(DomainViolation):
                    reference_support_check(sol, grid, x0, t)
            else:
                ref_y, ref_z, ref_ok = reference_support_check(sol, grid, x0, t)
                assert np.array_equal(y0[r], ref_y), r
                assert toy or abs(z0[r] - ref_z) <= 1e-12 * abs(ref_z), r
                assert below[r] == ref_ok, r
            if not ok[r]:
                assert not below[r] and np.isnan(z0[r]), r


def reference_interface_point(sol, i, j, x_a, x_b, tol=1e-13):
    """The per-segment bisection that interface_point_rows replaced, kept
    as the oracle."""
    gf = sol.gf
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)

    def diff(s):
        x = x_a + s * (x_b - x_a)
        return (gf.value(x, sol.ys[i], sol.zs[i])
                - gf.value(x, sol.ys[j], sol.zs[j]))

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


def tie_gap(sol, i, j, x):
    """|G_i(x) - G_j(x)| from the scalar values, and its rounding level
    2 eps (|G_i| + |G_j|)."""
    gi = sol.gf.value(x, sol.ys[i], sol.zs[i])
    gj = sol.gf.value(x, sol.ys[j], sol.zs[j])
    return abs(gi - gj), 2.0 * np.finfo(float).eps * (abs(gi) + abs(gj))


def test_interface_rows_match_scalar_reference(pb2, qot2):
    # the batched root against the per-segment bisection it replaced,
    # with a segment the pieces do not exchange on and, where the tie at
    # x1 = 0.5 is exact (quadratic pieces at 0.25 and 0.75), segments
    # that start or end on it.  The reference gives the exchange flags
    # (one-row calls included), the endpoint rows and the exception; a
    # root lies on its segment and is a tie (a gap at rounding level) or
    # has a gap no larger than the reference's
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
                PiecewiseGSolution(qot2, [(0.25, 0.5), (0.75, 0.5)],
                                   [-0.1, -0.1])):
        xs, exchange = interface_point_rows(sol, i, j, x_a, x_b)
        assert not exchange[2] and exchange[[0, 1]].all()
        for r in range(len(x_a)):
            if exchange[r]:
                ref = reference_interface_point(sol, i[r], j[r], x_a[r], x_b[r])
                if 0.0 in (tie_gap(sol, i[r], j[r], x_a[r])[0],
                           tie_gap(sol, i[r], j[r], x_b[r])[0]):
                    assert np.array_equal(xs[r], ref), r
                else:
                    lo = np.minimum(x_a[r], x_b[r])
                    hi = np.maximum(x_a[r], x_b[r])
                    assert np.all((lo <= xs[r]) & (xs[r] <= hi)), r
                    gap, rounding = tie_gap(sol, i[r], j[r], xs[r])
                    assert gap <= max(rounding,
                                      tie_gap(sol, i[r], j[r], ref)[0]), r
            else:
                assert np.all(np.isnan(xs[r]))
                with pytest.raises(ValueError):
                    reference_interface_point(sol, i[r], j[r], x_a[r], x_b[r])
                assert not interface_point_rows(
                    sol, i[r], j[r], x_a[r], x_b[r])[1][0]
    assert np.array_equal(xs[3], x_a[3])
    assert np.array_equal(xs[4], x_b[4])


def test_interpolated_support_rows_flags_rows(pb2):
    # one row on the interface (two active pieces), one inside a cell
    sol = pb_two_piece(pb2, unit_grid())
    x_star = tie_point(sol, [0.45, 0.5], [0.55, 0.5])
    y0, z0, u0, n_active, ok = interpolated_support_rows(
        sol, np.stack([x_star, [0.2, 0.2]]), 0.0)
    assert n_active.tolist() == [2, 1]
    assert ok.tolist() == [True, False]
    assert np.allclose(y0[0], sol.ys[0], atol=1e-7)
    assert np.all(np.isnan(y0[1]))
    assert z0[0] == pytest.approx(sol.zs[0], abs=1e-7) and np.isnan(z0[1])
    assert u0[1] == pytest.approx(eval_piecewise(sol, [0.2, 0.2])[0])
    with pytest.raises(ValueError):
        interpolated_support_rows(sol, x_star, 1.5)


def test_support_check_needs_two_active(pb2):
    grid = unit_grid()
    sol = pb_two_piece(pb2, grid)
    y0, z0, below, n_active, ok = support_rows(sol, grid, [0.2, 0.2], 0.5)
    assert n_active.tolist() == [1]
    assert not ok[0] and not below[0]
    assert np.all(np.isnan(y0)) and np.isnan(z0[0])


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
    sol = PiecewiseGSolution(qot2, [(0.3, 0.5), (0.7, 0.5)], [-0.2, -0.2])
    mask = section_set(sol, grid, 0, 0.02)
    # the section of a quadratic pair is a half-space band: convex image
    rep = section_convexity(sol, grid, 0, 0.02)
    assert rep.status == "pass"
    assert 0 < mask.sum() < grid.size


def test_section_convexity_single_piece(pb2):
    grid = unit_grid()
    x0 = np.array([0.5, 0.5])
    z = dual_H(pb2, x0, [0.5, 0.5], 0.8).z_root
    sol = PiecewiseGSolution(pb2, [(0.5, 0.5)], [z])
    rep = section_convexity(sol, grid, 0, 0.05)
    assert rep.status == "pass"


class BentSlope(GeneratingFunction):
    """Toy generator whose slope map bends a rectangle into a parabola
    strip: Q(x) = (x1, x2 + x1^2), a regularity-violating image map."""

    name = "bent_slope"

    def __init__(self):
        super().__init__(2)

    def z_interval_batch(self, xs, y):
        m = len(np.atleast_2d(xs))
        return np.full(m, -math.inf), np.full(m, math.inf)

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
    sol = PiecewiseGSolution(gf, [(0.0, 1.0)], [0.0])
    rep = section_convexity(sol, grid, 0, 10.0)
    assert rep.status == "fail"


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------

def test_g_transform_recovers_focal_parameters(pb2):
    grid = unit_grid(48)
    sol = pb_two_piece(pb2, grid)
    targets = sol.ys
    v = g_transform(sol, targets, grid)
    for j, z in enumerate(sol.zs):
        assert v[j] == pytest.approx(z, abs=1e-9)


def test_g_transform_single_piece_exact(qot2):
    grid = unit_grid(16)
    sol = PiecewiseGSolution(qot2, [(0.4, 0.6)], [0.25])
    v = g_transform(sol, [[0.4, 0.6]], grid)
    assert v[0] == pytest.approx(0.25, abs=1e-12)


def test_g_transform_is_classical_c_transform(qot2):
    grid = unit_grid(24)
    sol = PiecewiseGSolution(qot2, [(0.3, 0.3), (0.8, 0.6)], [-0.1, 0.05])
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
    targets = sol.ys
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


def test_dual_transform_rejects_pairs_outside_the_domain(ps_neg):
    # the unit square leaves the ball |x| < 1 at its far corner
    with pytest.raises(DomainViolation, match="pair inadmissibly"):
        dual_transform(ps_neg, [[0.2, 0.0]], [2.0], unit_grid(16))


# --------------------------------------------------------------------------
# cell masses
# --------------------------------------------------------------------------

def test_single_piece_carries_all_mass(pb2):
    grid = unit_grid(32)
    z = dual_H(pb2, [0.5, 0.5], [0.5, 0.5], 0.8).z_root
    sol = PiecewiseGSolution(pb2, [(0.5, 0.5)], [z])
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
    z_new = sol.zs[0] * 1.1
    bumped = PiecewiseGSolution(sol.gf, sol.ys, [z_new, sol.zs[1]])
    dec2 = cell_masses(bumped, grid)
    assert dec2.masses[0] < dec.masses[0]
    assert dec2.masses[1] > dec.masses[1]
    assert dec2.masses.sum() == pytest.approx(grid.total_mass, rel=1e-13)


def test_monotonicity_random_perturbations(qot2):
    rng = np.random.default_rng(5)
    grid = unit_grid(24)
    ys = [(0.2, 0.3), (0.7, 0.4), (0.5, 0.8)]
    zs = [0.0, 0.02, -0.03]
    sol = PiecewiseGSolution(qot2, ys, zs)
    base = cell_masses(sol, grid).masses
    for _ in range(5):
        i = int(rng.integers(3))
        dz = float(rng.random()) * 0.05
        newz = list(zs)
        newz[i] = zs[i] + dz
        masses = cell_masses(PiecewiseGSolution(qot2, ys, newz),
                             grid).masses
        assert masses[i] <= base[i] + 1e-12
        for j in range(3):
            if j != i:
                assert masses[j] >= base[j] - 1e-12


def test_piece_admissibility_enforced(pb2):
    grid = unit_grid(16)
    # z too large: leaves I(x, y) at far grid corners
    sol = PiecewiseGSolution(pb2, [(0.5, 0.5)], [2.0])
    with pytest.raises(DomainViolation):
        validate_pieces_on_grid(sol, grid)
    with pytest.raises(DomainViolation):
        cell_masses(sol, grid)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["quadratic", "beam", "point_source",
                                  "point_source_outside"])
def test_grid_z_interval_is_the_per_center_reduction(kind, n):
    gf, lo, hi = {
        "quadratic": (QuadraticOT(n), 0.0, 1.0),
        "beam": (ParallelBeam(n), 0.0, 1.0),
        "point_source": (PointSourcePlane(n, tau=-1.0), -0.4, 0.4),
        # the far corner cells leave the admissible ball |x| < 1
        "point_source_outside": (PointSourcePlane(n, tau=-1.0), 0.0, 1.2),
    }[kind]
    grid = SourceGrid([lo] * n, [hi] * n, [5] * n)
    ys = np.random.default_rng(n).uniform(-0.5, 1.5, (4, n))
    ys[0] = grid.centers[len(grid.centers) // 2]   # the beam's I is unbounded
    z_lo, z_hi = grid_z_interval(gf, grid, ys)
    for i, y in enumerate(ys):
        adm = [gf.admissible_pair_batch(x, y)[0] for x in grid.centers]
        ends = np.array([gf.z_interval_batch(x, y) for x in grid.centers])
        if all(adm):
            assert z_lo[i] == ends[:, 0].max() and z_hi[i] == ends[:, 1].min()
        else:
            assert np.isnan(z_lo[i]) and np.isnan(z_hi[i])
    assert np.isnan(z_lo).tolist() == [kind == "point_source_outside"] * 4


def test_validation_names_the_first_failing_piece(pb2, ps_neg):
    grid = unit_grid(16)
    ok = pb_two_piece(pb2, grid)
    sol = PiecewiseGSolution(pb2, ok.ys, [ok.zs[0], 2.0])
    with pytest.raises(DomainViolation, match=r"^piece 1: focal parameter 2\.0 "
                       r"leaves its admissible interval on the grid$"):
        validate_pieces_on_grid(sol, grid)
    # the unit square leaves the point source's ball |x| < 1
    sol = PiecewiseGSolution(ps_neg, [(0.2, 0.0)], [2.0])
    with pytest.raises(DomainViolation, match=r"^piece 0: some grid centers "
                       r"pair inadmissibly with its target$"):
        validate_pieces_on_grid(sol, grid)


def face_aligned_quadratic(n, k):
    """The quadratic instance with targets (j + 1/2) / k on the lattice
    of [0, 1]^n and parameters whose interfaces are the planes x_a = j / k:
    u = |x|^2 / 2 + max_i (w_i - x.y_i) with w separable, and w_j of the
    1-D layout continuous at each plane."""
    t = (np.arange(k) + 0.5) / k
    w = np.zeros(k)
    for j in range(k - 1):      # target j + 1 owns the cells left of target j
        w[j + 1] = w[j] + (k - 1 - j) / k * (t[j + 1] - t[j])
    idx = np.stack(np.meshgrid(*[np.arange(k)] * n, indexing="ij"),
                   axis=-1).reshape(-1, n)
    ys = t[idx]
    zs = 0.5 * np.sum(ys ** 2, axis=1) - w[idx].sum(axis=1)
    return PiecewiseGSolution(QuadraticOT(n), ys, zs)


@pytest.mark.parametrize("n, k, res", [(1, 8, 960), (1, 8, 1000),
                                       (1, 8, 1024), (2, 4, 64), (3, 2, 16)])
def test_face_aligned_jacobian_has_rank_n_minus_1(n, k, res):
    # every interface lies on cell faces; each face gives its one-sided
    # rate, density x face measure / |G_x(y_i) - G_x(y_j)| x |G_z|, to the
    # two pieces it separates (half from each of its cells), so jac has
    # rank N - 1 as at any state where the cells connect all pieces
    sol = face_aligned_quadratic(n, k)
    grid = SourceGrid(np.zeros(n), np.ones(n), [res] * n)
    _owner, masses, jac = cell_split(sol.gf, sol.ys, sol.zs, grid,
                                     values_matrix(sol, grid))
    big_n = len(sol.ys)
    np.testing.assert_allclose(masses, grid.total_mass / big_n, rtol=1e-12)
    assert np.linalg.matrix_rank(jac) == big_n - 1
    gap = np.abs(sol.ys[:, None, :] - sol.ys[None, :, :])
    neighbor = np.isclose(gap.sum(axis=2), 1.0 / k) \
        & (np.count_nonzero(gap > 0.5 / k, axis=2) == 1)
    rate = np.where(neighbor, (1.0 / k) ** (n - 1) * k, 0.0)
    np.testing.assert_allclose(jac - np.diag(np.diag(jac)), rate,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(jac.sum(axis=0), 0.0, atol=1e-12 * k ** n)


def test_interface_cell_count(pb2):
    grid = unit_grid(32)
    sol = pb_two_piece(pb2, grid)
    dec = cell_masses(sol, grid)
    count = int(interface_mask(grid, dec.assignment).sum())
    # one vertical interface: about two columns of cells
    assert 32 <= count <= 4 * 32
