"""Property tests of the paper's inverse-map identities and of the cells.

Three identities, over the three built-in instances and n = 1..3:

* H inverts G in z:          H(x, y, G(x, y, z)) = z;
* (Y, Z) round-trips (G_x, G): (Y, Z)(x, G(x, y, z), G_x(x, y, z)) = (y, z);
* X round-trips Q:           X(y, z, Q(x, y, z)) = x;

and the closed forms' flags admit every (G, G_x) (YZ_flag) and every
Q (X_flag), whose closed-form X is x: each may rule out only rows
without a solution.

Each is checked on interior draws and, separately, on each kind of
edge-of-domain draw: z near an end of I(x, y), |x| -> 1 for the point
source and r = |x - y| -> 0 for the parallel beam (see triples).

With N = 1..4 pieces on a grid, the G-transform pair is an involution
at the nodes, the sub-cell masses partition the source mass and permute
with the pieces, and the solver's focal parameters permute with the
targets.  Runs are derandomized (see conftest.py).
"""

import warnings

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from gjet.conditions import _map_fraction
from gjet.gconvex import (
    PiecewiseGSolution,
    SourceGrid,
    cell_masses,
    dual_transform,
    g_transform,
    validate_pieces_on_grid,
)
from gjet.errors import DomainViolation, OutOfImage
from gjet.genfun import (
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    dual_H,
    forward_YZ,
    forward_YZ_rows,
    map_Q,
    map_X,
)
from gjet.semidiscrete import (
    SemiDiscreteProblem,
    SolverTolerances,
    solve,
    validate_problem,
)

from conftest import NoClosedForm, instance_boxes

INSTANCES = [QuadraticOT(n) for n in (1, 2, 3)] \
    + [ParallelBeam(n) for n in (1, 2, 3)] \
    + [PointSourcePlane(n, tau=-1.0) for n in (1, 2, 3)]
TOL = 1e-7


def _point(draw, lo, hi):
    return np.array([draw(st.floats(float(a), float(b))) for a, b in zip(lo, hi)])


EDGES = {"interior": None, "z_lo": None, "z_hi": None,
         "rim": "point_source", "focus": "parallel_beam"}
MARGIN = 1e-3
GAPS = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)
FOCUS_GAPS = (1e-80, 1e-150)


def _placed(gf, region, x, y, f, gap):
    """(x, y, z) with z at quantile f of I(x, y); z_lo and z_hi take f to
    0 or 1 and rim takes |x| to 1, by gap."""
    if region == "z_lo":
        f = gap
    elif region == "z_hi":
        f = 1.0 - gap
    elif region == "rim":
        x = x / float(np.linalg.norm(x)) * (1.0 - gap)
    lo, hi = gf.z_interval(x, y)
    return x, y, _map_fraction(lo, hi, f)


@st.composite
def triples(draw, gf, region):
    """An admissible (x, y, z) in one region of the admissible set.

    interior: z at a quantile in [0.05, 0.95] of I(x, y), |x| <= 1 - MARGIN
    for the point source and r >= MARGIN for the parallel beam.  Each edge
    region moves one of these to its boundary, by a gap from GAPS: z_lo
    and z_hi take the quantile to 0 or 1, rim takes |x| to 1, focus takes
    r to 0 (and on to where r^2 and 1/r^2 leave the float range).
    """
    n = gf.dimension
    (x_lo, x_hi), (y_lo, y_hi) = instance_boxes(gf)
    x = _point(draw, x_lo, x_hi)
    y = _point(draw, y_lo, y_hi)
    f = draw(st.floats(0.05, 0.95))
    gap = draw(st.sampled_from(GAPS + (FOCUS_GAPS if region == "focus" else ())))
    if region == "rim":
        assume(np.linalg.norm(x) > 0.0)
    elif region == "focus":
        e = _point(draw, -np.ones(n), np.ones(n))
        assume(np.linalg.norm(e) > 0.0)
        y = x + gap * e / np.linalg.norm(e)
    if region != "rim" and gf.name == "point_source":
        assume(np.linalg.norm(x) <= 1.0 - MARGIN)
    if region != "focus" and gf.name == "parallel_beam":
        assume(np.linalg.norm(x - y) >= MARGIN)
    x, y, z = _placed(gf, region, x, y, f, gap)
    assume(gf.admissible_pair(x, y))
    lo, hi = gf.z_interval(x, y)
    assume(lo < z < hi)
    return x, y, z


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b))) <= TOL * (1.0 + float(np.max(np.abs(b))))


def h_inverts_g(gf, x, y, z):
    u = gf.value(x, y, z)
    assert _close(dual_H(gf, x, y, u).z_root, z)


def yz_round_trip(gf, x, y, z):
    b = gf.bundle(x, y, z)
    y2, z2 = forward_YZ(gf, x, b.value, b.grad_x)
    assert _close(y2, y) and _close(z2, z)


def x_round_trip(gf, x, y, z):
    assert _close(map_X(gf, y, z, map_Q(gf, x, y, z)), x)


def yz_flag(gf, x, y, z):
    b = gf.bundle(x, y, z)
    assert gf.forward_yz_batch(x[None, :], np.array([b.value]),
                               b.grad_x[None, :])[2][0]


def x_flag(gf, x, y, z):
    xs, ok = gf._x_of(y[None, :], np.array([z]), map_Q(gf, x, y, z)[None, :])
    assert ok[0] and _close(xs[0], x)


IDENTITIES = {"H_inverts_G": h_inverts_g, "YZ_round_trip": yz_round_trip,
              "X_round_trip": x_round_trip, "YZ_flag": yz_flag,
              "X_flag": x_flag}

# Edge regions where an identity fails today: each cause names the error
# it raises.  Each case must keep failing (strict xfail) with that error
# until its cause is mended, and runs one explicit example (x, y, gap,
# placed as triples places a draw) that shows the cause, so its outcome
# does not hang on the draws.
BEAM_FOLD = ("det E -> 0 as z r -> 1: the closed form divides by 1 - |p|^2 "
             "and Y loses up to 5 digits", AssertionError)
RIM_FORWARD = ("G_x grows like 1/sqrt(1 - |x|^2) at the rim and Y loses up "
               "to 6 digits", AssertionError)
BEAM_X_HI = ("|Q| -> z^2, the edge of the image, as z r -> 1: the closed "
             "form rules attainable slopes out (OutOfImage)", OutOfImage)
BEAM_X_FLAG_HI = ("|Q| -> z^2, the edge of the image, as z r -> 1: the "
                  "closed form's flag rules attainable slopes out",
                  AssertionError)
BEAM_X_HI_EXAMPLES = {1: ([0.5], [-0.5], 1e-15),
                      2: ([0.6, -0.2], [0.2, 0.2], 1e-15),
                      3: ([0.6, 0.4, 0.3], [-0.1, 0.4, 0.7], 1e-12)}
KNOWN_EDGE_FAILURES = {
    **{("YZ_round_trip", "parallel_beam", n, "z_hi"):
       (BEAM_FOLD, ([0.3] * n, [-0.2] * n, 1e-12)) for n in (1, 2, 3)},
    **{("YZ_round_trip", "point_source", n, "rim"):
       (RIM_FORWARD, ([0.3] * n, [-0.2] * n, 1e-15)) for n in (1, 2, 3)},
    **{("X_round_trip", "parallel_beam", n, "z_hi"):
       (BEAM_X_HI, BEAM_X_HI_EXAMPLES[n]) for n in (1, 2, 3)},
    **{("X_flag", "parallel_beam", n, "z_hi"):
       (BEAM_X_FLAG_HI, BEAM_X_HI_EXAMPLES[n]) for n in (1, 2, 3)},
}
# Witnesses of mended edge failures, still run as explicit examples: the
# point source's slope inversion left x off by up to tol / |Q_x| as z -> 0
# (z_lo) and ran out of Newton steps near |x| = 1 (rim).
MENDED_EDGE_EXAMPLES = {
    **{("X_round_trip", "point_source", n, "z_lo"):
       ([0.3] * n, [-0.2] * n, 1e-9) for n in (1, 2, 3)},
    ("X_round_trip", "point_source", 2, "rim"):
        ([-0.3, 0.4], [0.6, 0.4], 1e-9),
    ("X_round_trip", "point_source", 3, "rim"):
        ([-0.2, -0.4, 0.5], [-0.1, 0.3, -0.5], 1e-9),
}


def _cases():
    for ident in IDENTITIES:
        for gf in INSTANCES:
            for region, only in EDGES.items():
                if only not in (None, gf.name):
                    continue
                key = (ident, gf.name, gf.dimension, region)
                marks = ()
                if key in KNOWN_EDGE_FAILURES:
                    (reason, raises), _example = KNOWN_EDGE_FAILURES[key]
                    marks = pytest.mark.xfail(strict=True, reason=reason,
                                              raises=raises)
                yield pytest.param(ident, gf, region, marks=marks,
                                   id=f"{ident}-{gf.name}{gf.dimension}-{region}")


@pytest.mark.parametrize("ident, gf, region", list(_cases()))
def test_identity(ident, gf, region):
    def check(xyz):
        IDENTITIES[ident](gf, *xyz)

    key = (ident, gf.name, gf.dimension, region)
    witness = KNOWN_EDGE_FAILURES.get(key, (None, None))[1] \
        or MENDED_EDGE_EXAMPLES.get(key)
    if witness:
        x, y, gap = witness
        check = example(_placed(gf, region, np.array(x), np.array(y), 0.5,
                                gap))(check)
    # no shrinking: the known edge failures would shrink on every run
    settings(max_examples=30, phases=(Phase.explicit, Phase.generate))(
        given(triples(gf, region))(check))()


@pytest.mark.parametrize("gf", INSTANCES, ids=lambda g: f"{g.name}{g.dimension}")
def test_forward_rows_without_a_solution_leave_before_the_newton(
        gf, monkeypatch):
    # rows the flag rules out come back not ok without a kernel row or a
    # RuntimeWarning, and forward_YZ raises OutOfImage for them
    n = gf.dimension
    rng = np.random.default_rng(5)
    (x_lo, x_hi), _ = instance_boxes(gf)
    xs = rng.uniform(x_lo, x_hi, (400, n))
    us = rng.uniform(-1.0, 4.0, 400)
    ps = rng.uniform(-3.0, 3.0, (400, n))
    out = ~gf.forward_yz_batch(xs, us, ps)[2]
    assert out.any() == (gf.name != "quadratic_ot")
    kernel_rows = []
    raw = gf._raw_batch

    def counted(xs, ys, zs):
        kernel_rows.append(len(xs))
        return raw(xs, ys, zs)

    monkeypatch.setattr(gf, "_raw_batch", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ys, zs, ok = forward_YZ_rows(gf, xs[out], us[out], ps[out])
        assert not ok.any() and np.isnan(zs).all() and np.isnan(ys).all()
        assert kernel_rows == []
        for k in np.flatnonzero(out)[:5]:
            with pytest.raises(OutOfImage, match="no solution"):
                forward_YZ(gf, xs[k], us[k], ps[k])
        assert kernel_rows == []
        assert forward_YZ_rows(gf, xs, us, ps)[2][~out].any()


# --------------------------------------------------------------------------
# pieces, cells and solutions: the G-transform pair, partition and order
# independence
# --------------------------------------------------------------------------

CELL_RES = {1: 64, 2: 20, 3: 8}
SOLVE_TOL = SolverTolerances(mass_tol_rel=1e-9)


def _setting(gf):
    """Source box, anchor height and target range of a solvable layout."""
    if gf.name == "point_source":
        return (-0.4, 0.4), 2.5, (-0.25, 0.25)
    return (0.0, 1.0), 0.75 if gf.name == "parallel_beam" else 0.2, \
        (0.15, 0.85)


@st.composite
def layouts(draw, gf):
    """Grid, N = 1..4 targets at least 0.1 apart, positive weights, a
    permutation of the targets and an anchor (x0, u0) at the center."""
    n = gf.dimension
    (lo, hi), u0, (a, b) = _setting(gf)
    count = draw(st.integers(1, 4))
    pts = np.array([_point(draw, np.full(n, a), np.full(n, b))
                    for _ in range(count)])
    gaps = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    assume(np.all(gaps[np.triu_indices(count, 1)] >= 0.1))
    weights = np.array([draw(st.floats(0.5, 1.5)) for _ in range(count)])
    perm = np.array(draw(st.permutations(range(count))))
    grid = SourceGrid([lo] * n, [hi] * n, [CELL_RES[n]] * n)
    return grid, pts, weights, perm, (np.full(n, 0.5 * (lo + hi)), u0)


def _cases_for(name):
    for gf in INSTANCES:
        yield pytest.param(gf, id=f"{name}-{gf.name}{gf.dimension}")


def _anchored_pieces(gf, layout, data):
    """The layout's targets with pieces through the anchor, heights moved
    by up to 5%; rejects layouts whose pieces leave I on the grid."""
    grid, pts, _weights, _perm, (x0, u0) = layout
    us = u0 * (1.0 + np.array([data.draw(st.floats(-0.05, 0.05))
                               for _ in pts]))
    zs = [dual_H(gf, x0, y, u).z_root for y, u in zip(pts, us)]
    sol = PiecewiseGSolution(gf, pts, zs)
    try:
        validate_pieces_on_grid(sol, grid)
    except DomainViolation:
        assume(False)
    return sol


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "gf", list(_cases_for("involution"))
    + [pytest.param(NoClosedForm(PointSourcePlane(2, tau=-1.0)),
                    id="involution-NoClosedForm-point_source2")])
def test_g_transform_pair_is_an_involution(gf):
    # v = g_transform(u) on the pieces' own targets, then
    # dual_transform(v) = u at every node.  Exact in exact arithmetic;
    # here to H's accuracy, |H - z| <= 1e-10 |z| + 4 eps |u| / |G_z|,
    # pushed through G, plus the rounding of u
    @settings(max_examples=10, phases=(Phase.generate,))
    @given(layouts(gf), st.data())
    def check(layout, data):
        grid = layout[0]
        sol = _anchored_pieces(gf, layout, data)
        u = np.max([gf.value_batch(grid.centers, y, z)
                    for y, z in zip(sol.ys, sol.zs)], axis=0)
        v = g_transform(sol, sol.ys, grid)
        back = dual_transform(gf, sol.ys, v, grid).ravel()
        gz = np.abs([gf.bundle_batch(grid.centers, y, z).dz
                     for y, z in zip(sol.ys, sol.zs)])
        dz = 1e-10 * np.abs(sol.zs) + 4.0 * EPS * np.max(np.abs(u) / gz, axis=1)
        tol = np.max(gz * dz[:, None], axis=0) + 4.0 * EPS * np.abs(u)
        assert np.all(np.abs(back - u) <= tol)

    check()


@pytest.mark.parametrize("gf", list(_cases_for("cells")))
def test_cell_masses_partition_and_permute(gf):
    # pieces through the anchor with heights moved by up to 5%: the
    # masses sum to the source mass, each lies in [0, total], and
    # permuting the pieces permutes the masses
    @settings(max_examples=15, phases=(Phase.generate,))
    @given(layouts(gf), st.data())
    def check(layout, data):
        grid, perm = layout[0], layout[3]
        sol = _anchored_pieces(gf, layout, data)
        masses = cell_masses(sol, grid).masses
        total = grid.total_mass
        assert masses.sum() == pytest.approx(total, rel=1e-13)
        # [0, total] up to summation order (total is a pairwise sum)
        assert np.all((masses >= 0.0) & (masses <= total * (1.0 + 1e-13)))
        permuted = PiecewiseGSolution(gf, sol.ys[perm], sol.zs[perm])
        moved = cell_masses(permuted, grid).masses
        assert np.max(np.abs(moved - masses[perm])) <= 1e-12 * total

    check()


@pytest.mark.parametrize("gf", list(_cases_for("solve")))
def test_solution_permutes_with_the_targets(gf):
    # both orders solve to mass_tol_rel 1e-9; z and the masses permute
    @settings(max_examples=10, phases=(Phase.generate,))
    @given(layouts(gf))
    def check(layout):
        grid, pts, weights, perm, anchor = layout
        masses = weights * (grid.total_mass / weights.sum())
        prob = SemiDiscreteProblem(gf, grid, pts, masses, anchor, SOLVE_TOL)
        assume(validate_problem(prob) == [])
        one = solve(prob)
        other = solve(SemiDiscreteProblem(gf, grid, pts[perm], masses[perm],
                                          anchor, SOLVE_TOL))
        assert np.max(np.abs(other.z - one.z[perm])
                      / (1.0 + np.abs(one.z))) <= 1e-7
        assert np.max(np.abs(other.decomposition.masses
                             - one.decomposition.masses[perm])) \
            <= 2e-9 * grid.total_mass

    check()
