"""Generating-function bundles, forward/dual maps, induced matrices.

Expected values tagged in comments as [closed] were computed by hand
from the defining formulas; everything else is checked against an
independent finite-difference oracle of G itself.
"""

import dataclasses
import math

import numpy as np
import pytest

from gjet.errors import (
    DomainViolation,
    GjetError,
    NoConvergence,
    NoRoot,
    OutOfImage,
    RangeViolation,
    SingularE,
)
from gjet import genfun
from gjet.conditions import _map_fraction
from gjet.genfun import (
    BatchBundle,
    GeneratingFunction,
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
    RowStatus,
    dual_Astar_Bstar,
    dual_Astar_Bstar_rows,
    dual_H,
    dual_H_rows,
    eval_bundle,
    fd_step,
    forward_YZ,
    forward_YZ_rows,
    map_Q,
    map_X,
    map_X_rows,
    matrix_A,
    matrix_A_B,
    matrix_A_B_rows,
    matrix_E,
)

from conftest import (
    ConstantInY,
    NoClosedForm,
    instance_boxes,
    sample_admissible,
)


def all_instances():
    return [QuadraticOT(2), ParallelBeam(2), PointSourcePlane(2, tau=0.0),
            PointSourcePlane(2, tau=-1.0)]


# --------------------------------------------------------------------------
# finite-difference oracle on G itself
# --------------------------------------------------------------------------

def fd_bundle(gf, x, y, z, h=1e-5, h2=2e-4):
    """All bundle fields from central differences of the scalar G.

    First derivatives use step h; nested second differences use the
    larger h2, which balances truncation against the eps/h^2 rounding
    floor of a double difference.
    """
    n = gf.dimension

    def g(xv, yv, zv):
        return gf.value(xv, yv, zv)

    def d(fun, v, k, hh):
        e = np.zeros(len(v))
        e[k] = hh
        return (fun(v + e) - fun(v - e)) / (2 * hh)

    gx = np.array([d(lambda v: g(v, y, z), x, k, h) for k in range(n)])
    gy = np.array([d(lambda v: g(x, v, z), y, k, h) for k in range(n)])
    gz = (g(x, y, z + h) - g(x, y, z - h)) / (2 * h)
    gxx = np.empty((n, n))
    gxy = np.empty((n, n))
    gyy = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            gxx[i, j] = d(lambda v: d(lambda w: g(w, y, z), v, i, h2),
                          x, j, h2)
            gyy[i, j] = d(lambda v: d(lambda w: g(x, w, z), v, i, h2),
                          y, j, h2)
            gxy[i, j] = d(lambda v: d(lambda w: g(w, v, z), x, i, h2),
                          y, j, h2)
    gxz = np.array([
        d(lambda v: (g(v, y, z + h2) - g(v, y, z - h2)) / (2 * h2), x, k, h2)
        for k in range(n)])
    gyz = np.array([
        d(lambda v: (g(x, v, z + h2) - g(x, v, z - h2)) / (2 * h2), y, k, h2)
        for k in range(n)])
    gzz = (g(x, y, z + h2) - 2 * g(x, y, z) + g(x, y, z - h2)) / h2 ** 2
    return dict(grad_x=gx, grad_y=gy, dz=gz, hess_xx=gxx, hess_xy=gxy,
                hess_yy=gyy, grad_xz=gxz, grad_yz=gyz, dzz=gzz)


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_bundle_matches_finite_differences(gf):
    rng = np.random.default_rng(7)
    x_box, y_box = instance_boxes(gf)
    for _ in range(6):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        b = gf.bundle(x, y, z)
        fd = fd_bundle(gf, x, y, z)
        for name, ref in fd.items():
            got = getattr(b, name)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.allclose(got, ref, atol=1e-6 * scale), \
                f"{gf.name}.{name}: {got} vs FD {ref}"


def test_eval_bundle_examples(pb1, pb2, qot2):
    # coincident points: G = 1/(2z)
    b = eval_bundle(pb2, [0.4, 0.1], [0.4, 0.1], 1.0)
    assert b.value == pytest.approx(0.5)
    assert np.allclose(b.grad_x, 0.0)
    # hand substitution at n=1, x=0, y=1, z=0.5
    b = eval_bundle(pb1, [0.0], [1.0], 0.5)
    assert b.value == pytest.approx(0.75)
    assert b.dz == pytest.approx(-2.5)
    # quadratic instance at x=(1,0), y=(0,0), z=2
    b = eval_bundle(qot2, [1.0, 0.0], [0.0, 0.0], 2.0)
    assert b.value == pytest.approx(-1.5)
    assert b.dz == pytest.approx(-1.0)
    assert np.allclose(b.hess_xx, np.eye(2))


def test_eval_bundle_domain_errors(pb1, ps0):
    with pytest.raises(DomainViolation):
        eval_bundle(pb1, [0.0], [1.0], 1.5)   # z above 1/|x-y| = 1
    with pytest.raises(DomainViolation):
        eval_bundle(pb1, [0.0], [1.0], -0.1)  # z below 0
    with pytest.raises(DomainViolation):
        eval_bundle(ps0, [1.2, 0.0], [0.0, 0.0], 1.0)  # |x| >= 1


# --------------------------------------------------------------------------
# one evaluation contract: scalar entry points are one-row batch calls
# --------------------------------------------------------------------------

CONTRACT_INSTANCES = [cls(n) for cls in (QuadraticOT, ParallelBeam)
                      for n in (1, 2, 3)] \
    + [PointSourcePlane(n, tau=-1.0) for n in (1, 2, 3)]


def edge_rows(gf, rng, m):
    """(x, y) rows from the instance's sampling boxes; every third row is
    an edge row: |x| -> 1 for the point source, r = |x - y| -> 0 for the
    parallel beam."""
    n = gf.dimension
    (x_lo, x_hi), (y_lo, y_hi) = instance_boxes(gf)
    xs = rng.uniform(x_lo, x_hi, (m, n))
    ys = rng.uniform(y_lo, y_hi, (m, n))
    gap = 10.0 ** rng.uniform(-15.0, -2.0, (m, 1))
    edge = np.arange(m) % 3 == 0
    if gf.name == "point_source":
        rim = xs / np.linalg.norm(xs, axis=1, keepdims=True) * (1.0 - gap)
        xs[edge] = rim[edge]
    elif gf.name == "parallel_beam":
        ys[edge] = (xs + gap * rng.normal(size=(m, n)))[edge]
    return xs, ys


@pytest.mark.parametrize("gf", CONTRACT_INSTANCES,
                         ids=lambda g: f"{g.name}{g.dimension}")
def test_scalar_entry_points_are_one_row_of_the_batch(gf):
    rng = np.random.default_rng(43)
    m = 60
    xs, ys = edge_rows(gf, rng, m)
    adm = gf.admissible_pair_batch(xs, ys)
    lo, hi = gf.z_interval_batch(xs, ys)
    assert adm.sum() >= 50
    zs = np.array([_map_fraction(a, b, f) for a, b, f
                   in zip(lo, hi, rng.uniform(0.001, 0.999, m))])
    xs, ys, zs, lo, hi = xs[adm], ys[adm], zs[adm], lo[adm], hi[adm]
    batch = gf.bundle_batch(xs, ys, zs)
    names = [f.name for f in dataclasses.fields(BatchBundle)]
    for k in range(len(xs)):
        x, y, z = xs[k], ys[k], zs[k]
        assert gf.admissible_pair(x, y) is True
        assert gf.z_interval(x, y) == (lo[k], hi[k])
        one = gf.bundle(x, y, z)
        for name in names:
            assert np.array_equal(getattr(one, name), getattr(batch, name)[k]), name


def layouts(a):
    """The same (m, n) rows C-ordered, F-ordered and as a column slice."""
    wide = np.zeros((len(a), a.shape[1] + 1))
    wide[:, 1:] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "sliced": wide[:, 1:]}


def kernel_outputs(gf, xs, ys, zs, us, ps, qs, y, z):
    """Every row output of the kernels and their closed forms, by name."""
    b = gf.bundle_batch(xs, ys, zs)
    out = {f.name: getattr(b, f.name) for f in dataclasses.fields(b)}
    out["value_batch"] = gf.value_batch(xs, y, z)
    out["h_batch"] = gf.h_batch(xs, ys, us)
    out["z_lo"], out["z_hi"] = gf.z_interval_batch(xs, ys)
    out["admissible"] = gf.admissible_pair_batch(xs, ys)
    for name, v in zip(("Y", "Z", "valid"), gf.forward_yz_batch(xs, us, ps)):
        out[f"forward_{name}"] = v
    closed_x = gf._x_of(ys, zs, qs)   # None: the point source has none
    if closed_x is not None:
        out["X"], out["X_ok"] = closed_x
    return out


@pytest.mark.parametrize("gf", CONTRACT_INSTANCES,
                         ids=lambda g: f"{g.name}{g.dimension}")
def test_kernel_bits_do_not_depend_on_the_row_layout(gf):
    # the row sums run column by column in one order, so C-ordered,
    # F-ordered, column-sliced and one-row inputs give the same bits;
    # edge rows (point source |x| -> 1, beam r -> 0) and rows whose
    # products x_k y_k are all -0.0 included
    rng = np.random.default_rng(53)
    n = gf.dimension
    xs, ys = edge_rows(gf, rng, 60)
    xs = np.vstack([xs, np.zeros((2, n))])
    ys = np.vstack([ys, np.full((1, n), -0.25), np.full((1, n), 0.25)])
    xs[-1] = -0.0
    adm = gf.admissible_pair_batch(xs, ys)
    xs, ys = xs[adm], ys[adm]
    zs = genfun._map_fraction_rows(*gf.z_interval_batch(xs, ys), 0.5)
    b = gf.bundle_batch(xs, ys, zs)
    us, ps, qs = b.value, b.grad_x, gf.q_batch(xs, ys, zs)
    y, z = ys[0], zs[0]
    ref = kernel_outputs(gf, xs, ys, zs, us, ps, qs, y, z)
    variants = [layouts(a) for a in (xs, ys, ps, qs)]
    for name in variants[0]:
        xs_l, ys_l, ps_l, qs_l = (v[name] for v in variants)
        got = kernel_outputs(gf, xs_l, ys_l, zs, us, ps_l, qs_l, y, z)
        for key, v in ref.items():
            assert got[key].tobytes() == v.tobytes(), (name, key)
    for k in range(len(xs)):
        row = slice(k, k + 1)
        got = kernel_outputs(gf, xs[row], ys[row], zs[row], us[row],
                             ps[row], qs[row], y, z)
        for key, v in ref.items():
            assert got[key].tobytes() == v[row].tobytes(), (k, key)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sums_repeat_einsum_on_c_ordered_rows(n):
    # the kernels' row sum keeps the bits of the einsum it replaced on
    # C-ordered rows, and sums products that are all -0.0 to +0.0
    rng = np.random.default_rng(n)
    a = rng.standard_normal((4000, n)) * 10.0 ** rng.integers(-8, 9, (4000, n))
    b = rng.standard_normal((4000, n))
    a[:10], b[:10] = 0.0, -1.0
    for lhs, rhs in ((a, b), (a, b[:1]), (a[:1], b)):
        assert genfun._row_dot(lhs, rhs).tobytes() == \
            np.einsum("ij,ij->i", lhs, rhs).tobytes()
    assert not np.signbit(genfun._row_dot(a[:10], b[:10])).any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_admissibility_is_the_row_wise_finite_mask(n):
    # the default admissible_pair_batch tests finiteness column by column
    gf = QuadraticOT(n)
    assert type(gf).admissible_pair_batch is GeneratingFunction.admissible_pair_batch
    rng = np.random.default_rng(n)
    xs, ys = rng.uniform(-1.0, 1.0, (2, 80, n))
    for rows in (xs, ys):
        rows.flat[rng.integers(0, rows.size, 24)] = \
            rng.choice([np.inf, -np.inf, np.nan], 24)

    def reference(xs, ys):
        return np.isfinite(xs).all(axis=1) & np.isfinite(ys).all(axis=1)

    assert np.array_equal(gf.admissible_pair_batch(xs, ys), reference(xs, ys))
    for y in (np.zeros(n), np.r_[np.nan, np.zeros(n - 1)], ys[0]):
        assert np.array_equal(gf.admissible_pair_batch(xs, y),
                              reference(xs, np.tile(y, (len(xs), 1))))


@pytest.mark.parametrize("gf", CONTRACT_INSTANCES,
                         ids=lambda g: f"{g.name}{g.dimension}")
def test_scalar_value_is_one_row_of_value_batch(gf):
    # G is written once per instance: the scalar value, the per-target
    # closure and the bundle's value are all that formula, bit for bit
    rng = np.random.default_rng(47)
    xs, ys = edge_rows(gf, rng, 60)
    xs = xs[gf.admissible_pair_batch(xs, ys)]
    y = ys[0]
    lo, hi = gf.z_interval_batch(xs, y)
    z = _map_fraction(float(np.max(lo)), float(np.min(hi)), 0.5)
    batch = gf.value_batch(xs, y, z)
    assert np.array_equal(gf.piece_values_fn(xs, y)(z), batch)
    assert np.array_equal(gf.bundle_batch(xs, y, z).value, batch)
    for k, x in enumerate(xs):
        assert gf.value(x, y, z) == batch[k], k


# --------------------------------------------------------------------------
# dual function H
# --------------------------------------------------------------------------

def test_dual_H_parallel_beam_coincident(pb2):
    # H = 1/(2u) at coincident points
    dv = dual_H(pb2, [0.3, -0.1], [0.3, -0.1], 0.25)
    assert dv.z_root == pytest.approx(2.0, abs=1e-10)


def test_dual_H_quadratic(qot2):
    dv = dual_H(qot2, [1.0, 0.0], [0.0, 0.0], 0.3)
    assert dv.z_root == pytest.approx(0.5 - 0.3)   # [closed] |x-y|^2/2 - u
    assert dv.h_u == pytest.approx(-1.0)


def test_dual_H_parallel_beam_closed_form(pb1):
    dv = dual_H(pb1, [0.0], [1.0], 0.2)
    assert dv.z_root == pytest.approx(1.0 / (0.2 + math.sqrt(0.04 + 1.0)),
                                      abs=1e-12)


def test_dual_H_range_violation(pb1):
    # J(x, y) = (0, inf): u <= 0 has no root
    with pytest.raises(RangeViolation):
        dual_H(pb1, [0.0], [1.0], -0.5)


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_dual_H_roundtrip_and_gradients(gf):
    rng = np.random.default_rng(11)
    x_box, y_box = instance_boxes(gf)
    for _ in range(5):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        u = gf.value(x, y, z)
        dv = dual_H(gf, x, y, u)
        assert dv.z_root == pytest.approx(z, abs=1e-10 * (1 + abs(z)))
        assert abs(gf.value(x, y, dv.z_root) - u) <= 1e-10 * (1 + abs(u))
        assert dv.h_u < 0
        # gradient relations against finite differences of the root
        h = 1e-5
        for k in range(gf.dimension):
            e = np.zeros(gf.dimension)
            e[k] = h
            fd = (dual_H(gf, x + e, y, u).z_root
                  - dual_H(gf, x - e, y, u).z_root) / (2 * h)
            assert fd == pytest.approx(dv.h_x[k], abs=1e-5 * (1 + abs(fd)))
            fd = (dual_H(gf, x, y + e, u).z_root
                  - dual_H(gf, x, y - e, u).z_root) / (2 * h)
            assert fd == pytest.approx(dv.h_y[k], abs=1e-5 * (1 + abs(fd)))
        fd = (dual_H(gf, x, y, u + h).z_root
              - dual_H(gf, x, y, u - h).z_root) / (2 * h)
        assert fd == pytest.approx(dv.h_u, abs=1e-5 * (1 + abs(fd)))


# --------------------------------------------------------------------------
# forward map (Y, Z)
# --------------------------------------------------------------------------

def test_forward_parallel_beam_vertex(pb2):
    y, z = forward_YZ(pb2, [0.2, -0.4], 0.5, [0.0, 0.0])
    assert np.allclose(y, [0.2, -0.4])
    assert z == pytest.approx(1.0)


def test_forward_quadratic(qot2):
    y, z = forward_YZ(qot2, [0.3, 0.1], 0.4, [0.5, -0.2])
    assert np.allclose(y, [0.3 - 0.5, 0.1 + 0.2])
    assert z == pytest.approx(0.5 * 0.29 - 0.4)


def test_forward_point_source_example(ps0):
    y, z = forward_YZ(ps0, [0.0, 0.0], 0.5, [0.0, 0.0])
    assert np.allclose(y, 0.0)
    assert z == pytest.approx(4.0)


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_forward_roundtrip(gf):
    rng = np.random.default_rng(3)
    x_box, y_box = instance_boxes(gf)
    for _ in range(10):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        b = gf.bundle(x, y, z)
        y2, z2 = forward_YZ(gf, x, b.value, b.grad_x)
        assert np.allclose(y2, y, atol=1e-8), gf.name
        assert z2 == pytest.approx(z, abs=1e-8)


def test_forward_generic_initialization(pb2):
    # force the generic path (no closed-form hint) through a wrapper
    gf = NoClosedForm(pb2)
    x = np.array([0.2, 0.3])
    y, z = forward_YZ(gf, x, 0.6, [0.1, -0.05])
    y_ref, z_ref = forward_YZ(pb2, x, 0.6, [0.1, -0.05])
    assert np.allclose(y, y_ref, atol=1e-8)
    assert z == pytest.approx(z_ref, abs=1e-8)


def test_forward_infeasible_raises(pb2):
    with pytest.raises(GjetError):
        forward_YZ(pb2, [0.0, 0.0], 0.5, [1.5, 0.0])  # |p| >= 1 unreachable


def reference_forward_YZ(gf, x, u, p, tol=1e-11, max_iter=50):
    """The per-point forward Newton that the row Newton replaced, kept as
    the oracle: scalar bundles, scalar admissibility, one point at a time;
    a row that the closed form rules out raises OutOfImage at once."""
    n = gf.dimension
    x, p, u = np.asarray(x, dtype=float), np.asarray(p, dtype=float), float(u)
    scale = 1.0 + abs(u) + float(np.max(np.abs(p)))
    closed = gf.forward_yz_batch(x[None, :], np.array([u]), p[None, :])
    if closed is not None:
        if not closed[2][0]:
            raise OutOfImage(
                "forward map: no solution, the closed form rules (u, p) out")
        y, z = closed[0][0], float(closed[1][0])
    else:
        y = x.copy()
        lo, hi = gf.z_interval(x, y)
        if math.isfinite(lo) and math.isfinite(hi):
            z = 0.5 * (lo + hi)
        elif math.isfinite(lo):
            z = lo + 1.0
        elif math.isfinite(hi):
            z = hi - 1.0
        else:
            z = 0.0

    def admissible(yv, zv):
        if not gf.admissible_pair(x, yv):
            return False
        lo, hi = gf.z_interval(x, yv)
        return lo < zv < hi

    if not admissible(y, z):
        raise DomainViolation("forward map: initial iterate is inadmissible")

    bnd = gf.bundle(x, y, z)
    res = np.concatenate([bnd.grad_x - p, [bnd.value - u]])
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm <= tol * scale:
            return y, z
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = bnd.hess_xy
        jac[:n, n] = bnd.grad_xz
        jac[n, :n] = bnd.grad_y
        jac[n, n] = bnd.dz
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise NoConvergence("forward map: singular Newton system")
        lam = 1.0
        for _ in range(45):
            y_try = y + lam * step[:n]
            z_try = z + lam * step[n]
            if admissible(y_try, z_try):
                bnd_try = gf.bundle(x, y_try, z_try)
                res_try = np.concatenate([bnd_try.grad_x - p,
                                          [bnd_try.value - u]])
                rn_try = float(np.max(np.abs(res_try)))
                if rn_try < rnorm or rn_try <= tol * scale:
                    y, z, bnd, res, rnorm = y_try, z_try, bnd_try, res_try, rn_try
                    break
            lam *= 0.5
        else:
            raise DomainViolation(
                "forward map: Newton step could not stay in the admissible set")
    if rnorm <= tol * scale:
        return y, z
    raise NoConvergence(
        f"forward map: iteration budget exhausted (residual {rnorm:.3e})")


def outcome(fn, *args, **kwargs):
    """(y, z) or the (type, message) of the GjetError fn raises."""
    try:
        return fn(*args, **kwargs)
    except GjetError as exc:
        return type(exc), str(exc)


FORWARD_INSTANCES = [NoClosedForm(gf) for gf in CONTRACT_INSTANCES] \
    + CONTRACT_INSTANCES


class FarStart(NoClosedForm):
    """inner behind start hooks that hand each known row its own start
    (rows: (m, 2n + 1) rows [a, b, c] of a hook's arguments), flagged as
    inner's closed form flags the row, or True where inner has none."""

    def __init__(self, inner, rows, starts):
        super().__init__(inner)
        self.starts = {r.tobytes(): v for r, v in zip(rows, starts)}

    def _start(self, a, b, c, closed):
        v = np.array([self.starts[r.tobytes()]
                      for r in np.column_stack([a, b, c])])
        return v, np.ones(len(v), dtype=bool) if closed is None else closed[-1]

    def forward_yz_batch(self, xs, us, ps):
        v, ok = self._start(xs, us, ps, self.inner.forward_yz_batch(xs, us, ps))
        return v[:, :-1], v[:, -1], ok

    def _x_of(self, ys, zs, qs):
        return self._start(ys, zs, qs, self.inner._x_of(ys, zs, qs))


@pytest.mark.parametrize("with_initial", [False, True], ids=["cold", "initial"])
@pytest.mark.parametrize(
    "gf", FORWARD_INSTANCES,
    ids=lambda g: f"{type(g).__name__}-{g.name}{g.dimension}")
def test_forward_matches_scalar_reference(gf, with_initial):
    # forward_YZ is one row of the row Newton: it must equal the per-point
    # loop bit for bit, and raise the loop's exception with its message;
    # forward_YZ_rows must solve the same rows to the same bits.  With
    # initial, every row starts from a far start that FarStart's hook hands
    # in, so rows accept damped steps at different halvings
    rng = np.random.default_rng(37)
    n = gf.dimension
    m = 14
    x_box, y_box = instance_boxes(gf)
    pts = [sample_admissible(gf, rng, x_box, y_box) for _ in range(m)]
    xs = np.array([x for x, _, _ in pts])
    us = np.array([gf.value(*pt) for pt in pts])
    ps = np.array([gf.bundle(*pt).grad_x for pt in pts])
    us[4:] += rng.normal(0.0, 0.05, m - 4)
    ps[4:] += rng.normal(0.0, 0.05, (m - 4, n))
    if gf.name == "parallel_beam":
        ps[2] = np.full(n, 2.0)         # |p| > 1: no beam target reaches it
    if with_initial:
        far = [np.append(y + (0.05 if k % 2 else 0.5) * rng.normal(0.0, 1.0, n),
                         z * rng.uniform(0.5, 1.5))
               for k, (_x, y, z) in enumerate(pts)]
        gf = FarStart(gf, np.column_stack([xs, us, ps]), far)
    outcomes = []
    for k, x in enumerate(xs):
        want = outcome(reference_forward_YZ, gf, x, us[k], ps[k])
        got = outcome(forward_YZ, gf, x, us[k], ps[k])
        if isinstance(want[0], type):
            assert got == want, k
        else:
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], k
        outcomes.append(want)
    solved = [not isinstance(w[0], type) for w in outcomes]
    assert sum(solved) >= m // 2
    ys, zs, ok = forward_YZ_rows(gf, xs, us, ps)
    assert ok.tolist() == solved
    for k, want in enumerate(outcomes):
        if solved[k]:
            assert np.array_equal(ys[k], want[0]) and zs[k] == want[1], k


# --------------------------------------------------------------------------
# dual function H as rows
# --------------------------------------------------------------------------

def reference_dual_H(gf, x, y, u, z_tol=1e-12, max_iter=60):
    """The per-point H iteration that dual_H_rows replaced, kept as the
    oracle: scalar values, one point at a time, the bracket 1e-13 inside
    the finite ends of I, started from one row of _h_of (else the bracket
    midpoint).  Returns the root."""
    x, y, u = np.asarray(x, dtype=float), np.asarray(y, dtype=float), float(u)
    if not gf.admissible_pair(x, y):
        raise DomainViolation(
            f"pair (x, y) outside the admissible set for {gf.name}")
    lo, hi = gf.z_interval(x, y)
    span = (hi - lo) if (math.isfinite(lo) and math.isfinite(hi)) else 1.0

    def g(z):
        return gf.value(x, y, z)

    if math.isfinite(lo):
        a = lo + 1e-13 * max(span, abs(lo), 1.0)
    else:
        a = min(-1.0, hi - 1.0) if math.isfinite(hi) else -1.0
        for _ in range(200):
            if g(a) >= u:
                break
            a = a * 2.0 if a < 0 else a - 1.0
        else:
            raise NoRoot("could not bracket the root from below")
    if math.isfinite(hi):
        b = hi - 1e-13 * max(span, abs(hi), 1.0)
    else:
        b = max(1.0, a + 1.0)
        for _ in range(200):
            if g(b) <= u:
                break
            b *= 2.0
        else:
            raise NoRoot("could not bracket the root from above")
    ga, gb = g(a), g(b)
    if not (ga >= u >= gb):
        raise RangeViolation(
            f"u = {u} outside the attainable range [{gb}, {ga}] on I(x, y)")

    with np.errstate(divide="ignore", invalid="ignore"):
        h = gf._h_of(x[None, :], y[None, :], np.array([u]))
    z = None if h is None else float(h[0])
    if z is None or not (math.isfinite(z) and a < z < b):
        z = 0.5 * (a + b)
    for _ in range(max_iter):
        bnd = gf.bundle(x, y, z)
        f = bnd.value - u
        if f >= 0.0:
            a = z
        else:
            b = z
        if b - a <= z_tol * (1.0 + abs(z)):
            break
        step_ok = False
        if bnd.dz < 0.0:
            zn = z - f / bnd.dz
            if a < zn < b:
                z = zn
                step_ok = True
        if not step_ok:
            z = 0.5 * (a + b)
    slack = (b - a) + z_tol * (1.0 + abs(z))
    for _ in range(2):
        bnd = gf.bundle(x, y, z)
        if not bnd.dz < 0.0:
            break
        zn = z - (bnd.value - u) / bnd.dz
        if not (a - slack <= zn <= b + slack) or not (lo < zn < hi):
            break
        z = zn
    return float(z)


H_INSTANCES = CONTRACT_INSTANCES + [PointSourcePlane(n, tau=0.0)
                                    for n in (1, 2, 3)]
H_EDGE_GAPS = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)
EPS = np.finfo(float).eps


def h_rows(gf, rng):
    """(xs, ys, us, z_true) for dual_H_rows: interior draws, draws at
    H_EDGE_GAPS from each end of I(x, y), perturbed u that may leave the
    attainable range, and the rows that fail before the Newton: an
    inadmissible pair for the point source, u beyond any bracket for the
    quadratic, u below the range for the beam.  z_true is the drawn root,
    NaN on the rows after the draws."""
    n = gf.dimension
    x_box, y_box = instance_boxes(gf)
    fracs = list(rng.uniform(0.05, 0.95, 8)) \
        + [f for gap in H_EDGE_GAPS for f in (gap, 1.0 - gap)]
    xs, ys, us, z_true = [], [], [], []
    for f in fracs:
        while True:
            x = x_box[0] + rng.random(n) * (x_box[1] - x_box[0])
            y = y_box[0] + rng.random(n) * (y_box[1] - y_box[0])
            if gf.admissible_pair(x, y):
                break
        z_true.append(_map_fraction(*gf.z_interval(x, y), f))
        xs.append(x)
        ys.append(y)
        us.append(gf.value(x, y, z_true[-1]))
    for k in range(4):
        xs.append(xs[k])
        ys.append(ys[k])
        us.append(us[k] * (1.0 + rng.normal(0.0, 0.5)))
    special = {"point_source": [(np.full(n, 1.0), 0.5)],
               "quadratic_ot": [(np.zeros(n), 1e300), (np.zeros(n), -1e300)],
               "parallel_beam": [(np.zeros(n), -0.5)]}[gf.name]
    for x, u in special:
        xs.append(x)
        ys.append(ys[0])
        us.append(u)
    z_true += [math.nan] * (len(us) - len(z_true))
    return np.array(xs), np.array(ys), np.array(us), np.array(z_true)


def h_id(gf):
    tau = getattr(getattr(gf, "inner", gf), "tau", None)
    return f"{type(gf).__name__}-{gf.name}{gf.dimension}" \
        + ("-tau0" if tau == 0.0 else "")


def h_bound(gf, x, y, z, u):
    """The accuracy dual_H_rows promises for a root z of G(x, y, .) = u:
    1e-10 relative to z, down to the rounding of u itself."""
    return 1e-10 * abs(z) + 4.0 * EPS * abs(u) / abs(gf.bundle(x, y, z).dz)


def h_residual(gf, x, y, z, u):
    """|G(x, y, z) - u| and its rounding level 2 eps (|G| + |u|)."""
    g = gf.value(x, y, z)
    return abs(g - u), 2.0 * EPS * (abs(g) + abs(u))


@pytest.mark.parametrize(
    "gf", [NoClosedForm(g) for g in H_INSTANCES] + H_INSTANCES, ids=h_id)
def test_dual_H_rows_match_scalar_reference(gf):
    # every drawn root is found to h_bound (a failing bracket end moves
    # towards I's end); the per-point loop gives the statuses, and the
    # rows that fail raise through dual_H the exception (type and
    # message) their status names.  A root the reference finds is
    # matched by a root at rounding level or with a residual no larger
    xs, ys, us, z_true = h_rows(gf, np.random.default_rng(43))
    zs, status, g_range = dual_H_rows(gf, xs, ys, us)
    drawn = np.isfinite(z_true)
    assert (status[drawn] == RowStatus.OK).all()
    for k in np.flatnonzero(drawn):
        assert abs(zs[k] - z_true[k]) \
            <= h_bound(gf, xs[k], ys[k], z_true[k], us[k]), k
    for k in range(len(us)):
        want = outcome(reference_dual_H, gf, xs[k], ys[k], us[k])
        got = outcome(lambda *a: dual_H(*a).z_root, gf, xs[k], ys[k], us[k])
        if not isinstance(want, tuple):
            assert got == zs[k], k
            res, rounding = h_residual(gf, xs[k], ys[k], got, us[k])
            assert res <= max(rounding,
                              h_residual(gf, xs[k], ys[k], want, us[k])[0]), k
        elif want[0] is RangeViolation and status[k] == RowStatus.OK:
            # the sign test failed at the inset bracket only
            lo, hi = gf.z_interval(xs[k], ys[k])
            assert got == zs[k] and lo < got < hi, k
        elif want[0] is RangeViolation:
            assert status[k] == RowStatus.OUT_OF_RANGE, k
            gb, ga = g_range[k]
            assert got == (RangeViolation,
                           f"u = {us[k]} outside the attainable range "
                           f"[{gb}, {ga}] on I(x, y)"), k
        else:
            assert got == want, k
            assert np.isnan(zs[k]), k
    # the draws reach the failing paths of the bracket and of the sign test
    assert (status != RowStatus.OK).any()


@pytest.mark.parametrize(
    "gf", [NoClosedForm(g) for g in CONTRACT_INSTANCES] + CONTRACT_INSTANCES,
    ids=h_id)
def test_dual_H_is_relatively_accurate_near_zero(gf):
    # the stop rule is relative: a root near z = 0 keeps its digits down
    # to the rounding of u, which alone limits the quadratic (u = c - z)
    rng = np.random.default_rng(5)
    x_box, y_box = instance_boxes(gf)
    for _ in range(3):
        x, y, _z = sample_admissible(gf, rng, x_box, y_box)
        for z in (1e-14, 1e-12, 1e-10, 1e-8):
            u = gf.value(x, y, z)
            assert abs(dual_H(gf, x, y, u).z_root - z) \
                <= h_bound(gf, x, y, z, u), (x, y, z)


class CountingKernel(NoClosedForm):
    """A built-in instance, closed-form H and value closure included,
    that counts its kernel calls."""

    calls = 0

    def _raw_batch(self, xs, ys, zs):
        self.calls += 1
        return super()._raw_batch(xs, ys, zs)

    def _piece_values(self, xs, ys):
        return self.inner._piece_values(xs, ys)

    def _h_of(self, xs, ys, us):
        return self.inner._h_of(xs, ys, us)


@pytest.mark.parametrize("gf", CONTRACT_INSTANCES, ids=h_id)
def test_dual_H_from_the_closed_form_costs_two_kernel_calls(gf):
    # the closed form already meets the stop rule: one kernel call for
    # the root, one for the gradients
    rng = np.random.default_rng(7)
    x_box, y_box = instance_boxes(gf)
    for _ in range(5):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        counted = CountingKernel(gf)
        dual_H(counted, x, y, gf.value(x, y, z))
        assert counted.calls <= 2, (x, y, z)


@pytest.mark.parametrize("gf", H_INSTANCES, ids=h_id)
def test_dual_H_is_one_row_of_dual_H_rows(gf):
    xs, ys, us, _z_true = h_rows(gf, np.random.default_rng(47))
    zs, status, _g_range = dual_H_rows(gf, xs, ys, us)
    for k in range(len(us)):
        if status[k] == RowStatus.OK:
            assert dual_H(gf, xs[k], ys[k], us[k]).z_root == zs[k], k
        else:
            with pytest.raises(GjetError):
                dual_H(gf, xs[k], ys[k], us[k])
    # without a closed form h_batch is the rows, NaN where they fail
    assert np.array_equal(NoClosedForm(gf).h_batch(xs, ys, us),
                          dual_H_rows(NoClosedForm(gf), xs, ys, us)[0],
                          equal_nan=True)


# --------------------------------------------------------------------------
# matrix E
# --------------------------------------------------------------------------

def test_matrix_E_quadratic(qot2):
    e, det = matrix_E(qot2, [0.3, 0.2], [0.0, -0.1], 1.0)
    assert np.allclose(e, -np.eye(2))
    assert det == pytest.approx(1.0)   # (-1)^n, n = 2


def test_matrix_E_parallel_beam(pb2, pb1):
    e, det = matrix_E(pb2, [0.4, 0.1], [0.4, 0.1], 0.7)
    assert np.allclose(e, 0.7 * np.eye(2))
    assert det == pytest.approx(0.49)
    _, det = matrix_E(pb1, [0.0], [1.0], 0.5)
    assert det == pytest.approx(0.3)


def test_matrix_E_singular_raises():
    class Degenerate(QuadraticOT):
        name = "degenerate"

        def _raw_batch(self, xs, ys, zs):
            b = super()._raw_batch(xs, ys, zs)
            hxy = b.hess_xy.copy()
            hxy[:, 0, :] = 0.0   # kill one row of G_xy
            return type(b)(b.value, b.grad_x, b.grad_y, b.dz, b.hess_xx,
                           hxy, b.hess_yy, b.grad_xz, b.grad_yz, b.dzz)

    with pytest.raises(SingularE):
        matrix_E(Degenerate(2), [0.1, 0.2], [0.0, 0.0], 1.0)


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_yp_equals_e_inverse(gf):
    rng = np.random.default_rng(5)
    x_box, y_box = instance_boxes(gf)
    for _ in range(5):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        b = gf.bundle(x, y, z)
        e, _ = matrix_E(gf, x, y, z)
        h = 1e-5
        yp = np.zeros((gf.dimension, gf.dimension))
        for j in range(gf.dimension):
            ej = np.zeros(gf.dimension)
            ej[j] = h
            yp[:, j] = (forward_YZ(gf, x, b.value, b.grad_x + ej)[0]
                        - forward_YZ(gf, x, b.value, b.grad_x - ej)[0]) / (2 * h)
        assert np.allclose(yp, np.linalg.inv(e), atol=1e-5), gf.name


# --------------------------------------------------------------------------
# Monge-Ampere coefficients A and B
# --------------------------------------------------------------------------

def test_matrix_A_examples(pb2, qot2, ps0):
    a = matrix_A(pb2, [0.1, 0.7], 0.5, [0.0, 0.0])
    assert np.allclose(a, -np.eye(2))              # A = -Z I with Z = 1
    a = matrix_A(qot2, [0.3, -0.2], 1.1, [0.4, 0.2])
    assert np.allclose(a, np.eye(2))
    a = matrix_A(ps0, [0.2, 0.1], 0.7, [0.1, -0.1])
    assert np.allclose(a, 0.0)                     # flat target: A = 0


def test_matrix_B_with_unit_density(pb1):
    def psi(x, u, p):
        return 1.0

    x = np.array([0.0])
    b = pb1.bundle(x, [1.0], 0.5)
    a, bval = matrix_A_B(pb1, x, b.value, b.grad_x, psi)
    _, det = matrix_E(pb1, x, [1.0], 0.5)
    assert bval == pytest.approx(det)


def matrix_A_via_yp(gf, x, u, p):
    """A by the vector-field formula A = -Y_p^{-1} (Y_x + Y_u (x) p).

    All blocks are central finite differences of the forward map: the
    independent reference for the closed assembly A = G_xx(x, Y, Z).
    """
    n = gf.dimension
    x, p, u = np.asarray(x, dtype=float), np.asarray(p, dtype=float), float(u)
    h = fd_step(max(abs(u), float(np.max(np.abs(p))), float(np.max(np.abs(x)))))

    def yy(xv, uv, pv):
        return forward_YZ(gf, xv, uv, pv)[0]

    yp = np.zeros((n, n))
    yx = np.zeros((n, n))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = h
        yp[:, j] = (yy(x, u, p + ej) - yy(x, u, p - ej)) / (2 * h)
        yx[:, j] = (yy(x + ej, u, p) - yy(x - ej, u, p)) / (2 * h)
    yu = (yy(x, u + h, p) - yy(x, u - h, p)) / (2 * h)
    return -np.linalg.solve(yp, yx + np.outer(yu, p))


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_A_formula_equivalence(gf):
    # the closed assembly A = G_xx(x, Y, Z) must match the vector-field
    # route -Y_p^{-1}(Y_x + Y_u x p) from finite differences
    rng = np.random.default_rng(13)
    x_box, y_box = instance_boxes(gf)
    for _ in range(35):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        b = gf.bundle(x, y, z)
        a1 = matrix_A(gf, x, b.value, b.grad_x)
        a2 = matrix_A_via_yp(gf, x, b.value, b.grad_x)
        assert np.allclose(a1, a2, atol=1e-5), gf.name


@pytest.mark.parametrize("gf", CONTRACT_INSTANCES,
                         ids=lambda g: f"{g.name}{g.dimension}")
def test_matrix_A_is_one_row_of_matrix_A_rows(gf):
    rng = np.random.default_rng(41)
    x_box, y_box = instance_boxes(gf)
    pts = [sample_admissible(gf, rng, x_box, y_box) for _ in range(12)]
    xs = np.array([x for x, _, _ in pts])
    us = np.array([gf.value(*pt) for pt in pts]) + rng.normal(0.0, 0.05, 12)
    ps = np.array([gf.bundle(*pt).grad_x for pt in pts])
    ps[0] = 2.0         # beyond the beam's slopes; solvable elsewhere
    a, _b, status, _ = matrix_A_B_rows(gf, xs, us, ps)
    for k in range(len(xs)):
        got = outcome(matrix_A, gf, xs[k], us[k], ps[k])
        if status[k] == RowStatus.OK:
            assert np.array_equal(got, a[k]), k
        else:
            assert isinstance(got[0], type) and np.isnan(a[k]).all(), k
    assert (status == RowStatus.OK).sum() >= 10


@pytest.mark.parametrize("gf", CONTRACT_INSTANCES,
                         ids=lambda g: f"{g.name}{g.dimension}")
def test_matrix_A_B_is_one_row_of_matrix_A_B_rows(gf):
    rng = np.random.default_rng(43)
    x_box, y_box = instance_boxes(gf)
    pts = [sample_admissible(gf, rng, x_box, y_box) for _ in range(12)]
    xs = np.array([x for x, _, _ in pts])
    us = np.array([gf.value(*pt) for pt in pts]) + rng.normal(0.0, 0.05, 12)
    ps = np.array([gf.bundle(*pt).grad_x for pt in pts])
    ps[0] = 2.0         # beyond the beam's slopes; solvable elsewhere

    def psi(xs, us, ps):
        return 1.0 + us * xs[:, 0]

    a, b, status, _ = matrix_A_B_rows(gf, xs, us, ps, psi)
    for k in range(len(xs)):
        got = outcome(matrix_A_B, gf, xs[k], us[k], ps[k], psi)
        if status[k] == RowStatus.OK:
            assert np.array_equal(got[0], a[k]), k
            assert np.array_equal(got[1], b[k], equal_nan=True), k
        else:
            assert isinstance(got[0], type), k
            assert np.isnan(a[k]).all() and np.isnan(b[k]), k
    assert (status == RowStatus.OK).sum() >= 10


def counted_kernel(monkeypatch, gf):
    """The row counts of gf's kernel calls from now on."""
    calls, raw = [], gf._raw_batch

    def counted(xs, ys, zs):
        calls.append(len(xs))
        return raw(xs, ys, zs)

    monkeypatch.setattr(gf, "_raw_batch", counted)
    return calls


@pytest.mark.parametrize("start", ["cold", "far"])
@pytest.mark.parametrize("gf", CONTRACT_INSTANCES,
                         ids=lambda g: f"{g.name}{g.dimension}")
def test_matrix_A_B_rows_match_a_bundle_at_the_solution(gf, start, monkeypatch):
    # the primal twin of the dual rows' bit-for-bit check: rows that take
    # Newton steps (cold starts without a closed form, far starts through
    # FarStart's hook) assemble A and B from the bundle the Newton
    # accepted, which must equal a fresh bundle at the returned (Y, Z)
    rng = np.random.default_rng(53)
    n = gf.dimension
    m = 14
    x_box, y_box = instance_boxes(gf)
    pts = [sample_admissible(gf, rng, x_box, y_box) for _ in range(m)]
    xs = np.array([x for x, _, _ in pts])
    us = np.array([gf.value(*pt) for pt in pts]) + rng.normal(0.0, 0.05, m)
    ps = np.array([gf.bundle(*pt).grad_x for pt in pts]) \
        + rng.normal(0.0, 0.05, (m, n))
    if start == "far":
        far = [np.append(y + (0.05 if k % 2 else 0.5) * rng.normal(0.0, 1.0, n),
                         z * rng.uniform(0.5, 1.5))
               for k, (_x, y, z) in enumerate(pts)]
        gf = FarStart(gf, np.column_stack([xs, us, ps]), far)
    else:
        gf = NoClosedForm(gf)

    def psi(xs, us, ps):
        return 1.0 + us * xs[:, 0]

    ys, zs, ok = forward_YZ_rows(gf, xs, us, ps)
    calls = counted_kernel(monkeypatch, gf)
    a, b, status, _ = matrix_A_B_rows(gf, xs, us, ps, psi)
    assert len(calls) > 1 and ok.sum() >= m // 2     # the rows took steps
    assert np.array_equal(status == RowStatus.OK, ok)
    monkeypatch.undo()
    for k in range(m):
        if not ok[k]:
            assert np.isnan(a[k]).all() and np.isnan(b[k]), k
            continue
        bnd = gf.bundle(xs[k], ys[k], zs[k])
        det = float(np.linalg.det(
            bnd.hess_xy - np.outer(bnd.grad_xz, bnd.grad_y) / bnd.dz))
        assert np.array_equal(a[k], bnd.hess_xx), k
        assert b[k] == det * (1.0 + us[k] * xs[k, 0]), k


def exact_rows(gf, rng, m=12):
    """(xs, ys, zs) of m admissible interior draws, and each row's forward
    data (u, p) and slope q there."""
    x_box, y_box = instance_boxes(gf)
    pts = [sample_admissible(gf, rng, x_box, y_box) for _ in range(m)]
    xs, ys, zs = (np.array(v) for v in zip(*pts))
    bnd = gf.bundle_batch(xs, ys, zs)
    return xs, ys, zs, bnd.value, bnd.grad_x, -bnd.grad_y / bnd.dz[:, None]


@pytest.mark.parametrize("gf", H_INSTANCES, ids=h_id)
def test_assemblies_make_one_kernel_call(gf, monkeypatch):
    # on rows where the closed form is exact, the Newton's one evaluation
    # at the start is also the evaluation that A/B, A*/B* and psi read
    from gjet.madiag import make_separable_psi

    xs, ys, zs, us, ps, qs = exact_rows(gf, np.random.default_rng(59))
    psi = make_separable_psi(gf, lambda x: 1.0 + x[0] ** 2, lambda y: 2.0)
    for assemble in (lambda: matrix_A_B_rows(gf, xs, us, ps),
                     lambda: dual_Astar_Bstar_rows(gf, ys, zs, qs),
                     lambda: psi(xs, us, ps)):
        calls = counted_kernel(monkeypatch, gf)
        assemble()
        assert calls == [len(xs)]
        monkeypatch.undo()
    # no row, no kernel call
    calls = counted_kernel(monkeypatch, gf)
    assert psi(xs[:0], us[:0], ps[:0]).shape == (0,) and calls == []


@pytest.mark.parametrize("gf", H_INSTANCES, ids=h_id)
def test_exact_interior_rows_take_no_newton_step(gf, monkeypatch):
    # the closed forms meet the row Newton's tolerance on exact interior
    # rows: neither inverse solves a Newton system
    xs, ys, zs, us, ps, qs = exact_rows(gf, np.random.default_rng(61))
    solves, solve = [], genfun._solve_rows
    monkeypatch.setattr(genfun, "_solve_rows",
                        lambda a, rhs: solves.append(len(a)) or solve(a, rhs))
    assert forward_YZ_rows(gf, xs, us, ps)[2].all()
    assert (map_X_rows(gf, ys, zs, qs)[1] == RowStatus.OK).all()
    assert solves == []


def test_row_newtons_report_every_singular_row():
    # G = -z: every Newton system is singular at once; each row says so
    gf = ConstantInY(2)
    pts = np.array([[0.1, 0.2], [0.3, -0.4]])
    slopes = np.array([[0.5, 0.5], [-0.2, 0.1]])
    _xs, status, _ = map_X_rows(gf, pts, 1.0, slopes)
    assert status.tolist() == [RowStatus.SINGULAR] * 2
    _a, _b, status, _ = matrix_A_B_rows(gf, pts, [0.3, 0.7], slopes)
    assert status.tolist() == [RowStatus.SINGULAR] * 2
    assert not forward_YZ_rows(gf, pts, [0.3, 0.7], slopes)[2].any()


# --------------------------------------------------------------------------
# slope maps Q and X
# --------------------------------------------------------------------------

def test_map_Q_examples(qot2, pb2, pb1):
    q = map_Q(qot2, [0.2, 0.3], [1.0, -1.0], 0.5)
    assert np.allclose(q, [0.8, -1.3])             # Q = y - x
    q = map_Q(pb2, [0.4, 0.2], [0.4, 0.2], 0.9)
    assert np.allclose(q, 0.0)
    q = map_Q(pb1, [0.0], [1.0], 0.5)
    assert q[0] == pytest.approx(-0.2)


def test_map_X_examples(qot2, pb1):
    x = map_X(qot2, [1.0, -1.0], 0.5, [0.8, -1.3])
    assert np.allclose(x, [0.2, 0.3])
    x = map_X(pb1, [1.0], 0.5, [-0.2])
    assert x[0] == pytest.approx(0.0, abs=1e-10)


def test_map_X_out_of_image(pb1):
    # the image of Q(., y, z) is the open ball of radius z^2
    with pytest.raises(OutOfImage):
        map_X(pb1, [1.0], 0.5, [0.3])


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_map_X_roundtrip(gf):
    rng = np.random.default_rng(17)
    x_box, y_box = instance_boxes(gf)
    for _ in range(8):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        q = map_Q(gf, x, y, z)
        x2 = map_X(gf, y, z, q)
        assert np.allclose(x2, x, atol=1e-8), gf.name


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_xq_jacobian_relation(gf):
    # X_q = -G_z E^{-T} against finite differences (transpose matters for
    # the point-source instance, whose E is not symmetric)
    rng = np.random.default_rng(19)
    x_box, y_box = instance_boxes(gf)
    for _ in range(4):
        x, y, z = sample_admissible(gf, rng, x_box, y_box)
        b = gf.bundle(x, y, z)
        e, _ = matrix_E(gf, x, y, z)
        q = map_Q(gf, x, y, z)
        h = 1e-6
        xq = np.zeros((gf.dimension, gf.dimension))
        for j in range(gf.dimension):
            ej = np.zeros(gf.dimension)
            ej[j] = h
            xq[:, j] = (map_X(gf, y, z, q + ej)
                        - map_X(gf, y, z, q - ej)) / (2 * h)
        ref = -b.dz * np.linalg.inv(e).T
        assert np.allclose(xq, ref, atol=1e-5 * max(1, np.max(np.abs(ref)))), \
            gf.name


class NewtonBeam(ParallelBeam):
    """The parallel beam without its closed-form slope inverse: map_X runs
    the damped Newton, and far starts need step halvings."""

    name = "parallel_beam_newton"

    def _x_of(self, ys, zs, qs):
        return None


ROW_INSTANCES = [cls(n) for cls in (QuadraticOT, ParallelBeam, NewtonBeam)
                 for n in (1, 2, 3)] \
    + [PointSourcePlane(n, tau=-1.0) for n in (1, 2, 3)] \
    + [PointSourcePlane(2, tau=0.0)]
STATUS_ERRORS = {RowStatus.OUT_OF_IMAGE: OutOfImage,
                 RowStatus.BAD_START: DomainViolation,
                 RowStatus.SINGULAR: NoConvergence,
                 RowStatus.NO_STEP: NoConvergence,
                 RowStatus.BUDGET: NoConvergence}


def reference_map_X(gf, y, z, q, tol=1e-11, max_iter=50):
    """The per-point slope inversion that map_X_rows replaced, kept as the
    oracle: scalar bundles, scalar admissibility, one row at a time."""
    n = gf.dimension
    y, q, z = np.asarray(y, dtype=float), np.asarray(q, dtype=float), float(z)
    scale = 1.0 + float(np.max(np.abs(q)))
    closed = gf._x_of(y[None, :], np.array([z]), q[None, :])
    if closed is not None:
        if not closed[1][0]:
            raise OutOfImage("closed form rules the slope out")
        x = closed[0][0]
    else:
        x = np.zeros(n) if not gf.admissible_pair(y, y) else y.copy()

    def admissible(xv):
        if not gf.admissible_pair(xv, y):
            return False
        lo, hi = gf.z_interval(xv, y)
        return lo < z < hi

    if not admissible(x):
        raise DomainViolation("initial iterate is inadmissible")
    bnd = gf.bundle(x, y, z)
    res = -bnd.grad_y / bnd.dz - q
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm <= tol * scale:
            return x
        e = bnd.hess_xy - np.outer(bnd.grad_xz, bnd.grad_y) / bnd.dz
        step = np.linalg.solve(-e.T / bnd.dz, -res)
        lam = 1.0
        for _ in range(45):
            x_try = x + lam * step
            if admissible(x_try):
                bnd_try = gf.bundle(x_try, y, z)
                res_try = -bnd_try.grad_y / bnd_try.dz - q
                rn_try = float(np.max(np.abs(res_try)))
                if rn_try < rnorm or rn_try <= tol * scale:
                    x, bnd, res, rnorm = x_try, bnd_try, res_try, rn_try
                    break
            lam *= 0.5
        else:
            raise NoConvergence("no admissible decreasing step")
    if rnorm <= tol * scale:
        return x
    raise NoConvergence("iteration budget exhausted")


def reference_dual_coefficients(gf, x, y, z, q, f, g):
    """The scalar A*/B* assembly that dual_Astar_Bstar_rows replaced."""
    b = gf.bundle(x, y, z)
    gz = b.dz
    q_y = -b.hess_yy / gz + np.outer(b.grad_y, b.grad_yz) / gz ** 2
    q_z = -b.grad_yz / gz + b.grad_y * (b.dzz / gz ** 2)
    det = float(np.linalg.det(
        b.hess_xy - np.outer(b.grad_xz, b.grad_y) / b.dz))
    bstar = (-1.0 / gz) ** gf.dimension * abs(det) * float(g(y)) / float(f(x))
    return q_y + np.outer(q_z, q), bstar


@pytest.mark.parametrize("with_initial", [False, True], ids=["cold", "initial"])
@pytest.mark.parametrize("gf", ROW_INSTANCES,
                         ids=lambda g: f"{g.name}{g.dimension}"
                         + ("-tau0" if getattr(g, "tau", None) == 0.0 else ""))
def test_row_cores_match_scalar_reference(gf, with_initial):
    # map_X_rows and dual_Astar_Bstar_rows over all rows must equal, bit
    # for bit, both the per-point loop they replaced and their own one-row
    # calls (map_X, dual_Astar_Bstar); a failing row must report the
    # status whose exception the one-row call and the loop raise.  With
    # initial, every row starts from a far start that FarStart's hook
    # hands in
    rng = np.random.default_rng(31)
    n = gf.dimension
    m = 16
    x_box, y_box = instance_boxes(gf)
    pts = [sample_admissible(gf, rng, x_box, y_box) for _ in range(m)]
    ys = np.array([p[1] for p in pts])
    zs = np.array([p[2] for p in pts])
    qs = np.array([map_Q(gf, *p) for p in pts])
    qs[5:] += rng.normal(0.0, 0.02, qs[5:].shape)
    init = None
    if with_initial:
        # far starts make rows accept damped steps at different halvings
        spread = np.where(np.arange(m) % 2 == 0, 0.05, 0.6)[:, None]
        init = np.array([p[0] for p in pts]) \
            + spread * rng.normal(0.0, 1.0, (m, n))
    expect_fail = {}
    if gf.name.startswith("parallel_beam"):
        # the image of Q(., y, z) is the open ball of radius z^2
        qs[0] = 2.0 * zs[0] ** 2 * np.ones(n) / math.sqrt(n)
        if gf.name == "parallel_beam":
            expect_fail[0] = RowStatus.OUT_OF_IMAGE
    if gf.name == "point_source" and with_initial:
        init[1] = np.full(n, 1.5 / math.sqrt(n))    # |x| > 1: inadmissible
        expect_fail[1] = RowStatus.BAD_START
    if with_initial:
        gf = FarStart(gf, np.column_stack([ys, zs, qs]), init)

    def f(x):
        return 1.0 + float(x @ x)

    def g(y):
        return 2.0 + float(y[0])

    xs, status, _ = map_X_rows(gf, ys, zs, qs)
    astar, bstar, dstatus, _ = dual_Astar_Bstar_rows(gf, ys, zs, qs, f, g)
    assert np.array_equal(status, dstatus)
    for k, code in expect_fail.items():
        assert status[k] == code
    ok = status == RowStatus.OK
    assert not ok[0] or not gf.name.startswith("parallel_beam")
    assert ok[[2, 4]].all()     # exact slopes, near starts
    for k in range(m):
        one = map_X_rows(gf, ys[k:k + 1], zs[k:k + 1], qs[k:k + 1])
        assert one[1][0] == status[k]
        if not ok[k]:
            error = STATUS_ERRORS[status[k]]
            with pytest.raises(error):
                reference_map_X(gf, ys[k], zs[k], qs[k])
            with pytest.raises(error):
                map_X(gf, ys[k], zs[k], qs[k])
            with pytest.raises(error):
                dual_Astar_Bstar(gf, ys[k], zs[k], qs[k], f, g)
            assert np.all(np.isnan(xs[k])) and np.isnan(bstar[k])
            continue
        x_ref = reference_map_X(gf, ys[k], zs[k], qs[k])
        a_ref, b_ref = reference_dual_coefficients(gf, x_ref, ys[k], zs[k],
                                                   qs[k], f, g)
        assert np.array_equal(xs[k], x_ref)
        assert np.array_equal(astar[k], a_ref) and bstar[k] == b_ref
        assert np.array_equal(map_X(gf, ys[k], zs[k], qs[k]), x_ref)
        a, b = dual_Astar_Bstar(gf, ys[k], zs[k], qs[k], f, g)
        assert np.array_equal(a, a_ref) and b == b_ref


@pytest.mark.parametrize("gf", [ParallelBeam(2), PointSourcePlane(2, tau=-1.0)],
                         ids=lambda g: g.name)
def test_dual_rows_match_scalar_assembly_on_many_rows(gf):
    # the powers of G_z must round as the scalar formula's Python float
    # powers do; numpy's ** 2 squares instead, which differs in the last
    # bit for about 1 value in 1,300, so many rows are needed to see it
    rng = np.random.default_rng(41)
    m = 3000
    xs = rng.uniform(-0.4, 0.4, (m, 2))
    ys = rng.uniform(-0.5, 0.5, (m, 2))
    lo, hi = gf.z_interval_batch(xs, ys)
    zs = np.where(np.isfinite(hi), lo + rng.uniform(0.2, 0.8, m) * (hi - lo),
                  rng.uniform(0.2, 2.0, m))
    b = gf.bundle_batch(xs, ys, zs)
    qs = -b.grad_y / b.dz[:, None]

    def f(x):
        return 1.0 + float(x @ x)

    def g(y):
        return 2.0 + float(y[0])

    astar, bstar, status, _ = dual_Astar_Bstar_rows(gf, ys, zs, qs, f, g)
    assert np.all(status == RowStatus.OK)
    for k in range(m):
        x = map_X(gf, ys[k], zs[k], qs[k])
        a_ref, b_ref = reference_dual_coefficients(gf, x, ys[k], zs[k],
                                                   qs[k], f, g)
        assert np.array_equal(astar[k], a_ref) and bstar[k] == b_ref, k


# --------------------------------------------------------------------------
# dual coefficients A* and B*
# --------------------------------------------------------------------------

def test_dual_Astar_quadratic(qot2):
    astar, bstar = dual_Astar_Bstar(qot2, [0.5, -0.3], 0.8, [0.2, 0.1])
    assert np.allclose(astar, np.eye(2))
    assert bstar == pytest.approx(1.0)


def test_dual_Astar_parallel_beam_diagonal(pb2):
    # q = 0 puts X = y; the closed value is -2 z^3 I
    z = 0.5
    astar, _ = dual_Astar_Bstar(pb2, [0.4, 0.1], z, [0.0, 0.0])
    assert np.allclose(astar, -2 * z ** 3 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("gf", all_instances(), ids=lambda g: f"{g.name}")
def test_dual_Astar_is_dual_hessian(gf):
    # independent oracle: A*(y, z, q) along a dual graph v = H(x0, ., u0)
    # must equal the finite-difference Hessian of the root in y
    rng = np.random.default_rng(23)
    x_box, y_box = instance_boxes(gf)
    for _ in range(4):
        x0, y, z = sample_admissible(gf, rng, x_box, y_box)
        u0 = gf.value(x0, y, z)
        q = map_Q(gf, x0, y, z)
        astar, _ = dual_Astar_Bstar(gf, y, z, q)
        h = 1e-4
        n = gf.dimension
        hess = np.empty((n, n))

        def root(yv):
            return dual_H(gf, x0, yv, u0).z_root

        for i in range(n):
            for j in range(n):
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = h
                ej[j] = h
                hess[i, j] = (root(y + ei + ej) - root(y + ei - ej)
                              - root(y - ei + ej) + root(y - ei - ej)) \
                    / (4 * h * h)
        scale = max(1.0, float(np.max(np.abs(hess))))
        assert np.allclose(astar, hess, atol=2e-5 * scale), gf.name


def test_dual_Bstar_with_unit_densities(pb2):
    x, y, z = np.array([0.2, 0.1]), np.array([0.5, 0.5]), 0.8
    q = map_Q(pb2, x, y, z)
    _, bstar = dual_Astar_Bstar(pb2, y, z, q)
    b = pb2.bundle(x, y, z)
    _, det = matrix_E(pb2, x, y, z)
    assert bstar == pytest.approx((-1 / b.dz) ** 2 * abs(det))
