import copy
import math

import numpy as np
import pytest
from hypothesis import settings

# Hypothesis draws some floats from the numeric literals of the loaded
# non-test modules; gjet's commands import their modules on demand, so
# load them all here, or the draws depend on which tests ran first
from gjet import cli, conditions, gconvex, madiag, semidiscrete  # noqa: F401
from gjet.genfun import (
    G5Constants,
    GeneratingFunction,
    ParallelBeam,
    PointSourcePlane,
    QuadraticOT,
)

# property tests draw the same examples on every run, with no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture
def qot2():
    return QuadraticOT(2)


@pytest.fixture
def pb2():
    return ParallelBeam(2)


@pytest.fixture
def pb1():
    return ParallelBeam(1)


@pytest.fixture
def ps0():
    return PointSourcePlane(2, tau=0.0)


@pytest.fixture
def ps_neg():
    return PointSourcePlane(2, tau=-1.0)


def sample_admissible(gf, rng, x_box, y_box, z_fracs=(0.25, 0.5, 0.75)):
    """One admissible (x, y, z) triple drawn from boxes (rejection-sampled)."""
    from gjet.conditions import _map_fraction

    for _ in range(200):
        x = x_box[0] + rng.random(gf.dimension) * (x_box[1] - x_box[0])
        y = y_box[0] + rng.random(gf.dimension) * (y_box[1] - y_box[0])
        if not gf.admissible_pair(x, y):
            continue
        lo, hi = gf.z_interval(x, y)
        f = z_fracs[rng.integers(len(z_fracs))]
        return x, y, _map_fraction(lo, hi, f)
    raise RuntimeError("could not sample an admissible point")


def instance_boxes(gf):
    """Sampling boxes that keep every instance comfortably admissible."""
    n = gf.dimension
    if gf.name == "point_source":
        return (np.full(n, -0.6), np.full(n, 0.6)), \
               (np.full(n, -0.8), np.full(n, 0.8))
    return (np.full(n, -0.7), np.full(n, 0.7)), \
           (np.full(n, -0.9), np.full(n, 0.9))


def declaring_g5(gf, m0, k0):
    """gf as an instance of a subclass of its class whose g5_bound
    declares (m0, k0) on every pair of domains."""
    cls = type(f"Declared{type(gf).__name__}", (type(gf),),
               {"g5_bound": lambda self, omega, omega_star: G5Constants(m0, k0)})
    out = copy.copy(gf)
    out.__class__ = cls
    return out


def cut_off_two_targets(cell_split, columns=True):
    """cell_split with the rows and columns of the first two targets of
    its jac zeroed, as a face-aligned interface used to zero them: at
    most one of the two moves the anchor value, so the anchored Newton
    system has a zero column and is singular.  With columns=False only
    the rows are zeroed: the system is still rank-deficient, but LAPACK
    meets no zero pivot in it."""

    def split(*args):
        owner, masses, jac = cell_split(*args)
        jac = jac.copy()
        jac[:2] = 0.0
        if columns:
            jac[:, :2] = 0.0
        return owner, masses, jac

    return split


class ConstantInY(GeneratingFunction):
    """Toy degenerate generator G = -z: every target collides, and every
    Newton system of the inverse maps is singular."""

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


class NoClosedForm(GeneratingFunction):
    """A built-in instance behind the bare contract (kernel, intervals,
    admissibility): without closed-form inverses every inverse map runs
    its Newton."""

    def __init__(self, inner):
        super().__init__(inner.dimension)
        self.inner = inner
        self.name = inner.name

    def z_interval_batch(self, xs, y):
        return self.inner.z_interval_batch(xs, y)

    def admissible_pair_batch(self, xs, y):
        return self.inner.admissible_pair_batch(xs, y)

    def _raw_batch(self, xs, ys, zs):
        return self.inner._raw_batch(xs, ys, zs)
