"""Seeded semi-discrete problems with known answers, by family.

solver_problems(seed, family) draws one SemiDiscreteProblem from
np.random.default_rng([FAMILIES.index(family), seed]):

- "light": the quadratic in 1-D or 2-D with 2-8 uniform targets in the
  unit box and target 0 lighter than one cell (0.2-0.98 of a cell's
  mass), the other masses drawn in [0.5, 1.5] and scaled to the rest of
  the source mass, anchored at (center, 0).  Feasible.
- "uniform": 2-8 uniform targets, equal or drawn masses, for each of the
  three built-in instances in turn (seed mod 3), 1-D or 2-D.  The
  quadratic draws are feasible.
- "lattice": equal masses on the centers of a k^n lattice whose cells
  the grid divides evenly, so interfaces lie on cell faces; the
  quadratic and the beam in turn (seed mod 2).  Feasible.
- "duplicate": a "uniform" draw with one target repeated at a later
  index (duplicate_pair names the pair).  Infeasible: for one y the graphs
  G(., y, z) are ordered in z, so the two cannot both own mass.
"""

import numpy as np

from gjet.gconvex import SourceGrid
from gjet.genfun import ParallelBeam, PointSourcePlane, QuadraticOT
from gjet.semidiscrete import SemiDiscreteProblem

FAMILIES = ("light", "uniform", "lattice", "duplicate")

# per instance: the source box, the box the targets are drawn from and
# the anchor height at the box center
INSTANCES = (
    (QuadraticOT, (0.0, 1.0), (0.0, 1.0), 0.0),
    (ParallelBeam, (0.0, 1.0), (0.0, 1.0), 0.75),
    (lambda n: PointSourcePlane(n, tau=-1.0), (-0.4, 0.4), (-0.5, 0.5), 2.5),
)


def _problem(instance, n, res, targets, masses):
    make, (lo, hi), _box, u0 = INSTANCES[instance]
    grid = SourceGrid([lo] * n, [hi] * n, [res] * n)
    masses = np.asarray(masses, dtype=float)
    return SemiDiscreteProblem(make(n), grid, targets,
                               masses * (grid.total_mass / masses.sum()),
                               ([0.5 * (lo + hi)] * n, u0))


def solver_problems(seed: int, family: str) -> SemiDiscreteProblem:
    rng = np.random.default_rng([FAMILIES.index(family), seed])
    if family == "light":
        n = int(rng.integers(1, 3))
        count = int(rng.integers(2, 9))
        res = int(rng.integers(8, 33)) if n == 1 else int(rng.integers(8, 17))
        targets = rng.uniform(0.0, 1.0, (count, n))
        light = rng.uniform(0.2, 0.98) / res ** n   # of the unit source mass
        rest = rng.uniform(0.5, 1.5, count - 1)
        masses = np.concatenate([[light], rest * (1.0 - light) / rest.sum()])
        return _problem(0, n, res, targets, masses)
    if family == "lattice":
        n = int(rng.integers(1, 3))
        k = int(rng.integers(2, 9)) if n == 1 else int(rng.integers(2, 5))
        axes = np.meshgrid(*[(np.arange(k) + 0.5) / k] * n, indexing="ij")
        targets = np.stack([a.ravel() for a in axes], axis=1)
        res = k * int(rng.integers(2, 65 // k if n == 1 else 33 // k))
        return _problem(seed % 2, n, res, targets, np.ones(k ** n))
    instance, n = seed % 3, int(rng.integers(1, 3))
    count = int(rng.integers(2, 9))
    res = int(rng.integers(32, 129)) if n == 1 else int(rng.integers(16, 33))
    lo, hi = INSTANCES[instance][2]
    targets = rng.uniform(lo, hi, (count, n))
    masses = rng.uniform(0.5, 1.5, count) if rng.random() < 0.5 \
        else np.ones(count)
    if family == "duplicate":
        i, j = duplicate_pair(seed, len(targets))
        targets[j] = targets[i]
    return _problem(instance, n, res, targets, masses)


def duplicate_pair(seed: int, count: int) -> tuple:
    """(i, j), i < j: the "duplicate" draw's target j repeats target i."""
    i, j = np.random.default_rng([len(FAMILIES), seed]).choice(
        count, 2, replace=False)
    return int(min(i, j)), int(max(i, j))
