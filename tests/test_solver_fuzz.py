"""The solver over seeded problem families (solver_problems.py).

Feasible draws solve: their states meet mass_tol_rel by cell_masses, and
the targets in reverse order give the same cells.  Only a repeated
target, which validation proves infeasible, raises InfeasibleBracket.
Draws that end in NoConvergence for an open ROADMAP item are strict
xfails that name it.
"""

import numpy as np
import pytest

from gjet.errors import InfeasibleBracket, NoConvergence
from gjet.gconvex import cell_masses, interface_mask
from gjet.semidiscrete import SemiDiscreteProblem, solution_function, solve

from solver_problems import FAMILIES, duplicate_pair, solver_problems

SEEDS = range(10)

# the light target ties the owner of its best cell at the threshold step,
# owns no cell and stays empty (target 0, reversed in light-9)
ITEM_13 = "ROADMAP item 13: the threshold passes leave the light target empty"
KNOWN_NO_CONVERGENCE = {("light", 3): ITEM_13, ("light", 9): ITEM_13}


def _draws():
    for family in FAMILIES:
        for seed in SEEDS:
            reason = KNOWN_NO_CONVERGENCE.get((family, seed))
            marks = [pytest.mark.xfail(raises=NoConvergence, strict=True,
                                       reason=reason)] if reason else []
            yield pytest.param(family, seed, marks=marks,
                               id=f"{family}-{seed}")


def _solved(prob):
    state = solve(prob)
    masses = cell_masses(solution_function(prob, state.z), prob.grid).masses
    assert np.max(np.abs(masses - prob.masses)) \
        <= prob.tolerances.mass_tol_rel * prob.grid.total_mass
    return state.decomposition.assignment


@pytest.mark.parametrize("family, seed", _draws())
def test_draw_solves_or_is_a_repeated_target(family, seed):
    prob = solver_problems(seed, family)
    if family == "duplicate":
        i, j = duplicate_pair(seed, len(prob.targets))
        with pytest.raises(InfeasibleBracket,
                           match=f"^target {j} repeats target {i}: "):
            solve(prob)
        return
    labels = _solved(prob)
    last = len(prob.targets) - 1
    reverse = last - _solved(SemiDiscreteProblem(
        prob.gf, prob.grid, prob.targets[::-1], prob.masses[::-1],
        prob.anchor))
    # both states meet the mass tolerance, so their interfaces may differ
    # by that much: a cell may change owner only on an interface
    moved = labels != reverse
    assert not np.any(moved & ~interface_mask(prob.grid, labels).ravel())
