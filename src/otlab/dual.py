"""Dual-optimal potentials in the canonical double-transform shape.

The pipeline is: read tight potentials off the optimal spanning-tree basis
(phi[i] + psi[j] = c[i][j] on every basic cell, phi[0] = 0, by the one tree
walk ``core.tree_potentials``), then push the pair through the transform
normalization. The result is feasible, attains the primal value exactly,
and has the canonical form: phi* is c-concave and psi* is a shift of
(phi*)^c.

With a bounded cost the walk's potentials are the answer. When the basis
holds zero-mass +inf cells (see primal), the walk also gives the wall
potentials, the potentials of the 0/1 +inf indicator; with them,
``(wall, pot)`` are the simplex's lexicographic optimality certificate, as
in the big-M argument. One scalar lift ``pot + t * wall`` turns it into
finite feasible potentials: every finite cell has ``wall[i] + wall[m+j] <= 0``
at the optimum, so a large enough ``t`` covers the cells with a negative
wall part, and it costs nothing, since the plan puts no mass on +inf cells.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    CostMatrix,
    DualPotentials,
    Instance,
    frozen_array,
    is_inf,
    tree_potentials,
    zero,
)
from .ctransform import normalize_pair
from .errors import DimensionMismatch, InfeasibleInput, NoFeasibleTreeDual
from .primal import OptimalPlanResult, solve_primal


def solve_dual(
    instance: Instance, result: Optional[OptimalPlanResult] = None
) -> DualPotentials:
    """Feasible potentials attaining the primal optimum, in canonical form.

    ``result`` is an optimal primal result for this same instance, as
    returned by :func:`solve_primal`; passing the one a caller already has
    reuses its basis instead of solving the primal problem again. When it
    is omitted, the primal problem is solved here."""
    if result is None:
        result = solve_primal(instance)
    elif result.plan.shape != instance.shape:
        raise DimensionMismatch(
            f"primal result {result.plan.shape} vs instance {instance.shape}"
        )
    # the extraction has just tested this pair for feasibility, and the
    # normalization's output is feasible by construction
    raw = extract_dual_from_basis(result, instance.cost)
    return normalize_pair(raw.phi, instance.cost)


def improve_dual(pot: DualPotentials, cost: CostMatrix) -> DualPotentials:
    """Replace a feasible pair by its transform normalization, after
    testing that it is feasible (the pair comes from the caller).

    Never decreases the dual value (phi^{c cbar} >= phi and psi <= phi^c for
    a feasible pair) and is idempotent on already-canonical pairs."""
    if not pot.is_feasible_for(cost):
        raise InfeasibleInput("potentials violate phi + psi <= c")
    return normalize_pair(pot.phi, cost)


def extract_dual_from_basis(result: OptimalPlanResult, cost: CostMatrix) -> DualPotentials:
    """Potentials tight on every finite basic cell and feasible everywhere,
    with dual value equal to the plan value. The basis must be a spanning
    tree (InfeasibleInput otherwise) and optimal (NoFeasibleTreeDual)."""
    m, n = cost.shape
    rows = cost.entries.tolist()
    pot, _, wall = tree_potentials(m, n, result.basis, rows, zero(cost.mode))
    if wall is not None:
        # the smallest lift t >= 0 that leaves no finite cell with slack
        # c - P + t * -W below 0, where W and P are its wall and pot sums
        t = max([0] + [
            (pot[i] + pot[m + j] - c) / -(wall[i] + wall[m + j])
            for i, row in enumerate(rows) for j, c in enumerate(row)
            if not is_inf(c) and wall[i] + wall[m + j] < 0
        ])
        if t > 0:
            pot = [p + t * w for p, w in zip(pot, wall)]
    pot = DualPotentials(
        phi=frozen_array(pot[:m], cost.mode), psi=frozen_array(pot[m:], cost.mode)
    )
    if not pot.is_feasible_for(cost):
        raise NoFeasibleTreeDual(
            "basis potentials are infeasible; the basis cannot be optimal"
        )
    return pot
