"""Dual-optimal potentials in the canonical double-transform shape.

The pipeline is: read the dual of the optimal spanning-tree basis
(``core.basis_dual``: phi[i] + psi[j] = c[i][j] on every finite basic
cell, phi[0] = 0, lifted along the +inf cells when the basis holds any),
then push the pair through the transform normalization. The result is
feasible, attains the primal value exactly, and has the canonical form:
phi* is c-concave and psi* is a shift of (phi*)^c.
"""

from __future__ import annotations

from typing import Optional

from .core import CostMatrix, DualPotentials, Instance, basis_dual
from .ctransform import normalize_pair
from .errors import DimensionMismatch, NoFeasibleTreeDual
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
    return normalize_pair(pot.require_feasible_for(cost).phi, cost)


def extract_dual_from_basis(result: OptimalPlanResult, cost: CostMatrix) -> DualPotentials:
    """Potentials tight on every finite basic cell and feasible everywhere,
    with dual value equal to the plan value (``core.basis_dual``). The basis
    must be a spanning tree (InfeasibleInput otherwise) and optimal
    (NoFeasibleTreeDual)."""
    pot = basis_dual(result.basis, cost)
    if pot is None:
        raise NoFeasibleTreeDual(
            "basis potentials are infeasible; the basis cannot be optimal"
        )
    return pot
