"""Dual-optimal potentials in the canonical double-transform shape.

The pipeline is: read tight potentials off the optimal spanning-tree basis
(phi[i] + psi[j] = c[i][j] on every basic cell, phi anchored at the first
X-point of each tree component, by the one tree walk
``core.tree_potentials``), then push the pair through the transform
normalization. The result is feasible, attains the primal value exactly,
and has the canonical form: phi* is c-concave and psi* is a shift of
(phi*)^c.

With a bounded cost the basis is one spanning tree and the extraction is a
single propagation pass. When infinite costs force a forest (see primal),
the per-component potentials are reconciled by component offsets chosen to
maximize the minimum slack on cross-component cells — an exact minimum-mean
-cycle computation — which is guaranteed feasible because a dual optimum
tight on the reported basis exists.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    CostMatrix,
    DualPotentials,
    Instance,
    frozen_array,
    is_inf,
    shortest_distances,
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
    """Potentials tight on every basic cell and feasible everywhere, with
    dual value equal to the plan value."""
    m, n = cost.shape
    comp, pot, _, _ = tree_potentials(
        m, n, result.basis, cost.entries.tolist(), zero(cost.mode)
    )
    phi, psi = pot[:m], pot[m:]

    ncomp = max(comp) + 1
    if ncomp > 1:
        offsets = _component_offsets(comp, phi, psi, cost, ncomp)
        phi = [phi[i] + offsets[comp[i]] for i in range(m)]
        psi = [psi[j] - offsets[comp[m + j]] for j in range(n)]

    pot = DualPotentials(
        phi=frozen_array(phi, cost.mode), psi=frozen_array(psi, cost.mode)
    )
    if not pot.is_feasible_for(cost):
        raise NoFeasibleTreeDual(
            "basis potentials are infeasible; the basis cannot be optimal"
        )
    return pot


def _component_offsets(comp, phi, psi, cost: CostMatrix, ncomp):
    """Offsets a_k (phi += a_k, psi -= a_k inside component k) maximizing the
    minimum slack over finite cross-component cells.

    The slack of a cross cell (i in k, j in l) becomes s - a_k + a_l, so the
    program is max t s.t. a_k - a_l <= s_min(k, l) - t: the optimal t is the
    minimum mean weight of a directed cycle among components, and offsets
    fall out of shortest paths. With no directed cycle the program is
    unbounded; t = 0 then already yields feasible slacks and the shortest-
    path solution is used as the deterministic canonical choice."""
    m, n = cost.shape
    arcs = {}
    for i in range(m):
        for j in range(n):
            c = cost.entries[i, j]
            if is_inf(c):
                continue
            k, l = comp[i], comp[m + j]
            if k == l:
                continue
            s = c - phi[i] - psi[j]
            if (k, l) not in arcs or s < arcs[(k, l)]:
                arcs[(k, l)] = s
    z = zero(cost.mode)
    if not arcs:
        return [z] * ncomp
    t_star = _min_mean_cycle(arcs, ncomp)
    t = max(t_star, z) if t_star is not None else z
    # Difference constraints a_k - a_l <= s - t: shortest paths along arcs
    # l -> k from a virtual source with zero arcs to every component.
    dist = shortest_distances(
        ncomp, [(l, k, s - t) for (k, l), s in arcs.items()], z
    )
    if dist is None:
        raise NoFeasibleTreeDual("offset system inconsistent at optimal t")
    return dist


def _min_mean_cycle(arcs, ncomp):
    """Karp's minimum mean cycle over the component digraph; None if the
    digraph is acyclic. Arc (k, l) with weight s constrains a_k - a_l, so
    cycles are walked along those arcs. Multi-start initialization is the
    super-source construction, so no connectivity assumption is needed."""
    # D[r][v] = min weight of an r-arc walk ending at v (from any start)
    D = [[None] * ncomp for _ in range(ncomp + 1)]
    for v in range(ncomp):
        D[0][v] = 0
    for r in range(1, ncomp + 1):
        for (k, l), s in arcs.items():
            # walk arc l -> k in constraint-graph orientation
            if D[r - 1][l] is not None:
                cand = D[r - 1][l] + s
                if D[r][k] is None or cand < D[r][k]:
                    D[r][k] = cand
    best = None
    for v in range(ncomp):
        if D[ncomp][v] is None:
            continue
        worst = None
        for r in range(ncomp):
            if D[r][v] is None:
                continue
            mean = (D[ncomp][v] - D[r][v]) / (ncomp - r)
            if worst is None or mean > worst:
                worst = mean
        if worst is not None and (best is None or worst < best):
            best = worst
    return best
