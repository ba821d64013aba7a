"""Brute-force ground truth by exhaustive vertex enumeration.

Every vertex of the transportation polytope is the unique solution of the
marginal equations on some spanning tree of the complete bipartite graph
K_{m,n} (zero-mass basic cells included), so enumerating all spanning trees
and keeping the nonnegative solutions covers every basic feasible solution
and hence the exact optimum.

Trees are enumerated through their canonical pluck sequence: repeatedly
remove the smallest-index leaf of the remaining tree and record (leaf,
neighbor). The sequence determines the tree and vice versa, which the test
suite checks against Scoins' count m**(n-1) * n**(m-1). Generation walks
sequences depth-first; canonical order is enforced by "debts" (any active
node smaller than the plucked one must serve as a parent later on). Masses
propagate incrementally — a plucked node sends its remaining balance across
its last edge — so branches are cut the moment any balance goes negative,
and, once an incumbent exists, the moment the partial cost can no longer
improve on it. Neither cut affects the exact minimum nor the deterministic
first-found tie-break.

Rational data is scaled to integers (denominators cleared, by the same
``core.scaled_data`` the simplex uses) so the hot loop runs on Python ints.
That scaling is shared with the simplex; its solving logic is not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    RATIONAL,
    DualPotentials,
    Instance,
    TransportPlan,
    budget_from_env,
    scaled_data,
    validate_instance,
)
from .errors import BudgetExceeded, InfiniteCostInBoundedMode, NoFeasibleTreeDual
from .primal import OptimalPlanResult

#: Largest |X| * |Y| the oracle accepts by default.
DEFAULT_CELL_BUDGET = 16


class _StopEnumeration(Exception):
    """Raised by an on_tree callback to abort the walk early."""


def _enumerate_trees(
    m: int,
    n: int,
    mu,
    nu,
    cost,
    *,
    prune_infeasible: bool = True,
    cost_bound=None,
    on_tree=None,
    neg_tol=0,
):
    """Walk every canonical pluck sequence depth-first.

    ``on_tree(edges, masses, total_cost)`` fires for each completed tree
    (edges as (i, j) cell pairs, in pluck order). It may return a new cost
    bound to tighten pruning; returning None keeps the current bound.
    With ``prune_infeasible=False`` every spanning tree is visited, negative
    masses included (used by the bijection self-test).
    """
    size = m + n
    root = size - 1
    # node k: row k if k < m else column k - m
    rem = list(mu) + list(nu)
    active = [True] * size
    debt = [False] * size
    edges = []
    masses = []
    bound = [cost_bound]

    # Shift costs nonnegative so partial sums are monotone; total mass is
    # fixed, so every plan's cost shifts by the same constant.
    if cost_bound is not None or on_tree is not None:
        flat = [c for row in cost for c in row]
        cmin = min(flat) if flat else 0
        if cmin < 0:
            cost = [[c - cmin for c in row] for row in cost]
            total_mass = sum(mu)
            shift = cmin * total_mass
            if bound[0] is not None:
                bound[0] -= shift
        else:
            shift = 0
    else:
        shift = 0

    def dfs(steps_left: int, partial):
        if steps_left == 0:
            total = partial + shift
            if on_tree is not None:
                new_bound = on_tree(tuple(edges), tuple(masses), total)
                if new_bound is not None:
                    bound[0] = new_bound - shift
            return  # root's remaining balance is zero by mass conservation
        for v in range(size - 1):
            if not active[v] or debt[v]:
                continue
            x = rem[v]
            if prune_infeasible and x < -neg_tol:
                continue
            newly_indebted = [
                u for u in range(v) if active[u] and not debt[u]
            ]
            for u in newly_indebted:
                debt[u] = True
            if v < m:
                parents = range(m, size)
            else:
                parents = range(m)
            active[v] = False
            for p in parents:
                if not active[p]:
                    continue
                rem[p] -= x
                # balances only ever decrease, so a negative one can never
                # complete feasibly (the root included: it must end at zero)
                if prune_infeasible and rem[p] < -neg_tol:
                    rem[p] += x
                    continue
                cell_cost = cost[v][p - m] if v < m else cost[p][v - m]
                new_partial = partial + x * cell_cost
                if (
                    prune_infeasible
                    and bound[0] is not None
                    and new_partial > bound[0]
                ):
                    rem[p] += x
                    continue
                had_debt = debt[p]
                debt[p] = False
                edges.append((v, p - m) if v < m else (p, v - m))
                masses.append(x)
                dfs(steps_left - 1, new_partial)
                edges.pop()
                masses.pop()
                debt[p] = had_debt
                rem[p] += x
            active[v] = True
            for u in newly_indebted:
                debt[u] = False

    try:
        dfs(size - 1, 0)
    except _StopEnumeration:
        pass


def oracle_primal(instance: Instance, budget: Optional[int] = None) -> OptimalPlanResult:
    """Exact optimum by spanning-tree enumeration; the master ground truth.

    Accepts instances with |X| * |Y| within the cell budget (default 16,
    overridable via the ``budget`` argument or the OT_LAB_BUDGET variable).
    """
    instance = validate_instance(instance)
    if not instance.cost.is_bounded:
        raise InfiniteCostInBoundedMode("the oracle requires a finite cost matrix")
    m, n = instance.shape
    budget = budget_from_env(budget, DEFAULT_CELL_BUDGET)
    if m * n > budget:
        raise BudgetExceeded(
            f"{m}x{n} instance exceeds the oracle budget of {budget} cells"
        )
    mu, nu, cost, L, M = scaled_data(instance)
    neg_tol = 0 if instance.mode == RATIONAL else 1e-12

    # A greedy feasible value seeds the cost bound without consulting the
    # simplex solver, keeping the oracle independent.
    nw_value = _northwest_value(mu, nu, cost)

    best = {"total": None, "edges": None, "masses": None}

    def on_tree(edges, masses, total):
        if best["total"] is None or total < best["total"]:
            best.update(total=total, edges=edges, masses=masses)
            return total
        return None

    _enumerate_trees(
        m, n, mu, nu, cost, cost_bound=nw_value, on_tree=on_tree, neg_tol=neg_tol
    )
    if best["total"] is None:
        raise NoFeasibleTreeDual("no feasible tree found; enumeration bug")

    rational = instance.mode == RATIONAL
    dtype = object if rational else np.float64
    entries = np.empty((m, n), dtype=dtype)
    entries[:] = Fraction(0) if rational else 0.0
    for (i, j), x in zip(best["edges"], best["masses"]):
        entries[i, j] = Fraction(x, L) if rational else max(x, 0.0)
    entries.setflags(write=False)
    value = Fraction(best["total"], L * M) if rational else best["total"]
    return OptimalPlanResult(
        plan=TransportPlan(entries),
        value=value,
        basis=tuple(sorted(best["edges"])),
    )


def _northwest_value(mu, nu, cost):
    rem_mu = list(mu)
    rem_nu = list(nu)
    i = j = 0
    total = 0
    m, n = len(rem_mu), len(rem_nu)
    while True:
        x = min(rem_mu[i], rem_nu[j])
        total += x * cost[i][j]
        rem_mu[i] -= x
        rem_nu[j] -= x
        if i == m - 1 and j == n - 1:
            return total
        # the last column and row absorb float round-off left over
        if i < m - 1 and (rem_mu[i] == 0 or j == n - 1):
            i += 1
        else:
            j += 1


def oracle_dual(instance: Instance, budget: Optional[int] = None) -> DualPotentials:
    """Feasible potentials matching the oracle optimum exactly.

    Re-enumerates the optimal trees; on each, tightness is propagated from
    phi[0] = 0 (trees are connected, so propagation is total) and the first
    tree whose potentials are feasible everywhere wins. Strong duality
    guarantees such a tree exists; running out of candidates signals a bug.
    """
    instance = validate_instance(instance)
    opt = oracle_primal(instance, budget=budget)
    m, n = instance.shape
    mu, nu, cost, L, M = scaled_data(instance)
    neg_tol = 0 if instance.mode == RATIONAL else 1e-12
    rational = instance.mode == RATIONAL
    target = opt.value
    found = {"pot": None}

    def on_tree(edges, masses, total):
        value = Fraction(total, L * M) if rational else total
        if rational:
            if value != target:
                return None
        elif abs(value - target) > 1e-9 * (1 + abs(target)):
            return None
        pot = _tree_potentials(instance, edges)
        if pot is not None and pot.is_feasible_for(instance.cost):
            found["pot"] = pot
            raise _StopEnumeration
        return None

    # Prune only strictly-worse branches; optimal ties must complete so the
    # feasibility retry can walk all optimal trees.
    scaled_target = target * L * M if rational else None
    _enumerate_trees(
        m,
        n,
        mu,
        nu,
        cost,
        cost_bound=scaled_target,
        on_tree=on_tree,
        neg_tol=neg_tol,
    )
    if found["pot"] is None:
        raise NoFeasibleTreeDual("all optimal trees produced infeasible potentials")
    return found["pot"]


def _tree_potentials(instance: Instance, edges) -> Optional[DualPotentials]:
    """Propagate phi + psi = c along tree edges from phi[0] = 0."""
    m, n = instance.shape
    c = instance.cost.entries
    adj = {k: [] for k in range(m + n)}
    for (i, j) in edges:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    phi = [None] * m
    psi = [None] * n
    phi[0] = Fraction(0) if instance.mode == RATIONAL else 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for nxt, (i, j) in adj[node]:
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt >= m:
                psi[nxt - m] = c[i, j] - phi[i]
            else:
                phi[nxt] = c[i, j] - psi[j]
            stack.append(nxt)
    if any(v is None for v in phi) or any(v is None for v in psi):
        return None
    dtype = object if instance.mode == RATIONAL else np.float64
    phi_arr = np.array(phi, dtype=dtype)
    psi_arr = np.array(psi, dtype=dtype)
    phi_arr.setflags(write=False)
    psi_arr.setflags(write=False)
    return DualPotentials(phi=phi_arr, psi=psi_arr)
