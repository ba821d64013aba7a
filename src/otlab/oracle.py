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
and, once a tree has completed, the moment the partial cost passes the
incumbent: the cheapest tree completed so far (there is no seed). Neither
cut affects the exact minimum nor the deterministic first-found tie-break.

The walk is a generator that yields each completed tree. ``oracle_primal``
is the ``min`` of those trees by cost (the first cheapest one), and
``oracle_dual`` stops iterating at the first tree with a dual
(``core.basis_dual``), which ends the walk.

Rational data is scaled to integers (denominators cleared, by the same
``core.scaled_data`` the simplex uses) so the hot loop runs on Python ints.
That scaling and a basis's dual ``core.basis_dual`` (the tree walk and the
feasibility test) are shared with the simplex; its solving logic is not.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Optional

from .core import (
    RATIONAL,
    DualPotentials,
    Instance,
    basis_dual,
    cost_tolerance,
    plan_from_cells,
    scaled_data,
    tolerance,
)
from .errors import BadNumber, BudgetExceeded, NoFeasibleTreeDual
from .primal import OptimalPlanResult

#: Largest |X| * |Y| the oracle accepts by default.
DEFAULT_CELL_BUDGET = 16


def budget_from_env(budget: Optional[int]) -> int:
    """The oracle's cell budget: an explicit ``budget``, else the
    ``OT_LAB_BUDGET`` environment variable, else DEFAULT_CELL_BUDGET. A
    variable that is not an integer raises BadNumber naming it."""
    if budget is not None:
        return budget
    env = os.environ.get("OT_LAB_BUDGET")
    try:
        return int(env) if env else DEFAULT_CELL_BUDGET
    except ValueError:
        raise BadNumber(f"OT_LAB_BUDGET: bad number {env!r} (not an integer)") from None


def _enumerate_trees(
    m: int,
    n: int,
    mu,
    nu,
    cost,
    *,
    prune_infeasible: bool = True,
    neg_tol=0,
    cost_tol=0,
):
    """Walk every canonical pluck sequence depth-first, yielding
    ``(edges, masses, total_cost)`` for each completed tree (edges as
    (i, j) cell pairs, in pluck order). A consumer that stops iterating
    ends the walk. The incumbent is the cheapest tree yielded so far: a
    branch whose partial cost passes it by more than ``cost_tol`` is cut.
    With ``prune_infeasible=False`` nothing is cut and every spanning tree
    is yielded, negative masses included (used by the bijection self-test).
    """
    size = m + n
    # node k: row k if k < m else column k - m
    rem = list(mu) + list(nu)
    active = [True] * size
    debt = [False] * size
    edges = []
    masses = []
    best = bound = None  # the incumbent's cost and, shifted, its cut

    # Shift costs nonnegative so partial sums are monotone; total mass is
    # fixed, so every plan's cost shifts by the same constant.
    cmin = min([0] + [c for row in cost for c in row])
    cost = [[c - cmin for c in row] for row in cost]
    shift = cmin * sum(mu)

    def dfs(steps_left: int, partial):
        nonlocal best, bound
        if steps_left == 0:
            total = partial + shift
            yield tuple(edges), tuple(masses), total
            if best is None or total < best:
                best, bound = total, total - shift + cost_tol
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
                if prune_infeasible and bound is not None and new_partial > bound:
                    rem[p] += x
                    continue
                had_debt = debt[p]
                debt[p] = False
                edges.append((v, p - m) if v < m else (p, v - m))
                masses.append(x)
                yield from dfs(steps_left - 1, new_partial)
                edges.pop()
                masses.pop()
                debt[p] = had_debt
                rem[p] += x
            active[v] = True
            for u in newly_indebted:
                debt[u] = False

    yield from dfs(size - 1, 0)


def _walk(instance: Instance, budget: Optional[int]):
    """The one guarded walk behind both oracle entry points.

    Refuses a ``+inf`` cost and an instance over the cell budget (default
    16, overridable via the ``budget`` argument or the OT_LAB_BUDGET
    variable) at once, then returns ``(trees, L, M)``: the tree generator
    of :func:`_enumerate_trees` on the scaled data, and the scales of
    ``core.scaled_data``. The walk's incumbent is the cheapest tree it has
    yielded (there is no seed), so each tree it yields ties or beats it
    within ``cost_tolerance``."""
    instance.cost.require_bounded("the oracle")
    m, n = instance.shape
    budget = budget_from_env(budget)
    if m * n > budget:
        raise BudgetExceeded(
            f"{m}x{n} instance exceeds the oracle budget of {budget} cells"
        )
    mu, nu, cost, L, M = scaled_data(instance)
    trees = _enumerate_trees(
        m, n, mu, nu, cost,
        neg_tol=tolerance(instance.mode), cost_tol=cost_tolerance(instance.cost),
    )
    return trees, L, M


def oracle_primal(instance: Instance, budget: Optional[int] = None) -> OptimalPlanResult:
    """Exact optimum by spanning-tree enumeration; the master ground truth:
    the first strictly cheapest tree of the walk.

    Accepts bounded instances with |X| * |Y| within the cell budget (see
    :func:`_walk`)."""
    trees, L, M = _walk(instance, budget)
    best = min(trees, key=lambda tree: tree[2], default=None)
    if best is None:
        raise NoFeasibleTreeDual("no feasible tree found; enumeration bug")
    edges, tree_masses, total = best
    m, n = instance.shape
    rational = instance.mode == RATIONAL
    masses = {
        cell: Fraction(x, L) if rational else max(x, 0.0)
        for cell, x in zip(edges, tree_masses)
    }
    value = Fraction(total, L * M) if rational else total
    return OptimalPlanResult(
        plan=plan_from_cells((m, n), masses, instance.mode),
        value=value,
        basis=tuple(sorted(edges)),
    )


def oracle_dual(instance: Instance, budget: Optional[int] = None) -> DualPotentials:
    """Feasible potentials matching the oracle optimum exactly, from one walk.

    The first tree the walk yields that has a dual (``core.basis_dual``,
    never lifted: the cost is bounded) wins; returning from the loop ends
    the walk. By complementary slackness such a tree is optimal: its masses
    are nonnegative, and its plan and potentials are tight on the same
    cells, so its cost equals their dual value. Cost pruning cuts only trees
    strictly worse than the incumbent, which are never optimal, so this is
    the first optimal tree with a dual in walk order. Strong duality
    guarantees one exists; running out of candidates signals a bug. The
    guards are those of :func:`oracle_primal`.
    """
    trees, _, _ = _walk(instance, budget)
    for edges, _, _ in trees:
        pot = basis_dual(edges, instance.cost)
        if pot is not None:
            return pot
    raise NoFeasibleTreeDual("all optimal trees produced infeasible potentials")
