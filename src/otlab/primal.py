"""Exact primal solver: network simplex on the transportation graph.

The basis is a spanning tree of the bipartite supply-demand graph; pivots
follow Bland's anti-cycling rule (first cell in row-major order with a
negative reduced cost enters; the smallest-index tie leaves), so the solver
terminates and is fully deterministic.

Rational data are scaled to integers once (``core.scaled_data``: masses
times the LCM L of the marginal denominators, costs times the LCM M of the
cost denominators) and the simplex runs on Python ints. Positive scaling
keeps the sign of every reduced cost and every mass comparison, so the
Bland pivot sequence, the basis and the plan are exactly those of the same
simplex on Fractions; masses are mapped back to ``Fraction(x, L)`` at the
end and the value is the exact ``plan_cost`` of that Fraction plan. Float
instances run the same loop on floats with a scale-aware tolerance.

Each pivot walks the basis tree once (``core.tree_potentials``): the walk
gives the potentials for pricing and the parent links along which the
entering cell's cycle is traced.

Infinite costs ride along as lexicographic two-part values (inf-mass part,
finite part); minimizing them first pushes all mass off infinite cells
whenever a finite-cost plan exists, and raises InfeasibleFiniteCost when it
does not. This keeps +inf symbolic instead of smuggling in a big numeric
sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INF,
    RATIONAL,
    Instance,
    Marginal,
    TransportPlan,
    cost_tolerance,
    is_inf,
    plan_cost,
    plan_from_cells,
    scaled_data,
    tolerance,
    tree_potentials,
)
from .errors import InfeasibleFiniteCost

_MAX_PIVOTS = 10_000_000  # safety net; Bland's rule terminates long before


@dataclass(frozen=True, eq=False)
class OptimalPlanResult:
    """An optimal plan, its exact value, and the supporting basis cells.

    The basis is acyclic, contains every positive-mass cell, and — for
    bounded costs — forms a single spanning tree of the bipartite graph
    (zero-mass basic cells included). With +inf entries the reported basis
    may be a forest: infinite-cost basic cells (always zero-mass at a finite
    optimum) are dropped.
    """

    plan: TransportPlan
    value: object
    basis: tuple


def northwest_corner(mu: Marginal, nu: Marginal) -> TransportPlan:
    """Deterministic greedy feasible plan with at most |X|+|Y|-1 cells."""
    return plan_from_cells(
        (mu.size, nu.size), _northwest_basis(mu.weights, nu.weights), mu.mode
    )


def _northwest_basis(mu, nu) -> dict:
    """Northwest-corner basis as {cell: mass}, in the order cells are placed."""
    m, n = len(mu), len(nu)
    rem_mu = list(mu)
    rem_nu = list(nu)
    mass = {}
    i = j = 0
    while True:
        x = min(rem_mu[i], rem_nu[j])
        mass[(i, j)] = x
        rem_mu[i] -= x
        rem_nu[j] -= x
        if i == m - 1 and j == n - 1:
            return mass
        # Advance exactly one axis per step so the basis stays a tree with
        # m+n-1 cells; ties park a zero-mass basic cell on the next step.
        # The last column and the last row absorb what float round-off
        # leaves over, so the walk never leaves the matrix.
        if i < m - 1 and (rem_mu[i] == 0 or j == n - 1):
            i += 1
        else:
            j += 1


def solve_primal(instance: Instance) -> OptimalPlanResult:
    """Exact minimum-cost transport plan of an instance."""
    m, n = instance.shape
    rational = instance.mode == RATIONAL
    # ints in rational mode: masses times L, costs times M (module docstring)
    mu, nu, cost, L, _ = scaled_data(instance)
    z = 0 if rational else 0.0

    mass = _northwest_basis(mu, nu)
    basis = set(mass)

    # a thousandth of the dual check's tolerance, so near-ties still pivot
    eps = 0 if rational else cost_tolerance(instance.cost) / 1000

    for _ in range(_MAX_PIVOTS):
        # Reduced costs are lexicographic (wall, finite) pairs: the wall
        # part counts +inf cells, and the finite part counts them as z.
        _, pot, parent, wall = tree_potentials(m, n, basis, cost, z)
        psi = pot[m:]
        entering = None
        for i in range(m):
            phi_i = pot[i]
            row = cost[i]
            for j in range(n):
                if (i, j) in basis:
                    continue
                c = row[j]
                inf = c == INF
                r0 = inf - wall[i] - wall[m + j] if wall is not None else inf
                if r0 < 0 or (not r0 and (z if inf else c) - phi_i - psi[j] < -eps):
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            break
        cycle = _basis_cycle(m, parent, entering)
        # Alternate signs around the cycle, + on the entering cell.
        minus = cycle[1::2]
        theta = min(mass[cell] for cell in minus)
        leaving = min(cell for cell in minus if mass[cell] == theta)
        for cell in cycle[0::2]:
            mass[cell] = mass.get(cell, z) + theta
        for cell in minus:
            mass[cell] = mass[cell] - theta
        basis.add(entering)
        basis.remove(leaving)
        del mass[leaving]
    else:
        raise RuntimeError("network simplex exceeded the pivot safety bound")

    # Float marginals agree only to the mass tolerance, so round-off can
    # strand a crumb that small on a +inf cell; it is dropped, not charged.
    crumb = tolerance(instance.mode)
    plan = plan_from_cells(
        (m, n),
        {(i, j): Fraction(x, L) if rational else x for (i, j), x in mass.items()
         if x > (crumb if cost[i][j] == INF else 0)},
        instance.mode,
    )
    value = plan_cost(plan, instance.cost)
    if is_inf(value):
        raise InfeasibleFiniteCost(
            "every feasible plan places mass on an infinite-cost cell"
        )
    reported = tuple(sorted(
        (i, j) for (i, j) in basis if not is_inf(cost[i][j])
    ))
    return OptimalPlanResult(plan=plan, value=value, basis=reported)


def _basis_cycle(m, parent, entering):
    """The cycle the entering cell closes in the basis tree with these
    parent links: the entering cell, then the tree path from its row to its
    column, found where the two walks toward the anchor meet."""
    i0, j0 = entering
    up = [i0]
    while parent[up[-1]] >= 0:
        up.append(parent[up[-1]])
    index = {node: k for k, node in enumerate(up)}
    down = [m + j0]
    while down[-1] not in index:
        down.append(parent[down[-1]])
    path = up[: index[down[-1]] + 1] + down[-2::-1]
    return [entering] + [
        (a, b - m) if a < m else (b, a - m) for a, b in zip(path, path[1:])
    ]
