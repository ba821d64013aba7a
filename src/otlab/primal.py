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

Infinite costs ride along as lexicographic two-part values (inf-mass part,
finite part); minimizing them first pushes all mass off infinite cells
whenever a finite-cost plan exists, and raises InfeasibleFiniteCost when it
does not. This keeps +inf symbolic instead of smuggling in a big numeric
sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    RATIONAL,
    CostMatrix,
    Instance,
    Marginal,
    TransportPlan,
    is_inf,
    plan_cost,
    scaled_data,
    validate_instance,
    zero,
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
    m, n = mu.size, nu.size
    dtype = object if mu.mode == RATIONAL else np.float64
    entries = np.empty((m, n), dtype=dtype)
    entries[:] = zero(mu.mode)
    for cell, x in _northwest_basis(mu.weights, nu.weights).items():
        entries[cell] = x
    entries.setflags(write=False)
    return TransportPlan(entries)


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
        if rem_mu[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1


def solve_primal(instance: Instance) -> OptimalPlanResult:
    """Exact minimum-cost transport plan for a validated instance."""
    if not instance.validated:
        instance = validate_instance(instance)
    m, n = instance.shape
    rational = instance.mode == RATIONAL
    # ints in rational mode: masses times L, costs times M (module docstring)
    mu, nu, cost, L, _ = scaled_data(instance)
    z = 0 if rational else 0.0

    # Lexicographic (inf part, finite part) cost pairs.
    cost_p = [[(1, z) if is_inf(c) else (0, c) for c in row] for row in cost]

    mass = _northwest_basis(mu, nu)
    basis = set(mass)

    eps = 0 if rational else 1e-12 * (1 + _finite_scale(instance.cost))

    for _ in range(_MAX_PIVOTS):
        phi, psi = _tree_potentials_pairs(m, n, basis, cost_p, z)
        entering = None
        for i in range(m):
            phi_i = phi[i]
            for j in range(n):
                if (i, j) in basis:
                    continue
                c = cost_p[i][j]
                r0 = c[0] - phi_i[0] - psi[j][0]
                if r0 < 0:
                    entering = (i, j)
                    break
                if r0 == 0 and c[1] - phi_i[1] - psi[j][1] < -eps:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            break
        cycle = _basis_cycle(m, n, basis, entering)
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

    out = np.empty((m, n), dtype=object if rational else np.float64)
    out[:] = zero(instance.mode)
    for cell, x in mass.items():
        if x > 0:
            out[cell] = Fraction(x, L) if rational else x
    out.setflags(write=False)
    plan = TransportPlan(out)
    value = plan_cost(plan, instance.cost)
    if is_inf(value):
        raise InfeasibleFiniteCost(
            "every feasible plan places mass on an infinite-cost cell"
        )
    reported = tuple(sorted(
        (i, j) for (i, j) in basis if not is_inf(cost[i][j])
    ))
    return OptimalPlanResult(plan=plan, value=value, basis=reported)


def _finite_scale(cost: CostMatrix) -> float:
    vals = [abs(v) for v in cost.entries.flat if not is_inf(v)]
    return float(max(vals)) if vals else 0.0


def _tree_potentials_pairs(m, n, basis, cost_p, z):
    """Solve phi[i] + psi[j] = c[i][j] on basis cells, phi[0] anchored."""
    adj = {k: [] for k in range(m + n)}
    for (i, j) in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    phi = [None] * m
    psi = [None] * n
    phi[0] = (0, z)
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt >= m:
                if psi[nxt - m] is None:
                    i, j = node, nxt - m
                    c = cost_p[i][j]
                    psi[j] = (c[0] - phi[i][0], c[1] - phi[i][1])
                    stack.append(nxt)
            else:
                if phi[nxt] is None:
                    i, j = nxt, node - m
                    c = cost_p[i][j]
                    phi[i] = (c[0] - psi[j][0], c[1] - psi[j][1])
                    stack.append(nxt)
    return phi, psi


def _basis_cycle(m, n, basis, entering):
    """The unique cycle the entering cell closes, as a cell list starting
    with the entering cell and alternating row/column moves."""
    i0, j0 = entering
    adj = {k: [] for k in range(m + n)}
    for (i, j) in basis:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    # path in the tree from column j0 back to row i0
    start, goal = m + j0, i0
    parent = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt, cell in adj[node]:
            if nxt not in parent:
                parent[nxt] = (node, cell)
                stack.append(nxt)
    cells = []
    node = goal
    while parent[node] is not None:
        prev, cell = parent[node]
        cells.append(cell)
        node = prev
    return [entering] + cells
