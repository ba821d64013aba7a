"""Exact primal solver: network simplex on the transportation graph.

The basis is a spanning tree of the bipartite supply-demand graph; pivots
follow Bland's anti-cycling rule (first cell in row-major order with a
negative reduced cost enters; the smallest-index tie leaves), so the solver
terminates and is fully deterministic.

The first basis is the northwest corner, or a spanning tree the caller
gives (``solve_primal(instance, basis=...)``), such as the optimal basis of
another cost on the same marginals: the masses of a tree depend on the
marginals only, so that tree's plan is feasible here too. Its masses come
from the walk that hangs it from row 0: visited in reverse, each node sends
its remaining balance across the cell to its parent, exact on the scaled
ints; a tree whose masses are negative beyond ``tolerance(mode)`` is
refused, naming the cell.

Rational data are scaled to integers once (``core.scaled_data`` over the
parts' cached ``scaled_view``: masses times the LCM L of the marginal
denominators, costs times a common denominator M of theirs) and the
simplex runs on Python ints. Positive scaling keeps the sign of every
reduced cost and every mass comparison, so the Bland pivot sequence, the
basis and the plan are exactly those of the same simplex on Fractions;
masses are mapped back to ``Fraction(x, L)`` at the end and the value is
``Fraction(sum x * c, L * M)`` of the scaled ints. Float instances run the
same loop on floats with a scale-aware tolerance.

The basis tree is walked once, from row 0 (``core.hang_subtree``, the walk
of ``core.tree_potentials``), and then kept: a pivot drops the leaving
cell, adds the entering one and re-hangs only the subtree the leaving cell
cuts off, under the entering cell's endpoint outside it. A potential is the
alternating cost sum on the path to row 0, so the kept parent links and
potentials are exactly those of a fresh walk, in float mode bit for bit.
Each pivot then prices every cell in one numpy pass, ``c - phi - psi`` in
the order of the scalar formula, and the first negative non-basic cell in
row-major order enters. The arrays are float64 in float mode; the scaled
ints take ``core.int_dtype((2(m+n)+1)·max|c|)``, a bound on every reduced
cost, as a potential is an alternating sum of at most m+n-1 costs.

Infinite costs ride along as lexicographic two-part values (inf-mass part,
finite part); minimizing them first pushes all mass off infinite cells
whenever a finite-cost plan exists, and raises InfeasibleFiniteCost when it
does not. This keeps +inf symbolic instead of smuggling in a big numeric
sentinel. The reported basis is the whole final tree, zero-mass +inf cells
included, so its lexicographic potentials are those the simplex stopped at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    INF,
    RATIONAL,
    Instance,
    Marginal,
    TransportPlan,
    cost_tolerance,
    hang_subtree,
    int_dtype,
    plan_from_cells,
    require_spanning_tree,
    scaled_data,
    tolerance,
    tree_adjacency,
)
from .errors import InfeasibleFiniteCost, InfeasibleInput

_MAX_PIVOTS = 10_000_000  # safety net; Bland's rule terminates long before


@dataclass(frozen=True, eq=False)
class OptimalPlanResult:
    """An optimal plan, its exact value, and the supporting basis cells.

    The basis is always a spanning tree of the bipartite graph: m+n-1
    acyclic cells, sorted, containing every positive-mass cell. Zero-mass
    basic cells are included, +inf ones too (always zero-mass at a finite
    optimum).
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


def _tree_masses(m: int, order, parent, mu, nu, z, neg_tol) -> dict:
    """The basic solution of a spanning tree as {cell: mass}: the masses on
    its cells that meet the marginals. ``order`` and ``parent`` are the walk
    that hangs the tree (``core.hang_subtree``); visited in reverse, each
    node sends its remaining balance to its parent, and the root keeps what
    round-off leaves over. A mass below ``-neg_tol`` raises InfeasibleInput
    naming its cell; one in ``[-neg_tol, 0)`` (float round-off) is ``z``."""
    rem = list(mu) + list(nu)
    mass = {}
    for v in reversed(order[1:]):
        u = parent[v]
        cell = (v, u - m) if v < m else (u, v - m)
        x = rem[v]
        if x < -neg_tol:
            raise InfeasibleInput(
                f"basis cell {cell} would carry negative mass; the tree is not "
                f"feasible for these marginals"
            )
        mass[cell] = x if x >= 0 else z
        rem[u] -= x
    return mass


def solve_primal(instance: Instance, basis=None) -> OptimalPlanResult:
    """Exact minimum-cost transport plan of an instance, by Bland's rule from
    the northwest corner or, when given, from the spanning tree ``basis``
    (cells (i, j); a wrong count, a cell off the grid or a cycle raises
    InfeasibleInput, as does a tree whose masses are negative)."""
    m, n = instance.shape
    rational = instance.mode == RATIONAL
    # ints in rational mode: masses times L, costs times M (module docstring)
    mu, nu, cost, L, M = scaled_data(instance)
    z = 0 if rational else 0.0

    if basis is None:
        basis = mass = _northwest_basis(mu, nu)  # its keys are the basis
    else:
        require_spanning_tree(m, n, basis)
        mass = None

    # a thousandth of the dual check's tolerance, so near-ties still pivot
    eps = 0 if rational else cost_tolerance(instance.cost) / 1000

    # The first basis is a spanning tree; hang it from row 0 once.
    walled = any(c == INF for row in cost for c in row)
    adj = tree_adjacency(m, n, basis)
    parent, pot = [-1] * (m + n), [z] * (m + n)
    wall = [0] * (m + n) if walled else None
    order = hang_subtree(m, adj, cost, z, 0, -1, parent, pot, wall)
    if mass is None:
        mass = _tree_masses(m, order, parent, mu, nu, z, tolerance(instance.mode))

    dtype = np.float64
    if rational:
        big = max((abs(c) for row in cost for c in row if c != INF), default=0)
        dtype = int_dtype((2 * (m + n) + 1) * big)
    finite = np.array([[z if c == INF else c for c in row] for row in cost], dtype=dtype)
    if walled:
        infinite = np.array([[c == INF for c in row] for row in cost], dtype=np.int64)
    nonbasic = np.ones((m, n), dtype=bool)
    for cell in mass:
        nonbasic[cell] = False

    for _ in range(_MAX_PIVOTS):
        # Reduced costs are lexicographic (wall, finite) pairs: the wall
        # part counts +inf cells, and the finite part counts them as z.
        p = np.array(pot, dtype=dtype)
        enter = finite - p[:m, None] - p[None, m:] < -eps
        if walled:
            w = np.array(wall)
            r0 = infinite - w[:m, None] - w[None, m:]
            enter = (r0 < 0) | ((r0 == 0) & enter)
        enter &= nonbasic
        k = int(enter.argmax())
        if not enter.flat[k]:
            break
        entering = divmod(k, n)
        cycle = _basis_cycle(m, parent, entering)
        # Alternate signs around the cycle, + on the entering cell.
        minus = cycle[1::2]
        theta = min(mass[cell] for cell in minus)
        leaving = min(cell for cell in minus if mass[cell] == theta)
        for cell in cycle[0::2]:
            mass[cell] = mass.get(cell, z) + theta
        for cell in minus:
            mass[cell] = mass[cell] - theta
        del mass[leaving]
        nonbasic[entering] = False
        nonbasic[leaving] = True
        _exchange(m, adj, cost, z, parent, pot, wall, entering, leaving)
    else:
        raise RuntimeError("network simplex exceeded the pivot safety bound")

    # Float marginals agree only to the mass tolerance, so round-off can
    # strand a crumb that small on a +inf cell; it is dropped, not charged.
    crumb = tolerance(instance.mode)
    basis = tuple(sorted(mass))
    kept = [(cell, mass[cell]) for cell in basis
            if mass[cell] > (crumb if cost[cell[0]][cell[1]] == INF else 0)]
    total = z  # summed in row-major order, as plan_cost sums a plan
    for (i, j), x in kept:
        if cost[i][j] == INF:
            raise InfeasibleFiniteCost(
                "every feasible plan places mass on an infinite-cost cell"
            )
        total += x * cost[i][j]
    plan = plan_from_cells(
        (m, n), {cell: Fraction(x, L) if rational else x for cell, x in kept}, instance.mode
    )
    value = Fraction(total, L * M) if rational else total
    return OptimalPlanResult(plan=plan, value=value, basis=basis)


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


def _exchange(m, adj, rows, z, parent, pot, wall, entering, leaving):
    """Swap the leaving cell for the entering one in the basis tree and
    re-hang the subtree the leaving cell cuts off from the anchor under the
    entering cell's endpoint outside it (``core.hang_subtree``)."""
    i, j = leaving
    cut = i if parent[i] == m + j else m + j
    adj[i].remove(m + j)
    adj[m + j].remove(i)
    i0, j0 = entering
    adj[i0].append(m + j0)
    adj[m + j0].append(i0)
    v = i0
    while v >= 0 and v != cut:
        v = parent[v]
    inner, outer = (i0, m + j0) if v == cut else (m + j0, i0)
    hang_subtree(m, adj, rows, z, inner, outer, parent, pot, wall)

