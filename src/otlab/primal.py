"""Exact primal solver: network simplex on the transportation graph.

The basis is a spanning tree of the bipartite supply-demand graph. The
cell with the most negative reduced cost enters (the first in row-major
order on ties), and the smallest cell among tied leavers leaves. Right after
a degenerate pivot (one that moves no mass), Bland's rule picks instead:
the first cell in row-major order with a negative reduced cost enters. A
cycle of bases is made of degenerate pivots only, so every pivot on it
would be Bland's, which never cycles (Bland 1977): the solver terminates
and is fully deterministic.

The first basis is the least-cost start, or a spanning tree the caller
gives (``solve_primal(instance, basis=...)``), such as the optimal basis of
another cost on the same marginals: the masses of a tree depend on the
marginals only, so that tree's plan is feasible here too. Its masses come
from the walk that hangs it from row 0: visited in reverse, each node sends
its remaining balance across the cell to its parent, exact on the scaled
ints; a tree whose masses are negative beyond ``tolerance(mode)`` is
refused, naming the cell.

The least-cost (matrix-minimum) start walks the cells by cost, the +inf
walls last and ties in row-major order: one stable ``np.lexsort`` of the
cost's ``int_view``, exact on its ints. A cell whose row and column are
both open takes the least of their rests and closes one of the two, so
the start is m+n-1 cells forming a spanning tree, its masses exact ints in
rational mode (Bazaraa, Jarvis and Sherali, *Linear Programming and Network
Flows*, ch. 10). The northwest corner is the same walk in row-major order.

Rational data are scaled to integers once (``core.scaled_data`` over the
parts' cached ``scaled_view``: masses times the LCM L of the marginal
denominators, costs times a common denominator M of theirs) and the
simplex runs on Python ints. Positive scaling keeps the order of the
reduced costs and every mass comparison, so the pivot sequence, the basis
and the plan are exactly those of the same simplex on Fractions; the plan
holds only its nonzero cells and their masses, ints over L, as its
``scaled_view`` (``core.plan_from_cells``), and the value, its one
``Fraction``, is ``Fraction(sum x * c, L * M)`` of the scaled ints. Float
instances run the same loop on floats with a scale-aware tolerance; in both
modes the priced cost and its walls are the cost's ``int_view``.

The basis tree is walked once, from row 0 (``core.hang_subtree``, the walk
of ``core.tree_potentials``), and then kept: a pivot drops the leaving
cell, adds the entering one and re-hangs only the subtree the leaving cell
cuts off, under the entering cell's endpoint outside it. A potential is the
alternating cost sum on the path to row 0 and a depth its length, so the
kept parent links, depths and potentials are exactly those of a fresh walk,
in float mode bit for bit. The entering cell's cycle climbs from its row and
its column, the deeper first, only until the two meet, and the exchange
tells the cut-off side by depth: both take time in the cycle's length, not
in the depth of the tree (the depth index of Ahuja, Magnanti and Orlin,
*Network Flows*, section 11.3).

Each pivot prices one held array, ``priced``: the cost's ``int_view`` with
every basic cell set to a value H above every reduced cost, so that no
basic cell enters and no mask is needed. The entering cell takes H and the
leaving cell its cost back, two writes per pivot. Pricing is three passes
over the m·n cells: ``priced - phi - psi`` by two subtractions into one
buffer, in the order of the scalar formula, then one ``argmin`` (under
Bland's rule one ``argmax`` of ``< -eps``). The arrays are float64 in float
mode, with H = +inf; the scaled ints take
``core.int_dtype((2(m+n)+1)·max|c|)``, a bound on every reduced cost, as a
potential is an alternating sum of at most m+n-1 costs, and H is that bound
plus 1, which the dtype still holds with every reduced cost of a basic
cell. A degenerate pivot (theta = 0) moves no mass and skips the mass
updates. The result's ``stats`` (:class:`SolveStats`) counts the pivots
and the degenerate ones, kept in locals and published once.

Infinite costs ride along as lexicographic two-part values (inf-mass part,
finite part); minimizing them first pushes all mass off infinite cells
whenever a finite-cost plan exists, and raises InfeasibleFiniteCost naming
the first +inf cell of the plan when it does not. The wall part ``r0`` (a
cell's +inf count less its row's and column's wall potentials) is folded
into the buffer: H where ``r0 > 0`` (never enters), -H where ``r0 < 0``
(enters first), so +inf stays symbolic and one rule prices every instance.
The reported basis is the whole final tree, zero-mass +inf cells included,
so its lexicographic potentials are those the simplex stopped at.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .core import (
    INF,
    RATIONAL,
    CostMatrix,
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
    unscale,
)
from .errors import InfeasibleFiniteCost, InfeasibleInput

_MAX_PIVOTS = 10_000_000  # safety net; the pivot rule cannot cycle (module docstring)


@dataclass(frozen=True)
class SolveStats:
    """What one simplex solve did: its ``pivots``, the ``degenerate`` ones
    among them (theta = 0, no mass moved), and whether it was ``warm``
    (started from a given basis rather than the least-cost start)."""

    pivots: int
    degenerate: int
    warm: bool


@dataclass(frozen=True, eq=False)
class OptimalPlanResult:
    """An optimal plan, its exact value, and the supporting basis cells.

    The basis is always a spanning tree of the bipartite graph: m+n-1
    acyclic cells, sorted, containing every positive-mass cell. Zero-mass
    basic cells are included, +inf ones too (always zero-mass at a finite
    optimum). ``stats`` is the :class:`SolveStats` of the simplex solve
    that found it, None for a result built otherwise.
    """

    plan: TransportPlan
    value: object
    basis: tuple
    stats: Optional[SolveStats] = None


def northwest_corner(mu: Marginal, nu: Marginal) -> TransportPlan:
    """Deterministic greedy feasible plan with at most |X|+|Y|-1 cells."""
    return plan_from_cells(
        (mu.size, nu.size), _northwest_basis(mu.weights, nu.weights), mu.mode
    )


def _northwest_basis(mu, nu) -> dict:
    """Northwest-corner basis: :func:`_greedy_basis` over the cells in row-major order."""
    return _greedy_basis(mu, nu, product(range(len(mu)), range(len(nu))))


def _least_cost_basis(mu, nu, cost: CostMatrix) -> dict:
    """Least-cost basis: :func:`_greedy_basis` over the cells by cost, the
    ``+inf`` walls last and ties in row-major order (one stable
    ``np.lexsort`` of the cost's ``int_view``: exact on its ints)."""
    finite, infinite = cost.int_view[:2]
    rows, cols = np.divmod(np.lexsort((finite.ravel(), infinite.ravel())), len(nu))
    return _greedy_basis(mu, nu, zip(rows.tolist(), cols.tolist()))


def _greedy_basis(mu, nu, order) -> dict:
    """The basis a greedy walk over the cells in ``order`` places, as
    {cell: mass} in the order cells are placed. A cell whose row and column
    are both open takes the least of their rests and closes one of them,
    so the basis is a spanning tree with m+n-1 cells: its row when the row's
    rest is 0 and another row is open, or when no other column is open;
    else its column, so ties park a zero-mass basic cell. What float
    round-off leaves in a line it closes is dropped, so the walk always
    ends on the cell of the last open row and column."""
    m, n = len(mu), len(nu)
    rest_mu, rest_nu = list(mu), list(nu)
    open_mu, open_nu = [True] * m, [True] * n
    rows, cols = m, n  # how many rows and columns are open
    mass = {}
    for i, j in order:
        if not (open_mu[i] and open_nu[j]):
            continue
        x = min(rest_mu[i], rest_nu[j])
        mass[(i, j)] = x
        if rows == 1 and cols == 1:
            return mass
        rest_mu[i] -= x
        rest_nu[j] -= x
        if rows > 1 and (rest_mu[i] == 0 or cols == 1):
            open_mu[i] = False
            rows -= 1
        else:
            open_nu[j] = False
            cols -= 1


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
    """Exact minimum-cost transport plan of an instance, by the network
    simplex (the most negative reduced cost, its +inf wall part folded in,
    enters; Bland's rule after a degenerate pivot, see the module docstring)
    from the least-cost start (cells by cost, +inf walls last, ties in
    row-major order) or, when given, from the spanning tree ``basis`` (cells
    (i, j); a wrong count, a cell off the grid or a cycle raises
    InfeasibleInput, as does a tree whose masses are negative)."""
    m, n = instance.shape
    rational = instance.mode == RATIONAL
    # ints in rational mode: masses times L, costs times M (module docstring)
    mu, nu, cost, L, M = scaled_data(instance)
    z = 0 if rational else 0.0

    warm = basis is not None
    if basis is None:
        basis = mass = _least_cost_basis(mu, nu, instance.cost)  # its keys are the basis
    else:
        require_spanning_tree(m, n, basis)
        mass = None

    # a thousandth of the dual check's tolerance, so near-ties still pivot
    eps = 0 if rational else cost_tolerance(instance.cost) / 1000

    # The cost's array, 0 on its +inf walls, in a dtype that holds every
    # reduced cost; H is above every one of them (module docstring).
    finite, infinite, big, _ = instance.cost.int_view
    if rational:
        bound = (2 * (m + n) + 1) * big
        dtype, high = int_dtype(bound), bound + 1
    else:
        dtype, high = np.float64, INF
    walled = bool(infinite.any())

    # The first basis is a spanning tree; hang it from row 0 once.
    adj = tree_adjacency(m, n, basis)
    parent, pot, depth = [-1] * (m + n), [z] * (m + n), [0] * (m + n)
    wall = [0] * (m + n) if walled else None
    order = hang_subtree(m, adj, cost, z, 0, -1, parent, pot, wall, depth)
    if mass is None:
        mass = _tree_masses(m, order, parent, mu, nu, z, tolerance(instance.mode))

    # the priced cost: H on every basic cell, so only nonbasic cells enter
    finite = finite.astype(dtype, copy=False)
    priced = finite.copy()
    for cell in mass:
        priced[cell] = high
    reduced = np.empty((m, n), dtype=dtype)

    bland = False
    degenerate = 0
    for pivots in range(_MAX_PIVOTS):
        # The finite part of the reduced costs, +inf cells counted as z; the
        # wall part r0 of a walled instance is folded in (module docstring).
        p = np.array(pot, dtype=dtype)
        np.subtract(priced, p[:m, None], out=reduced)
        np.subtract(reduced, p[None, m:], out=reduced)
        if walled:
            w = np.array(wall)
            r0 = infinite - w[:m, None] - w[None, m:]
            reduced[r0 > 0] = high
            reduced[r0 < 0] = -high
        # argmin and argmax take the first cell in row-major order on ties
        k = int((reduced < -eps).argmax() if bland else reduced.argmin())
        if not reduced.flat[k] < -eps:
            break
        entering = divmod(k, n)
        cycle = _basis_cycle(m, parent, depth, entering)
        # Alternate signs around the cycle, + on the entering cell.
        minus = cycle[1::2]
        theta = min(mass[cell] for cell in minus)
        leaving = min(cell for cell in minus if mass[cell] == theta)
        if theta == 0:  # a degenerate pivot moves no mass
            degenerate += 1
            mass[entering] = z
        else:
            for cell in cycle[0::2]:
                mass[cell] = mass.get(cell, z) + theta
            for cell in minus:
                mass[cell] = mass[cell] - theta
        del mass[leaving]
        priced[entering], priced[leaving] = high, finite[leaving]
        _exchange(m, adj, cost, z, parent, pot, wall, depth, entering, leaving)
        bland = theta == 0
    else:
        raise RuntimeError("network simplex exceeded the pivot safety bound")

    # Float marginals agree only to the mass tolerance, so round-off can
    # strand a crumb that small on a +inf cell; it is dropped, not charged.
    crumb = tolerance(instance.mode)
    basis = tuple(sorted(mass))
    kept = {cell: mass[cell] for cell in basis
            if mass[cell] > (crumb if cost[cell[0]][cell[1]] == INF else 0)}
    total = z  # summed in row-major order, as plan_cost sums a plan
    for (i, j), x in kept.items():
        if cost[i][j] == INF:
            raise InfeasibleFiniteCost("every feasible plan places mass on an infinite-cost "
                                       f"cell; the solved plan places mass on cost[{i}][{j}]")
        total += x * cost[i][j]
    plan = plan_from_cells((m, n), kept, instance.mode, L)
    return OptimalPlanResult(plan=plan, value=unscale(total, L * M, instance.mode), basis=basis,
                             stats=SolveStats(pivots, degenerate, warm))


def _basis_cycle(m, parent, depth, entering):
    """The cycle the entering cell closes in the basis tree with these
    parent links and depths: the entering cell, then the tree path from its
    row to its column, found by climbing from both ends, the deeper first,
    until they meet."""
    i0, j0 = entering
    up, down = [i0], [m + j0]
    a, b = i0, m + j0
    while depth[a] > depth[b]:
        a = parent[a]
        up.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        down.append(b)
    while a != b:
        a, b = parent[a], parent[b]
        up.append(a)
        down.append(b)
    path = up + down[-2::-1]
    return [entering] + [
        (a, b - m) if a < m else (b, a - m) for a, b in zip(path, path[1:])
    ]


def _exchange(m, adj, rows, z, parent, pot, wall, depth, entering, leaving):
    """Swap the leaving cell for the entering one in the basis tree and
    re-hang the subtree the leaving cell cuts off from the anchor under the
    entering cell's endpoint outside it (``core.hang_subtree``). The row of
    the entering cell lies in that subtree when climbing from it to the cut
    node's depth reaches the cut node."""
    i, j = leaving
    cut = i if parent[i] == m + j else m + j
    adj[i].remove(m + j)
    adj[m + j].remove(i)
    i0, j0 = entering
    adj[i0].append(m + j0)
    adj[m + j0].append(i0)
    v = i0
    while depth[v] > depth[cut]:
        v = parent[v]
    inner, outer = (i0, m + j0) if v == cut else (m + j0, i0)
    hang_subtree(m, adj, rows, z, inner, outer, parent, pot, wall, depth)
