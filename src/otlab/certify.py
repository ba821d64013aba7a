"""Machine-checkable certificates for optimal plan/potential pairs.

A certificate bundles four verdicts about a (plan, potentials) pair:

* duality gap — plan cost minus dual value, nonnegative by weak duality and
  zero exactly when both sides are optimal;
* marginal law — row and column sums reproduce the prescribed marginals;
* complementary slackness — plan mass lives only where phi + psi = c;
* c-cyclic monotonicity of the support — no finite tuple of support cells
  lowers total cost under a reordering of targets (cyclic shifts suffice:
  every reordering splits into cycles and the inequality is additive
  across them).

Cyclic monotonicity is decided by its textbook definition (Rockafellar
1966; Villani, *Optimal Transport: Old and New*, Def. 5.1), in which the N
support cells of a tuple may repeat. On the digraph whose nodes are the
support cells, arc a -> b weighs c(x_a, y_b) - c(x_a, y_a): a closed walk
a_1 -> ... -> a_N -> a_1 weighs the reordered cost of its cells minus
their own, and the zero diagonal pads a walk with self-loops. The support
fails at k when some closed walk of at most k arcs weighs below -tol, tol
the cost tolerance (0 in rational mode). That is read off the min-plus
powers P_t of the weight matrix (``core.min_plus_arrays``): a closed walk
of k arcs runs k//2 arcs out to some cell and the rest back, so each k is
one look at P_(k//2) + P_(k - k//2)^T, and k_max = 4 takes one product.
The weights are one gather of the cost's cached ``int_view`` at the
support's cells: ints in rational mode (any common denominator scales every
weight, G and H alike), float64 in float mode, where a walk of k arcs
rounds by about 2k^2 ulps of the cost scale, far below tol.

``+inf`` keeps its extended-real meaning. A reordering that costs ``+inf``
never violates, and a cell of infinite own cost against a finite
reordering always does. So an arc with infinite c(x_a, y_b) weighs H and
one out of an infinite own cost (c(x_a, y_b) finite) weighs -G, where G
tops k_max finite arcs plus tol and H tops k_max arcs of -G and finite
ones (``core.int_dtype`` guards the sums).

Tolerances come from the one policy in core and are never passed in: exact
zeros in rational mode; in float mode ``core.tolerance`` for masses and
``core.cost_tolerance`` for cost-valued quantities. The report prints them.
The marginal law is decided in one place, :func:`check_marginals`, by one
pass over the plan's nonzero cells (its ``scaled_view``). A certificate
runs it once and tests dual feasibility once; the gap and the slackness
report compute on the pair as that test reads it, in the cost's mode. All
of them compute on the ``scaled_view`` ints of the plan, the pair, the cost
and the marginals (floats over 1 in float mode), and report
``core.unscale`` of them: ``Fraction(int, D)`` in rational mode, built only
for the scalars a report holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CostMatrix,
    DualPotentials,
    Instance,
    Marginal,
    Number,
    RATIONAL,
    TransportPlan,
    cost_tolerance,
    int_dtype,
    is_inf,
    min_plus_arrays,
    scaled_dual_value,
    scaled_plan_cost,
    tolerance,
    unscale,
)
from .dual import solve_dual
from .errors import DimensionMismatch, InfeasibleArguments
from .primal import solve_primal

@dataclass(frozen=True, eq=False)
class MarginalReport:
    """The largest row and column deviations, their tolerance, and the first
    row, then column, off by more than it, in words (None if none; not serialized)."""

    max_row_deviation: Number
    max_col_deviation: Number
    tol: Number
    breach: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.max_row_deviation <= self.tol and self.max_col_deviation <= self.tol


@dataclass(frozen=True, eq=False)
class SlacknessViolation:
    cell: tuple
    mass: Number
    slack: Number


@dataclass(frozen=True, eq=False)
class CyclicViolation:
    """A closed walk of at most k arcs on the support that lowers the cost:
    its ``cells`` in walk order, where cells may repeat (module docstring),
    each cell's target moved to the one before it; ``baseline`` sums the
    cells' own costs and ``permuted``, finite, the reordered ones, below
    ``baseline`` by more than the tolerance."""

    k: int
    cells: tuple
    baseline: Number
    permuted: Number


@dataclass(frozen=True, eq=False)
class DualityCertificate:
    """Verdict bundle; passes iff the gap closes and every report is clean."""

    gap: Number
    marginals: MarginalReport
    slackness: tuple
    cyclic: dict  # k -> None (pass) or CyclicViolation
    tol: Number

    @property
    def verdict(self) -> bool:
        return (
            self.gap <= self.tol
            and self.marginals.passed
            and not self.slackness
            and all(v is None for v in self.cyclic.values())
        )


def duality_gap(plan: TransportPlan, pot: DualPotentials, instance: Instance) -> Number:
    """plan_cost - dual_value for a feasible pair; always >= 0."""
    _lawful_marginals(plan, instance)
    return _gap(plan, pot.require_feasible_for(instance.cost), instance)


def _gap(plan: TransportPlan, pot: DualPotentials, instance: Instance) -> Number:
    """plan_cost - dual_value of a read pair, on the scaled ints of both."""
    (P, D), (V, E) = scaled_plan_cost(plan, instance.cost), \
        scaled_dual_value(pot, instance.mu, instance.nu)
    return unscale(P if is_inf(P) else P * E - V * D, D * E, instance.mode)


def check_marginals(plan: TransportPlan, mu: Marginal, nu: Marginal) -> MarginalReport:
    """The marginal law in one pass over the plan's nonzero cells: row and column sums
    against same-shaped marginals, reported against ``tolerance(mode)``, on
    the ``scaled_view`` ints of the plan and the marginals: a line sum
    ``s / D`` against a weight ``w / L`` deviates by ``|s L - w D| / (D L)``."""
    if plan.shape != (mu.size, nu.size):
        raise DimensionMismatch(f"plan {plan.shape} vs marginals ({mu.size}, {nu.size})")
    mode, (cells, masses, D) = plan.mode, plan.scaled_view
    z = 0 if mode == RATIONAL else 0.0
    rows, cols = [z] * mu.size, [z] * nu.size
    for (i, j), x in zip(cells, masses):
        rows[i] += x
        cols[j] += x
    tol, devs, breach = tolerance(mode), [], None
    for kind, sums, part in (("row", rows, mu), ("column", cols, nu)):
        weights, L = part.scaled_view
        dev = [abs(s * L - w * D) for s, w in zip(sums, weights)]
        k = next((k for k, d in enumerate(dev) if d > tol * D * L), None)
        if breach is None and k is not None:
            breach = (f"{kind} {k} sums to {unscale(sums[k], D, mode)}, "
                      f"expected {unscale(weights[k], L, mode)}")
        devs.append(unscale(max(dev), D * L, mode))
    return MarginalReport(devs[0], devs[1], tol, breach)


def _lawful_marginals(plan: TransportPlan, instance: Instance) -> MarginalReport:
    """The marginal report of a plan that must obey the marginal law; a
    breach raises InfeasibleArguments naming it."""
    report = check_marginals(plan, instance.mu, instance.nu)
    if report.breach is not None:
        raise InfeasibleArguments(f"plan violates the marginal law: {report.breach}")
    return report


def check_slackness(plan: TransportPlan, pot: DualPotentials, cost: CostMatrix) -> tuple:
    """Support cells whose slack c - (phi + psi) exceeds ``cost_tolerance``,
    for potentials that must be feasible.

    An empty tuple certifies complementary slackness; exact optimal pairs
    always produce one."""
    if plan.shape != cost.shape:
        raise DimensionMismatch(f"plan {plan.shape} vs cost {cost.shape}")
    return _slack_violations(plan, pot.require_feasible_for(cost), cost)


def _slack_violations(plan: TransportPlan, pot: DualPotentials, cost: CostMatrix) -> tuple:
    """The slackness report of a pair from ``require_feasible_for``, on the
    ``scaled_view`` ints of the plan, the pair and the cost: a slack over
    ``E``, the lcm of the pair's and the cost's denominators."""
    (cells, masses, Dp), (phi, psi, D), (rows, M) = plan.scaled_view, pot.scaled_view, \
        cost.scaled_view
    E = math.lcm(D, M)
    f, g = E // M, E // D
    tol, mass_tol = cost_tolerance(cost) * E, tolerance(plan.mode) * Dp
    violations = []
    for (i, j), x in zip(cells, masses):
        if x <= mass_tol:  # off the support
            continue
        c = rows[i][j]
        slack = c * f - phi[i] * g - psi[j] * g if not is_inf(c) else c
        if slack > tol:  # an infinite slack always exceeds it
            slack = unscale(slack, E, cost.mode)
            violations.append(SlacknessViolation(cell=(i, j), mass=unscale(x, Dp, plan.mode),
                                                 slack=slack))
    return tuple(violations)


def check_cyclic_monotonicity(plan: TransportPlan, cost: CostMatrix, k_max: int = 4) -> dict:
    """The least-weight violation of c-cyclic monotonicity on the support
    per tuple size (module docstring).

    Returns {k: None | CyclicViolation} for 2 <= k <= k_max: None when no
    closed walk of at most k arcs weighs below -``cost_tolerance``, else
    the lightest one, from the smallest start cell and midpoint cell, with
    its self-loops dropped."""
    if k_max < 2:
        raise InfeasibleArguments("k_max must be at least 2")
    if plan.shape != cost.shape:
        raise DimensionMismatch(f"plan {plan.shape} vs cost {cost.shape}")
    support = plan.support()
    if not support:
        return dict.fromkeys(range(2, k_max + 1))
    w = _arc_weights(support, cost, k_max)
    powers = [w]  # P_t = P_(t-1) W at index t - 1
    for _ in range((k_max - 1) // 2):
        powers.append(min_plus_arrays(powers[-1], w))
    tol = cost_tolerance(cost)
    report = {}
    for k in range(2, k_max + 1):
        h = k // 2
        loops = powers[h - 1] + powers[k - h - 1].T  # out to c in h arcs, back in k - h
        first = int(loops.argmin())
        report[k] = None
        if loops.flat[first] < -tol:
            a, c = divmod(first, len(support))
            walk = _walk(powers, a, c, h)[:-1] + _walk(powers, c, a, k - h)[:-1]
            ring = tuple(support[x] for t, x in enumerate(walk) if x != walk[t - 1])
            after = ring[1:] + ring[:1]
            rows, M = cost.scaled_view
            report[k] = CyclicViolation(
                k=k,
                cells=ring,
                baseline=unscale(sum(rows[i][j] for i, j in ring), M, cost.mode),
                permuted=unscale(sum(rows[i][j] for (i, _), (_, j) in zip(ring, after)),
                                 M, cost.mode),
            )
    return report


def _arc_weights(support, cost: CostMatrix, k_max: int) -> np.ndarray:
    """The support digraph's weights c(x_a, y_b) - c(x_a, y_a), 0 on the
    diagonal, with ``+inf`` encoded by G and H (module docstring): a gather
    of the cost's cached ``int_view`` at the support's rows and columns, in
    ``int_dtype`` of every walk's sum, or float64."""
    a, wall, big, _ = cost.int_view
    G = 2 * k_max * big + 1  # tops k_max - 1 finite arcs, of at most 2 big, plus tol
    H = k_max * (G + 2 * big) + 1
    cells = np.ix_(*np.array(support).T)  # [a, b] -> (x_a, y_b)
    c = a[cells].astype(int_dtype(k_max * H) if cost.mode == RATIONAL else np.float64)
    inf = wall[cells]
    w = np.where(inf, H, np.where(inf.diagonal()[:, None], -G, c - c.diagonal()[:, None]))
    np.fill_diagonal(w, 0)
    return w


def _walk(powers, a: int, b: int, t: int) -> list:
    """The nodes a, ..., b of the lightest walk of t arcs, back from b: before
    v on P_s = P_(s-1) W comes the smallest l minimizing P_(s-1)[a, l] + W[l, v]."""
    w, nodes = powers[0], [b]
    for p in reversed(powers[:t - 1]):
        nodes.append(int((p[a] + w[:, nodes[-1]]).argmin()))
    return [a] + nodes[::-1]


def build_certificate(
    instance: Instance, plan: TransportPlan, pot: DualPotentials
) -> DualityCertificate:
    """Assemble the full certificate at the tolerance policy of the module
    docstring. Each law is decided once: one pass over the plan's cells
    gives the marginal report and the gap's marginal precondition, and one
    feasibility test gives the pair, read in the cost's mode, to the rest."""
    marginals = _lawful_marginals(plan, instance)
    pot = pot.require_feasible_for(instance.cost)
    return DualityCertificate(
        gap=_gap(plan, pot, instance),
        marginals=marginals,
        slackness=_slack_violations(plan, pot, instance.cost),
        cyclic=check_cyclic_monotonicity(plan, instance.cost),
        tol=cost_tolerance(instance.cost),
    )


def certify_instance(instance: Instance) -> DualityCertificate:
    """Solve the primal problem once, read the dual off its basis, and
    certify the resulting pair."""
    result = solve_primal(instance)
    return build_certificate(instance, result.plan, solve_dual(instance, result))
