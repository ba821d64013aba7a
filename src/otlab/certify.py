"""Machine-checkable certificates for optimal plan/potential pairs.

A certificate bundles four verdicts about a (plan, potentials) pair:

* duality gap — plan cost minus dual value, nonnegative by weak duality and
  zero exactly when both sides are optimal;
* marginal law — row and column sums reproduce the prescribed marginals;
* complementary slackness — plan mass lives only where phi + psi = c;
* c-cyclic monotonicity of the support — no finite tuple of support cells
  lowers total cost under a permutation of targets (cyclic permutations
  suffice: every permutation splits into cycles and the inequality is
  additive across them).

Cyclic monotonicity is decided for every tuple size at once as a
negative-cycle question. On the digraph whose nodes are the support cells,
with weight c(x_a, y_b) - c(x_a, y_a) on arc a -> b, the cyclic reordering
of a tuple of distinct cells lowers the cost by exactly minus the weight of
the corresponding simple cycle; any negative closed walk contains a negative
simple cycle. Every weight is raised by tol / (k_max + 1), tol the cost
tolerance (0 in rational mode), so a cycle of k <= k_max arcs gains less
than tol: without a negative cycle no tuple of at most k_max cells lowers
the cost by tol (with tol = 0, by anything: the finite form of
Rockafellar's theorem). The weights are exact ints (``core.scaled``, float
values read as ``Fraction``s), and the margin tol / (k_max + 1) lies far
above float round-off, so a float-optimal support whose exact cycles sit a
few ulps below 0 passes without enumeration.
Only when that test cannot clear the support (a negative cycle or an
infinite support cost) are the (k-1)! cyclic reorderings of each k-subset
enumerated, to name the first witness per k.

Tolerances come from the one policy in core and are never passed in: exact
zeros in rational mode; in float mode ``core.tolerance`` for masses and
``core.cost_tolerance`` for cost-valued quantities. The report prints them.
The marginal law is decided in one place, :func:`check_marginals`, by one
pass over the plan's nonzero cells (``TransportPlan.cells``). A certificate
runs it once and tests dual feasibility once, inside the duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from .core import (
    CostMatrix,
    DualPotentials,
    Instance,
    Marginal,
    Number,
    RATIONAL,
    TransportPlan,
    cost_tolerance,
    dual_value,
    is_inf,
    plan_cost,
    scaled,
    shortest_distances,
    tolerance,
    zero,
)
from .dual import solve_dual
from .errors import (
    DimensionMismatch,
    InfeasibleArguments,
    InfeasiblePotentials,
    SupportTooLarge,
)
from .primal import solve_primal

#: Upper bound on individual tuple/permutation inequality checks in the
#: witness search on a support that is not cyclically monotone.
DEFAULT_CHECK_BUDGET = 10_000_000


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
    k: int
    cells: tuple
    baseline: Number
    permuted: Number  # strictly below baseline: the swap improves the cost


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
    return _gap(plan, pot, instance)


def _gap(plan: TransportPlan, pot: DualPotentials, instance: Instance) -> Number:
    """The duality gap of a plan already known to obey the marginal law."""
    if not pot.is_feasible_for(instance.cost):
        raise InfeasibleArguments("potentials violate phi + psi <= c")
    return plan_cost(plan, instance.cost) - dual_value(pot, instance.mu, instance.nu)


def check_marginals(plan: TransportPlan, mu: Marginal, nu: Marginal) -> MarginalReport:
    """The marginal law in one pass over ``plan.cells``: row and column sums
    against same-shaped marginals, reported against ``tolerance(mode)``."""
    if plan.shape != (mu.size, nu.size):
        raise DimensionMismatch(f"plan {plan.shape} vs marginals ({mu.size}, {nu.size})")
    rows, cols = [zero(plan.mode)] * mu.size, [zero(plan.mode)] * nu.size
    for (i, j), mass in plan.cells:
        rows[i] += mass
        cols[j] += mass
    tol = tolerance(plan.mode)
    lines = [("row", rows, mu.weights), ("column", cols, nu.weights)]
    devs = [[abs(s - w) for s, w in zip(sums, weights)] for _, sums, weights in lines]
    breach = next(
        (f"{kind} {k} sums to {sums[k]}, expected {weights[k]}"
         for (kind, sums, weights), dev in zip(lines, devs)
         for k, d in enumerate(dev) if d > tol),
        None,
    )
    return MarginalReport(max(devs[0]), max(devs[1]), tol, breach)


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
    if not pot.is_feasible_for(cost):
        raise InfeasiblePotentials("potentials violate phi + psi <= c")
    return _slack_violations(plan, pot, cost)


def _slack_violations(plan: TransportPlan, pot: DualPotentials, cost: CostMatrix) -> tuple:
    """The slackness report of potentials already known to be feasible."""
    tol, mass_tol = cost_tolerance(cost), tolerance(plan.mode)
    violations = []
    for (i, j), mass in plan.cells:
        if mass <= mass_tol:  # off the support
            continue
        c = cost.entries[i, j]
        slack = c - pot.phi[i] - pot.psi[j] if not is_inf(c) else c
        if slack > tol:  # an infinite slack always exceeds it
            violations.append(SlacknessViolation(cell=(i, j), mass=mass, slack=slack))
    return tuple(violations)


def check_cyclic_monotonicity(
    plan: TransportPlan,
    cost: CostMatrix,
    k_max: int = 4,
    budget: Optional[int] = None,
) -> dict:
    """First c-cyclic-monotonicity violation on the support per tuple size.

    Returns {k: None | CyclicViolation} for 2 <= k <= k_max. When the
    support digraph has no negative cycle (module docstring) every k passes
    and the budget is not consulted. Otherwise, for each k, walks all
    k-subsets of support cells and all cyclic reorderings of the targets
    (lexicographic order, deterministic), and records the first tuple whose
    reordering undercuts the original cost by more than ``cost_tolerance``;
    that search raises SupportTooLarge past ``budget`` reorderings (default
    DEFAULT_CHECK_BUDGET).
    """
    if k_max < 2:
        raise InfeasibleArguments("k_max must be at least 2")
    support = plan.support()
    if _no_negative_cycle(support, cost, k_max):
        return {k: None for k in range(2, k_max + 1)}
    if budget is None:
        budget = DEFAULT_CHECK_BUDGET
    tol = cost_tolerance(cost)
    checks = 0
    report: dict = {}
    for k in range(2, k_max + 1):
        found = None
        for cells in combinations(support, k):
            baseline = sum(cost.entries[i, j] for (i, j) in cells)
            first, rest = cells[0], cells[1:]
            for order in permutations(rest):
                checks += 1
                if checks > budget:
                    raise SupportTooLarge(
                        f"cyclic check budget of {budget} exceeded at k={k}"
                    )
                ring = (first,) + order
                permuted = sum(
                    cost.entries[ring[idx][0], ring[(idx + 1) % k][1]]
                    for idx in range(k)
                )
                # an infinite baseline against a finite reordering is a
                # genuine violation; inf - finite compares > tol as needed
                if not is_inf(permuted) and baseline - permuted > tol:
                    found = CyclicViolation(
                        k=k, cells=ring, baseline=baseline, permuted=permuted
                    )
                    break
            if found:
                break
        report[k] = found
    return report


def _no_negative_cycle(support, cost: CostMatrix, k_max: int) -> bool:
    """True when every support cell has a finite cost and the support
    digraph (arc a -> b weighted c(x_a, y_b) - c(x_a, y_a) + tol/(k_max+1),
    left out where c(x_a, y_b) is +inf) has no negative cycle; decided on
    the exact ints of ``core.scaled`` (module docstring)."""
    rows = cost.entries.tolist()
    if cost.mode != RATIONAL:
        rows = [[v if is_inf(v) else Fraction(v) for v in row] for row in rows]
    (*c, (shift,)), _ = scaled(rows + [[Fraction(cost_tolerance(cost)) / (k_max + 1)]])
    arcs = []
    for a, (i, j) in enumerate(support):
        row = c[i]
        own = row[j]
        if is_inf(own):
            return False
        for b, (_, j_b) in enumerate(support):
            if b != a and not is_inf(row[j_b]):
                arcs.append((a, b, row[j_b] - own + shift))
    return shortest_distances(len(support), arcs) is not None


def build_certificate(
    instance: Instance, plan: TransportPlan, pot: DualPotentials
) -> DualityCertificate:
    """Assemble the full certificate at the tolerance policy of the module
    docstring. Each law is decided once: one pass over the plan's cells
    gives the marginal report and the gap's marginal precondition, and the
    gap tests dual feasibility, whose verdict the slackness report reuses."""
    marginals = _lawful_marginals(plan, instance)
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
