"""Machine-checkable certificates for optimal plan/potential pairs.

A certificate bundles four verdicts about a (plan, potentials) pair:

* duality gap — plan cost minus dual value, nonnegative by weak duality and
  zero exactly when both sides are optimal;
* marginal law — row and column sums reproduce the prescribed marginals;
* complementary slackness — plan mass lives only where phi + psi = c;
* c-cyclic monotonicity of the support — no finite tuple of support cells
  lowers total cost under a permutation of targets (cyclic permutations
  suffice: every permutation splits into cycles and the inequality is
  additive across them, which cuts the enumeration from k! to (k-1)!).

All tolerances are explicit in the report; rational mode certifies with
exact zeros.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .core import (
    CostMatrix,
    DualPotentials,
    Instance,
    Marginal,
    Number,
    TransportPlan,
    dual_value,
    is_inf,
    plan_cost,
    tolerance,
    validate_instance,
)
from .dual import solve_dual
from .errors import (
    DimensionMismatch,
    InfeasibleArguments,
    InfeasibleInput,
    InfeasiblePotentials,
    SupportTooLarge,
)
from .primal import solve_primal

#: Upper bound on individual tuple/permutation inequality checks.
DEFAULT_CHECK_BUDGET = 10_000_000

_BUDGET_ENV = "OT_LAB_BUDGET"


def _check_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(_BUDGET_ENV)
    return int(env) if env else DEFAULT_CHECK_BUDGET


@dataclass(frozen=True, eq=False)
class MarginalReport:
    max_row_deviation: Number
    max_col_deviation: Number
    tol: Number

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
    tol = tolerance(instance.mode)
    try:
        plan.check_feasible(instance.mu, instance.nu, tol=tol)
    except InfeasibleInput as exc:
        raise InfeasibleArguments(f"plan violates the marginal law: {exc}") from exc
    if not pot.is_feasible_for(instance.cost, tol=tol):
        raise InfeasibleArguments("potentials violate phi + psi <= c")
    return plan_cost(plan, instance.cost) - dual_value(pot, instance.mu, instance.nu)


def check_marginals(
    plan: TransportPlan, mu: Marginal, nu: Marginal, tol: Optional[Number] = None
) -> MarginalReport:
    """Largest row/column-sum deviation from the prescribed marginals."""
    if plan.shape != (mu.size, nu.size):
        raise DimensionMismatch(
            f"plan {plan.shape} vs marginals ({mu.size}, {nu.size})"
        )
    if tol is None:
        tol = tolerance(plan.mode)
    row_dev = max(abs(s - mu.weights[i]) for i, s in enumerate(plan.row_sums()))
    col_dev = max(abs(s - nu.weights[j]) for j, s in enumerate(plan.col_sums()))
    return MarginalReport(max_row_deviation=row_dev, max_col_deviation=col_dev, tol=tol)


def check_slackness(
    plan: TransportPlan,
    pot: DualPotentials,
    cost: CostMatrix,
    tol: Optional[Number] = None,
) -> tuple:
    """Support cells whose slack c - (phi + psi) exceeds tol.

    An empty tuple certifies complementary slackness; exact optimal pairs
    always produce one."""
    if tol is None:
        tol = tolerance(plan.mode)
    if not pot.is_feasible_for(cost, tol=tol):
        raise InfeasiblePotentials("potentials violate phi + psi <= c")
    violations = []
    for (i, j) in plan.support():
        c = cost.entries[i, j]
        slack = c - pot.phi[i] - pot.psi[j] if not is_inf(c) else c
        if is_inf(slack) or slack > tol:
            violations.append(
                SlacknessViolation(cell=(i, j), mass=plan.entries[i, j], slack=slack)
            )
    return tuple(violations)


def check_cyclic_monotonicity(
    plan: TransportPlan,
    cost: CostMatrix,
    k_max: int = 4,
    tol: Optional[Number] = None,
    budget: Optional[int] = None,
) -> dict:
    """First c-cyclic-monotonicity violation on the support per tuple size.

    For each k <= k_max, walks all k-subsets of support cells and all cyclic
    reorderings of the targets (lexicographic order, deterministic), and
    records the first tuple whose reordering undercuts the original cost by
    more than tol. Returns {k: None | CyclicViolation}.
    """
    if k_max < 2:
        raise InfeasibleArguments("k_max must be at least 2")
    if tol is None:
        tol = tolerance(plan.mode)
    budget = _check_budget(budget)
    support = plan.support()
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


def build_certificate(
    instance: Instance,
    plan: TransportPlan,
    pot: DualPotentials,
    k_max: int = 4,
    tol: Optional[Number] = None,
    budget: Optional[int] = None,
) -> DualityCertificate:
    """Assemble the full certificate for a given pair."""
    instance = validate_instance(instance)
    if tol is None:
        tol = tolerance(instance.mode)
    gap = duality_gap(plan, pot, instance)
    return DualityCertificate(
        gap=gap,
        marginals=check_marginals(plan, instance.mu, instance.nu, tol=tol),
        slackness=check_slackness(plan, pot, instance.cost, tol=tol),
        cyclic=check_cyclic_monotonicity(
            plan, instance.cost, k_max=k_max, tol=tol, budget=budget
        ),
        tol=tol,
    )


def certify_instance(
    instance: Instance,
    k_max: int = 4,
    tol: Optional[Number] = None,
    budget: Optional[int] = None,
) -> DualityCertificate:
    """Solve the primal problem once, read the dual off its basis, and
    certify the resulting pair."""
    instance = validate_instance(instance)
    result = solve_primal(instance)
    pot = solve_dual(instance, result)
    return build_certificate(
        instance, result.plan, pot, k_max=k_max, tol=tol, budget=budget
    )
