"""The brute-force oracle is the trust anchor: its enumeration is validated
against the closed-form spanning-tree count and a third-party LP solver
before anything else leans on it."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from otlab import (
    BadNumber,
    BudgetExceeded,
    InfiniteCostInBoundedMode,
    check_marginals,
    dual_value,
    make_instance,
    oracle_dual,
    oracle_primal,
    plan_cost,
    product_plan,
)
from otlab import oracle
from otlab.core import scaled_data, tree_potentials
from otlab.oracle import _enumerate_trees, budget_from_env

from conftest import random_marginal, random_rational_instance

HALF = [F(1, 2), F(1, 2)]


@pytest.mark.parametrize(
    "m,n", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (2, 5)]
)
def test_enumeration_is_a_tree_bijection(m, n):
    """Canonical pluck sequences hit every spanning tree of K_{m,n} exactly
    once: the count matches m^(n-1) * n^(m-1) and edge sets never repeat."""
    seen = set()
    for edges, _, _ in _enumerate_trees(
        m, n, [1] * m, [1] * n, [[0] * n for _ in range(m)], prune_infeasible=False
    ):
        key = frozenset(edges)
        assert key not in seen
        assert len(key) == m + n - 1
        seen.add(key)
    assert len(seen) == m ** (n - 1) * n ** (m - 1)


def test_fixture_two_by_two():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    res = oracle_primal(inst)
    assert res.value == F(1, 2)
    assert res.plan.entries.tolist() == [[F(1, 2), F(0)], [F(0), F(1, 2)]]
    assert check_marginals(res.plan, inst.mu, inst.nu).passed
    # uniform marginals make both off-diagonal trees collapse onto the same
    # vertex: 4 feasible trees, 2 distinct plans
    feasible = [
        tuple(sorted((cell, x) for cell, x in zip(edges, masses) if x > 0))
        for edges, masses, _ in _enumerate_trees(
            2, 2, [1, 1], [1, 1], [[0, 2], [2, 1]], prune_infeasible=False
        )
        if all(x >= 0 for x in masses)
    ]
    assert len(feasible) == 4
    assert len(set(feasible)) == 2


def test_single_cell():
    inst = make_instance([[7]], [1], [1])
    assert oracle_primal(inst).value == 7


def test_separable_cost_ties_everywhere(rng):
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(m)]
        b = [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)]
        inst = make_instance(
            [[ai + bj for bj in b] for ai in a],
            random_marginal(rng, m),
            random_marginal(rng, n),
        )
        expected = sum(x * w for x, w in zip(a, inst.mu.weights)) + sum(
            y * w for y, w in zip(b, inst.nu.weights)
        )
        res = oracle_primal(inst)
        assert res.value == expected
        # objective is constant on the feasible set
        assert plan_cost(product_plan(inst.mu, inst.nu), inst.cost) == expected


def test_oracle_never_beats_feasible_plans(rng):
    for _ in range(25):
        inst = random_rational_instance(rng)
        value = oracle_primal(inst).value
        assert value <= plan_cost(product_plan(inst.mu, inst.nu), inst.cost)


def test_oracle_dual_matches_primal_exactly(rng):
    for _ in range(25):
        inst = random_rational_instance(rng)
        res = oracle_primal(inst)
        pot = oracle_dual(inst)
        assert pot.is_feasible_for(inst.cost)
        assert dual_value(pot, inst.mu, inst.nu) == res.value


def test_oracle_dual_fixture():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    pot = oracle_dual(inst)
    # any optimal pair is a shift of ([0, 0], [0, 1]) here: check the
    # invariant form rather than one representative
    assert pot.phi[0] + pot.psi[0] == 0
    assert pot.phi[1] + pot.psi[1] == 1
    assert dual_value(pot, inst.mu, inst.nu) == F(1, 2)


def test_oracle_dual_walks_the_trees_once(rng, monkeypatch):
    walks = []

    def counting(*args, **kwargs):
        walks.append(args[:2])
        return _enumerate_trees(*args, **kwargs)

    monkeypatch.setattr(oracle, "_enumerate_trees", counting)
    for _ in range(10):
        inst = random_rational_instance(rng)
        del walks[:]
        pot = oracle_dual(inst)
        assert len(walks) == 1
        assert pot.is_feasible_for(inst.cost)


def test_pruning_never_changes_the_oracle_answer():
    """The pruned walk answers as the unpruned one does: oracle_primal gives
    its first cheapest nonnegative tree, and oracle_dual the tight
    potentials of the first such tree whose potentials are feasible. Small
    integer costs of both signs and zero masses make ties common."""
    rng = random.Random(8642)

    def marginal(size):
        raw = [0] * size
        while not any(raw):
            raw = [rng.randint(0, 3) for _ in range(size)]
        return [F(v, sum(raw)) for v in raw]

    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        cost = [[F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)] for _ in range(m)]
        inst = make_instance(cost, marginal(m), marginal(n))
        mu, nu, scaled_cost, L, M = scaled_data(inst)
        trees = [
            (edges, total)
            for edges, masses, total in _enumerate_trees(
                m, n, mu, nu, scaled_cost, prune_infeasible=False
            )
            if min(masses) >= 0
        ]
        best = min(total for _, total in trees)
        cheapest = [edges for edges, total in trees if total == best]
        res = oracle_primal(inst)
        assert (res.value, res.basis) == (F(best, L * M), tuple(sorted(cheapest[0])))

        potentials = (tree_potentials(m, n, edges, cost, F(0))[0] for edges in cheapest)
        tight = next(pot for pot in potentials if all(
            pot[i] + pot[m + j] <= c for i, row in enumerate(cost) for j, c in enumerate(row)
        ))
        pot = oracle_dual(inst)
        assert list(pot.phi) + list(pot.psi) == tight


def test_oracle_dual_keeps_the_guards():
    with pytest.raises(InfiniteCostInBoundedMode, match="^the oracle requires a bounded cost$"):
        oracle_dual(make_instance([[0, "inf"], [1, 0]], HALF, HALF))
    big = make_instance([[0] * 5 for _ in range(4)], [F(1, 4)] * 4, [F(1, 5)] * 5)
    with pytest.raises(BudgetExceeded):
        oracle_dual(big)
    assert dual_value(oracle_dual(big, budget=20), big.mu, big.nu) == 0


def test_oracle_dual_one_by_one():
    inst = make_instance([[5]], [1], [1])
    pot = oracle_dual(inst)
    assert pot.phi[0] + pot.psi[0] == 5


def test_oracle_dual_constant_cost(rng):
    k = F(7, 3)
    inst = make_instance([[k] * 3] * 2, random_marginal(rng, 2), random_marginal(rng, 3))
    pot = oracle_dual(inst)
    for i in range(2):
        for j in range(3):
            assert pot.phi[i] + pot.psi[j] <= k
    assert dual_value(pot, inst.mu, inst.nu) == k


def test_budget_enforced():
    big = make_instance(
        [[0] * 5 for _ in range(4)], [F(1, 4)] * 4, [F(1, 5)] * 5
    )
    with pytest.raises(BudgetExceeded):
        oracle_primal(big)
    oracle_primal(big, budget=20)


def test_budget_env_override(monkeypatch):
    big = make_instance(
        [[0] * 5 for _ in range(4)], [F(1, 4)] * 4, [F(1, 5)] * 5
    )
    monkeypatch.setenv("OT_LAB_BUDGET", "25")
    oracle_primal(big)


def test_budget_env_that_is_not_an_integer_is_a_bad_number(monkeypatch):
    monkeypatch.setenv("OT_LAB_BUDGET", "abc")
    with pytest.raises(BadNumber, match=r"^OT_LAB_BUDGET: bad number 'abc' \(not an integer\)$"):
        budget_from_env(None)


def test_float_mode_oracle(rng):
    from otlab import convert_instance

    for _ in range(10):
        inst = random_rational_instance(rng, size_hi=3)
        exact = oracle_primal(inst).value
        approx = oracle_primal(convert_instance(inst, "float")).value
        assert abs(approx - float(exact)) <= 1e-9 * (1 + abs(float(exact)))


def test_against_scipy_linprog(rng):
    """Third-opinion cross-check: scipy's HiGHS LP agrees with the
    enumeration within float tolerance."""
    scipy_opt = pytest.importorskip("scipy.optimize")

    for _ in range(15):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        c = [float(inst.cost.entries[i, j]) for i in range(m) for j in range(n)]
        a_eq = []
        for i in range(m):
            row = [0.0] * (m * n)
            for j in range(n):
                row[i * n + j] = 1.0
            a_eq.append(row)
        for j in range(n):
            row = [0.0] * (m * n)
            for i in range(m):
                row[i * n + j] = 1.0
            a_eq.append(row)
        b_eq = [float(w) for w in inst.mu.weights] + [float(w) for w in inst.nu.weights]
        lp = scipy_opt.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert lp.status == 0
        assert abs(float(oracle_primal(inst).value) - lp.fun) <= 1e-7
