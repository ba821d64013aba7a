"""Certificates: gap, marginal law, slackness, c-cyclic monotonicity."""

from fractions import Fraction as F

import pytest

from otlab import (
    DualPotentials,
    InfeasibleArguments,
    InfeasiblePotentials,
    SupportTooLarge,
    TransportPlan,
    as_matrix,
    as_vector,
    build_certificate,
    certify_instance,
    check_cyclic_monotonicity,
    check_marginals,
    check_slackness,
    duality_gap,
    make_instance,
    northwest_corner,
    plan_cost,
    product_plan,
    solve_dual,
    solve_primal,
)
from otlab.core import Marginal

from conftest import random_rational_instance

HALF = [F(1, 2), F(1, 2)]


def vec(values):
    return as_vector(values, "rational")


def pot(phi, psi):
    return DualPotentials(vec(phi), vec(psi))


def plan(rows):
    return TransportPlan(as_matrix(rows, "rational"))


# --- duality_gap ---------------------------------------------------------------


def test_gap_zero_on_optimal_pair():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    res = solve_primal(inst)
    out = solve_dual(inst)
    assert duality_gap(res.plan, out, inst) == 0


def test_gap_of_product_plan_with_zero_potentials():
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    gap = duality_gap(product_plan(inst.mu, inst.nu), pot([0, 0], [0, 0]), inst)
    assert gap == F(1, 2)


def test_gap_one_by_one():
    inst = make_instance([[5]], [1], [1])
    assert duality_gap(plan([[1]]), pot([0], [5]), inst) == 0


def test_gap_rejects_infeasible_arguments():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    with pytest.raises(InfeasibleArguments):
        duality_gap(plan([[1, 0], [0, 0]]), pot([0, 0], [0, 0]), inst)
    with pytest.raises(InfeasibleArguments):
        duality_gap(product_plan(inst.mu, inst.nu), pot([3, 3], [3, 3]), inst)


def test_gap_nonnegative_weak_duality(rng):
    from otlab import c_transform

    for _ in range(25):
        inst = random_rational_instance(rng)
        phi = vec([F(rng.randint(-4, 4), 2) for _ in range(inst.shape[0])])
        feasible = DualPotentials(phi, c_transform(phi, inst.cost))
        assert duality_gap(product_plan(inst.mu, inst.nu), feasible, inst) >= 0


# --- check_marginals -----------------------------------------------------------


def test_marginals_product_plan_exact():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    report = check_marginals(product_plan(inst.mu, inst.nu), inst.mu, inst.nu)
    assert report.max_row_deviation == 0
    assert report.max_col_deviation == 0
    assert report.passed


def test_marginals_flag_perturbation():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    perturbed = plan([[F(1, 2) + F(1, 100), 0], [0, F(1, 2)]])
    report = check_marginals(perturbed, inst.mu, inst.nu)
    assert report.max_row_deviation == F(1, 100)
    assert report.max_col_deviation == F(1, 100)
    assert not report.passed


def test_marginals_northwest_exact(rng):
    inst = random_rational_instance(rng)
    mu, nu = Marginal(inst.mu.weights), Marginal(inst.nu.weights)
    report = check_marginals(northwest_corner(mu, nu), mu, nu)
    assert report.passed


# --- check_slackness -----------------------------------------------------------


def test_slackness_empty_on_optimal_pair():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    res = solve_primal(inst)
    assert check_slackness(res.plan, solve_dual(inst), inst.cost) == ()


def test_slackness_lists_product_plan_leaks():
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    violations = check_slackness(
        product_plan(inst.mu, inst.nu), pot([0, 0], [0, 0]), inst.cost
    )
    assert {v.cell for v in violations} == {(0, 1), (1, 0)}
    assert all(v.slack == 1 and v.mass == F(1, 4) for v in violations)


def test_slackness_constant_cost_tight_everywhere():
    k = F(3)
    inst = make_instance([[k, k], [k, k]], HALF, HALF)
    assert check_slackness(product_plan(inst.mu, inst.nu), pot([k, k], [0, 0]), inst.cost) == ()


def test_slackness_rejects_infeasible_potentials():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    with pytest.raises(InfeasiblePotentials):
        check_slackness(product_plan(inst.mu, inst.nu), pot([2, 2], [2, 2]), inst.cost)


# --- check_cyclic_monotonicity ---------------------------------------------------


def test_cyclic_optimal_diagonal_passes():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    report = check_cyclic_monotonicity(solve_primal(inst).plan, inst.cost, k_max=2)
    assert report == {2: None}


def test_cyclic_antidiagonal_violation():
    inst = make_instance([[0, 2], [2, 0]], HALF, HALF)
    anti = plan([[0, F(1, 2)], [F(1, 2), 0]])
    report = check_cyclic_monotonicity(anti, inst.cost, k_max=2)
    violation = report[2]
    assert violation is not None
    assert violation.baseline == 4
    assert violation.permuted == 0
    # the violating plan is strictly suboptimal (contrapositive law)
    assert plan_cost(anti, inst.cost) > solve_primal(inst).value


def test_cyclic_single_cell_trivially_passes():
    inst = make_instance([[5]], [1], [1])
    report = check_cyclic_monotonicity(plan([[1]]), inst.cost, k_max=4)
    assert all(v is None for v in report.values())


def test_cyclic_budget_guard():
    # separable cost: no tuple can ever violate, so enumeration runs dry
    inst = make_instance(
        [[F(i, 2) + F(j, 3) for j in range(4)] for i in range(4)],
        [F(1, 4)] * 4,
        [F(1, 4)] * 4,
    )
    spread = product_plan(inst.mu, inst.nu)  # 16 support cells
    with pytest.raises(SupportTooLarge):
        check_cyclic_monotonicity(spread, inst.cost, k_max=4, budget=100)


def test_cyclic_env_budget(monkeypatch):
    inst = make_instance([[0, 2], [2, 0]], HALF, HALF)
    monkeypatch.setenv("OT_LAB_BUDGET", "1")
    with pytest.raises(SupportTooLarge):
        check_cyclic_monotonicity(product_plan(inst.mu, inst.nu), inst.cost, k_max=2)


def test_optimal_supports_are_cyclically_monotone(rng):
    for _ in range(20):
        inst = random_rational_instance(rng)
        res = solve_primal(inst)
        report = check_cyclic_monotonicity(res.plan, inst.cost, k_max=4)
        assert all(v is None for v in report.values())


# --- the full certificate ---------------------------------------------------------


def test_certificate_passes_on_solved_instances(rng, primal_calls):
    for _ in range(15):
        inst = random_rational_instance(rng)
        del primal_calls[:]
        cert = certify_instance(inst)
        assert len(primal_calls) == 1  # the dual reuses the primal basis
        assert cert.gap == 0
        assert cert.verdict


def test_certificate_verdict_iff_all_reports_clean():
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    # a feasible but suboptimal pair: gap positive, slackness dirty
    cert = build_certificate(
        inst, product_plan(inst.mu, inst.nu), pot([0, 0], [0, 0])
    )
    assert cert.gap == F(1, 2)
    assert cert.slackness
    assert not cert.verdict


def test_certificate_float_mode_passes_at_tolerance(rng):
    from otlab import convert_instance

    for _ in range(8):
        inst = convert_instance(random_rational_instance(rng), "float")
        cert = certify_instance(inst)
        assert cert.tol == pytest.approx(1e-9)
        assert cert.verdict


def test_zero_gap_implies_clean_slackness_and_cyclic(rng):
    for _ in range(15):
        inst = random_rational_instance(rng)
        res = solve_primal(inst)
        out = solve_dual(inst)
        if duality_gap(res.plan, out, inst) == 0:
            assert check_slackness(res.plan, out, inst.cost) == ()
            report = check_cyclic_monotonicity(res.plan, inst.cost, k_max=4)
            assert all(v is None for v in report.values())
