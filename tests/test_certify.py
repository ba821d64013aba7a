"""Certificates: gap, marginal law, slackness, c-cyclic monotonicity."""

from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlab import (
    DualPotentials,
    InfeasibleArguments,
    InfeasibleFiniteCost,
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
from otlab.core import Marginal, is_inf, tolerance

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
    # separable cost: no tuple can ever violate, and the negative-cycle test
    # proves it without enumerating, so a tiny budget is never consulted
    inst = make_instance(
        [[F(i, 2) + F(j, 3) for j in range(4)] for i in range(4)],
        [F(1, 4)] * 4,
        [F(1, 4)] * 4,
    )
    spread = product_plan(inst.mu, inst.nu)  # 16 support cells
    report = check_cyclic_monotonicity(spread, inst.cost, k_max=4, budget=100)
    assert report == {2: None, 3: None, 4: None}


def test_cyclic_budget_bounds_witness_search():
    # a non-monotone support: naming the first witness per k takes 14
    # reorderings here, so a smaller budget stops the search
    third = [F(1, 3)] * 3
    inst = make_instance([[0, 1, 2], [1, 0, 1], [2, 1, 0]], third, third)
    spread = product_plan(inst.mu, inst.nu)
    with pytest.raises(SupportTooLarge):
        check_cyclic_monotonicity(spread, inst.cost, k_max=3, budget=13)
    report = check_cyclic_monotonicity(spread, inst.cost, k_max=3, budget=14)
    assert report[2].cells == ((0, 1), (1, 0))
    assert (report[2].baseline, report[2].permuted) == (2, 0)
    assert report[3].cells == ((0, 0), (1, 0), (0, 1))


def test_cyclic_env_budget(monkeypatch):
    inst = make_instance([[0, 2], [2, 0]], HALF, HALF)
    monkeypatch.setenv("OT_LAB_BUDGET", "1")
    with pytest.raises(SupportTooLarge):
        check_cyclic_monotonicity(product_plan(inst.mu, inst.nu), inst.cost, k_max=2)


def test_cyclic_negative_tol_flags_ties():
    # one row split over two columns: swapping targets costs the same, a
    # violation only under a negative tolerance
    inst = make_instance([[0, 1]], [1], HALF)
    split = solve_primal(inst).plan
    assert check_cyclic_monotonicity(split, inst.cost, k_max=2) == {2: None}
    violation = check_cyclic_monotonicity(split, inst.cost, k_max=2, tol=F(-1, 2))[2]
    assert violation.cells == ((0, 0), (0, 1))
    assert violation.baseline == violation.permuted == 1


def _enumerated_cyclic_report(plan, cost, k_max, tol):
    """Reference: the first violating cyclic reordering per k, by walking
    every k-subset of the support and every cyclic order of its targets."""
    support = plan.support()
    report = {}
    for k in range(2, k_max + 1):
        found = None
        for cells in combinations(support, k):
            baseline = sum(cost.entries[i, j] for (i, j) in cells)
            for order in permutations(cells[1:]):
                ring = (cells[0],) + order
                permuted = sum(
                    cost.entries[ring[idx][0], ring[(idx + 1) % k][1]]
                    for idx in range(k)
                )
                if not is_inf(permuted) and baseline - permuted > tol:
                    found = (ring, baseline, permuted)
                    break
            if found:
                break
        report[k] = found
    return report


@st.composite
def cyclic_cases(draw):
    """A (plan, cost, k_max, tol) case: small costs with ties and +inf cells,
    marginals with zero masses, either the optimal plan or an arbitrary
    nonnegative one (which may put mass on +inf cells), and the mode's
    tolerance, possibly shifted either way."""
    mode = draw(st.sampled_from(["rational", "float"]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.one_of(
        st.just("inf"),
        st.builds(F, st.integers(0, 6), st.integers(1, 3)),
    )
    cost = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    k_max = draw(st.integers(2, 4))
    masses = st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)
    raw = draw(masses.filter(lambda xs: sum(xs) > 0))
    rows = [[F(raw[i * n + j], sum(raw)) for j in range(n)] for i in range(m)]
    inst = make_instance(
        cost,
        [sum(row) for row in rows],
        [sum(rows[i][j] for i in range(m)) for j in range(n)],
        mode=mode,
    )
    plan_rows = rows
    if draw(st.booleans()):
        try:
            plan_rows = solve_primal(inst).plan.entries.tolist()
        except InfeasibleFiniteCost:
            pass
    tol = tolerance(mode) + draw(st.sampled_from([0, 0, F(1, 2), F(-1, 2)]))
    tol = tol if mode == "rational" else float(tol)
    return TransportPlan(as_matrix(plan_rows, mode)), inst.cost, k_max, tol


@settings(max_examples=150, deadline=None)
@given(case=cyclic_cases())
def test_cyclic_report_matches_enumeration(case):
    plan, cost, k_max, tol = case
    expected = _enumerated_cyclic_report(plan, cost, k_max, tol)
    report = check_cyclic_monotonicity(plan, cost, k_max=k_max, tol=tol)
    assert list(report) == list(expected)
    for k, violation in report.items():
        if expected[k] is None:
            assert violation is None
        else:
            ring, baseline, permuted = expected[k]
            assert (violation.k, violation.cells) == (k, ring)
            assert type(violation.baseline) is type(baseline)
            assert type(violation.permuted) is type(permuted)
            assert (violation.baseline, violation.permuted) == (baseline, permuted)


def test_cyclic_float_check_is_exact_at_large_cost_scale():
    # a zero-weight reordering whose float sums differ in the last place
    # (~6e-8, above tol): exact weights see no negative cycle
    cost = [
        [989522565.1741276, 201324864.98602143],
        [66071373.94278217, 339957737.92990714],
        [100135687.99263151, 369352913.55556977],
    ]
    inst = make_instance(cost, [1 / 3] * 3, [1 / 2] * 2, mode="float")
    optimal = solve_primal(inst).plan
    summed = _enumerated_cyclic_report(optimal, inst.cost, 4, tolerance("float"))
    assert summed[3] is not None and summed[3][1] - summed[3][2] > 1e-9
    assert check_cyclic_monotonicity(optimal, inst.cost) == {2: None, 3: None, 4: None}


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
