"""Certificates: gap, marginal law, slackness, c-cyclic monotonicity."""

import inspect
import time
from fractions import Fraction as F
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otlab import (
    DimensionMismatch,
    DualPotentials,
    InfeasibleArguments,
    InfeasibleFiniteCost,
    InfeasiblePotentials,
    TransportPlan,
    as_matrix,
    as_vector,
    build_certificate,
    certify_instance,
    check_cyclic_monotonicity,
    check_marginals,
    check_slackness,
    convert_instance,
    dual_value,
    duality_gap,
    generate_fixture,
    improve_dual,
    make_instance,
    northwest_corner,
    oracle_dual,
    oracle_primal,
    plan_cost,
    product_plan,
    solve_dual,
    solve_primal,
)
from otlab.core import (
    INF,
    CostMatrix,
    Marginal,
    cost_tolerance,
    frozen_array,
    is_inf,
    tolerance,
    zero,
)

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


def test_an_integral_float_pair_is_certified_as_its_fractions():
    # the potentials are read in the cost's mode, and the gap and the
    # slackness report compute on the pair as read
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    product = product_plan(inst.mu, inst.nu)
    floats = DualPotentials(np.array([0.0, 0.0]), np.array([-1.0, -1.0]))
    certs = [build_certificate(inst, product, p) for p in (floats, pot([0, 0], [-1, -1]))]
    assert certs[0].gap == certs[1].gap == F(3, 2) and type(certs[0].gap) is F
    slacks = [[(v.cell, v.slack) for v in cert.slackness] for cert in certs]
    assert slacks[0] == slacks[1] and {type(s) for _, s in slacks[0]} == {F}
    gap = duality_gap(product, floats, inst)
    assert gap == F(3, 2) and type(gap) is F
    assert [type(v.slack) for v in check_slackness(product, floats, inst.cost)] == [F] * 4


def test_gap_one_by_one():
    inst = make_instance([[5]], [1], [1])
    assert duality_gap(plan([[1]]), pot([0], [5]), inst) == 0


def test_gap_rejects_infeasible_arguments():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    with pytest.raises(InfeasibleArguments):
        duality_gap(plan([[1, 0], [0, 0]]), pot([0, 0], [0, 0]), inst)
    with pytest.raises(InfeasiblePotentials):
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


# --- the plan's cells against the dense readers ---------------------------------


def dense_plan_cost(plan, cost):
    """The m x n double loop ``plan_cost`` ran before plans kept their
    nonzero cells: the reference for the cell reader."""
    total = zero(plan.mode)
    for i in range(plan.shape[0]):
        for j in range(plan.shape[1]):
            mass = plan.entries[i, j]
            if mass > 0:
                c = cost.entries[i, j]
                if is_inf(c):
                    return INF
                total += mass * c
    return total


def dense_support(plan):
    tol = tolerance(plan.mode)
    m, n = plan.shape
    return tuple((i, j) for i in range(m) for j in range(n) if plan.entries[i, j] > tol)


def dense_marginal_law(plan, mu, nu):
    """Row and column sums of whole rows and columns: the largest row and
    column deviations and the first row, then column, off by more than the
    tolerance, as words."""
    tol = tolerance(plan.mode)
    lines = [
        ("row", [sum(plan.entries[i, :]) for i in range(plan.shape[0])], mu.weights),
        ("column", [sum(plan.entries[:, j]) for j in range(plan.shape[1])], nu.weights),
    ]
    devs = [[abs(s - w) for s, w in zip(sums, weights)] for _, sums, weights in lines]
    breach = next(
        (f"{kind} {k} sums to {sums[k]}, expected {weights[k]}"
         for (kind, sums, weights), dev in zip(lines, devs)
         for k, d in enumerate(dev) if d > tol),
        None,
    )
    return max(devs[0]), max(devs[1]), breach


@st.composite
def plans_costs_marginals(draw):
    """A plan, a cost and marginals of one shape in either mode: zero rows
    and columns, -0.0, float masses at and below the mass tolerance, and
    +inf costs under zero and under positive mass. Half the time the
    marginals are the plan's own sums, so that the law can hold."""
    mode = draw(st.sampled_from(["rational", "float"]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if mode == "rational":
        mass = st.just(F(0)) | st.builds(F, st.integers(1, 12), st.integers(1, 6))
        entry = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
    else:
        mass = st.sampled_from([0.0, -0.0, 1e-9, 5e-10, 1e-12]) | st.floats(0, 1)
        entry = st.floats(-10, 10)
    rows = [[draw(mass) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [-0.0 if mode == "float" else F(0)] * n
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = zero(mode)
    total = sum(sum(row) for row in rows)
    if total and draw(st.booleans()):
        rows = [[v / total for v in row] for row in rows]
        mu, nu = [sum(row) for row in rows], [sum(col) for col in zip(*rows)]
    else:
        mu, nu = [F(1, m)] * m, [F(1, n)] * n
    cost = [[draw(entry | st.just("inf")) for _ in range(n)] for _ in range(m)]
    plan = TransportPlan(frozen_array(rows, mode))
    return (plan, CostMatrix(as_matrix(cost, mode)),
            Marginal(as_vector(mu, mode)), Marginal(as_vector(nu, mode)))


@settings(max_examples=300, deadline=None)
@given(case=plans_costs_marginals())
def test_cell_readers_match_the_dense_readers(case):
    plan, cost, mu, nu = case
    m, n = plan.shape
    assert plan.cells == tuple(
        ((i, j), plan.entries[i, j]) for i in range(m) for j in range(n) if plan.entries[i, j]
    )
    value, expected = plan_cost(plan, cost), dense_plan_cost(plan, cost)
    assert value == expected and type(value) is type(expected)
    assert plan.support() == dense_support(plan)
    report = check_marginals(plan, mu, nu)
    *devs, breach = dense_marginal_law(plan, mu, nu)
    got = [report.max_row_deviation, report.max_col_deviation]
    assert got == devs and [type(d) for d in got] == [type(d) for d in devs]
    assert report.breach == breach
    assert report.passed == (breach is None)


def test_a_breach_names_the_first_row_then_column():
    mu = Marginal(vec(HALF))
    report = check_marginals(plan([[F(1, 2), F(1, 4)], [0, F(1, 4)]]), mu, mu)
    assert report.breach == "row 0 sums to 3/4, expected 1/2"
    report = check_marginals(plan([[F(1, 4), F(1, 4)], [F(1, 2), 0]]), mu, mu)
    assert report.breach == "column 0 sums to 3/4, expected 1/2"
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    with pytest.raises(InfeasibleArguments, match="^plan violates the marginal law: column 0 "):
        build_certificate(inst, plan([[F(1, 4), F(1, 4)], [F(1, 2), 0]]), pot([0, 0], [0, 0]))


def test_certificate_builders_take_no_cyclic_knobs():
    # the certificate's cyclic check runs at check_cyclic_monotonicity's defaults
    assert list(inspect.signature(build_certificate).parameters) == ["instance", "plan", "pot"]
    assert list(inspect.signature(certify_instance).parameters) == ["instance"]
    # and the benchmark's tracer binds k_max by name
    params = inspect.signature(check_cyclic_monotonicity).parameters
    assert list(params) == ["plan", "cost", "k_max"]
    assert params["k_max"].default == 4


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


def test_every_entry_point_words_infeasible_potentials_alike():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    plan, bad = product_plan(inst.mu, inst.nu), pot([2, 2], [2, 2])
    for check in (lambda: duality_gap(plan, bad, inst),
                  lambda: build_certificate(inst, plan, bad),
                  lambda: check_slackness(plan, bad, inst.cost),
                  lambda: improve_dual(bad, inst.cost)):
        with pytest.raises(InfeasiblePotentials, match=r"^potentials violate phi \+ psi <= c$"):
            check()


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


def test_cyclic_separable_cost_passes():
    # separable cost: every reordering of every tuple costs the same
    inst = make_instance(
        [[F(i, 2) + F(j, 3) for j in range(4)] for i in range(4)],
        [F(1, 4)] * 4,
        [F(1, 4)] * 4,
    )
    spread = product_plan(inst.mu, inst.nu)  # 16 support cells
    report = check_cyclic_monotonicity(spread, inst.cost, k_max=4)
    assert report == {2: None, 3: None, 4: None}


def test_cyclic_budget_bounds_witness_search():
    # a non-monotone support: each k reports its lightest closed walk, from
    # the smallest start cell, then the smallest midpoint cell
    third = [F(1, 3)] * 3
    inst = make_instance([[0, 1, 2], [1, 0, 1], [2, 1, 0]], third, third)
    spread = product_plan(inst.mu, inst.nu)
    report = check_cyclic_monotonicity(spread, inst.cost, k_max=3)
    assert report[2].cells == ((0, 2), (2, 0))
    assert (report[2].baseline, report[2].permuted) == (4, 0)
    assert report[3].cells == ((0, 0), (2, 0), (0, 2))
    assert (report[3].baseline, report[3].permuted) == (4, 0)


def test_cyclic_ties_pass():
    # one row split over two columns: swapping targets costs the same, which
    # is no violation
    inst = make_instance([[0, 1]], [1], HALF)
    split = solve_primal(inst).plan
    assert check_cyclic_monotonicity(split, inst.cost, k_max=2) == {2: None}


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


def _walked_cyclic_failures(plan, cost, k_max, tol):
    """Reference for the textbook definition: {k: whether some tuple of at
    most k support cells, repeats allowed, lowers its cost by more than
    ``tol`` when each cell takes the next one's target}, by walking every
    such tuple that starts at its smallest cell."""
    support = plan.support()
    rows = cost.entries.tolist()
    take = [[rows[i][j] for _, j in support] for i, _ in support]

    def violates(ring):
        baseline = sum(take[a][a] for a in ring)
        permuted = sum(take[a][b] for a, b in zip(ring, ring[1:] + ring[:1]))
        return not is_inf(permuted) and baseline - permuted > tol

    fails, failed = {}, False
    for k in range(2, k_max + 1):
        failed = failed or any(
            violates((first,) + rest)
            for first in range(len(support))
            for rest in product(range(first, len(support)), repeat=k - 1)
        )
        fails[k] = failed
    return fails


@st.composite
def cyclic_cases(draw):
    """A (plan, cost, k_max) case: small costs with ties and +inf cells,
    marginals with zero masses, and either the optimal plan or an arbitrary
    nonnegative one (which may put mass on +inf cells, or be cyclically
    non-monotone, so the witness search runs)."""
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
    return TransportPlan(as_matrix(plan_rows, mode)), inst.cost, k_max


@settings(max_examples=150, deadline=None)
@given(case=cyclic_cases())
def test_cyclic_report_matches_enumeration(case):
    _assert_report_matches_enumeration(*case)


def test_cyclic_check_past_the_int64_guard():
    # the lcm of these denominators passes 2**62, so the weights and their
    # sums are Python ints in object arrays
    primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121, 1000133]
    rows = [[F(1 + 9 * (i != j), primes[3 * i + j]) for j in range(3)] for i in range(3)]
    rows[0][2] = "inf"
    third = [F(1, 3)] * 3
    inst = make_instance(rows, third, third)
    spread = product_plan(inst.mu, inst.nu)
    report = _assert_report_matches_enumeration(spread, inst.cost, 4)
    assert all(report.values())


def _assert_report_matches_enumeration(plan, cost, k_max):
    tol = cost_tolerance(cost)
    fails = _walked_cyclic_failures(plan, cost, k_max, tol)
    distinct = _enumerated_cyclic_report(plan, cost, k_max, tol)
    report = check_cyclic_monotonicity(plan, cost, k_max=k_max)
    assert list(report) == list(fails)
    for k, violation in report.items():
        assert (violation is not None) == fails[k]
        # k distinct cells are a closed walk of k arcs; with tol = 0 a
        # violating walk splits into simple cycles, one of them violating
        if distinct[k] is not None:
            assert violation is not None
        if cost.mode == "rational":
            assert fails[k] == any(distinct[j] is not None for j in range(2, k + 1))
        if violation is None:
            continue
        ring = violation.cells
        assert violation.k == k and 1 < len(ring) <= k
        assert set(ring) <= set(plan.support())
        baseline = sum(cost.entries[i, j] for i, j in ring)
        permuted = sum(cost.entries[i, j] for (i, _), (_, j) in zip(ring, ring[1:] + ring[:1]))
        assert type(violation.baseline) is type(baseline)
        assert type(violation.permuted) is type(permuted)
        assert (violation.baseline, violation.permuted) == (baseline, permuted)
        assert not is_inf(permuted) and baseline - permuted > tol
    return report


def _shift_beside_a_product_block():
    """A 16 x 16 cost and a plan of 126 support cells: on a 5 x 5 block with
    c(i, i) = 0, c(i, i + 1 mod 5) = 1 and 10 elsewhere the plan is the
    shift, whose only violating tuple is all five cells; on an 11 x 11
    block of the separable cost i + 2j it is the product plan; 1000 across."""
    def entry(i, j):
        if i < 5 and j < 5:
            return 0 if i == j else 1 if j == (i + 1) % 5 else 10
        if i >= 5 and j >= 5:
            return i + 2 * j
        return 1000

    cost = CostMatrix(as_matrix([[entry(i, j) for j in range(16)] for i in range(16)], "rational"))
    shift = {(i, (i + 1) % 5) for i in range(5)}
    masses = [[F(1, 126) if (i, j) in shift or min(i, j) >= 5 else 0 for j in range(16)]
              for i in range(16)]
    return plan(masses), cost


def test_a_five_cell_cycle_in_a_large_support_is_decided_in_polynomial_time():
    spread, cost = _shift_beside_a_product_block()
    assert len(spread.support()) == 126
    start = time.perf_counter()
    assert check_cyclic_monotonicity(spread, cost) == {2: None, 3: None, 4: None}
    report = check_cyclic_monotonicity(spread, cost, k_max=5)
    assert time.perf_counter() - start < 1.0
    assert [report[k] for k in (2, 3, 4)] == [None, None, None]
    assert report[5].cells == ((0, 1), (4, 0), (3, 4), (2, 3), (1, 2))
    assert (report[5].baseline, report[5].permuted) == (5, 0)


@pytest.mark.parametrize("rows", [
    [[F(1, 9)] * 3] * 3,
    [[1]],
])
def test_a_plan_of_another_shape_than_the_cost_is_refused(rows):
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    other = plan(rows)
    with pytest.raises(DimensionMismatch, match=r"^plan \(\d, \d\) vs cost \(2, 2\)$"):
        check_cyclic_monotonicity(other, inst.cost)
    with pytest.raises(DimensionMismatch, match=r"^plan \(\d, \d\) vs cost \(2, 2\)$"):
        check_slackness(other, pot([0, 0], [0, 0]), inst.cost)


@pytest.mark.parametrize("size, seed", [(14, 1), (14, 3), (30, 1), (45, 1), (60, 2)])
def test_float_optimal_support_passes_every_k(size, seed):
    # the float simplex stops at a thousandth of the tolerance, so these
    # supports carry cycles a few ulps below 0, far above -tol
    inst = generate_fixture("random-uniform", size, seed, mode="float")
    plan = solve_primal(inst).plan
    assert check_cyclic_monotonicity(plan, inst.cost) == {2: None, 3: None, 4: None}


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
    assert certify_instance(inst).verdict


@st.composite
def scaled_float_instances(draw):
    """A float instance with costs k * 10^(e-6), k in 0..10^6, at a cost
    scale e from -9 to 12, about 30% of the cells +inf walls, with the
    rational instance of the same exact values (marginals with zero masses,
    rounded in the float one)."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 8))
    e = draw(st.integers(-9, 12))
    unit = st.integers(0, 10**6)
    cost = [[INF if draw(st.integers(0, 9)) < 3 else F(draw(unit) * 10.0 ** (e - 6))
             for _ in range(n)] for _ in range(m)]
    weights = [
        draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any))
        for k in (m, n)
    ]
    mu, nu = ([F(w, sum(ws)) for w in ws] for ws in weights)
    exact = make_instance(cost, mu, nu)
    return convert_instance(exact, "float"), exact


@settings(max_examples=60, deadline=None)
@given(pair=scaled_float_instances())
def test_float_certificate_holds_at_every_cost_scale(pair):
    inst, exact = pair
    rows = exact.cost.entries.tolist()
    # an all-+inf row or column has no transform: UnboundedTransform
    assume(not any(all(map(is_inf, line)) for line in rows + list(zip(*rows))))
    try:
        optimum = solve_primal(exact).value
    except InfeasibleFiniteCost:
        assume(False)  # every plan meets a wall
    assert certify_instance(inst).verdict
    result = solve_primal(inst)
    dual = dual_value(solve_dual(inst, result), inst.mu, inst.nu)
    tol = tolerance("float", inst.cost.scale)
    assert abs(F(result.value) - optimum) <= tol
    assert abs(F(dual) - optimum) <= tol


def test_float_marginal_below_the_mass_tolerance():
    # mu[1] = 4e-10 lies below tolerance("float"), so support() leaves its
    # cell out; the plans still carry it, and the simplex, the oracle and
    # the certificate stay within the cost tolerance of the exact optimum
    exact = make_instance(
        [[1, 5], [8, 6], [8, 3]],
        ["2499999999/3125000000", "1/2500000000", "2499999999/12500000000"],
        ["6249999997/7500000000", "1250000003/7500000000"],
    )
    inst = convert_instance(exact, "float")
    optimum = solve_primal(exact).value
    tol = tolerance("float", inst.cost.scale)
    for result in (solve_primal(inst), oracle_primal(inst)):
        assert abs(F(result.value) - optimum) <= tol
        assert abs(sum(result.plan.entries[1]) - 4e-10) <= 1e-15
        assert all(i != 1 for i, _ in result.plan.support())
    assert abs(F(dual_value(oracle_dual(inst), inst.mu, inst.nu)) - optimum) <= tol
    assert certify_instance(inst).verdict


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


def test_certify_instance_tests_dual_feasibility_twice(feasibility_calls):
    # once in the dual extraction, once in the certificate's gap
    for mode in ("rational", "float"):
        inst = make_instance(
            [[0, 2, 1], [2, 1, "inf"]], HALF, [F(1, 4), F(1, 4), F(1, 2)], mode=mode
        )
        del feasibility_calls[:]
        assert certify_instance(inst).verdict
        assert len(feasibility_calls) == 2


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
        assert cert.tol == tolerance("float", inst.cost.scale)
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
