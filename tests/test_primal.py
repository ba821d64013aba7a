"""Network simplex: exactness against the oracle, structural invariants."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlab import (
    InfeasibleFiniteCost,
    Marginal,
    as_vector,
    make_instance,
    northwest_corner,
    oracle_primal,
    product_plan,
    plan_cost,
    solve_primal,
)

from otlab.core import is_inf

from conftest import random_marginal, random_rational_instance

HALF = [F(1, 2), F(1, 2)]


def marginal(values):
    return Marginal(as_vector(values, "rational"))


# --- northwest corner ---------------------------------------------------------


def test_northwest_example():
    plan = northwest_corner(marginal(HALF), marginal([F(3, 10), F(7, 10)]))
    assert plan.entries.tolist() == [
        [F(3, 10), F(1, 5)],
        [F(0), F(1, 2)],
    ]


def test_northwest_single():
    plan = northwest_corner(marginal([1]), marginal([1]))
    assert plan.entries.tolist() == [[1]]


def test_northwest_always_feasible(rng):
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mu = marginal(random_marginal(rng, m))
        nu = marginal(random_marginal(rng, n))
        plan = northwest_corner(mu, nu)
        plan.check_feasible(mu, nu)
        assert len(plan.support()) <= m + n - 1


def test_northwest_float_round_off_stays_in_the_matrix():
    # float row sums outlast the columns by round-off: the last column
    # absorbs the residue and the walk stays inside the 7 x 3 matrix
    mu = Marginal(as_vector([F(k, 25) for k in (7, 4, 1, 7, 5, 1, 0)], "float"))
    nu = Marginal(as_vector([F(k, 14) for k in (7, 4, 3)], "float"))
    plan = northwest_corner(mu, nu)
    plan.check_feasible(mu, nu)
    assert len(plan.support()) <= 7 + 3 - 1
    inst = make_instance(
        [[(i * j) % 5 for j in range(3)] for i in range(7)],
        [F(k, 25) for k in (7, 4, 1, 7, 5, 1, 0)],
        [F(k, 14) for k in (7, 4, 3)],
        mode="float",
    )
    solve_primal(inst).plan.check_feasible(inst.mu, inst.nu)


# --- solve_primal -------------------------------------------------------------


def test_fixture_optimum():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    res = solve_primal(inst)
    assert res.value == F(1, 2)
    assert res.plan.entries.tolist() == [[F(1, 2), F(0)], [F(0), F(1, 2)]]


def test_zero_cost_diagonal():
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    assert solve_primal(inst).value == 0


def test_separable_cost_constant_objective(rng):
    a = [F(2), F(5, 2), F(1)]
    b = [F(0), F(3)]
    inst = make_instance(
        [[ai + bj for bj in b] for ai in a],
        random_marginal(rng, 3),
        random_marginal(rng, 2),
    )
    expected = sum(x * w for x, w in zip(a, inst.mu.weights)) + sum(
        y * w for y, w in zip(b, inst.nu.weights)
    )
    assert solve_primal(inst).value == expected


def test_master_equivalence_with_oracle(rng):
    """The headline invariant: simplex == enumeration, exactly."""
    for _ in range(60):
        inst = random_rational_instance(rng)
        res = solve_primal(inst)
        assert res.value == oracle_primal(inst).value
        assert res.value == plan_cost(res.plan, inst.cost)
        res.plan.check_feasible(inst.mu, inst.nu)


def test_value_monotone_in_cost(rng):
    for _ in range(15):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        bumped = make_instance(
            [
                [inst.cost.entries[i, j] + F(rng.randint(0, 4), 2) for j in range(n)]
                for i in range(m)
            ],
            list(inst.mu.weights),
            list(inst.nu.weights),
        )
        assert solve_primal(inst).value <= solve_primal(bumped).value


def test_dual_shift_covariance(rng):
    # value(c + a (+) b) = value(c) + <mu, a> + <nu, b>
    for _ in range(15):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        a = [F(rng.randint(-5, 5), 2) for _ in range(m)]
        b = [F(rng.randint(-5, 5), 2) for _ in range(n)]
        shifted = make_instance(
            [
                [inst.cost.entries[i, j] + a[i] + b[j] for j in range(n)]
                for i in range(m)
            ],
            list(inst.mu.weights),
            list(inst.nu.weights),
        )
        expected = (
            solve_primal(inst).value
            + sum(x * w for x, w in zip(a, inst.mu.weights))
            + sum(y * w for y, w in zip(b, inst.nu.weights))
        )
        assert solve_primal(shifted).value == expected


def test_value_attains_lower_envelope_of_plans(rng):
    for _ in range(15):
        inst = random_rational_instance(rng)
        value = solve_primal(inst).value
        assert value <= plan_cost(product_plan(inst.mu, inst.nu), inst.cost)
        mu, nu = Marginal(inst.mu.weights), Marginal(inst.nu.weights)
        assert value <= plan_cost(northwest_corner(mu, nu), inst.cost)


# --- basis structure ----------------------------------------------------------


def test_basis_invariants(rng):
    for _ in range(25):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        res = solve_primal(inst)
        cells = set(res.basis)
        assert len(res.basis) == m + n - 1  # bounded cost: one spanning tree
        for cell in res.plan.support():
            assert cell in cells
        assert _is_acyclic(res.basis, m)


def _is_acyclic(cells, m):
    parent = {}

    def find(v):
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    for (i, j) in cells:
        a, b = find(i), find(m + j)
        if a == b:
            return False
        parent[a] = b
    return True


# --- degenerate and infinite inputs -------------------------------------------


def test_zero_mass_points_are_kept():
    inst = make_instance(
        [[0, 5, 1], [9, 2, 3]], [1, 0], [F(1, 2), 0, F(1, 2)]
    )
    res = solve_primal(inst)
    assert res.value == F(1, 2)
    assert res.plan.shape == (2, 3)
    assert res.plan.row_sums()[1] == 0


def test_infeasible_finite_cost_raises():
    with pytest.raises(InfeasibleFiniteCost):
        solve_primal(make_instance([["inf"]], [1], [1]))
    with pytest.raises(InfeasibleFiniteCost):
        solve_primal(make_instance([[0, "inf"], ["inf", 0]], [1, 0], [0, 1]))


def test_inf_cells_avoided_when_possible():
    inst = make_instance([[0, "inf"], ["inf", 0]], HALF, HALF)
    res = solve_primal(inst)
    assert res.value == 0
    assert res.plan.entries[0, 1] == 0 and res.plan.entries[1, 0] == 0
    # reported basis drops infinite cells but keeps the support
    assert set(res.plan.support()) <= set(res.basis)


def test_expensive_detour_still_offloads_inf():
    inst = make_instance(
        [[0, "inf"], [100, 0]], [F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]
    )
    res = solve_primal(inst)
    assert res.value == 50  # mass 1/2 forced through the 100-cost cell
    assert res.value == oracle_on_finite_subgraph(inst)


def oracle_on_finite_subgraph(inst):
    # tiny independent check: enumerate the one-parameter family by hand
    # x01 = 0 forced; x00 = 1/4; x10 = 1/2; x11 = 1/4
    c = inst.cost.entries
    return c[0, 0] * F(1, 4) + c[1, 0] * F(1, 2) + c[1, 1] * F(1, 4)


# --- float mode ---------------------------------------------------------------


def test_float_mode_matches_rational(rng):
    from otlab import convert_instance

    for _ in range(20):
        inst = random_rational_instance(rng)
        exact = solve_primal(inst).value
        approx = solve_primal(convert_instance(inst, "float")).value
        assert abs(approx - float(exact)) <= 1e-9 * (1 + abs(float(exact)))


# --- integer kernel properties -------------------------------------------------

# Distinct primes: an instance mixing them has a denominator LCM above 2**64.
DENOMINATORS = [1, 2, 3, 7, 2**31 - 1, 2**61 - 1, 10**9 + 7]


@st.composite
def rational_instances(draw):
    """Rational instances with mixed and huge denominators, zero masses,
    optionally all-equal costs, and optionally +inf walls that keep the
    northwest-corner plan finite (so a finite optimum exists)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    den = st.sampled_from(DENOMINATORS)

    def marginal(size):
        raw = [F(draw(st.integers(0, 9)), draw(den)) for _ in range(size)]
        if not any(raw):
            raw[draw(st.integers(0, size - 1))] = F(1)
        total = sum(raw)
        return [w / total for w in raw]

    mu, nu = marginal(m), marginal(n)
    if draw(st.booleans()):
        tie = F(draw(st.integers(-20, 50)), draw(den))
        cost = [[tie] * n for _ in range(m)]
    else:
        cost = [[F(draw(st.integers(-20, 50)), draw(den)) for _ in range(n)]
                for _ in range(m)]
    if draw(st.booleans()):
        keep = set(northwest_corner(marginal_of(mu), marginal_of(nu)).support())
        for i in range(m):
            for j in range(n):
                if (i, j) not in keep and draw(st.integers(0, 2)) == 0:
                    cost[i][j] = "inf"
    return make_instance(cost, mu, nu)


def marginal_of(weights):
    return Marginal(as_vector(weights, "rational"))


def linprog_value(inst):
    """scipy's HiGHS optimum, with +inf cells pinned to zero mass."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    m, n = inst.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    finite = [not is_inf(inst.cost.entries[cell]) for cell in cells]
    c = [float(inst.cost.entries[cell]) if ok else 0.0 for cell, ok in zip(cells, finite)]
    a_eq = [[1.0 if i == r else 0.0 for (i, _) in cells] for r in range(m)]
    a_eq += [[1.0 if j == s else 0.0 for (_, j) in cells] for s in range(n)]
    b_eq = [float(w) for w in inst.mu.weights] + [float(w) for w in inst.nu.weights]
    bounds = [(0, None) if ok else (0, 0) for ok in finite]
    lp = scipy_opt.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert lp.status == 0
    return lp.fun


@settings(max_examples=80, deadline=None)
@given(inst=rational_instances())
def test_integer_kernel_is_exact(inst):
    m, n = inst.shape
    res = solve_primal(inst)
    assert all(type(x) is F for x in res.plan.entries.flat)
    res.plan.check_feasible(inst.mu, inst.nu)  # exact marginals
    assert type(res.value) is F
    assert res.value == plan_cost(res.plan, inst.cost)
    # basis invariants: acyclic, finite-cost, covers the support, and a
    # spanning tree when the cost is bounded
    assert _is_acyclic(res.basis, m)
    assert set(res.plan.support()) <= set(res.basis)
    assert not any(is_inf(inst.cost.entries[cell]) for cell in res.basis)
    if inst.cost.is_bounded:
        assert len(res.basis) == m + n - 1
    if inst.cost.is_bounded and m * n <= 16:
        assert res.value == oracle_primal(inst).value
    else:
        assert abs(float(res.value) - linprog_value(inst)) <= 1e-6 * (1 + abs(float(res.value)))
