"""Network simplex: exactness against the oracle, structural invariants."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otlab import (
    InfeasibleFiniteCost,
    InfeasibleInput,
    Marginal,
    OTLabError,
    as_vector,
    certify_instance,
    check_marginals,
    convert_instance,
    generate_fixture,
    lipschitz_envelope,
    make_instance,
    northwest_corner,
    oracle_primal,
    product_plan,
    plan_cost,
    solve_primal,
)

from otlab.core import (
    INF,
    RATIONAL,
    basis_dual,
    cost_tolerance,
    hang_subtree,
    int_dtype,
    is_inf,
    plan_from_cells,
    scaled_data,
    tolerance,
    tree_adjacency,
    tree_potentials,
)
from otlab.fixtures import FIXTURE_NAMES
from otlab.primal import (
    OptimalPlanResult,
    _basis_cycle,
    _exchange,
    _northwest_basis,
    _tree_masses,
)

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
        assert check_marginals(plan, mu, nu).passed
        assert len(plan.support()) <= m + n - 1


def test_northwest_float_round_off_stays_in_the_matrix():
    # float row sums outlast the columns by round-off: the last column
    # absorbs the residue and the walk stays inside the 7 x 3 matrix
    mu = Marginal(as_vector([F(k, 25) for k in (7, 4, 1, 7, 5, 1, 0)], "float"))
    nu = Marginal(as_vector([F(k, 14) for k in (7, 4, 3)], "float"))
    plan = northwest_corner(mu, nu)
    assert check_marginals(plan, mu, nu).passed
    assert len(plan.support()) <= 7 + 3 - 1
    inst = make_instance(
        [[(i * j) % 5 for j in range(3)] for i in range(7)],
        [F(k, 25) for k in (7, 4, 1, 7, 5, 1, 0)],
        [F(k, 14) for k in (7, 4, 3)],
        mode="float",
    )
    assert check_marginals(solve_primal(inst).plan, inst.mu, inst.nu).passed


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
        assert check_marginals(res.plan, inst.mu, inst.nu).passed


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


def _dfs_basis_cycle(m, n, basis, entering):
    """Reference: the entering cell, then the tree path from its row to its
    column found by a depth-first search from the column."""
    i0, j0 = entering
    adj = {k: [] for k in range(m + n)}
    for (i, j) in basis:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    parent = {m + j0: None}
    stack = [m + j0]
    while stack:
        node = stack.pop()
        if node == i0:
            break
        for nxt, cell in adj[node]:
            if nxt not in parent:
                parent[nxt] = (node, cell)
                stack.append(nxt)
    cells = []
    node = i0
    while parent[node] is not None:
        node, cell = parent[node]
        cells.append(cell)
    return [entering] + cells


def draw_spanning_tree(draw):
    """A random spanning tree of the m x n bipartite graph, m, n >= 2."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, 6))
    nodes = draw(st.permutations(range(m + n)))
    rows = [v for v in nodes if v < m]
    cols = [v - m for v in nodes if v >= m]
    tree = {(rows[0], cols[0])}
    seen_rows, seen_cols = [rows[0]], [cols[0]]
    for v in nodes:
        if v < m and v != rows[0]:
            tree.add((v, draw(st.sampled_from(seen_cols))))
            seen_rows.append(v)
        elif v >= m and v - m != cols[0]:
            tree.add((draw(st.sampled_from(seen_rows)), v - m))
            seen_cols.append(v - m)
    return m, n, tree


@st.composite
def trees_with_an_entering_cell(draw):
    m, n, tree = draw_spanning_tree(draw)
    outside = sorted({(i, j) for i in range(m) for j in range(n)} - tree)
    return m, n, tree, draw(st.sampled_from(outside))


@settings(max_examples=200, deadline=None)
@given(case=trees_with_an_entering_cell())
def test_parent_link_cycle_matches_tree_search(case):
    m, n, tree, entering = case
    zeros = [[0] * n for _ in range(m)]
    _, parent, _ = tree_potentials(m, n, tree, zeros, 0)
    cycle = _basis_cycle(m, parent, entering)
    reference = _dfs_basis_cycle(m, n, tree, entering)
    assert (set(cycle[0::2]), set(cycle[1::2])) == (
        set(reference[0::2]), set(reference[1::2])
    )
    assert cycle == reference


@st.composite
def trees_with_swaps(draw):
    """A spanning tree, costs (rational or float, some +inf) and a list of
    basis exchanges, each an (entering, leaving-on-its-cycle) choice."""
    m, n, tree = draw_spanning_tree(draw)
    if draw(st.booleans()):
        value = st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 7]))
        z = F(0)
    else:
        value = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        z = 0.0
    cell = st.one_of(value, value, value, st.just(INF))
    rows = [[draw(cell) for _ in range(n)] for _ in range(m)]
    choice = st.integers(0, 10**6)
    swaps = draw(st.lists(st.tuples(choice, choice), min_size=1, max_size=15))
    return m, n, tree, rows, z, swaps


@settings(max_examples=200, deadline=None)
@given(case=trees_with_swaps())
def test_rehang_matches_a_fresh_walk_after_every_swap(case):
    # the simplex keeps its tree and re-hangs one subtree per pivot; after
    # each exchange, parent links, potentials and wall potentials equal
    # those of a fresh walk anchored at row 0, floats bit for bit
    m, n, tree, rows, z, swaps = case
    size = m + n
    basis = set(tree)
    adj = tree_adjacency(m, n, basis)
    parent, pot = [-1] * size, [z] * size
    walled = any(INF in row for row in rows)
    wall = [0] * size if walled else None
    hang_subtree(m, adj, rows, z, 0, -1, parent, pot, wall)

    def assert_fresh():
        fresh_pot, fresh_parent, fresh_wall = tree_potentials(m, n, basis, rows, z)
        assert parent == fresh_parent
        assert [type(p) for p in pot] == [type(p) for p in fresh_pot]
        assert pot == fresh_pot
        if walled:
            assert wall == (fresh_wall or [0] * size)

    assert_fresh()
    for a, b in swaps:
        outside = sorted({(i, j) for i in range(m) for j in range(n)} - basis)
        entering = outside[a % len(outside)]
        cycle = _basis_cycle(m, parent, entering)
        leaving = cycle[1 + b % (len(cycle) - 1)]
        basis.add(entering)
        basis.remove(leaving)
        _exchange(m, adj, rows, z, parent, pot, wall, entering, leaving)
        assert_fresh()


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
    assert sum(res.plan.entries[1]) == 0


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


# --- warm start ---------------------------------------------------------------


@pytest.mark.parametrize("family", FIXTURE_NAMES)
def test_a_warm_start_from_another_level_gives_the_cold_value(family):
    # the masses of a tree depend on the marginals only, so the optimal basis
    # of one envelope level (or of the limit) is a feasible start for another
    for size in (2, 4, 6):
        inst = generate_fixture(family, size, seed=size)
        dx, dy = inst.space_x.metric, inst.space_y.metric
        costs = [inst.cost] + [lipschitz_envelope(inst.cost, dx, dy, n) for n in (F(1, 2), 2, 5)]
        cold = [solve_primal(replace(inst, cost=cost)) for cost in costs]
        for cost, res in zip(costs, cold):
            for other in cold:
                warm = solve_primal(replace(inst, cost=cost), basis=other.basis)
                assert warm.value == res.value
                assert basis_dual(warm.basis, cost) is not None


@pytest.mark.parametrize("basis, message", [
    (((0, 0), (1, 1)), "2 basis cells; a spanning tree of 2 x 3 has 4"),
    (((0, 0), (0, 1), (1, 0), (1, 1)), "basis cell (1, 1) closes a cycle"),
    (((0, 0), (0, 1), (0, 2), (2, 0)), "basis cell (2, 0) lies outside the 2 x 3 grid"),
    # row 0 sends its mass to column 1 and column 0 takes its own from row 1,
    # so the cell (1, 1) would have to carry -1
    (((0, 1), (1, 0), (1, 1), (1, 2)),
     "basis cell (1, 1) would carry negative mass; the tree is not feasible "
     "for these marginals"),
])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_a_warm_start_refuses_a_tree_that_is_no_feasible_basis(basis, message, mode):
    inst = convert_instance(make_instance([[0, 1, 2], [1, 0, 2]], [1, 0], [1, 0, 0]), mode)
    with pytest.raises(InfeasibleInput) as err:
        solve_primal(inst, basis=basis)
    assert str(err.value) == message


@st.composite
def trees_with_marginals(draw):
    """A spanning tree and rational marginals of its rows and columns, with
    zero masses; most such trees are no feasible basis."""
    m, n, tree = draw_spanning_tree(draw)

    def weights(size):
        raw = [draw(st.integers(0, 9)) for _ in range(size)]
        if not any(raw):
            raw[draw(st.integers(0, size - 1))] = 1
        return [F(w, sum(raw)) for w in raw]

    return m, n, tree, weights(m), weights(n)


def tree_masses_outcome(m, n, tree, mu, nu, mode):
    """"feasible" when the masses of ``tree`` sit on its cells, are
    nonnegative and meet the marginals (exactly in rational mode), else the
    refusal, which names a cell of the tree."""
    z = 0 if mode == RATIONAL else 0.0
    if mode != RATIONAL:
        mu, nu = [float(w) for w in mu], [float(w) for w in nu]
    parent = [-1] * (m + n)
    zeros = [[z] * n for _ in range(m)]
    order = hang_subtree(m, tree_adjacency(m, n, tree), zeros, z, 0, -1, parent,
                         [z] * (m + n), None)
    assert sorted(order) == list(range(m + n))
    assert all(order.index(parent[v]) < k for k, v in enumerate(order) if k)
    tol = tolerance(mode)
    try:
        mass = _tree_masses(m, order, parent, mu, nu, z, tol)
    except InfeasibleInput as err:
        assert any(str(err).startswith(f"basis cell {cell} would carry negative mass")
                   for cell in tree)
        return str(err)
    assert set(mass) == set(tree)
    assert all(x >= 0 for x in mass.values())
    for i in range(m):
        assert abs(sum(x for (r, _), x in mass.items() if r == i) - mu[i]) <= tol
    for j in range(n):
        assert abs(sum(x for (_, c), x in mass.items() if c == j) - nu[j]) <= tol
    return "feasible"


@settings(max_examples=200, deadline=None)
@given(case=trees_with_marginals())
def test_tree_masses_meet_the_marginals_or_name_a_negative_cell(case):
    # the reverse walk gives any spanning tree's masses; a nonzero rational
    # mass is at least 1/54**2 here, so floats reach the same outcome
    exact = tree_masses_outcome(*case, RATIONAL)
    assert tree_masses_outcome(*case, "float") == exact


# --- float mode ---------------------------------------------------------------


def test_float_mode_matches_rational(rng):
    from otlab import convert_instance

    for _ in range(20):
        inst = random_rational_instance(rng)
        exact = solve_primal(inst).value
        approx = solve_primal(convert_instance(inst, "float")).value
        assert abs(approx - float(exact)) <= 1e-9 * (1 + abs(float(exact)))


def test_float_pricing_pivots_on_a_near_tie():
    # the northwest basis prices the off-diagonal cell at -1e-10 * ||c||,
    # far below the dual feasibility tolerance; float pricing still takes it
    inst = make_instance([[1, 1], [1, 1 + F(1, 10**10)]], HALF, HALF)
    approx = solve_primal(convert_instance(inst, "float"))
    assert solve_primal(inst).plan.entries.tolist() == [[0, F(1, 2)], [F(1, 2), 0]]
    assert approx.plan.entries.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert approx.value == 1.0


def test_float_round_off_crumb_on_a_wall_is_not_charged():
    # as floats, mu sums to 1 with x1's 4e-19 rounded away, so the northwest
    # corner leaves a 1e-19 crumb on the +inf cell (0, 4); it is round-off
    # of the marginals, not mass on a wall
    big = 2**61 - 1
    inst = make_instance(
        [[0, 0, 0, 0, "inf"], ["inf", "inf", "inf", 0, 0]],
        [F(big, big + 1), F(1, big + 1)],
        [F(2 * big, 7 * big + 2)] * 3 + [F(big, 7 * big + 2), F(2, 7 * big + 2)],
    )
    approx = convert_instance(inst, "float")
    assert solve_primal(inst).value == 0
    assert solve_primal(approx).value == 0.0
    assert certify_instance(approx).verdict


# --- integer kernel properties -------------------------------------------------

# Distinct primes: an instance mixing them has a denominator LCM above 2**64.
DENOMINATORS = [1, 2, 3, 7, 2**31 - 1, 2**61 - 1, 10**9 + 7]


@st.composite
def rational_instances(draw, anywhere=False):
    """Rational instances with mixed and huge denominators, zero masses,
    optionally all-equal costs, and optionally +inf walls that keep the
    northwest-corner plan finite (so a finite optimum exists). With
    ``anywhere`` the walls may also sit on that plan's support, so the
    simplex first pivots mass off them, or finds no finite plan."""
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
        keep = () if anywhere else set(
            northwest_corner(marginal_of(mu), marginal_of(nu)).support()
        )
        for i in range(m):
            for j in range(n):
                if (i, j) not in keep and draw(st.integers(0, 2)) == 0:
                    cost[i][j] = "inf"
    return make_instance(cost, mu, nu)


def marginal_of(weights):
    return Marginal(as_vector(weights, "rational"))


def linprog_value(inst):
    """scipy's HiGHS optimum, with +inf cells pinned to zero mass. HiGHS's
    default feasibility tolerance, 1e-7, is above the smallest masses drawn
    here, and its presolve then calls a feasible instance infeasible."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    m, n = inst.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    finite = [not is_inf(inst.cost.entries[cell]) for cell in cells]
    c = [float(inst.cost.entries[cell]) if ok else 0.0 for cell, ok in zip(cells, finite)]
    a_eq = [[1.0 if i == r else 0.0 for (i, _) in cells] for r in range(m)]
    a_eq += [[1.0 if j == s else 0.0 for (_, j) in cells] for s in range(n)]
    b_eq = [float(w) for w in inst.mu.weights] + [float(w) for w in inst.nu.weights]
    bounds = [(0, None) if ok else (0, 0) for ok in finite]
    lp = scipy_opt.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
                           options={"primal_feasibility_tolerance": 1e-10})
    assert lp.status == 0
    return lp.fun


# four masses of 2e-8 to 5e-8, under HiGHS's default feasibility tolerance
_TINY = 2147483947421012612


@settings(max_examples=80, deadline=None)
@given(inst=rational_instances())
@example(inst=make_instance(
    [[F(7, 3)] * 4] * 5,
    [F(105226698703, _TINY), F(63000000441, _TINY), F(75161927645, _TINY),
     F(2147483662032385529, _TINY), F(42000000294, _TINY)],
    [F(8, 33), F(8, 33), F(5, 11), F(2, 33)],
))
def test_integer_kernel_is_exact(inst):
    m, n = inst.shape
    res = solve_primal(inst)
    assert all(type(x) is F for x in res.plan.entries.flat)
    assert check_marginals(res.plan, inst.mu, inst.nu).passed  # exact marginals
    assert type(res.value) is F
    assert res.value == plan_cost(res.plan, inst.cost)
    # basis invariants: a spanning tree (m+n-1 acyclic cells, +inf ones
    # included) that covers the support
    assert len(res.basis) == m + n - 1
    assert _is_acyclic(res.basis, m)
    assert set(res.plan.support()) <= set(res.basis)
    if inst.cost.is_bounded and m * n <= 16:
        assert res.value == oracle_primal(inst).value
    else:
        assert abs(float(res.value) - linprog_value(inst)) <= 1e-6 * (1 + abs(float(res.value)))
    # the same instance drives float mode over its ties, zero masses and walls
    exact = certify_outcome(inst, res.value)
    assert certify_outcome(convert_instance(inst, "float"), res.value) == exact


def certify_outcome(inst, optimum):
    """True when ``inst`` solves to ``optimum`` within its cost tolerance and
    certifies, else the class of the error it raises (a zero-mass all-+inf
    row raises UnboundedTransform in both modes)."""
    try:
        value = solve_primal(inst).value
        return abs(value - optimum) <= cost_tolerance(inst.cost) and certify_instance(inst).verdict
    except OTLabError as exc:
        return type(exc)


# --- reference loop -------------------------------------------------------------


def reference_solve(instance):
    """The Bland simplex with a full tree walk (``core.tree_potentials``) and
    a scalar scan of every cell per pivot: the reference for the kept tree
    and the numpy pricing of solve_primal."""
    m, n = instance.shape
    rational = instance.mode == RATIONAL
    mu, nu, cost, L, _ = scaled_data(instance)
    z = 0 if rational else 0.0
    mass = _northwest_basis(mu, nu)
    basis = set(mass)
    eps = 0 if rational else cost_tolerance(instance.cost) / 1000
    while True:
        pot, parent, wall = tree_potentials(m, n, basis, cost, z)
        psi = pot[m:]
        entering = None
        for i in range(m):
            for j in range(n):
                if (i, j) in basis:
                    continue
                c = cost[i][j]
                inf = c == INF
                r0 = inf - wall[i] - wall[m + j] if wall is not None else inf
                if r0 < 0 or (not r0 and (z if inf else c) - pot[i] - psi[j] < -eps):
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            break
        cycle = _basis_cycle(m, parent, entering)
        minus = cycle[1::2]
        theta = min(mass[cell] for cell in minus)
        leaving = min(cell for cell in minus if mass[cell] == theta)
        for cell in cycle[0::2]:
            mass[cell] = mass.get(cell, z) + theta
        for cell in minus:
            mass[cell] = mass[cell] - theta
        basis.add(entering)
        basis.remove(leaving)
        del mass[leaving]
    crumb = tolerance(instance.mode)
    plan = plan_from_cells(
        (m, n),
        {(i, j): F(x, L) if rational else x for (i, j), x in mass.items()
         if x > (crumb if cost[i][j] == INF else 0)},
        instance.mode,
    )
    value = plan_cost(plan, instance.cost)
    if is_inf(value):
        raise InfeasibleFiniteCost(
            "every feasible plan places mass on an infinite-cost cell"
        )
    return OptimalPlanResult(plan=plan, value=value, basis=tuple(sorted(basis)))


def outcome(solve, inst):
    """Plan entries, value and basis of a solve, or its error class."""
    try:
        res = solve(inst)
    except OTLabError as exc:
        return type(exc)
    return res.plan.entries.tolist(), res.value, res.basis


@settings(max_examples=150, deadline=None)
@given(inst=rational_instances(anywhere=True))
def test_solve_primal_matches_the_reference_loop(inst):
    # walls, ties, zero masses and huge denominators, in both modes
    for case in (inst, convert_instance(inst, "float")):
        assert outcome(solve_primal, case) == outcome(reference_solve, case)


def test_solve_primal_matches_the_reference_loop_on_fixtures():
    from otlab.fixtures import generate_fixture

    for family in ("indicator", "random-uniform", "separable", "discrete-metric-spike"):
        for size in (3, 7, 12):
            inst = generate_fixture(family, size, seed=size)
            for case in (inst, convert_instance(inst, "float")):
                assert outcome(solve_primal, case) == outcome(reference_solve, case)


# (2(m+n)+1) * max|c| < 2**62 is the int64 pricing bound; at 2 x 2 the
# factor is 9, so BOUND is the largest scaled cost that prices in int64
BOUND = (2**62 - 1) // 9


@pytest.mark.parametrize("cost, dtype", [
    ([[BOUND, 0], [0, BOUND]], "int64"),
    ([[-BOUND, 0], [1, BOUND]], "int64"),
    ([[BOUND + 1, 0], [0, BOUND]], "object"),
    ([[0, -BOUND - 1], [3, 1]], "object"),
    # denominators 2**52 and 2**66 scale the cost 1 to 2**66
    ([[F(1, 2**52), F(3, 2**66)], [F(5, 2**66), 1]], "object"),
])
def test_pricing_dtype_guard_keeps_the_reference_plan(cost, dtype):
    inst = make_instance(cost, [F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)])
    m, n = inst.shape
    scaled = scaled_data(inst)[2]
    big = max(abs(c) for row in scaled for c in row)
    assert np.dtype(int_dtype((2 * (m + n) + 1) * big)) == dtype
    assert outcome(solve_primal, inst) == outcome(reference_solve, inst)
