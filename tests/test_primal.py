"""Network simplex: exactness against the oracle, structural invariants."""

from contextlib import contextmanager
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
    FLOAT,
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
    tree_potentials,
)
from otlab import primal
from otlab.fixtures import FIXTURE_NAMES, SPIKE
from otlab.primal import (
    OptimalPlanResult,
    SolveStats,
    _basis_cycle,
    _exchange,
    _least_cost_basis,
    _northwest_basis,
    _tree_masses,
)

from conftest import rational_instances, random_marginal, random_rational_instance

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


# --- least-cost start ------------------------------------------------------------


def naive_least_cost_basis(mu, nu, cost):
    """The least-cost start by its definition: again and again the cheapest
    cell whose row and column are both open (+inf walls last, the first in
    row-major order on ties) takes the least of their rests and closes a
    line by the rule of the walk (``primal._greedy_basis``)."""
    rest_mu, rest_nu = list(mu), list(nu)
    rows, cols = set(range(len(mu))), set(range(len(nu)))
    mass = {}
    while True:
        i, j = min(((i, j) for i in rows for j in cols),
                   key=lambda c: (cost[c[0]][c[1]] == INF, cost[c[0]][c[1]], c))
        x = min(rest_mu[i], rest_nu[j])
        mass[(i, j)] = x
        if len(rows) == len(cols) == 1:
            return mass
        rest_mu[i] -= x
        rest_nu[j] -= x
        if len(rows) > 1 and (rest_mu[i] == 0 or len(cols) == 1):
            rows.remove(i)
        else:
            cols.remove(j)


@settings(max_examples=150, deadline=None)
@given(inst=rational_instances(anywhere=True))
def test_the_least_cost_start_is_a_feasible_spanning_tree(inst):
    # walls anywhere, ties, zero masses and huge denominators, in both modes
    m, n = inst.shape
    for case in (inst, convert_instance(inst, "float")):
        mu, nu, cost = scaled_data(case)[:3]
        start = _least_cost_basis(mu, nu, case.cost)
        assert list(start.items()) == list(naive_least_cost_basis(mu, nu, cost).items())
        tree_potentials(m, n, start, cost, 0)  # raises unless a spanning tree
        assert all(x >= 0 for x in start.values())
        if case.mode == RATIONAL:
            assert [sum(x for (i, _), x in start.items() if i == r) for r in range(m)] == mu
            assert [sum(x for (_, j), x in start.items() if j == c) for c in range(n)] == nu
        # the same optimum as the simplex from the northwest tree
        northwest = tuple(_northwest_basis(mu, nu))
        try:
            cold = solve_primal(case).value
        except InfeasibleFiniteCost:
            with pytest.raises(InfeasibleFiniteCost):
                solve_primal(case, basis=northwest)
            continue
        warm = solve_primal(case, basis=northwest).value
        if case.mode == RATIONAL:
            assert warm == cold
        else:
            assert abs(warm - cold) <= cost_tolerance(case.cost)


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


def path_lengths(parent):
    """Each node's count of parent links up to the anchor (parent -1)."""
    def length(v):
        k = 0
        while parent[v] >= 0:
            v, k = parent[v], k + 1
        return k

    return [length(v) for v in range(len(parent))]


@settings(max_examples=200, deadline=None)
@given(case=trees_with_an_entering_cell())
def test_parent_link_cycle_matches_tree_search(case):
    m, n, tree, entering = case
    zeros = [[0] * n for _ in range(m)]
    parent = tree_potentials(m, n, tree, zeros, 0)[1]
    cycle = _basis_cycle(m, parent, path_lengths(parent), entering)
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
    # those of a fresh walk anchored at row 0, floats bit for bit, and each
    # node's depth is its path length to row 0
    m, n, tree, rows, z, swaps = case
    size = m + n
    basis = set(tree)
    adj = tree_potentials(m, n, basis, rows, z)[4]
    parent, pot, depth = [-1] * size, [z] * size, [None] * size
    walled = any(INF in row for row in rows)
    wall = [0] * size if walled else None
    hang_subtree(m, adj, rows, z, 0, -1, parent, pot, wall, depth)

    def assert_fresh():
        fresh_pot, fresh_parent, fresh_wall = tree_potentials(m, n, basis, rows, z)[:3]
        assert parent == fresh_parent
        assert depth == path_lengths(parent)
        assert [type(p) for p in pot] == [type(p) for p in fresh_pot]
        assert pot == fresh_pot
        if walled:
            assert wall == (fresh_wall or [0] * size)

    assert_fresh()
    for a, b in swaps:
        outside = sorted({(i, j) for i in range(m) for j in range(n)} - basis)
        entering = outside[a % len(outside)]
        cycle = _basis_cycle(m, parent, depth, entering)
        leaving = cycle[1 + b % (len(cycle) - 1)]
        basis.add(entering)
        basis.remove(leaving)
        _exchange(m, adj, rows, z, parent, pot, wall, depth, entering, leaving)
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
    # the error names the first +inf cell of the solved plan
    lead = "every feasible plan places mass on an infinite-cost cell; the solved plan places mass"
    for mode in ("rational", "float"):
        for cost, mu, nu, cell in (([["inf"]], [1], [1], (0, 0)),
                                   ([[0, "inf"], ["inf", 0]], [1, 0], [0, 1], (0, 1)),
                                   ([[0, "inf"], ["inf", "inf"]], [0, 1], [0, 1], (1, 1))):
            with pytest.raises(InfeasibleFiniteCost) as raised:
                solve_primal(make_instance(cost, mu, nu, mode))
            assert str(raised.value) == f"{lead} on cost[{cell[0]}][{cell[1]}]"


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
    zeros = [[z] * n for _ in range(m)]
    _, parent, _, _, _, order = tree_potentials(m, n, tree, zeros, z)
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
    # the start (the diagonal and a zero-mass (1, 0)) prices the
    # off-diagonal cell at -1e-10 * ||c||, far below the dual feasibility
    # tolerance; float pricing still takes it
    inst = make_instance([[1, 1], [1, 1 + F(1, 10**10)]], HALF, HALF)
    approx = solve_primal(convert_instance(inst, "float"))
    assert solve_primal(inst).plan.entries.tolist() == [[0, F(1, 2)], [F(1, 2), 0]]
    assert approx.plan.entries.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert approx.value == 1.0
    assert approx.stats.pivots == 1


def test_float_round_off_crumb_on_a_wall_is_not_charged():
    # as floats, mu sums to 1 with x1's 4e-19 rounded away, so the northwest
    # corner left a 1e-19 crumb on the +inf cell (0, 4); it is round-off
    # of the marginals, not mass on a wall (the least-cost start puts that
    # crumb on the finite cell (1, 4); the next test puts one on a wall)
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


def test_float_round_off_crumb_of_the_start_on_a_wall_is_not_charged():
    # as floats, row 0 outlasts columns 0 and 1 and column 2 outlasts rows 1
    # and 2, each by round-off, so the least-cost start closes with a crumb
    # on the +inf cell (0, 2), and no pivot can move it
    inst = make_instance(
        [[0, 0, "inf"], ["inf", "inf", 0], ["inf", "inf", 0]],
        [F(23, 132), F(1, 6), F(29, 44)],
        [F(1, 12), F(1, 11), F(109, 132)],
    )
    approx = convert_instance(inst, "float")
    mu, nu = scaled_data(approx)[:2]
    assert 0 < _least_cost_basis(mu, nu, approx.cost)[(0, 2)] <= tolerance(FLOAT)
    assert solve_primal(inst).value == 0
    res = solve_primal(approx)
    assert (res.value, res.stats.pivots, res.plan.entries[0, 2]) == (0.0, 0, 0.0)
    assert (0, 2) in res.basis
    assert certify_instance(approx).verdict


# --- integer kernel properties -------------------------------------------------

def linprog_value(inst):
    """scipy's HiGHS optimum, with +inf cells pinned to zero mass. HiGHS's
    presolve calls a feasible instance infeasible when a mass drawn here is
    below its feasibility tolerance: below the default 1e-7, and below even
    the tightest it takes, 1e-10. So presolve is off."""
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
                           options={"primal_feasibility_tolerance": 1e-10, "presolve": False})
    assert lp.status == 0
    return lp.fun


# four masses of 2e-8 to 5e-8, under HiGHS's default feasibility tolerance
_TINY = 2147483947421012612
# two row masses of 9.3e-11, under its tightest feasibility tolerance
_D = 10737418237


@settings(max_examples=80, deadline=None)
@given(inst=rational_instances())
@example(inst=make_instance(
    [[F(7, 3)] * 4] * 5,
    [F(105226698703, _TINY), F(63000000441, _TINY), F(75161927645, _TINY),
     F(2147483662032385529, _TINY), F(42000000294, _TINY)],
    [F(8, 33), F(8, 33), F(5, 11), F(2, 33)],
))
@example(inst=make_instance(
    [["inf", 0, "inf", "inf", "inf"], ["inf", 0, "inf", "inf", "inf"], ["inf", 0, 0, 0, 0]],
    [F(1, _D), F(1, _D), F(_D - 2, _D)],
    [0, F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
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


def reference_solve(instance, pivots, start=None):
    """The simplex of solve_primal with a full tree walk
    (``core.tree_potentials``) and a scalar scan of every cell per pivot:
    the reference for the kept tree and the numpy pricing of solve_primal.
    It starts from the least-cost start of solve_primal, or from ``start``,
    a basis as {cell: scaled mass}. The most negative reduced cost enters,
    the first in row-major order on ties; right after a degenerate pivot,
    Bland's first eligible cell enters instead. A reduced cost is a
    (wall, finite) pair: a cell whose wall part is above 0 never enters, and
    the first cell whose wall part is below 0 enters before any other.
    Each (entering, leaving) pair is appended to ``pivots``, and the
    result's stats count them and the degenerate ones."""
    m, n = instance.shape
    rational = instance.mode == RATIONAL
    mu, nu, cost, L, _ = scaled_data(instance)
    z = 0 if rational else 0.0
    mass = dict(start) if start else _least_cost_basis(mu, nu, instance.cost)
    basis = set(mass)
    eps = 0 if rational else cost_tolerance(instance.cost) / 1000
    bland = False
    count = degenerate = 0
    while True:
        pot, parent, wall = tree_potentials(m, n, basis, cost, z)[:3]
        below, eligible = [], []  # cells whose wall part is below 0; every cell that may enter
        for i in range(m):
            for j in range(n):
                if (i, j) in basis:
                    continue
                c = cost[i][j]
                inf = c == INF
                r0 = inf - wall[i] - wall[m + j] if wall is not None else inf
                r = (z if inf else c) - pot[i] - pot[m + j]
                if r0 < 0:
                    below.append((i, j))
                    eligible.append((r, (i, j)))
                elif r0 == 0 and r < -eps:
                    eligible.append((r, (i, j)))
        if not eligible:
            break
        if bland:
            entering = eligible[0][1]
        elif below:
            entering = below[0]
        else:
            entering = min(eligible)[1]
        cycle = _basis_cycle(m, parent, path_lengths(parent), entering)
        minus = cycle[1::2]
        theta = min(mass[cell] for cell in minus)
        leaving = min(cell for cell in minus if mass[cell] == theta)
        pivots.append((entering, leaving))
        count += 1
        degenerate += theta == 0
        for cell in cycle[0::2]:
            mass[cell] = mass.get(cell, z) + theta
        for cell in minus:
            mass[cell] = mass[cell] - theta
        basis.add(entering)
        basis.remove(leaving)
        del mass[leaving]
        bland = theta == 0
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
    return OptimalPlanResult(plan=plan, value=value, basis=tuple(sorted(basis)),
                             stats=SolveStats(count, degenerate, False))


def outcome(solve, inst):
    """Plan entries, value and basis of a solve, or its error class."""
    try:
        res = solve(inst)
    except OTLabError as exc:
        return type(exc)
    return res.plan.entries.tolist(), res.value, res.basis


@contextmanager
def recorded_pivots():
    """A list that receives the (entering, leaving) pair of every pivot
    solve_primal makes inside the block, in order."""
    pivots = []
    exchange = primal._exchange
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(primal, "_exchange", lambda *args: pivots.append(args[-2:]) or exchange(*args))
        yield pivots


def pivoted_outcomes(inst, start=None):
    """The outcomes of solve_primal and of reference_solve on ``inst``, each
    with the (entering, leaving) pairs of its pivots in order; both start
    cold, or from the basis ``start`` ({cell: scaled mass}), which
    solve_primal takes as ``basis``."""
    with recorded_pivots() as ours:
        solved = outcome(lambda case: solve_primal(case, basis=start and tuple(start)), inst)
    theirs = []
    return (solved, ours), (outcome(lambda case: reference_solve(case, theirs, start), inst), theirs)


@settings(max_examples=150, deadline=None)
@given(inst=rational_instances(anywhere=True))
# The start tree holds the wall (1, 2): the cell (0, 2), whose wall part is
# below 0, enters first; Bland's first eligible cell on every pivot of a
# walled instance (the rule before the wall part was folded in) enters (0, 0)
# first.
@example(inst=make_instance([["2", "1", "5"], ["9", "5", "inf"]],
                            ["6/13", "7/13"], ["7/15", "7/15", "1/15"]))
def test_solve_primal_matches_the_reference_loop(inst):
    # walls, ties, zero masses and huge denominators, in both modes
    for case in (inst, convert_instance(inst, "float")):
        ours, reference = pivoted_outcomes(case)
        assert ours == reference


# The least-cost start puts mass on the walls (0, 1) and (0, 2), so the first
# two pivots enter the first cell whose wall part is below 0 and the third the
# most negative finite part; entering Bland's first eligible cell on every
# pivot gives another sequence.
WALLED = make_instance([["9", "inf", "inf", "5"], ["4", "7", "5", "1"], ["2", "8", "6", "6"]],
                       ["1/4", "1/2", "1/4"], ["1/8", "1/8", "1/4", "1/2"])

# The least-cost start holds no wall, and the wall (1, 0) has the most negative
# finite part; it must not enter, as no wall potential is set.
UNWALLED_TREE = make_instance([["2", "5"], ["inf", "7"], ["2", "6"]],
                              ["2/11", "3/11", "6/11"], ["4/13", "9/13"])


def start_wall(inst):
    """The wall potentials of the least-cost start's tree, None when it holds
    no +inf cell."""
    mu, nu, cost = scaled_data(inst)[:3]
    start = _least_cost_basis(mu, nu, inst.cost)
    return tree_potentials(*inst.shape, start, cost, 0)[2]


def test_solve_primal_matches_the_reference_loop_on_fixtures():
    from otlab.fixtures import generate_fixture

    insts = [generate_fixture(family, size, seed=size)
             for family in ("indicator", "random-uniform", "separable", "discrete-metric-spike")
             for size in (3, 7, 12)]
    assert start_wall(WALLED) is not None and start_wall(UNWALLED_TREE) is None
    for inst in insts + [WALLED, UNWALLED_TREE]:
        for case in (inst, convert_instance(inst, "float")):
            ours, reference = pivoted_outcomes(case)
            assert ours == reference
            if inst is WALLED:
                assert len(ours[1]) == 3
            if inst is UNWALLED_TREE:
                assert ours[1] == [((0, 1), (0, 0))]


def test_the_stats_count_the_pivots_of_the_reference_loop():
    # pivots and degenerate (theta = 0) pivots as the reference loop counts
    # them; a warm start from the optimal basis pivots no more
    for family in FIXTURE_NAMES:
        for size in (3, 7, 12):
            inst = generate_fixture(family, size, seed=size)
            for case in (inst, convert_instance(inst, "float")):
                res = solve_primal(case)
                assert res.stats == reference_solve(case, []).stats
                assert solve_primal(case, basis=res.basis).stats == SolveStats(0, 0, True)


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
    # a +inf wall: the priced basic cells' 9 * BOUND + 1 still fits in int64
    ([[BOUND, "inf"], [0, BOUND]], "int64"),
    # the first pivot hands a cell back to ``priced``, which must stay
    # Python ints: 4 * (2**62 - 1) is outside int64
    ([[2**62 - 1, 1 - 2**62], [1 - 2**62, 2**62 - 1]], "object"),
])
def test_pricing_dtype_guard_keeps_the_reference_plan(cost, dtype):
    inst = make_instance(cost, [F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)])
    m, n = inst.shape
    mu, nu, scaled = scaled_data(inst)[:3]
    big = max(abs(c) for row in scaled for c in row if c != INF)
    assert np.dtype(int_dtype((2 * (m + n) + 1) * big)) == dtype
    cold, reference = pivoted_outcomes(inst)
    assert cold == reference
    # The least-cost start pivots only on the wall case; from the northwest
    # tree the others pivot, so that a pivot writes ``priced`` in the
    # guarded dtype, all but [[-BOUND, 0], [1, BOUND]], whose tree is optimal.
    northwest, reference = pivoted_outcomes(inst, _northwest_basis(mu, nu))
    assert northwest == reference
    assert cold[1] or northwest[1] or cost[0][0] == -BOUND


# --- pivot rule -----------------------------------------------------------------


def test_the_most_negative_reduced_cost_takes_few_pivots():
    # from the northwest corner, Bland's first eligible cell took 6,144
    # pivots to this optimum and this rule 502; from the least-cost start
    # this rule takes 109
    with recorded_pivots() as pivots:
        res = solve_primal(generate_fixture("random-uniform", 60, seed=1))
    assert res.value == F(1441, 11592)
    assert len(pivots) <= 600


@st.composite
def degenerate_instances(draw):
    """Uniform marginals on both sides, some masses zero, and all-equal, 0/1
    or discrete-metric-spike costs: most pivots of such an instance move no
    mass, so the rule runs Bland's pivots between its most-negative ones."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))

    def marginal(size):
        zeros = draw(st.sets(st.integers(0, size - 1), max_size=size - 1))
        return [0 if k in zeros else F(1, size - len(zeros)) for k in range(size)]

    kind = draw(st.sampled_from(["equal", "binary", "spike"]))
    if kind == "equal":
        tie = F(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        cost = [[tie] * n for _ in range(m)]
    elif kind == "binary":
        cost = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    else:
        cost = [[0 if i == j else SPIKE for j in range(n)] for i in range(m)]
    return make_instance(cost, marginal(m), marginal(n))


@settings(max_examples=100, deadline=None)
@given(inst=degenerate_instances())
def test_degenerate_instances_end_at_the_optimum_and_certify(inst):
    m, n = inst.shape
    with pytest.MonkeyPatch.context() as patch:
        # far above the pivots these sizes need, so a cycling solve fails fast
        patch.setattr(primal, "_MAX_PIVOTS", 1000)
        value = solve_primal(inst).value
        if m * n <= 16:
            assert value == oracle_primal(inst).value
        else:
            assert abs(float(value) - linprog_value(inst)) <= 1e-6 * (1 + abs(float(value)))
        for case in (inst, convert_instance(inst, "float")):
            assert certify_instance(case).verdict


# --- float answers checked by the exact simplex ---------------------------------


def assert_the_float_basis_checks_out(inst):
    """Solve ``inst`` in float mode, then warm-start the exact simplex from
    the float basis: it takes 0 pivots to the exact optimum, or pivots from
    a plan whose exact cost is within the float cost tolerance of the
    optimum. The exact marginals may refuse the tree (InfeasibleInput), but
    only by less than the float mass tolerance: float mode lost such a mass."""
    try:
        float_basis = solve_primal(convert_instance(inst, "float")).basis
        cold = solve_primal(inst).value
    except InfeasibleFiniteCost:
        return
    m, n = inst.shape
    mu, nu, cost, L, M = scaled_data(inst)
    _, parent, _, _, _, order = tree_potentials(m, n, float_basis, cost, 0)
    try:
        start = primal._tree_masses(m, order, parent, mu, nu, 0, 0)
    except InfeasibleInput:
        primal._tree_masses(m, order, parent, mu, nu, 0, tolerance(FLOAT) * L)
        with pytest.raises(InfeasibleInput, match="negative mass"):
            solve_primal(inst, basis=float_basis)
        return
    with recorded_pivots() as pivots:
        assert solve_primal(inst, basis=float_basis).value == cold
    if pivots:
        assert not any(x and cost[i][j] == INF for (i, j), x in start.items())
        start_cost = F(sum(x * cost[i][j] for (i, j), x in start.items() if x), L * M)
        assert abs(start_cost - cold) <= cost_tolerance(convert_instance(inst, "float").cost)


def test_a_float_answer_checks_out_exactly_on_the_fixtures():
    for family in FIXTURE_NAMES:
        for size in (3, 7, 12):
            assert_the_float_basis_checks_out(generate_fixture(family, size, seed=size))


@settings(max_examples=150, deadline=None)
@given(inst=rational_instances(), exponent=st.integers(-200, 300))
def test_a_float_answer_checks_out_exactly_at_any_cost_scale(inst, exponent):
    # ties, zero masses, mixed and huge denominators and +inf walls, at cost
    # scales from 1e-200 to 1e300
    scale = F(10) ** exponent
    cost = [[c if is_inf(c) else c * scale for c in row] for row in inst.cost.entries.tolist()]
    assert_the_float_basis_checks_out(make_instance(cost, inst.mu.weights, inst.nu.weights))
