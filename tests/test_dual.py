"""Dual extraction, improvement, and the canonical solution shape."""

import re
from fractions import Fraction as F

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from otlab import (
    BadNumber,
    DualPotentials,
    InfeasibleFiniteCost,
    InfeasibleInput,
    InfeasiblePotentials,
    NoFeasibleTreeDual,
    UnboundedTransform,
    as_vector,
    c_transform,
    convert_instance,
    dual_value,
    extract_dual_from_basis,
    improve_dual,
    is_c_concave,
    make_instance,
    northwest_corner,
    oracle_primal,
    product_plan,
    solve_dual,
    solve_primal,
)
from otlab.primal import OptimalPlanResult, _northwest_basis
from otlab.core import INF, TransportPlan, as_matrix, basis_dual, cost_tolerance, is_inf

from conftest import DENOMINATORS, rational_instances, random_rational_instance

HALF = [F(1, 2), F(1, 2)]


def vec(values):
    return as_vector(values, "rational")


def pot(phi, psi):
    return DualPotentials(vec(phi), vec(psi))


def fixture_instance():
    return make_instance([[0, 2], [2, 1]], HALF, HALF)


# --- extract_dual_from_basis ---------------------------------------------------


def hand_result(plan_rows, value, basis):
    return OptimalPlanResult(
        plan=TransportPlan(as_matrix(plan_rows, "rational")),
        value=value,
        basis=tuple(basis),
    )


def test_extract_tight_on_every_basic_cell():
    inst = fixture_instance()
    result = hand_result(
        [[F(1, 2), 0], [0, F(1, 2)]], F(1, 2), [(0, 0), (0, 1), (1, 1)]
    )
    out = extract_dual_from_basis(result, inst.cost)
    # propagation from phi[0] = 0 forces tightness on the completion cell
    assert list(out.phi) == [0, -1]
    assert list(out.psi) == [0, 2]
    assert out.is_feasible_for(inst.cost)
    assert dual_value(out, inst.mu, inst.nu) == F(1, 2)


def test_extract_one_by_one_anchor():
    inst = make_instance([[5]], [1], [1])
    result = hand_result([[1]], 5, [(0, 0)])
    out = extract_dual_from_basis(result, inst.cost)
    assert list(out.phi) == [0]
    assert list(out.psi) == [5]


def test_extract_recovers_separable_structure():
    a = [F(1), F(4)]
    b = [F(0), F(2)]
    inst = make_instance([[ai + bj for bj in b] for ai in a], HALF, HALF)
    res = solve_primal(inst)
    out = extract_dual_from_basis(res, inst.cost)
    shift = out.phi[0] - a[0]
    assert all(out.phi[i] == a[i] + shift for i in range(2))
    assert all(out.psi[j] == b[j] - shift for j in range(2))


def test_extract_from_solver_results(rng):
    for _ in range(30):
        inst = random_rational_instance(rng)
        res = solve_primal(inst)
        out = extract_dual_from_basis(res, inst.cost)
        assert out.is_feasible_for(inst.cost)
        assert dual_value(out, inst.mu, inst.nu) == res.value
        for (i, j) in res.basis:
            assert out.phi[i] + out.psi[j] == inst.cost.entries[i, j]


def test_extract_with_disconnected_basis_offsets():
    # without its zero-mass +inf cell (1, 0) the basis would be two
    # components; the basis keeps it, and the wall potentials lift across it
    inst = make_instance([[0, "inf"], ["inf", 0]], HALF, HALF)
    res = solve_primal(inst)
    assert res.basis == ((0, 0), (1, 0), (1, 1))
    out = extract_dual_from_basis(res, inst.cost)
    assert out.is_feasible_for(inst.cost)
    assert dual_value(out, inst.mu, inst.nu) == 0
    assert out.phi[0] + out.psi[0] == 0 and out.phi[1] + out.psi[1] == 0


def test_extract_with_finite_cross_component_cells():
    inst = make_instance([[0, "inf"], [3, 0]], HALF, HALF)
    res = solve_primal(inst)
    out = extract_dual_from_basis(res, inst.cost)
    assert out.is_feasible_for(inst.cost)
    assert dual_value(out, inst.mu, inst.nu) == res.value
    for (i, j) in res.basis:
        assert out.phi[i] + out.psi[j] == inst.cost.entries[i, j]


def test_extract_lifts_the_wall_potentials_by_t():
    # the walk's potentials leave cell (0, 0) a slack of -23/12 and a wall
    # sum of -1, so the lift along the wall potentials needs t = 23/12
    inst = make_instance(
        [["19/4", "13/3", "15/4"], ["7/3", "inf", "inf"]], HALF, ["1/2", "5/16", "3/16"]
    )
    out = extract_dual_from_basis(solve_primal(inst), inst.cost)
    assert list(out.phi) == [0, F(-29, 12)]
    assert list(out.psi) == [F(19, 4), F(13, 3), F(15, 4)]


def test_extract_under_random_infinite_walls(rng):
    """Random +inf sprinkles: whenever a finite optimum exists, extraction
    must stay tight on the finite basic cells, feasible, and close the gap
    exactly."""
    solved = 0
    attempts = 0
    while solved < 40 and attempts < 400:
        attempts += 1
        inst = random_rational_instance(rng, 2, 4)
        m, n = inst.shape
        rows = [
            [
                "inf" if rng.random() < 0.4 else inst.cost.entries[i, j]
                for j in range(n)
            ]
            for i in range(m)
        ]
        walled = make_instance(rows, list(inst.mu.weights), list(inst.nu.weights))
        try:
            res = solve_primal(walled)
        except InfeasibleFiniteCost:
            continue
        solved += 1
        assert res.value == oracle_walled_value(walled)
        out = extract_dual_from_basis(res, walled.cost)
        assert out.is_feasible_for(walled.cost)
        assert dual_value(out, walled.mu, walled.nu) == res.value
        for (i, j) in res.basis:
            if not is_inf(walled.cost.entries[i, j]):
                assert out.phi[i] + out.psi[j] == walled.cost.entries[i, j]
        canonical = solve_dual(walled, res)
        assert canonical.is_feasible_for(walled.cost)
        assert dual_value(canonical, walled.mu, walled.nu) == res.value
        assert is_c_concave(canonical.phi, walled.cost)
    assert solved >= 20  # enough solvable samples to mean something


@pytest.mark.parametrize("basis, match", [
    ([(0, 0), (1, 1)], "2 basis cells"),  # a forest
    ([(0, 0), (0, 1), (1, 0), (1, 1)], "4 basis cells"),  # a cycle, one cell too many
    ([(0, 0), (0, 0), (1, 1)], r"basis cell \(0, 0\) closes a cycle"),
    ([(0, 0), (0, 1), (5, 0)], r"basis cell \(5, 0\) lies outside the 2 x 2 grid"),
    ([(0, 0), (0, 1), (1, 7)], r"basis cell \(1, 7\) lies outside the 2 x 2 grid"),
    ([(0, 0), (0, 1), (-1, 0)], r"basis cell \(-1, 0\) lies outside the 2 x 2 grid"),
])
def test_extract_refuses_a_basis_that_is_not_a_spanning_tree(basis, match):
    inst = fixture_instance()
    result = OptimalPlanResult(product_plan(inst.mu, inst.nu), F(5, 4), tuple(basis))
    with pytest.raises(InfeasibleInput, match=match):
        extract_dual_from_basis(result, inst.cost)


def test_a_basis_that_is_not_optimal_has_no_feasible_tree_dual():
    """The northwest basis of an anti-diagonal optimum (value 2, optimum 0)
    has tight potentials that violate phi + psi <= c."""
    inst = make_instance([[2, 0], [0, 2]], HALF, HALF)
    basis = sorted(_northwest_basis(inst.mu.weights, inst.nu.weights))
    result = OptimalPlanResult(northwest_corner(inst.mu, inst.nu), F(2), tuple(basis))
    match = "^basis potentials are infeasible; the basis cannot be optimal$"
    with pytest.raises(NoFeasibleTreeDual, match=match):
        extract_dual_from_basis(result, inst.cost)
    with pytest.raises(NoFeasibleTreeDual, match=match):
        solve_dual(inst, result)


@st.composite
def walled_instances(draw):
    """Small rational instances, about 40% of the cells +inf, zero masses
    allowed."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.builds(F, st.integers(-10, 20), st.integers(1, 4))
    cell = st.tuples(st.integers(0, 9), value).map(lambda p: "inf" if p[0] < 4 else p[1])

    def marginal(k):
        raw = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
        return [F(v, sum(raw)) for v in raw]

    rows = [[draw(cell) for _ in range(n)] for _ in range(m)]
    return make_instance(rows, marginal(m), marginal(n))


def _is_spanning_tree(cells, m, n):
    root = list(range(m + n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i, j in cells:
        a, b = find(i), find(m + j)
        if a == b:
            return False
        root[a] = b
    return len(cells) == m + n - 1


@settings(max_examples=150, deadline=None)
@given(inst=walled_instances(), mode=st.sampled_from(["rational", "float"]))
def test_every_walled_basis_is_a_spanning_tree_with_a_tight_dual(inst, mode):
    inst = convert_instance(inst, mode)
    try:
        res = solve_primal(inst)
    except InfeasibleFiniteCost:
        return
    m, n = inst.shape
    assert _is_spanning_tree(res.basis, m, n)
    out = extract_dual_from_basis(res, inst.cost)
    tol = cost_tolerance(inst.cost)
    for i, j in res.basis:
        c = inst.cost.entries[i, j]
        if not is_inf(c):
            assert abs(out.phi[i] + out.psi[j] - c) <= tol
    assert out.is_feasible_for(inst.cost)
    assert abs(dual_value(out, inst.mu, inst.nu) - res.value) <= tol


def test_all_infinite_zero_mass_line_has_no_canonical_dual():
    # the primal problem ignores the massless row and column, but column 1
    # has no finite c-transform value
    inst = make_instance([[0, "inf"], ["inf", "inf"]], [1, 0], [1, 0])
    assert solve_primal(inst).value == 0
    with pytest.raises(UnboundedTransform, match="column 1"):
        solve_dual(inst)


def oracle_walled_value(inst):
    """Independent optimum for instances with +inf cells: enumerate over the
    finite-cost version with walls replaced by a provably-large surcharge,
    then confirm no wall carries mass."""
    from fractions import Fraction
    from otlab import make_instance as mk
    from otlab.core import is_inf

    m, n = inst.shape
    finite = [
        abs(inst.cost.entries[i, j])
        for i in range(m)
        for j in range(n)
        if not is_inf(inst.cost.entries[i, j])
    ]
    big = (max(finite) if finite else Fraction(0)) * 1000 + 1000
    rows = [
        [big if is_inf(inst.cost.entries[i, j]) else inst.cost.entries[i, j]
         for j in range(n)]
        for i in range(m)
    ]
    res = oracle_primal(mk(rows, list(inst.mu.weights), list(inst.nu.weights)))
    assert res.value < big  # otherwise the walled problem was infeasible
    return res.value


def test_extract_anchor_shift_invariance():
    inst = fixture_instance()
    res = solve_primal(inst)
    out = extract_dual_from_basis(res, inst.cost)
    a = F(7, 3)
    moved = pot([v + a for v in out.phi], [v - a for v in out.psi])
    assert moved.is_feasible_for(inst.cost)
    assert dual_value(moved, inst.mu, inst.nu) == dual_value(out, inst.mu, inst.nu)


# --- improve_dual ---------------------------------------------------------------


def test_improve_dual_example():
    inst = fixture_instance()
    improved = improve_dual(pot([-1, -1], [0, 0]), inst.cost)
    assert list(improved.phi) == [0, 0]
    assert list(improved.psi) == [0, 1]
    assert dual_value(improved, inst.mu, inst.nu) == F(1, 2)


def test_improve_dual_monotone(rng):
    for _ in range(25):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        phi = [F(rng.randint(-6, 2), 2) for _ in range(m)]
        psi_tight = c_transform(vec(phi), inst.cost)
        psi = [psi_tight[j] - F(rng.randint(0, 4), 2) for j in range(n)]
        before = pot(phi, psi)
        after = improve_dual(before, inst.cost)
        assert after.is_feasible_for(inst.cost)
        assert dual_value(after, inst.mu, inst.nu) >= dual_value(
            before, inst.mu, inst.nu
        )


def test_improve_dual_idempotent_on_canonical(rng):
    for _ in range(15):
        inst = random_rational_instance(rng)
        phi = vec([F(rng.randint(-4, 4), 2) for _ in range(inst.shape[0])])
        canonical = improve_dual(pot(list(phi), list(c_transform(phi, inst.cost))), inst.cost)
        again = improve_dual(canonical, inst.cost)
        assert list(again.phi) == list(canonical.phi)
        assert list(again.psi) == list(canonical.psi)


def test_improve_dual_constant_cost():
    k = F(5, 2)
    inst = make_instance([[k, k], [k, k]], HALF, HALF)
    out = improve_dual(pot([0, 0], [0, 0]), inst.cost)
    assert dual_value(out, inst.mu, inst.nu) == k


def test_improve_dual_rejects_infeasible():
    inst = fixture_instance()
    with pytest.raises(InfeasiblePotentials):
        improve_dual(pot([1, 1], [1, 1]), inst.cost)


# --- solve_dual -----------------------------------------------------------------


def test_solve_dual_fixture_strong_duality():
    inst = fixture_instance()
    out = solve_dual(inst)
    assert dual_value(out, inst.mu, inst.nu) == F(1, 2)
    assert out.is_feasible_for(inst.cost)


def test_solve_dual_separable():
    a = [F(1), F(4)]
    b = [F(0), F(2)]
    inst = make_instance([[ai + bj for bj in b] for ai in a], HALF, HALF)
    expected = sum(x * w for x, w in zip(a, inst.mu.weights)) + sum(
        y * w for y, w in zip(b, inst.nu.weights)
    )
    assert dual_value(solve_dual(inst), inst.mu, inst.nu) == expected


def test_solve_dual_constant_cost():
    k = F(7)
    inst = make_instance([[k, k], [k, k]], HALF, HALF)
    out = solve_dual(inst)
    assert dual_value(out, inst.mu, inst.nu) == k
    assert all(out.phi[i] + out.psi[j] == k for i in range(2) for j in range(2))


def test_strong_duality_exact_against_oracle(rng):
    for _ in range(40):
        inst = random_rational_instance(rng)
        out = solve_dual(inst)
        assert out.is_feasible_for(inst.cost)
        assert dual_value(out, inst.mu, inst.nu) == oracle_primal(inst).value


def test_solve_dual_reuses_a_given_primal_result(rng, primal_calls):
    for _ in range(5):
        inst = random_rational_instance(rng)
        given = solve_dual(inst, solve_primal(inst))
        del primal_calls[:]
        fresh = solve_dual(inst)
        assert len(primal_calls) == 1
        assert given.phi.tolist() == fresh.phi.tolist()
        assert given.psi.tolist() == fresh.psi.tolist()


def test_solve_dual_solves_only_when_no_result_is_given(primal_calls):
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    result = solve_primal(inst)
    del primal_calls[:]
    solve_dual(inst, result)
    assert primal_calls == []


def test_solve_dual_tests_feasibility_once(rng, feasibility_calls):
    # the extraction tests the pair; the normalization's output is feasible
    # by construction and is not tested again
    for _ in range(10):
        inst = random_rational_instance(rng)
        result = solve_primal(inst)
        del feasibility_calls[:]
        solve_dual(inst, result)
        assert len(feasibility_calls) == 1


def test_solve_dual_canonical_form(rng):
    for _ in range(25):
        inst = random_rational_instance(rng)
        out = solve_dual(inst)
        assert is_c_concave(out.phi, inst.cost)
        transformed = c_transform(out.phi, inst.cost)
        diffs = {transformed[j] - out.psi[j] for j in range(inst.shape[1])}
        assert len(diffs) == 1  # psi* is a constant shift of (phi*)^c


# --- the int path against the Fraction pipeline ------------------------------------


def reference_basis_dual(inst, basis):
    """The basis dual by Fraction arithmetic on the cost's entries: the tree
    walk from row 0, the lift along the +inf wall potentials by the largest
    quotient, and the feasibility test cell by cell; None when infeasible."""
    m, n = inst.shape
    c = inst.cost.entries
    adj = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot, wall, seen, stack = [F(0)] * (m + n), [0] * (m + n), {0}, [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
                i, j = (u, v - m) if u < m else (v, u - m)
                pot[v] = (0 if is_inf(c[i, j]) else c[i, j]) - pot[u]
                wall[v] = is_inf(c[i, j]) - wall[u]
    t = max([F(0)] + [
        (pot[i] + pot[m + j] - c[i, j]) / -(wall[i] + wall[m + j])
        for i in range(m) for j in range(n)
        if not is_inf(c[i, j]) and wall[i] + wall[m + j] < 0
    ])
    pot = [p + t * w for p, w in zip(pot, wall)]
    phi, psi = pot[:m], pot[m:]
    feasible = all(is_inf(c[i, j]) or phi[i] + psi[j] <= c[i, j]
                   for i in range(m) for j in range(n))
    return (phi, psi) if feasible else None


def reference_transform(p, cost, axis):
    """phi^c (axis 0) or psi^cbar (axis 1) by Fraction minima, +inf on an
    all-+inf line."""
    c = cost.entries if axis == 0 else cost.entries.T
    return [min((c[a, b] - p[a] for a in range(c.shape[0]) if not is_inf(c[a, b])), default=INF)
            for b in range(c.shape[1])]


def reference_normalized(phi, cost):
    """(phi^{c cbar} + m, phi^c - m) by Fraction arithmetic, or the text of
    the UnboundedTransform that an all-+inf column, then row, raises."""
    psi = reference_transform(phi, cost, 0)
    phi_cc = reference_transform(psi, cost, 1) if INF not in psi else []
    for line, values in (("column", psi), ("row", phi_cc)):
        if INF in values:
            return f"{line} {values.index(INF)} of the cost is entirely +inf"
    shift = min(psi)
    return [v + shift for v in phi_cc], [v - shift for v in psi]


def assert_pair(out, expected):
    assert (out.phi.tolist(), out.psi.tolist()) == tuple(expected)
    assert {type(v) for v in out.phi.tolist() + out.psi.tolist()} == {F}


@settings(max_examples=300, deadline=None)
@given(inst=rational_instances(anywhere=True), data=st.data())
def test_the_int_dual_matches_the_fraction_pipeline(inst, data):
    # walls, ties, zero masses and denominators past the int64 guard; the
    # solved basis, then pairs a caller builds from Fractions
    try:
        res = solve_primal(inst)
    except InfeasibleFiniteCost:
        return
    raw = extract_dual_from_basis(res, inst.cost)
    assert_pair(raw, reference_basis_dual(inst, res.basis))
    expected = reference_normalized(list(raw.phi), inst.cost)
    if isinstance(expected, str):
        with pytest.raises(UnboundedTransform, match=f"^{re.escape(expected)}$"):
            solve_dual(inst, res)
        return
    assert_pair(solve_dual(inst, res), expected)

    m, n = inst.shape
    value = st.builds(F, st.integers(-60, 60), st.sampled_from(DENOMINATORS))
    phi = data.draw(st.lists(value, min_size=m, max_size=m))
    tight = reference_transform(phi, inst.cost, 0)
    # every column has a finite cell, as the normalization just showed
    psi = [v - data.draw(st.sampled_from([0, 0, F(1, 3), 2**40])) for v in tight]
    assert_pair(improve_dual(pot(phi, psi), inst.cost), reference_normalized(phi, inst.cost))
    j = data.draw(st.integers(0, n - 1))
    psi[j] = tight[j] + F(1, data.draw(st.sampled_from(DENOMINATORS)))
    with pytest.raises(InfeasiblePotentials, match=r"^potentials violate phi \+ psi <= c$"):
        improve_dual(pot(phi, psi), inst.cost)
    floats = DualPotentials(np.array([0.5] * m), np.zeros(n))
    with pytest.raises(BadNumber, match=r"^phi\[0\]: bad number '0\.5' \(non-integral float"):
        improve_dual(floats, inst.cost)


@st.composite
def walled_trees(draw):
    """A rational cost, about half of it +inf, and a random spanning tree of
    its cells: lifts along wall sums below -1 arise, as in no simplex basis
    drawn above."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = st.builds(F, st.integers(-20, 20), st.sampled_from(DENOMINATORS))
    rows = [[draw(st.one_of(value, st.just("inf"))) for _ in range(n)] for _ in range(m)]
    inst = make_instance(rows, [F(1, m)] * m, [F(1, n)] * n)
    joined, cells = [0], []
    waiting = draw(st.permutations(range(1, m + n)))
    while waiting:  # join each node to a joined node of the other side
        v = next(v for v in waiting if any((u < m) != (v < m) for u in joined))
        u = draw(st.sampled_from([u for u in joined if (u < m) != (v < m)]))
        cells.append((min(u, v), max(u, v) - m))
        joined.append(v)
        waiting.remove(v)
    return inst, cells


#: A tree whose lift is t = 3/2 over the wall sum -2 of cell (1, 1): the
#: pair is phi = (0, -1/2, 1/2), psi = (3/2, 1/2, 1), over twice the cost's D.
LIFT_BY_HALVES = (
    make_instance([["inf", 10, 1], [1, 0, 10], ["inf", 1, "inf"]], [F(1, 3)] * 3, [F(1, 3)] * 3),
    [(0, 0), (0, 2), (1, 0), (2, 1), (2, 2)],
)


@settings(max_examples=300, deadline=None)
@given(case=walled_trees())
@example(case=LIFT_BY_HALVES)
def test_a_basis_dual_matches_the_fraction_walk_on_any_tree(case):
    inst, cells = case
    pot = basis_dual(cells, inst.cost)
    expected = reference_basis_dual(inst, cells)
    if expected is None:
        assert pot is None
    else:
        assert_pair(pot, expected)
