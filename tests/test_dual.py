"""Dual extraction, improvement, and the canonical solution shape."""

from fractions import Fraction as F

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from otlab import (
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
from otlab.core import TransportPlan, as_matrix, cost_tolerance, is_inf

from conftest import random_rational_instance

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
