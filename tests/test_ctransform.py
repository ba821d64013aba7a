"""Transform calculus: definitions, bound boxes, Lipschitz laws."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otlab import (
    BadNumber,
    DualPotentials,
    UnboundedTransform,
    as_vector,
    c_transform,
    cbar_transform,
    induced_pseudometric,
    is_c_concave,
    make_instance,
    normalize_pair,
)
from otlab.ctransform import OVER_X, OVER_Y

from conftest import random_potential, random_rational_instance

HALF = [F(1, 2), F(1, 2)]


def fixture_cost():
    return make_instance([[0, 2], [2, 1]], HALF, HALF).cost


def vec(values):
    return as_vector(values, "rational")


# --- definitions -------------------------------------------------------------


def test_c_transform_fixture():
    assert list(c_transform(vec([0, 0]), fixture_cost())) == [0, 1]


def test_c_transform_single_row_is_cost_row():
    cost = make_instance([[5, 7]], [1], HALF).cost
    assert list(c_transform(vec([0]), cost)) == [5, 7]


def test_cbar_transform_fixture():
    assert list(cbar_transform(vec([0, 1]), fixture_cost())) == [0, 0]


def test_cbar_transform_single_column():
    cost = make_instance([[4], [6]], HALF, [1]).cost
    assert list(cbar_transform(vec([1]), cost)) == [3, 5]


@given(
    a=st.fractions(min_value=-6, max_value=6, max_denominator=8),
    phi=st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=8),
                 min_size=2, max_size=2),
)
def test_shift_equivariance(a, phi):
    cost = fixture_cost()
    base = c_transform(vec(phi), cost)
    moved = c_transform(vec([p + a for p in phi]), cost)
    assert all(moved[j] == base[j] - a for j in range(2))


def test_witness_is_smallest_minimizer():
    cost = make_instance([[1, 3], [1, 0]], HALF, HALF).cost
    values = c_transform(vec([0, 0]), cost)
    assert list(values) == [1, 0]


# --- normalize_pair ----------------------------------------------------------


def test_normalize_pair_fixture():
    pot = normalize_pair(vec([0, 0]), fixture_cost())
    assert list(pot.phi) == [0, 0]
    assert list(pot.psi) == [0, 1]


def test_normalize_pair_kills_constant_shifts():
    cost = fixture_cost()
    base = normalize_pair(vec([0, 0]), cost)
    moved = normalize_pair(vec([F(7, 2), F(7, 2)]), cost)
    assert list(base.phi) == list(moved.phi)
    assert list(base.psi) == list(moved.psi)


def test_normalize_pair_dominates_input_pair(rng):
    for _ in range(20):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        phi = vec(random_potential(rng, m))
        psi = c_transform(phi, inst.cost)
        out = normalize_pair(phi, inst.cost)
        assert out.is_feasible_for(inst.cost)
        for i in range(m):
            for j in range(n):
                assert out.phi[i] + out.psi[j] >= phi[i] + psi[j]


def test_normalize_pair_bound_boxes(rng):
    # ||c|| = 1 fixtures: psi' in [0, 2], phi' in [-3, 1]
    for _ in range(30):
        cost = make_instance(
            [[F(rng.randint(-4, 4), 4) for _ in range(5)] for _ in range(5)],
            [F(1, 5)] * 5,
            [F(1, 5)] * 5,
        ).cost
        assert cost.sup_norm() <= 1
        pot = normalize_pair(vec(random_potential(rng, 5)), cost)
        assert all(0 <= v <= 2 for v in pot.psi)
        assert all(-3 <= v <= 1 for v in pot.phi)


def test_unbounded_cost_normalizes():
    # +inf cells are skipped by both transforms: the pair is feasible,
    # canonical and c-concave, with no bound-box claim
    cost = make_instance([[0, "inf"], [1, 2]], HALF, HALF).cost
    pair = normalize_pair(vec([0, 0]), cost)
    assert (list(pair.phi), list(pair.psi)) == ([0, 0], [0, 2])
    assert pair.is_feasible_for(cost)
    assert is_c_concave(pair.phi, cost)
    assert list(c_transform(pair.phi, cost)) == list(pair.psi)


def test_float_potential_on_a_rational_cost_is_a_bad_number():
    # a float inside the rational min-plus product would read as +inf
    cost = fixture_cost()
    for transform in (c_transform, cbar_transform, normalize_pair, is_c_concave):
        with pytest.raises(BadNumber, match=r"\[0\]: bad number '0.5'"):
            transform([0.5, 0], cost)
    with pytest.raises(BadNumber, match=r"phi\[0\]: bad number '0.5'"):
        DualPotentials(np.array([0.5, 0.0]), np.array([0.0, 0.0])).is_feasible_for(cost)
    with pytest.raises(BadNumber, match=r"^psi\[0\]: bad number '-0.5'"):
        DualPotentials(np.array([0.0, 0.0]), np.array([-0.5, -0.5])).is_feasible_for(cost)
    # integral floats read as the Fractions they equal
    assert list(c_transform([0.0, 1.0], cost)) == [0, 0]
    assert type(c_transform([0.0, 1.0], cost)[0]) is F


def test_all_inf_column_rejected():
    cost = make_instance([["inf", 0], ["inf", 1]], HALF, HALF).cost
    with pytest.raises(UnboundedTransform):
        c_transform(vec([0, 0]), cost)
    # rows keep a finite entry, so the mirror transform still works
    assert list(cbar_transform(vec([0, 0]), cost)) == [0, 1]


# --- induced pseudometrics and the 1-Lipschitz law ---------------------------


def test_induced_pseudometric_fixture():
    d_y = induced_pseudometric(fixture_cost(), OVER_Y)
    d_x = induced_pseudometric(fixture_cost(), OVER_X)
    assert d_y[0, 1] == 2
    assert d_x[0, 1] == 2


def test_separable_cost_pseudometric():
    a = [F(1), F(3)]
    b = [F(0), F(5, 2), F(4)]
    cost = make_instance(
        [[ai + bj for bj in b] for ai in a], HALF, [F(1, 3)] * 3
    ).cost
    d_y = induced_pseudometric(cost, OVER_Y)
    for j in range(3):
        for l in range(3):
            assert d_y[j, l] == abs(b[j] - b[l])


def test_constant_cost_zero_pseudometric():
    cost = make_instance([[3, 3], [3, 3]], HALF, HALF).cost
    d = induced_pseudometric(cost, OVER_Y)
    assert all(d[i, j] == 0 for i in range(2) for j in range(2))


def test_one_lipschitz_law(rng):
    for _ in range(30):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        phi = vec(random_potential(rng, m))
        psi = c_transform(phi, inst.cost)
        phi_cc = cbar_transform(psi, inst.cost)
        d_y = induced_pseudometric(inst.cost, OVER_Y)
        d_x = induced_pseudometric(inst.cost, OVER_X)
        for j in range(n):
            for l in range(n):
                assert abs(psi[j] - psi[l]) <= d_y[j, l]
        for i in range(m):
            for k in range(m):
                assert abs(phi_cc[i] - phi_cc[k]) <= d_x[i, k]


# --- domination, idempotence, c-concavity ------------------------------------


def test_domination_and_triple_collapse(rng):
    for _ in range(30):
        inst = random_rational_instance(rng)
        m = inst.shape[0]
        phi = vec(random_potential(rng, m))
        psi = c_transform(phi, inst.cost)
        phi_cc = cbar_transform(psi, inst.cost)
        assert all(phi_cc[i] >= phi[i] for i in range(m))
        # triple transform collapses exactly
        assert list(c_transform(phi_cc, inst.cost)) == list(psi)


def test_feasibility_of_transform_pairs(rng):
    for _ in range(20):
        inst = random_rational_instance(rng)
        m = inst.shape[0]
        phi = vec(random_potential(rng, m))
        psi = c_transform(phi, inst.cost)
        phi_cc = cbar_transform(psi, inst.cost)
        assert DualPotentials(phi, psi).is_feasible_for(inst.cost)
        assert DualPotentials(phi_cc, psi).is_feasible_for(inst.cost)


def test_monotone_antitone_law(rng):
    for _ in range(20):
        inst = random_rational_instance(rng)
        m, n = inst.shape
        low = random_potential(rng, m)
        high = [v + F(rng.randint(0, 3), 2) for v in low]
        t_low = c_transform(vec(low), inst.cost)
        t_high = c_transform(vec(high), inst.cost)
        assert all(t_low[j] >= t_high[j] for j in range(n))


def test_is_c_concave_fixture():
    cost = fixture_cost()
    assert is_c_concave(vec([0, 0]), cost)
    # constant shifts stay c-concave (the transform is shift-equivariant)
    assert is_c_concave(vec([-10, -10]), cost)
    # a genuinely dominated potential is lifted by the double transform
    assert not is_c_concave(vec([0, -10]), cost)


def test_c_transform_images_are_concave(rng):
    # psi^{cbar c} = psi for psi in the image of the c-transform
    for _ in range(20):
        inst = random_rational_instance(rng)
        phi = vec(random_potential(rng, inst.shape[0]))
        psi = c_transform(phi, inst.cost)
        back = c_transform(cbar_transform(psi, inst.cost), inst.cost)
        assert list(back) == list(psi)
