"""Domain types, validation, and the elementary value functionals."""

import dataclasses
import inspect
import math
import re
from fractions import Fraction as F
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlab import (
    BadNumber,
    DimensionMismatch,
    DualPotentials,
    InfeasibleInput,
    Marginal,
    MassNotOne,
    MetricViolation,
    NegativeMass,
    TransportPlan,
    as_vector,
    check_marginals,
    dual_value,
    make_instance,
    plan_cost,
    product_plan,
)
import otlab
from otlab.core import (
    FLOAT_REL,
    INF,
    CostMatrix,
    FiniteSpace,
    Instance,
    _law_array,
    as_matrix,
    convert_instance,
    cost_tolerance,
    int_dtype,
    is_inf,
    metric_violation,
    min_plus,
    to_number,
    tree_potentials,
)

HALF = [F(1, 2), F(1, 2)]


# --- validation --------------------------------------------------------------


def test_accepts_clean_instance():
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    assert inst.mode == "rational"
    assert inst.shape == (2, 2)


def test_instance_checks_its_parts_at_construction():
    inst = make_instance([[0, 1, 2], [1, 0, 2]], HALF, [F(1, 3)] * 3)
    assert [f.name for f in dataclasses.fields(Instance)] == [
        "space_x", "space_y", "cost", "mu", "nu"
    ]
    parts = dict(space_x=inst.space_x, space_y=inst.space_y, cost=inst.cost,
                 mu=inst.mu, nu=inst.nu)
    with pytest.raises(DimensionMismatch, match=r"^cost shape \(2, 2\) vs spaces \(2, 3\)"):
        Instance(**dict(parts, cost=CostMatrix(as_matrix([[0, 1], [1, 0]], "rational"))))
    with pytest.raises(DimensionMismatch, match=r"^mu has 3 entries, X has 2"):
        Instance(**dict(parts, mu=inst.nu))
    with pytest.raises(DimensionMismatch, match=r"^nu has 2 entries, Y has 3"):
        Instance(**dict(parts, nu=inst.mu))
    float_cost = CostMatrix(as_matrix(inst.cost.entries, "float"))
    with pytest.raises(ValueError, match=r"does not match mode 'float'"):
        Instance(**dict(parts, cost=float_cost))
    assert convert_instance(inst, "float").mode == "float"


def test_directly_built_masses_reject_nan():
    nan = float("nan")
    with pytest.raises(NegativeMass):
        Marginal(np.array([nan, 1.0]))
    with pytest.raises(NegativeMass):
        TransportPlan(np.array([[nan, 0.0], [0.0, 1.0]]))


def test_mass_not_one():
    with pytest.raises(MassNotOne):
        make_instance([[0, 1], [1, 0]], [F(3, 5), F(3, 5)], HALF)


def test_negative_mass():
    with pytest.raises(NegativeMass):
        make_instance([[0, 1], [1, 0]], [F(3, 2), F(-1, 2)], HALF)


def test_metric_violation_names_the_triple():
    bad = [[0, 5, 10], [5, 0, 1], [10, 1, 0]]
    with pytest.raises(MetricViolation) as err:
        make_instance(
            [[0, 1, 2]] * 3, [F(1, 3)] * 3, [F(1, 3)] * 3, metric_x=bad
        )
    assert "(0, 1, 2)" in str(err.value) or "(2, 1, 0)" in str(err.value)


def reference_metric_violation(d):
    """The validator's loops as written on the raw entries, for comparison;
    a float triangle allows 1e-9 times the largest finite entry."""
    k = d.shape[0]
    finite = [abs(v) for v in d.flat if v == v and not is_inf(v)]
    tol = FLOAT_REL * max(finite, default=0) if d.dtype == np.float64 else 0
    for i in range(k):
        if d[i, i] != 0:
            return "diagonal", (i,)
        for j in range(k):
            if d[i, j] < 0:
                return "negative", (i, j)
            if d[i, j] != d[j, i]:
                return "asymmetry", (i, j)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if d[i, j] > d[i, l] + d[l, j] + tol:
                    return "triangle", (i, l, j)
    return None


@pytest.mark.parametrize("rows, expected", [
    ([[1, -1], [-1, 0]], ("diagonal", (0,))),  # the diagonal before the row's cells
    ([[0, -1], [2, 0]], ("negative", (0, 1))),  # the sign before symmetry in one cell
    ([[0, 1], [2, -1]], ("asymmetry", (0, 1))),  # row 0 before row 1's diagonal
    ([[0, "inf"], [1, 0]], ("asymmetry", (0, 1))),
    ([[0, 3, 1, 1], [3, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], ("triangle", (0, 2, 1))),
    ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], ("triangle", (0, 1, 2))),
    ([[0, "inf", 1], ["inf", 0, 1], [1, 1, 0]], ("triangle", (0, 2, 1))),
])
def test_metric_violation_reports_the_first_cell_of_the_scan(rows, expected):
    for mode in ("rational", "float"):
        d = as_matrix(rows, mode)
        assert metric_violation(d) == reference_metric_violation(d) == expected


def test_a_float_line_metric_passes_the_triangle_at_the_tolerance():
    # the points 0, 0.7 and 0.8 on a line: 0.7 + 0.1 rounds below 0.8
    line = [[0, 0.7, 0.8], [0.7, 0, 0.1], [0.8, 0.1, 0]]
    assert 0.7 + 0.1 < 0.8
    d = as_matrix(line, "float")
    assert metric_violation(d) is None
    make_instance([[0, 1, 2]] * 3, [1 / 3] * 3, [1 / 3] * 3, mode="float", metric_x=line)


@pytest.mark.parametrize("excess, expected", [
    (1e-9, None),  # within 1e-9 * 2
    (5e-9, ("triangle", (0, 1, 2))),
])
def test_a_float_triangle_breach_above_the_tolerance_is_refused(excess, expected):
    d = as_matrix([[0, 1, 2 + excess], [1, 0, 1], [2 + excess, 1, 0]], "float")
    assert metric_violation(d) == reference_metric_violation(d) == expected


def test_a_bad_instance_metric_names_its_field():
    bad = [[0, 5, 10], [5, 0, 1], [10, 1, 0]]
    with pytest.raises(MetricViolation) as err:
        make_instance([[0, 1, 2]] * 2, HALF, [F(1, 3)] * 3, metric_y=bad)
    assert str(err.value) == "Y.metric is not a pseudometric: triangle at (0, 1, 2)"
    with pytest.raises(MetricViolation) as err:
        make_instance([[0, 1], [1, 0]], HALF, HALF, labels_x=("a", "a"))
    assert str(err.value) == "X.labels must be distinct"


def test_a_space_of_the_wrong_shape_names_its_field():
    line = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(DimensionMismatch) as err:
        make_instance([[0, 1]] * 2, HALF, HALF, metric_y=line)
    assert str(err.value) == "Y.metric shape (3, 3) does not match 2 labels"
    with pytest.raises(DimensionMismatch) as err:
        make_instance([[0, 1]] * 2, HALF, HALF, labels_x=[])
    assert str(err.value) == "X.labels must name at least one point"


@pytest.mark.parametrize("cost, message", [
    ({"7": 0}, "cost: expected a list, got {'7': 0}"),
    (5, "cost: expected a list, got 5"),
    ([5], "cost[0]: expected a list, got 5"),
])
def test_a_malformed_cost_is_a_bad_number_before_the_default_labels(cost, message):
    with pytest.raises(BadNumber) as err:
        make_instance(cost, [1], [1])
    assert str(err.value) == message


def test_ragged_rows_name_the_field():
    with pytest.raises(DimensionMismatch, match=r"^cost: rows have unequal lengths$"):
        make_instance([[0, 1], [1]], HALF, HALF)


#: The largest finite entry whose +inf stand-in keeps the law array in int64
#: (``2 * (2 * big + 1) < 2**63``); one more goes to Python ints.
INT64_EDGE = 2**61 - 1


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_metric_violation_matches_entrywise_reference(data):
    k = data.draw(st.integers(1, 8))
    edge = st.builds(lambda d, q: F(INT64_EDGE + d, q),
                     st.integers(-2, 2), st.sampled_from([1, 1, 3]))
    entry = st.one_of(
        st.fractions(min_value=-1, max_value=12, max_denominator=10**12),
        st.just("inf"),
        st.sampled_from([F(-1, 2), F(0)]),
        edge,
    )
    rows = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = data.draw(entry)
    if data.draw(st.booleans()):  # break symmetry or the diagonal
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        rows[i][j] = data.draw(entry)
    for mode in ("rational", "float"):
        d = as_matrix(rows, mode)
        assert metric_violation(d) == reference_metric_violation(d)


@pytest.mark.parametrize("big, dtype", [(INT64_EDGE, np.int64), (INT64_EDGE + 1, object)])
def test_metric_law_array_switches_dtype_at_the_int64_guard(big, dtype):
    # +inf stands in as 2 * big + 1: an overflowing sum of two of them would
    # make d(0, 1) look longer than the path through x2
    assert int_dtype(2 * big + 1) == dtype
    rows = [[0, big, "inf"], [big, 0, "inf"], ["inf", "inf", 0]]
    d = as_matrix(rows, "rational")
    assert _law_array(d).dtype == dtype
    assert metric_violation(d) is None
    bad = as_matrix([[0, big, 1, "inf"], [big, 0, 1, "inf"], [1, 1, 0, "inf"],
                     ["inf", "inf", "inf", 0]], "rational")
    assert _law_array(bad).dtype == dtype
    assert metric_violation(bad) == reference_metric_violation(bad) == ("triangle", (0, 2, 1))


def test_metric_violation_finds_a_late_row_across_triangle_blocks():
    # 130 points pass the triangle test one row per block; 10 > 2 + 7 first at l = 118
    k = 130
    rows = [[abs(i - j) for j in range(k)] for i in range(k)]
    rows[120][125] = rows[125][120] = 10
    for mode in ("rational", "float"):
        assert metric_violation(as_matrix(rows, mode)) == ("triangle", (120, 118, 125))


def test_metric_violation_names_the_cell_beyond_the_float_range():
    # the entrywise scan adds 10**400 to +inf, which does not fit a float
    d = as_matrix([[0, 1, "inf"], [1, 0, 10**400], ["inf", 10**400, 0]], "rational")
    assert metric_violation(d) == ("triangle", (0, 1, 2))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_float_metric_with_nan_matches_the_reference(data):
    k = data.draw(st.integers(1, 8))
    cell = st.sampled_from([0.0, 0.5, 1.0, 2.0, float("inf"), float("nan")])
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d[i, j] = d[j, i] = data.draw(cell)
    for _ in range(data.draw(st.integers(0, 2))):
        d[data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))] = data.draw(cell)
    expected = reference_metric_violation(d)
    assert metric_violation(d) == expected
    labels = [f"x{i}" for i in range(k)]
    if expected is None:
        FiniteSpace(labels, d)
    else:
        with pytest.raises(MetricViolation):
            FiniteSpace(labels, d)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_instance([[0, 1], [1, 0]], [F(1, 3), F(1, 3), F(1, 3)], HALF)


def test_duplicate_labels_rejected():
    with pytest.raises(MetricViolation):
        make_instance([[0, 1], [1, 0]], HALF, HALF, labels_x=("a", "a"))


def test_float_mode_tolerates_rounding():
    inst = make_instance([[0.0, 1.0]], [1.0], [0.3, 0.7], mode="float")
    assert inst.mode == "float"
    with pytest.raises(MassNotOne):
        make_instance([[0.0, 1.0]], [1.0], [0.3, 0.6], mode="float")


@pytest.mark.parametrize("token, mode", [
    ("1/0", "rational"),
    ("1/0", "float"),
    ("1e400", "float"),
    (F(10**400), "float"),
    ("abc", "rational"),
    (None, "float"),
    (float("nan"), "float"),
    (float("-inf"), "rational"),
    (float("nan"), "rational"),
    pytest.param("nan", "rational", id="str-nan-rational"),
    pytest.param("NaN", "float", id="str-NaN-float"),
    pytest.param("-inf", "rational", id="str-inf-rational"),
    pytest.param("-Infinity", "float", id="str-Infinity-float"),
])
def test_to_number_rejects_a_bad_token_by_name(token, mode):
    with pytest.raises(ValueError, match=r"^bad number '") as exc:
        to_number(token, mode)
    # a string NaN or -inf gets the reason of the float it spells, in both modes
    reason = {"nan": "not a number", "NaN": "not a number",
              "-inf": "negative infinity", "-Infinity": "negative infinity"}.get(str(token))
    if reason:
        assert str(exc.value) == f"bad number {str(token)!r} ({reason})"


def test_to_number_refuses_a_bool():
    for mode in ("rational", "float"):
        with pytest.raises(ValueError, match=r"^bad number 'True' \(not a number\)$"):
            to_number(True, mode)
    with pytest.raises(BadNumber, match=r"^cost\[0\]\[0\]: bad number 'True' \(not a number\)$"):
        make_instance([[True]], [1], [1])


@pytest.mark.parametrize("cost, mu, where", [
    ("7", [1], "cost"),
    (["7"], [1], r"cost\[0\]"),
    ([[7]], "1", "mu"),
])
def test_a_string_is_not_a_list_of_numbers(cost, mu, where):
    with pytest.raises(BadNumber, match=rf"^{where}: expected a list, got the string '"):
        make_instance(cost, mu, [1])


@pytest.mark.parametrize("read, values, message", [
    (as_vector, {"1": 0}, "mu: expected a list, got {'1': 0}"),
    (as_vector, 1, "mu: expected a list, got 1"),
    (as_vector, None, "mu: expected a list, got None"),
    (as_vector, True, "mu: expected a list, got True"),
    (as_matrix, {"7": 0}, "mu: expected a list, got {'7': 0}"),
    (as_matrix, [7], "mu[0]: expected a list, got 7"),
    (as_matrix, [{"7": 0}], "mu[0]: expected a list, got {'7': 0}"),
])
def test_a_mapping_or_scalar_is_not_a_list_of_numbers(read, values, message):
    for mode in ("rational", "float"):
        with pytest.raises(BadNumber) as err:
            read(values, mode, "mu")
        assert str(err.value) == message


def test_bad_entry_error_names_the_field_and_cell():
    from otlab import BadNumber

    with pytest.raises(BadNumber, match=r"^mu\[1\]: bad number '1/0'"):
        make_instance([[0, 1], [1, 0]], [1, "1/0"], HALF)
    inst = make_instance([[0, "1e400"], [1, 0]], HALF, HALF)
    with pytest.raises(BadNumber, match=r"^cost\[0\]\[1\]: bad number '1000"):
        convert_instance(inst, "float")


def test_float_to_rational_conversion_takes_integral_floats_only():
    fractional = make_instance([[0.0, 3.75], [2.0, 0.0]], [1.0, 0.0], [0.0, 1.0], mode="float")
    with pytest.raises(BadNumber, match=r"^cost\[0\]\[1\]: bad number '3.75' \(non-integral"):
        convert_instance(fractional, "rational")
    whole = make_instance([[0.0, 3.0], [2.0, INF]], [1.0, 0.0], [0.0, 1.0], mode="float")
    exact = convert_instance(whole, "rational")
    assert exact.cost.entries.tolist() == [[0, 3], [2, INF]]
    assert type(exact.cost.entries[0, 1]) is F and exact.mu.weights.tolist() == [1, 0]


_REFERENCE_FLOAT_WORDS = {"inf", "+inf", "Infinity", "-inf", "-Infinity", "nan", "NaN"}


def reference_to_number(x, mode):
    """``to_number`` before its int fast path: every string token through
    ``Fraction(str)`` (or ``float`` for the float words), every value copied
    into the mode's type. The reference for the token grammar."""
    try:
        value = x
        if isinstance(x, str):
            value = float(x) if x.strip() in _REFERENCE_FLOAT_WORDS else F(x)
        if is_inf(value):
            if value < 0:
                raise ValueError("negative infinity")
            return INF
        if isinstance(value, float) and math.isnan(value):
            raise ValueError("not a number")
        if mode == "rational":
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(
                    "non-integral float in rational mode; pass a Fraction or 'p/q' string"
                )
            return F(value)
        if mode == "float":
            return float(value)
    except (ArithmeticError, TypeError, ValueError) as exc:
        reason = {ZeroDivisionError: "zero denominator",
                  OverflowError: "beyond the float range"}.get(type(exc), exc)
        raise ValueError(f"bad number {str(x)!r} ({reason})") from None
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def _outcome(read, token, mode):
    try:
        value = read(token, mode)
    except ValueError as exc:
        return "error", str(exc)
    return "value", type(value), value


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c",
                          "\xa0", "\u2003", "\u3000", "\x1c"])
_DIGITS = st.one_of(
    st.text("0123456789", min_size=1, max_size=6),
    st.sampled_from(["0", "00", "007", "10", "1_000", "1__0", "_1", "1_", "\u0663",
                     "1\u0662", "\uff11", "\u00b2", "9" * 5000]),
)


@st.composite
def number_tokens(draw):
    """Strings near the ``[+-]p[/q]`` grammar: signs, ASCII and Unicode
    whitespace, underscores, non-ASCII digits, leading zeros, zero and
    signed denominators, decimals, exponents, a 5,000-digit run, and the
    float words."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(sorted(_REFERENCE_FLOAT_WORDS) + [
            " inf ", "INF", "infinity", "+Infinity", "-nan", "nan ", "/0", "", " ", "/", "-", "+"]))
    sign = draw(st.sampled_from(["", "", "+", "-", "--", "+-", " -"]))
    num = draw(st.one_of(_DIGITS, st.just("")))
    tail = draw(st.sampled_from(["", "", "slash", "decimal", "exponent"]))
    if tail == "slash":
        gap = draw(st.sampled_from(["", "", " ", "\t"]))
        den = draw(st.one_of(_DIGITS, st.sampled_from(["0", "000", "-4", "+4", "", "4.0", "4/2"])))
        tail = draw(st.sampled_from(["/", gap + "/", "/" + gap])) + den
    elif tail == "decimal":
        tail = "." + draw(st.sampled_from(["", "5", "25", "0_5"]))
    elif tail == "exponent":
        tail = draw(st.sampled_from(["e", "E", "e+", "e-"])) + draw(st.sampled_from(["3", "40", "_1", ""]))
    return draw(_SPACE) + sign + num + tail + draw(_SPACE)


@settings(max_examples=600, deadline=None)
@given(token=number_tokens())
def test_to_number_reads_tokens_like_fraction(token):
    for mode in ("rational", "float"):
        assert _outcome(to_number, token, mode) == _outcome(reference_to_number, token, mode)


@pytest.mark.parametrize("token", [
    "3/4", "-6/8", "+0007/0010", " 12 ", "\t-5\n", "3/-4", "3/ 4", "1/0", "1/000", "\u0663/4",
    "\xa03/4", "1_0/3", "1.5", "1e3", "-inf", "nan",
    pytest.param("9" * 5000, id="5000-digit-numerator"),
    pytest.param("1/" + "9" * 5000, id="5000-digit-denominator"),
])
def test_to_number_reads_the_fast_path_edges_like_fraction(token):
    for mode in ("rational", "float"):
        assert _outcome(to_number, token, mode) == _outcome(reference_to_number, token, mode)


def test_to_number_returns_a_number_of_the_mode_as_it_is():
    half, quarter = F(1, 2), 0.25
    assert to_number(half, "rational") is half
    assert to_number(quarter, "float") is quarter
    assert to_number(F(3, 1), "float") == 3.0 and to_number(3.0, "rational") == F(3)


def test_rational_mode_rejects_nonintegral_floats():
    with pytest.raises(ValueError):
        as_vector([0.25], "rational")


def test_bounded_mode_rejects_infinite_cost():
    assert not make_instance([[0, "inf"], [1, 0]], HALF, HALF).cost.is_bounded
    assert make_instance([[0, 1], [1, 0]], HALF, HALF).cost.is_bounded


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_every_entry_point_words_a_required_bound_alike(mode):
    inst = convert_instance(make_instance([[0, "inf"], [1, 0]], HALF, HALF), mode)
    d = np.zeros((2, 2))
    for what, call in (("the sup norm", inst.cost.sup_norm),
                       ("the induced pseudometric",
                        lambda: otlab.induced_pseudometric(inst.cost, otlab.OVER_X)),
                       ("the saturation index", lambda: otlab.saturation_index(inst.cost, d, d)),
                       ("the oracle", lambda: otlab.oracle_primal(inst))):
        with pytest.raises(otlab.InfiniteCostInBoundedMode, match=f"^{what} requires a bounded cost$"):
            call()


# --- plan_cost ---------------------------------------------------------------


def test_plan_cost_single_cell():
    plan = TransportPlan(as_matrix([[1]], "rational"))
    cost = make_instance([[5]], [1], [1]).cost
    assert plan_cost(plan, cost) == 5


def test_plan_cost_diagonal():
    plan = TransportPlan(as_matrix([[F(1, 2), 0], [0, F(1, 2)]], "rational"))
    cost = make_instance([[0, 1], [1, 0]], HALF, HALF).cost
    assert plan_cost(plan, cost) == 0


def test_plan_cost_fixture_value():
    # direct arithmetic; the oracle confirms this is optimal in test_oracle
    plan = TransportPlan(as_matrix([[F(1, 2), 0], [0, F(1, 2)]], "rational"))
    cost = make_instance([[0, 2], [2, 1]], HALF, HALF).cost
    assert plan_cost(plan, cost) == F(1, 2)


def test_plan_cost_zero_times_inf_is_zero():
    cost = make_instance([[0, "inf"], [1, 0]], HALF, HALF).cost
    free = TransportPlan(as_matrix([[F(1, 2), 0], [0, F(1, 2)]], "rational"))
    assert plan_cost(free, cost) == 0
    loaded = TransportPlan(as_matrix([[0, F(1, 2)], [F(1, 2), 0]], "rational"))
    assert plan_cost(loaded, cost) == INF


def test_plan_cost_dimension_mismatch():
    plan = TransportPlan(as_matrix([[1]], "rational"))
    cost = make_instance([[0, 1], [1, 0]], HALF, HALF).cost
    with pytest.raises(DimensionMismatch):
        plan_cost(plan, cost)


# --- dual_value --------------------------------------------------------------


def test_dual_value_examples():
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    pot = DualPotentials(as_vector([0, 0], "rational"), as_vector([0, 1], "rational"))
    assert dual_value(pot, inst.mu, inst.nu) == F(1, 2)
    zero = DualPotentials(as_vector([0, 0], "rational"), as_vector([0, 0], "rational"))
    assert dual_value(zero, inst.mu, inst.nu) == 0
    shifted = DualPotentials(as_vector([1, 1], "rational"), as_vector([-1, -1], "rational"))
    assert dual_value(shifted, inst.mu, inst.nu) == 0


@given(
    a=st.fractions(min_value=-5, max_value=5, max_denominator=8),
    phi=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=8), min_size=2, max_size=2),
    psi=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=8), min_size=2, max_size=2),
)
def test_dual_value_shift_invariant(a, phi, psi):
    mu = Marginal(as_vector(HALF, "rational"))
    nu = Marginal(as_vector([F(3, 10), F(7, 10)], "rational"))
    base = DualPotentials(as_vector(phi, "rational"), as_vector(psi, "rational"))
    moved = DualPotentials(
        as_vector([p + a for p in phi], "rational"),
        as_vector([q - a for q in psi], "rational"),
    )
    assert dual_value(base, mu, nu) == dual_value(moved, mu, nu)


# --- product_plan ------------------------------------------------------------


def test_product_plan_outer():
    mu = Marginal(as_vector(HALF, "rational"))
    nu = Marginal(as_vector([F(3, 10), F(7, 10)], "rational"))
    plan = product_plan(mu, nu)
    assert plan.entries.tolist() == [
        [F(3, 20), F(7, 20)],
        [F(3, 20), F(7, 20)],
    ]
    assert check_marginals(plan, mu, nu).passed


def test_product_plan_single_point():
    mu = Marginal(as_vector([1], "rational"))
    plan = product_plan(mu, mu)
    assert plan.entries.tolist() == [[1]]


@settings(max_examples=50)
@given(data=st.data())
def test_product_plan_marginals_exact(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    mu_raw = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    nu_raw = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    mu = Marginal(as_vector([F(v, sum(mu_raw)) for v in mu_raw], "rational"))
    nu = Marginal(as_vector([F(v, sum(nu_raw)) for v in nu_raw], "rational"))
    assert check_marginals(product_plan(mu, nu), mu, nu).passed


# --- weak duality and linearity ---------------------------------------------


@settings(max_examples=60)
@given(data=st.data())
def test_weak_duality_exact(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    frac = st.fractions(min_value=0, max_value=8, max_denominator=4)
    cost_rows = data.draw(
        st.lists(st.lists(frac, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    mu_raw = data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    nu_raw = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    inst = make_instance(
        cost_rows,
        [F(v, sum(mu_raw)) for v in mu_raw],
        [F(v, sum(nu_raw)) for v in nu_raw],
    )
    phi = data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                             min_size=m, max_size=m))
    # tightest feasible partner for phi
    psi = [min(inst.cost.entries[i, j] - phi[i] for i in range(m)) for j in range(n)]
    pot = DualPotentials(as_vector(phi, "rational"), as_vector(psi, "rational"))
    assert pot.is_feasible_for(inst.cost)
    plan = product_plan(inst.mu, inst.nu)
    assert dual_value(pot, inst.mu, inst.nu) <= plan_cost(plan, inst.cost)


def test_plan_cost_linear_in_plan():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    p1 = product_plan(inst.mu, inst.nu)
    p2 = TransportPlan(as_matrix([[F(1, 2), 0], [0, F(1, 2)]], "rational"))
    lam = F(1, 3)
    mixed = TransportPlan(
        as_matrix(
            [
                [lam * p1.entries[i, j] + (1 - lam) * p2.entries[i, j] for j in range(2)]
                for i in range(2)
            ],
            "rational",
        )
    )
    assert plan_cost(mixed, inst.cost) == lam * plan_cost(p1, inst.cost) + (
        1 - lam
    ) * plan_cost(p2, inst.cost)


# --- min-plus product and dual feasibility ----------------------------------


def reference_min_plus(a, b):
    """The min-plus product of nested lists, one Python addition per entry:
    the reference for the numpy (float) and scaled-int (rational) sums of
    ``core.min_plus``."""
    cols = list(zip(*b))
    return [[min(map(add, row, col)) for col in cols] for row in a]


def test_min_plus_takes_the_smallest_witness_and_keeps_inf_lines():
    for mode in ("rational", "float"):
        a = as_matrix([[1, 0, 2], ["inf", "inf", 5]], mode)
        b = as_matrix([[0, "inf"], [1, "inf"], [-1, "inf"]], mode)
        out = min_plus(a, b)
        assert out.tolist() == [[1, INF], [4, INF]]
        assert out.dtype == np.dtype(object if mode == "rational" else float)
        assert type(out.tolist()[0][0]) is (F if mode == "rational" else float)


#: The largest finite |entry| whose +inf stand-in ``3 * big + 1`` keeps the
#: rational min-plus sums in int64; one more goes to Python ints.
MIN_PLUS_EDGE = (2**62 - 2) // 3


@pytest.mark.parametrize("big, dtype", [(MIN_PLUS_EDGE, np.int64), (MIN_PLUS_EDGE + 1, object)])
def test_min_plus_switches_dtype_at_the_int64_guard(big, dtype):
    # +inf + +inf sums to 2 * (3 * big + 1): in int64 one more would wrap
    # below every finite sum and win the minimum
    assert int_dtype(3 * big + 1) == dtype
    a = as_matrix([[big, -big, "inf"], ["inf", "inf", "inf"]], "rational")
    b = as_matrix([["inf", big], [big, "inf"], ["inf", "inf"]], "rational")
    out = min_plus(a, b)
    assert out.tolist() == reference_min_plus(a.tolist(), b.tolist())
    assert out.tolist() == [[0, 2 * big], [INF, INF]]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_min_plus_matches_the_list_reference(data):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    den = st.sampled_from([1, 1, 2, 3, 7, 2**52, 2**66])
    entry = st.one_of(
        st.builds(F, st.integers(-3, 3), den),  # small values tie often
        st.builds(F, st.integers(-10**20, 10**20), den),
        st.just("inf"),
        # near the int64 guard, on both sides of it
        st.builds(lambda d, sign: sign * (MIN_PLUS_EDGE + d),
                  st.integers(-2, 2), st.sampled_from([1, -1])),
    )

    def matrix(rows, cols):
        out = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        if data.draw(st.booleans()):  # an all-+inf line
            out[data.draw(st.integers(0, rows - 1))] = ["inf"] * cols
        return out

    a, b = matrix(m, k), matrix(k, n)
    if data.draw(st.booleans()):  # a level-0 operand: 0 * d with 0 * inf = 0
        b = [[0] * n for _ in range(k)]
    for mode in ("rational", "float"):
        left, right = as_matrix(a, mode), as_matrix(b, mode)
        out = min_plus(left, right)
        ref_out = reference_min_plus(left.tolist(), right.tolist())
        assert out.tolist() == ref_out
        assert [type(v) for row in out.tolist() for v in row] == [
            type(v) for row in ref_out for v in row
        ]


def _feasible_cellwise(phi, psi, cost):
    m, n = cost.shape
    return all(
        is_inf(cost.entries[i, j]) or phi[i] + psi[j] <= cost.entries[i, j]
        for i in range(m) for j in range(n)
    )


@settings(max_examples=60)
@given(data=st.data())
def test_is_feasible_for_matches_the_cellwise_definition(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    # dyadic values are exact in float mode too, so both modes must agree
    frac = st.builds(F, st.integers(-16, 32), st.sampled_from([1, 2, 4]))
    cell = st.one_of(frac, st.just("inf"))
    cost_rows = data.draw(
        st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    wall = data.draw(st.integers(0, n))  # n: no all-+inf column
    if wall < n:
        for row in cost_rows:
            row[wall] = "inf"
    cost = CostMatrix(as_matrix(cost_rows, "rational"))
    phi = data.draw(st.lists(frac, min_size=m, max_size=m))
    psi = data.draw(st.lists(frac, min_size=n, max_size=n))
    pot = DualPotentials(as_vector(phi, "rational"), as_vector(psi, "rational"))
    # violations are at least 1/4, far above the float cost tolerance
    expected = _feasible_cellwise(phi, psi, cost)
    assert pot.is_feasible_for(cost) == expected
    as_float = CostMatrix(as_matrix(cost_rows, "float"))
    pot_float = DualPotentials(as_vector(phi, "float"), as_vector(psi, "float"))
    assert pot_float.is_feasible_for(as_float) == expected


def test_is_feasible_for_skips_infinite_cells_and_checks_shape():
    cost = CostMatrix(as_matrix([[1, "inf"], [3, "inf"]], "rational"))
    # the all-+inf column bounds nothing, however large psi is there
    pot = DualPotentials(
        as_vector([1, 0], "rational"), as_vector([0, 100], "rational")
    )
    assert pot.is_feasible_for(cost)
    # cell (0, 0) is violated by 1/2
    pot = DualPotentials(
        as_vector([1, 0], "rational"), as_vector([F(1, 2), 100], "rational")
    )
    assert not pot.is_feasible_for(cost)
    with pytest.raises(DimensionMismatch):
        pot.is_feasible_for(CostMatrix(as_matrix([[1, 1]], "rational")))


# --- tree potentials ---------------------------------------------------------


@pytest.mark.parametrize("cells, match", [
    ([(0, 0), (1, 1), (1, 2)], "3 basis cells; a spanning tree of 2 x 3 has 4"),  # a forest
    ([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)], "5 basis cells"),  # one cell too many
    ([(0, 0), (0, 1), (1, 0), (1, 1)], r"basis cell \(1, 1\) closes a cycle"),
    ([(0, 0), (0, 1), (0, 1), (1, 2)], r"basis cell \(0, 1\) closes a cycle"),  # a repeat
    ([(0, 0), (0, 1), (0, 2), (5, 0)], r"basis cell \(5, 0\) lies outside the 2 x 3 grid"),
    ([(0, 0), (0, 1), (0, 2), (1, 7)], r"basis cell \(1, 7\) lies outside the 2 x 3 grid"),
    ([(0, 0), (0, 1), (0, 2), (-1, 0)], r"basis cell \(-1, 0\) lies outside"),  # no wrap
])
def test_tree_potentials_refuses_a_cell_set_that_is_not_a_spanning_tree(cells, match):
    rows = [[F(1), F(5), F(2)], [F(3), F(1, 2), F(4)]]
    with pytest.raises(InfeasibleInput, match=match):
        tree_potentials(2, 3, cells, rows, F(0))


def test_tree_potentials_hang_a_spanning_tree_from_row_0():
    # rows 0..2 are nodes 0..2, columns 0..3 are nodes 3..6
    m, n = 3, 4
    rows = [
        [F(1), F(5), F(2), F(7)],
        [F(3), F(1, 2), F(4), F(9)],
        [F(6), F(2), F(8), F(1)],
    ]
    cells = [(2, 1), (0, 1), (2, 3), (1, 0), (1, 1), (0, 2)]
    pot, parent, wall = tree_potentials(m, n, cells, rows, F(0))
    assert [v for v in range(m + n) if parent[v] == -1] == [0]
    assert pot[0] == 0
    for i, j in cells:
        assert pot[i] + pot[m + j] == rows[i][j]
        assert parent[i] == m + j or parent[m + j] == i
    assert wall is None


def test_tree_potentials_wall_part_counts_infinite_cells():
    m, n = 2, 2
    rows = [[3, INF], [4, 1]]
    cells = [(0, 0), (0, 1), (1, 1)]
    pot, parent, wall = tree_potentials(m, n, cells, rows, 0)
    assert parent[0] == -1
    for i, j in cells:
        inf = rows[i][j] == INF
        assert wall[i] + wall[m + j] == (1 if inf else 0)
        assert pot[i] + pot[m + j] == (0 if inf else rows[i][j])


def test_cost_scale_is_scanned_once_and_never_in_rational_mode():
    rows = [[1, "-3/2", "inf"], [F(5, 2), 0, "inf"]]
    exact = CostMatrix(as_matrix(rows, "rational"))
    assert cost_tolerance(exact) == 0 and "scale" not in vars(exact)
    cost = CostMatrix(as_matrix(rows, "float"))
    assert cost_tolerance(cost) == 1e-9 * 2.5
    assert vars(cost)["scale"] == 2.5  # kept on the frozen cost for later calls
    assert CostMatrix(as_matrix([["inf"]], "float")).scale == 0.0


def test_no_public_signature_takes_a_tol():
    # tolerances are a function of the data (core.tolerance for masses,
    # core.cost_tolerance for costs), never an argument
    offenders = []
    for name in otlab.__all__:
        obj = getattr(otlab, name)
        if inspect.isclass(obj):
            members = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                       if not attr.startswith("_") and callable(fn)]
        else:
            members = [(name, obj)] if callable(obj) else []
        offenders += [label for label, fn in members
                      if "tol" in inspect.signature(fn).parameters]
    assert offenders == []


def test_float_tolerance_has_one_literal():
    # every float tolerance derives from core.FLOAT_REL; a second literal
    # would split the policy again
    hits = [
        (path.name, line.strip())
        for path in sorted(Path(otlab.__file__).parent.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.search(r"[0-9]e-[0-9]", line)
    ]
    assert hits == [("core.py", "FLOAT_REL = 1e-9")]
