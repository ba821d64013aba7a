"""Wire formats: instance round-trips, scalar encodings, certificate layout."""

import json
import re
from fractions import Fraction as F
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otlab import (
    OTLabError,
    TransportPlan,
    build_certificate,
    convert_instance,
    generate_fixture,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    product_plan,
    solve_dual,
    solve_primal,
)
from otlab import core
from otlab.core import INF, frozen_array, read_part, require_list, scaled, to_number
from otlab.errors import BadNumber, DimensionMismatch
from otlab.serialize import (
    _json_float,
    certificate_to_dict,
    dump_json,
    format_scalar,
    instance_to_dict,
    load_instance,
    result_to_dict,
)

from conftest import DENOMINATORS, rational_instances

HALF = [F(1, 2), F(1, 2)]


def test_scalar_formats():
    assert format_scalar(F(1, 2), "rational") == "1/2"
    assert format_scalar(F(3), "rational") == "3/1"
    assert format_scalar(INF, "rational") == "inf"
    assert format_scalar(0.25, "float") == 0.25


def test_instance_round_trip_rational():
    inst = make_instance(
        [[0, "inf"], [F(3, 2), 1]], HALF, [F(1, 3), F(2, 3)],
        metric_x=[[0, 2], [2, 0]], metric_y=[[0, 1], [1, 0]],
        labels_x=("a", "b"),
    )
    data = instance_to_dict(inst)
    again = instance_from_dict(json.loads(json.dumps(data)))
    assert again.space_x.labels == ("a", "b")
    assert again.cost.entries.tolist() == inst.cost.entries.tolist()
    assert list(again.mu.weights) == list(inst.mu.weights)
    assert again.space_x.metric.tolist() == inst.space_x.metric.tolist()
    assert again.mode == "rational"


def test_instance_round_trip_float():
    inst = make_instance([[0.0, 1.5]], [1.0], [0.25, 0.75], mode="float")
    again = instance_from_dict(instance_to_dict(inst))
    assert again.mode == "float"
    assert again.cost.entries.tolist() == [[0.0, 1.5]]


def test_instance_missing_key():
    with pytest.raises(OTLabError):
        instance_from_dict({"X": {"labels": ["a"]}})


def test_instance_bad_mode():
    inst = make_instance([[1]], [1], [1])
    data = instance_to_dict(inst)
    data["mode"] = "decimal"
    with pytest.raises(OTLabError):
        instance_from_dict(data)


def test_json_number_beyond_the_float_range_is_read_exactly(tmp_path):
    inst = make_instance([[0, 1], [1, 0]], [F(1, 2)] * 2, [F(1, 2)] * 2)
    text = dump_json(instance_to_dict(inst)).replace('"1/1"', "1e400", 1)
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert load_instance(str(path)).cost.entries[0, 1] == 10**400


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(OTLabError):
        load_instance(str(path))
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(OTLabError):
        load_instance(str(path2))


def test_meta_key_tolerated(tmp_path):
    inst = make_instance([[1]], [1], [1])
    data = instance_to_dict(inst)
    data["meta"] = {"fixture": "indicator", "seed": 0}
    path = tmp_path / "inst.json"
    path.write_text(dump_json(data), encoding="utf-8")
    load_instance(str(path))


def test_result_payload_shape():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    res = solve_primal(inst)
    payload = result_to_dict(res, inst.mode)
    assert payload["value"] == "1/2"
    assert payload["plan"] == [["1/2", "0/1"], ["0/1", "1/2"]]
    assert all(len(cell) == 2 for cell in payload["basis"])


def test_certificate_payload_layout():
    inst = make_instance([[0, 2], [2, 1]], HALF, HALF)
    cert = build_certificate(inst, solve_primal(inst).plan, solve_dual(inst))
    payload = certificate_to_dict(cert, inst.mode)
    assert payload["gap"] == "0/1"
    assert payload["verdict"] == "pass"
    assert payload["marginals"]["verdict"] == "pass"
    assert payload["slackness"] == []
    assert payload["cyclic"] == {"k2": "pass", "k3": "pass", "k4": "pass"}
    assert set(payload["tolerances"]) == {"gap", "marginals"}


def test_failing_certificate_payload():
    from otlab import DualPotentials, as_vector

    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    zeros = DualPotentials(as_vector([0, 0], "rational"), as_vector([0, 0], "rational"))
    cert = build_certificate(inst, product_plan(inst.mu, inst.nu), zeros)
    payload = certificate_to_dict(cert, inst.mode)
    assert payload["verdict"] == "fail"
    assert payload["gap"] == "1/2"
    assert payload["slackness"]


# --- the block reader against a per-token reference -----------------------------

# spellings of one number, valid in both modes ("inf" a cost wall)
GOOD = ["3/7", "2/4", "+3", "-0/5", " 7/2 ", "1_0", "0.5", "1e3", "٣", "inf", "+inf"]
BAD = ["nan", "-inf", "1/0", "abc", "1/-2"]
# JSON numbers beside the strings; True beside 1, and a nested list
OTHER = [1, 0, 1.0, 2.5, True, [1]]


def reference_read(values, mode, name, vector):
    """``values`` read cell by cell, by to_number alone, with the errors of
    the reader: the reference for the memoised one."""
    def row(cells, where):
        require_list(cells, where)
        out = []
        for k, v in enumerate(cells):
            try:
                out.append(to_number(v, mode))
            except ValueError as exc:
                raise BadNumber(f"{where}[{k}]: {exc}") from None
        return out

    if vector:
        return row(values, name)
    require_list(values, name)
    rows = [row(cells, f"{name}[{i}]") for i, cells in enumerate(values)]
    if len({len(r) for r in rows}) > 1:
        raise DimensionMismatch(f"{name}: rows have unequal lengths")
    return rows


class Held:
    """A part that, as the parts do, holds the array read_part hands it and
    scales it on first use, or holds the scaled view read_part hands its
    ``from_scaled`` and derives the array from it on first use."""

    def __init__(self, array):
        self.array = array

    @classmethod
    def from_scaled(cls, ints, D):
        part = cls.__new__(cls)
        part.__dict__["scaled_view"] = ints, D
        return part

    @cached_property
    def array(self):
        ints, D = self.scaled_view

        def number(v):
            return v if type(v) is float else F(v, D)

        rows = [[number(v) for v in row] for row in ints] if all(
            type(row) is list for row in ints) else [number(v) for v in ints]
        return frozen_array(rows, "rational")

    @cached_property
    def scaled_view(self):
        if self.array.ndim == 1:
            (ints,), D = scaled([self.array.tolist()])
            return ints, D
        return scaled(self.array.tolist())


def typed(cells):
    return [typed(v) if isinstance(v, list) else (type(v), v) for v in cells]


@st.composite
def blocks(draw, vector):
    token = st.sampled_from(GOOD)
    if draw(st.booleans()):  # most blocks mix in bad tokens and JSON numbers
        token = st.sampled_from(GOOD * 3 + BAD + OTHER)
    if vector:
        return draw(st.lists(token, max_size=6))
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(token, min_size=n, max_size=n), max_size=4))
    if rows and draw(st.integers(0, 4)) == 0:  # a ragged row, a string or an object row
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(
            [[], ["1"] * (n + 1), "1/2", {"1": 2}]))
    return rows


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(["cost", "mu", "nu", "metric"]).flatmap(
           lambda name: blocks(name in ("mu", "nu")).map(lambda values: (name, values))),
       mode=st.sampled_from(["rational", "float"]))
@example(case=("mu", [1, True]), mode="rational")  # equal hashes, one bad
@example(case=("cost", [["2/4", 1.0], [1, True]]), mode="float")
def test_the_block_reader_matches_a_per_token_reference(case, mode):
    name, values = case
    vector = name in ("mu", "nu")
    try:
        expected = reference_read(values, mode, name, vector)
    except OTLabError as exc:
        with pytest.raises(type(exc)) as raised:
            read_part(Held, values, mode, name, vector=vector)
        assert str(raised.value) == str(exc)
        return
    part = read_part(Held, values, mode, name, vector=vector)
    tokens = [values] if vector else values
    # a rational block of str tokens hands its part the view; no other does
    handed = mode == "rational" and bool(tokens) and all(
        type(row) is list and all(type(v) is str for v in row) for row in tokens)
    assert ("scaled_view" in vars(part)) == handed
    assert not part.array.flags.writeable
    assert typed(part.array.tolist()) == typed(expected)
    if mode == "float":
        return
    ints, D = scaled([expected] if vector else expected)
    view = (ints[0] if vector else ints), D
    assert part.scaled_view == view
    assert typed(part.scaled_view[0]) == typed(view[0])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), bad=st.sets(st.sampled_from(["X", "Y", "cost", "mu", "nu"])))
def test_a_loaded_instance_names_its_first_bad_cell_in_field_order(data, bad):
    # X, Y, cost, mu, nu: the first field holding a bad token names its first
    # bad cell; with none, every part holds the scaled view of its entries
    one, zero = st.sampled_from(["1", "2/2", "+1", " 1 ", "1e0"]), st.sampled_from(["0", "-0/5"])
    metric = [[data.draw(zero if i == j else one) for j in range(3)] for i in range(3)]
    fields = {
        "X": [row[:] for row in metric],
        "Y": [row[:] for row in metric],
        "cost": [[data.draw(st.sampled_from(GOOD)) for _ in range(3)] for _ in range(3)],
        "mu": [data.draw(st.sampled_from(["1/3", "2/6", " 1/3 "])) for _ in range(3)],
        "nu": ["1/2", "1/4", "1/4"],
    }
    for field in bad:
        block = fields[field]
        cells = [block] if field in ("mu", "nu") else block
        i = data.draw(st.integers(0, len(cells) - 1))
        cells[i][data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(BAD))
    payload = {"X": {"labels": ["a", "b", "c"], "metric": fields["X"]},
               "Y": {"labels": ["a", "b", "c"], "metric": fields["Y"]},
               "cost": fields["cost"], "mu": fields["mu"], "nu": fields["nu"]}
    first = next((f for f in ["X", "Y", "cost", "mu", "nu"] if f in bad), None)
    if first is None:
        inst = instance_from_dict(payload)
        parts = [inst.space_x.metric, inst.space_y.metric, inst.cost.entries]
        for part, entries in zip([inst.space_x, inst.space_y, inst.cost], parts):
            assert part.scaled_view == scaled(entries.tolist())
        for marginal in (inst.mu, inst.nu):
            (ints,), D = scaled([marginal.weights.tolist()])
            assert marginal.scaled_view == (ints, D)
        return
    name = {"X": "X.metric", "Y": "Y.metric"}.get(first, first)
    with pytest.raises(BadNumber) as expected:
        reference_read(fields[first], "rational", name, first in ("mu", "nu"))
    with pytest.raises(BadNumber, match=re.escape(str(expected.value))):
        instance_from_dict(payload)


# --- float blocks are read in one numpy pass ---------------------------------------


class Fields:
    """A part that records the fields and the array read_part hands it."""

    def __init__(self, *args):
        *self.fields, self.array = args


class CountedReads:
    """A context in which every ``core.to_number`` call is counted in ``calls``."""

    def __enter__(self):
        self.calls, read = [], core.to_number
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(core, "to_number", lambda x, mode: self.calls.append(x) or read(x, mode))
        return self

    def __exit__(self, *exc):
        self.patch.undo()


# the signed zero, the least subnormal and the largest float among any finite ones
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)


def outcome(read, values, vector):
    """The array of a read, or the type and text of its error."""
    try:
        return read(values, vector)
    except OTLabError as exc:
        return type(exc), str(exc)


def per_cell(values, vector):
    rows = reference_read(values, "float", "cost", vector)
    return frozen_array(rows if rows or vector else np.empty((0, 0)), "float")


def by_read_part(values, vector):
    part = read_part(Fields, values, "float", "cost", "labels", ("a",), vector=vector)
    assert part.fields == ["labels", ("a",)]
    return part.array


@settings(max_examples=200, deadline=None)
@given(data=st.data(), vector=st.booleans())
def test_a_float_block_is_one_array_bit_for_bit_equal_to_the_per_cell_read(data, vector):
    if vector:
        values = data.draw(st.lists(FINITE, min_size=1, max_size=6))
    else:
        n = data.draw(st.integers(1, 5))
        values = data.draw(st.lists(st.lists(FINITE, min_size=n, max_size=n),
                                    min_size=1, max_size=5))
    expected = per_cell(values, vector)
    with CountedReads() as reads:
        array = by_read_part(values, vector)
    assert reads.calls == []
    assert array.dtype == expected.dtype == np.float64
    assert array.shape == expected.shape == np.shape(values)
    assert not array.flags.writeable
    assert array.tobytes() == expected.tobytes()  # -0.0 and the subnormals too


#: JSON cells that send a float block to the per-cell read: not a float nor
#: the exact wall token "inf" or "+inf" ("inf " reads as +inf only there), or
#: NaN or -inf (1e400 reaches the reader as its token)
FALLBACK_CELLS = ["1", "true", '"inf "', '"1/2"', "NaN", "-Infinity", "1e400", "[0.5]", "null"]
#: JSON blocks that go there by their shape, as (text, vector)
FALLBACK = [
    *((f"[[0.25, 0.5], [{cell}, 0.0]]", False) for cell in FALLBACK_CELLS),
    *((f"[0.25, {cell}]", True) for cell in FALLBACK_CELLS),
    *((text, False) for text in ["[[0.25, 0.5], [0.75]]", "[[0.25, 0.5], []]", "[[]]", "[]",
                                 "[0.25, 0.5]", "null", "0.5", '"0.5"']),
    *((text, True) for text in ["[]", "[[0.25, 0.5]]", "null", "0.5"]),
]


@pytest.mark.parametrize("text, vector", FALLBACK)
def test_a_float_block_the_array_read_cannot_take_is_read_cell_by_cell(text, vector):
    values = json.loads(text, parse_float=_json_float)
    expected = outcome(per_cell, values, vector)
    with CountedReads() as reads:
        got = outcome(by_read_part, values, vector)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert len(reads.calls) == expected.size  # each cell read by to_number
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert not got.flags.writeable and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, vector", [("[[0.25, 0.5], [Infinity, 0.0]]", False),
                                          ("[0.25, Infinity]", True),
                                          ('[[0.25, 0.5], ["inf", 0.0]]', False),
                                          ('["+inf", 0.25]', True)])
def test_a_float_block_with_a_wall_keeps_the_array_read(text, vector):
    # +inf is a float the per-cell read returns as it is, and the tokens
    # "inf" and "+inf" read as it: the array holds it
    values = json.loads(text, parse_float=_json_float)
    expected = per_cell(values, vector)
    with CountedReads() as reads:
        got = by_read_part(values, vector)
    assert reads.calls == []
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert not got.flags.writeable and got.tobytes() == expected.tobytes()


def test_a_float_file_loads_without_a_per_cell_read(tmp_path):
    path = tmp_path / "float.json"
    inst = generate_fixture("random-uniform", 14, seed=3, mode="float")
    path.write_text(dump_json(instance_to_dict(inst)), encoding="utf-8")
    with CountedReads() as reads:
        loaded = load_instance(str(path))
    assert reads.calls == []
    for part, name in [(loaded.cost, "entries"), (loaded.mu, "weights"), (loaded.nu, "weights"),
                       (loaded.space_x, "metric"), (loaded.space_y, "metric")]:
        assert getattr(part, name).dtype == np.float64
    # a wall is the token "inf", read as +inf within the array read
    data = instance_to_dict(inst)
    data["cost"][2][5] = "inf"
    path.write_text(dump_json(data), encoding="utf-8")
    with CountedReads() as reads:
        walled = load_instance(str(path))
    assert reads.calls == []
    assert walled.cost.entries[2, 5] == INF and not walled.cost.is_bounded
    expected = inst.cost.entries.copy()
    expected[2, 5] = INF
    assert walled.cost.entries.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(inst=rational_instances())
@example(inst=generate_fixture("discrete-metric-spike", 6, seed=2))
def test_a_float_conversion_rounds_each_number_as_its_fraction_does(inst):
    # v / D of the views: the floats of to_number, +inf walls kept; no
    # block, a walled cost included, is read again cell by cell
    with CountedReads() as reads:
        floated = convert_instance(inst, "float")
    assert len(reads.calls) == 0
    for rational, converted in [
            (inst.cost.entries, floated.cost.entries), (inst.mu.weights, floated.mu.weights),
            (inst.nu.weights, floated.nu.weights), (inst.space_x.metric, floated.space_x.metric),
            (inst.space_y.metric, floated.space_y.metric)]:
        if rational is None:
            assert converted is None
            continue
        expected = frozen_array([to_number(v, "float") for v in rational.flat], "float")
        assert not converted.flags.writeable and converted.shape == rational.shape
        assert converted.tobytes() == expected.tobytes()


# --- the parts hold their scaled ints; the Fraction arrays are derived ------------


def respelled(draw, v):
    """A token of the rational ``v``: ``p/q``, ``kp/kq`` (not in lowest
    terms), with a sign, surrounding spaces or as an integer when ``q = 1``."""
    if v == INF:
        return draw(st.sampled_from(["inf", "+inf", " inf "]))
    k = draw(st.sampled_from([1, 1, 2, 6, 2**61 - 1]))
    p, q = v.numerator * k, v.denominator * k
    sign = draw(st.sampled_from(["", "+"])) if p >= 0 else ""
    token = f"{sign}{p}" if q == 1 and draw(st.booleans()) else f"{sign}{p}/{q}"
    return " " * draw(st.integers(0, 1)) + token + " " * draw(st.integers(0, 1))


def a_fraction_array(array, values):
    """``array`` is read-only, of dtype object, holds ``Fraction``s (and
    ``+inf`` markers) only and equals ``values``, cell for cell."""
    assert not array.flags.writeable
    assert array.dtype == object
    assert {type(v) for v in array.flat} <= {F, float}
    assert all(type(v) is F or v == INF for v in array.flat)
    assert array.tolist() == values


def spelled(draw, values):
    """Nested lists of rationals as lists of :func:`respelled` tokens."""
    return [spelled(draw, v) if isinstance(v, list) else respelled(draw, v) for v in values]


@settings(max_examples=150, deadline=None)
@given(inst=rational_instances(), data=st.data())
def test_a_loaded_part_derives_the_fraction_arrays_of_its_tokens(inst, data):
    # the drawn instance holds the Fraction arrays that make_instance reads
    # cell by cell; written as respelled tokens and loaded, every part holds
    # only its scaled view, and derives the same arrays from it on first read
    m, n = inst.shape
    points = [F(data.draw(st.integers(0, 40)), data.draw(st.sampled_from(DENOMINATORS)))
              for _ in range(m)]
    values = {
        "X": [[abs(a - b) for b in points] for a in points],
        "Y": [[F(0) if i == j else INF for j in range(n)] for i in range(n)],
        "cost": inst.cost.entries.tolist(),
        "mu": inst.mu.weights.tolist(),
        "nu": inst.nu.weights.tolist(),
    }
    loaded = instance_from_dict({
        "X": {"labels": list(inst.space_x.labels), "metric": spelled(data.draw, values["X"])},
        "Y": {"labels": list(inst.space_y.labels), "metric": spelled(data.draw, values["Y"])},
        **{key: spelled(data.draw, values[key]) for key in ("cost", "mu", "nu")},
    })
    parts = {"X": (loaded.space_x, "metric"), "Y": (loaded.space_y, "metric"),
             "cost": (loaded.cost, "entries"), "mu": (loaded.mu, "weights"),
             "nu": (loaded.nu, "weights")}
    for key, (part, name) in parts.items():
        assert name not in vars(part)  # the read holds the view only
        a_fraction_array(getattr(part, name), values[key])
        vector = key in ("mu", "nu")
        ints, D = scaled([values[key]] if vector else values[key])
        assert part.scaled_view == (ints[0] if vector else ints, D)
    try:  # no finite plan, or an all-+inf line of the cost
        result = solve_primal(loaded)
        pot = solve_dual(loaded, result)
    except OTLabError:
        return
    plan, (cells, masses, D) = result.plan, result.plan.scaled_view
    assert "entries" not in vars(plan) and "phi" not in vars(pot)
    dense = [[F(0)] * n for _ in range(m)]
    for (i, j), x in zip(cells, masses):
        dense[i][j] = F(x, D)
    a_fraction_array(plan.entries, dense)
    assert plan.cells == TransportPlan(frozen_array(dense, "rational")).cells
    assert {type(mass) for _, mass in plan.cells} <= {F}
    phi, psi, E = pot.scaled_view
    a_fraction_array(pot.phi, [F(v, E) for v in phi])
    a_fraction_array(pot.psi, [F(v, E) for v in psi])
    # the plan and the pair of the instance built from the Fractions themselves
    again = solve_primal(inst)
    assert again.plan.entries.tolist() == dense
    assert solve_dual(inst, again).phi.tolist() == pot.phi.tolist()
