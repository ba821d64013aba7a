"""Wire formats: instance round-trips, scalar encodings, certificate layout."""

import json
from fractions import Fraction as F

import pytest

from otlab import (
    OTLabError,
    build_certificate,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    product_plan,
    solve_dual,
    solve_primal,
)
from otlab.core import INF
from otlab.serialize import (
    certificate_to_dict,
    dump_json,
    format_scalar,
    load_instance,
    result_to_dict,
)

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
