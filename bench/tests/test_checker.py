"""The output checker, and the default seed's optimal values against linprog."""

import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import checker
from otlab.cli import main as otlab_main
from pin import DEFAULT_SEED
from workloads import RATIONAL, WORKLOADS, gen_argv, make_pool


def _linprog_value(inst: checker.Instance) -> float:
    m, n = inst.shape
    cost = np.array([[float(c) for c in row] for row in inst.cost])
    rows = np.zeros((m + n, m * n))
    for i in range(m):
        rows[i, i * n:(i + 1) * n] = 1
    for j in range(n):
        rows[m + j, j::n] = 1
    marginals = [float(w) for w in inst.mu + inst.nu]
    res = linprog(cost.ravel(), A_eq=rows, b_eq=marginals, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def _run(argv, capsys):
    assert otlab_main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_optima_match_linprog(name, tmp_path, capsys):
    """The checker's exact reference on every rational instance, and the
    value `solve --dual` prints, agree with linprog."""
    workload = WORKLOADS[name]
    pool = make_pool(workload, DEFAULT_SEED, tmp_path)
    for item in pool:
        assert otlab_main(gen_argv(workload, item)) == 0
        inst = checker.Instance(item.path.read_text())
        values = []
        if workload.mode == RATIONAL:
            values.append(checker.exact_value(inst))
        if workload.kind == "solve":
            capsys.readouterr()
            out = json.loads(_run(list(item.argv), capsys))
            values.append(Fraction(out["value"]) if workload.mode == RATIONAL else out["value"])
        reference = _linprog_value(inst)
        norm = max(abs(float(c)) for row in inst.cost for c in row)
        assert values and all(
            abs(reference - float(v)) <= 1e-9 * (1 + norm) for v in values
        ), item.key


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert otlab_main(["gen", "random-uniform", "--size", "6", "--seed", "3", "-o", str(path)]) == 0
    return path


def test_solve_check_accepts_real_output_and_rejects_tampering(instance_file, capsys):
    inst = checker.Instance(instance_file.read_text())
    out = json.loads(_run(["solve", "--dual", str(instance_file)], capsys))
    assert checker.check_output("solve", inst, json.dumps(out)) == []

    raised = json.loads(json.dumps(out))
    raised["phi"][0] = str(Fraction(raised["phi"][0]) + 1)
    assert any("phi + psi > c" in p for p in checker.check_output("solve", inst, json.dumps(raised)))

    lowered = json.loads(json.dumps(out))
    lowered["psi"][0] = str(Fraction(lowered["psi"][0]) - 1)
    problems = checker.check_output("solve", inst, json.dumps(lowered))
    assert "dual_value != value of the potentials" in problems

    moved = json.loads(json.dumps(out))
    i, j = next((i, j) for i, row in enumerate(moved["plan"]) for j, x in enumerate(row)
                if Fraction(x) > 0)
    moved["plan"][i][j] = str(Fraction(moved["plan"][i][j]) / 2)
    problems = checker.check_output("solve", inst, json.dumps(moved))
    assert f"row {i} does not sum to mu" in problems

    assert checker.check_output("solve", inst, "not json")[0].startswith("unparseable")


def test_certify_check_rejects_a_failing_verdict(instance_file, capsys):
    inst = checker.Instance(instance_file.read_text())
    out = json.loads(_run(["certify", str(instance_file)], capsys))
    assert checker.check_output("certify", inst, json.dumps(out)) == []
    out["verdict"] = "fail"
    out["gap"] = "1/3"
    assert len(checker.check_output("certify", inst, json.dumps(out))) == 2


def test_envelope_check_rejects_a_wrong_limit(instance_file, capsys):
    inst = checker.Instance(instance_file.read_text())
    out = json.loads(_run(["envelope", "--levels", "1,2,4,8", str(instance_file)], capsys))
    assert checker.check_output("envelope", inst, json.dumps(out)) == []
    out["limit"] = str(Fraction(out["limit"]) + Fraction(1, 7))
    assert "limit is not the instance's optimal value" in checker.check_output(
        "envelope", inst, json.dumps(out)
    )


def test_exact_value_on_a_hand_solved_instance():
    inst = checker.Instance(json.dumps({
        "mode": "rational",
        "cost": [["0/1", "2/1"], ["1/1", "0/1"]],
        "mu": ["1/2", "1/2"],
        "nu": ["1/3", "2/3"],
    }))
    # row 0 sends 1/3 to column 0 and 1/6 to column 1 at cost 2
    assert checker.exact_value(inst) == Fraction(1, 3)


def test_float_check_allows_rounding_relative_to_the_cost(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert otlab_main(["gen", "random-uniform", "--size", "6", "--seed", "3", "--float",
                       "-o", str(path)]) == 0
    inst = checker.Instance(path.read_text())
    out = json.loads(_run(["solve", "--dual", str(path)], capsys))
    out["value"] += 1e-12
    assert checker.check_output("solve", inst, json.dumps(out)) == []
    out["value"] += 1e-3
    assert checker.check_output("solve", inst, json.dumps(out)) != []
