"""CLI behavior: exit codes, deterministic output, schema stability.

Commands run in-process through cli.main (fast, same code path as the
console script); a couple of smoke tests go through a real subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from otlab.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixture_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(["gen", "indicator", "--size", "3", "-o", str(path)], capsys)
    assert code == 0
    return path


# --- gen ------------------------------------------------------------------------


def test_gen_indicator_cost(fixture_file):
    data = json.loads(fixture_file.read_text())
    assert data["cost"] == [
        ["0/1", "1/1", "1/1"],
        ["1/1", "2/1", "2/1"],
        ["1/1", "2/1", "2/1"],
    ]
    assert data["X"]["labels"] == ["-1", "0", "1"]
    assert data["meta"] == {"fixture": "indicator", "size": 3, "seed": 0}


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            ["gen", "random-uniform", "--size", "4", "--seed", "11", "-o", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_round_trips_through_validation(tmp_path, capsys):
    from otlab import load_instance

    for name in ("indicator", "random-uniform", "separable", "discrete-metric-spike"):
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(["gen", name, "--size", "3", "--seed", "5", "-o", str(path)], capsys)
        assert code == 0
        inst = load_instance(str(path))
        assert inst.validated


def test_gen_unknown_fixture(capsys):
    code, _, err = run_cli(["gen", "mystery"], capsys)
    assert code == 1
    assert "unknown fixture" in err


# --- solve / oracle ---------------------------------------------------------------


def test_solve_and_oracle_agree(fixture_file, capsys):
    code, out, _ = run_cli(["solve", str(fixture_file)], capsys)
    assert code == 0
    solved = json.loads(out)
    code, out, _ = run_cli(["oracle", str(fixture_file)], capsys)
    assert code == 0
    oracled = json.loads(out)
    assert solved["value"] == oracled["value"]
    assert set(solved) >= {"mode", "value", "plan", "basis"}
    assert set(oracled) >= {"mode", "value", "plan", "basis"}


def test_solve_dual_flag(fixture_file, capsys):
    code, out, _ = run_cli(["solve", "--dual", str(fixture_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dual_value"] == payload["value"]
    assert len(payload["phi"]) == 3 and len(payload["psi"]) == 3


def test_solve_dual_solves_the_primal_once(fixture_file, capsys, primal_calls):
    code, _, _ = run_cli(["solve", "--dual", str(fixture_file)], capsys)
    assert code == 0
    assert len(primal_calls) == 1


def test_solve_missing_file(capsys):
    code, _, err = run_cli(["solve", "missing.json"], capsys)
    assert code == 1
    assert err.startswith("otlab: error:")


def test_solve_float_mode(fixture_file, capsys):
    code, out, _ = run_cli(["solve", "--float", str(fixture_file)], capsys)
    assert code == 0
    assert json.loads(out)["mode"] == "float"


# --- certify ------------------------------------------------------------------------


def test_certify_passes_and_exits_zero(fixture_file, capsys):
    code, out, _ = run_cli(["certify", str(fixture_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == "0/1"
    assert payload["verdict"] == "pass"


def test_certify_exit_code_two_on_failure():
    # the honest pipeline cannot fail, so the dispatch is checked directly
    from otlab.certify import DualityCertificate, MarginalReport
    from otlab.serialize import certificate_to_dict
    from fractions import Fraction as F

    failing = DualityCertificate(
        gap=F(1, 2),
        marginals=MarginalReport(F(0), F(0), F(0)),
        slackness=(),
        cyclic={2: None},
        tol=F(0),
    )
    assert not failing.verdict
    assert certificate_to_dict(failing, "rational")["verdict"] == "fail"
    # cmd_certify maps verdict -> exit status
    assert (0 if failing.verdict else 2) == 2


def test_certify_large_support_passes_every_k(tmp_path, capsys):
    # 59 support cells: the cyclic check decides k = 2..4 without enumerating
    path = tmp_path / "inst.json"
    run_cli(["gen", "random-uniform", "--size", "30", "--seed", "1", "-o", str(path)], capsys)
    code, out, err = run_cli(["certify", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["cyclic"] == {"k2": "pass", "k3": "pass", "k4": "pass"}


@pytest.mark.parametrize(
    "command, key, value", [("solve", "mode", "float"), ("certify", "verdict", "pass")]
)
def test_float_northwest_round_off_is_not_a_crash(tmp_path, capsys, command, key, value):
    # float marginals whose rounded row sums outlast the last column
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "X": {"labels": [f"x{i}" for i in range(7)]},
        "Y": {"labels": ["y0", "y1", "y2"]},
        "cost": [[str((i * j) % 5) for j in range(3)] for i in range(7)],
        "mu": ["7/25", "4/25", "1/25", "7/25", "5/25", "1/25", "0"],
        "nu": ["7/14", "4/14", "3/14"],
        "mode": "rational",
    }))
    code, out, err = run_cli([command, "--float", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == value


# --- transform / envelope -------------------------------------------------------------


def test_transform_command(fixture_file, capsys):
    code, out, _ = run_cli(["transform", "--phi", "0,0,0", str(fixture_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["phi_c"] == ["0/1", "1/1", "1/1"]
    assert set(payload["normalized"]) == {"phi", "psi"}


def test_transform_bad_vector(fixture_file, capsys):
    code, _, err = run_cli(["transform", "--phi", "0,0", str(fixture_file)], capsys)
    assert code == 1


def test_envelope_command(tmp_path, capsys):
    path = tmp_path / "spike.json"
    run_cli(["gen", "discrete-metric-spike", "--size", "2", "-o", str(path)], capsys)
    code, out, _ = run_cli(["envelope", "--levels", "1,2,5,10", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["n"] for row in payload["levels"]] == ["1/1", "2/1", "5/1", "10/1"]
    assert payload["limit"] == "0/1"


def test_envelope_without_metric(tmp_path, capsys):
    from otlab import make_instance
    from otlab.serialize import dump_json, instance_to_dict

    inst = make_instance([[0, 1], [1, 0]], ["1/2", "1/2"], ["1/2", "1/2"])
    path = tmp_path / "bare.json"
    path.write_text(dump_json(instance_to_dict(inst)), encoding="utf-8")
    code, _, err = run_cli(["envelope", "--levels", "1,2", str(path)], capsys)
    assert code == 1
    assert "metric" in err


def test_float_envelope_saturates_despite_round_off(tmp_path, capsys):
    # the float level-8 value exceeds the float limit by ~4e-16
    path = tmp_path / "inst.json"
    run_cli(["gen", "random-uniform", "--size", "8", "--seed", "1", "-o", str(path)], capsys)
    code, out, err = run_cli(["envelope", "--levels", "1,2,4,8", "--float", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["saturation_level"] == 8.0


def test_envelope_law_violation_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    from otlab import envelope
    from otlab.primal import OptimalPlanResult

    path = tmp_path / "spike.json"
    run_cli(["gen", "discrete-metric-spike", "--size", "2", "-o", str(path)], capsys)
    values = iter([5, 3, 2])  # limit, then a chain that falls
    monkeypatch.setattr(
        envelope, "solve_primal",
        lambda instance: OptimalPlanResult(plan=None, value=next(values), basis=()),
    )
    code, out, err = run_cli(["envelope", "--levels", "1,2", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("otlab: error:") and err.count("\n") == 1


# --- usage errors and subprocess smoke ---------------------------------------------


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1


def test_subprocess_entry_point(tmp_path):
    path = tmp_path / "inst.json"
    gen = subprocess.run(
        [sys.executable, "-m", "otlab", "gen", "indicator", "--size", "3",
         "-o", str(path)],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert gen.returncode == 0
    solve = subprocess.run(
        [sys.executable, "-m", "otlab", "certify", str(path)],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert solve.returncode == 0
    assert json.loads(solve.stdout)["verdict"] == "pass"
    assert solve.stderr == ""
