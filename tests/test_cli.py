"""CLI behavior: exit codes, deterministic output, schema stability.

Commands run in-process through cli.main (fast, same code path as the
console script); a couple of smoke tests go through a real subprocess.
"""

import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import otlab
from otlab.cli import main
from otlab.core import CostMatrix, FiniteSpace, scaled
from otlab.serialize import load_instance

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
    from otlab import generate_fixture, instance_to_dict, load_instance

    for name in ("indicator", "random-uniform", "separable", "discrete-metric-spike"):
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(["gen", name, "--size", "3", "--seed", "5", "-o", str(path)], capsys)
        assert code == 0
        inst = load_instance(str(path))
        assert instance_to_dict(inst) == instance_to_dict(generate_fixture(name, 3, 5))


@pytest.mark.parametrize("name,size,match", [
    ("bogus", 2, "^unknown fixture 'bogus'; choose one of "),
    ("indicator", 0, "^fixture size must be at least 1$"),
])
def test_generate_fixture_refuses_an_unknown_name_or_size(name, size, match):
    from otlab import UnknownFixture, generate_fixture

    with pytest.raises(UnknownFixture, match=match):
        generate_fixture(name, size=size)


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


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_oracle_on_an_infinite_cost_is_a_one_line_error(fixture_file, capsys, flags):
    data = json.loads(fixture_file.read_text())
    data["cost"][0][1] = "inf"
    fixture_file.write_text(json.dumps(data))
    code, out, err = run_cli(["oracle", *flags, str(fixture_file)], capsys)
    assert (code, out) == (1, "")
    assert err == "otlab: error: the oracle requires a bounded cost\n"


@pytest.mark.parametrize("flags, pivots", [([], 109), (["--float"], 104)])
def test_solve_stats_is_one_json_line_on_stderr(tmp_path, capsys, flags, pivots):
    # random-uniform n=60 seed 1 takes 109 pivots exact and 104 in float mode
    # from the least-cost start (502 and 354 from the northwest corner);
    # stdout is byte-identical with and without the flag
    path = tmp_path / "inst.json"
    run_cli(["gen", "random-uniform", "--size", "60", "--seed", "1", "-o", str(path)], capsys)
    for command in (["solve"], ["solve", "--dual"]):
        code, out, err = run_cli([*command, *flags, str(path)], capsys)
        assert (code, err) == (0, "")
        code, with_stats, err = run_cli([*command, "--stats", *flags, str(path)], capsys)
        assert code == 0 and with_stats == out
        assert err.endswith("\n") and err.count("\n") == 1
        stats = json.loads(err)
        assert list(stats) == ["pivots", "degenerate", "warm"]
        assert stats["pivots"] == pivots and 0 <= stats["degenerate"] < pivots
        assert stats["warm"] is False


@pytest.mark.parametrize("flags, pivots", [([], 253), (["--float"], 268)])
def test_solve_stats_on_the_walled_instance(tmp_path, capsys, flags, pivots):
    # random-uniform n=100 seed 1 with 300 seeded +inf cells: the wall part
    # folded into the reduced costs keeps the most negative entering rule
    # (2,186 and 1,932 pivots with Bland's rule on every pivot)
    path = tmp_path / "walled.json"
    run_cli(["gen", "random-uniform", "--size", "100", "--seed", "1", "-o", str(path)], capsys)
    data = json.loads(path.read_text())
    for cell in random.Random(1).sample(range(100 * 100), 300):
        data["cost"][cell // 100][cell % 100] = "inf"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["solve", "--stats", *flags, str(path)], capsys)
    assert code == 0
    assert json.loads(err)["pivots"] == pivots
    if not flags:
        assert json.loads(out)["value"] == "19309/430992"


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


def test_certify_exit_code_two_on_failure(fixture_file, capsys, monkeypatch):
    # the honest pipeline cannot fail, so the command is handed a failing certificate
    from otlab.certify import DualityCertificate, MarginalReport

    failing = DualityCertificate(
        gap=Fraction(1, 2),
        marginals=MarginalReport(Fraction(0), Fraction(0), Fraction(0)),
        slackness=(),
        cyclic={2: None},
        tol=Fraction(0),
    )
    assert not failing.verdict
    monkeypatch.setattr("otlab.cli.certify_instance", lambda instance: failing)
    code, out, err = run_cli(["certify", str(fixture_file)], capsys)
    assert (code, err) == (2, "")
    assert json.loads(out)["verdict"] == "fail"


def test_certify_large_support_passes_every_k(tmp_path, capsys):
    # 59 support cells: the cyclic check decides k = 2..4 without enumerating
    path = tmp_path / "inst.json"
    run_cli(["gen", "random-uniform", "--size", "30", "--seed", "1", "-o", str(path)], capsys)
    code, out, err = run_cli(["certify", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["cyclic"] == {"k2": "pass", "k3": "pass", "k4": "pass"}


def test_float_certify_decides_a_size_45_support_in_polynomial_time(tmp_path, capsys):
    # the unshifted cyclic test saw round-off cycles here and ran out of
    # the enumeration budget after about 37 s
    path = tmp_path / "inst.json"
    run_cli(["gen", "random-uniform", "--size", "45", "--seed", "1", "--float",
             "-o", str(path)], capsys)
    code, out, err = run_cli(["certify", str(path)], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["cyclic"] == {"k2": "pass", "k3": "pass", "k4": "pass"}


@pytest.mark.parametrize(
    "command, key, value", [("solve", "mode", "float"), ("certify", "verdict", "pass")]
)
def test_float_northwest_round_off_is_not_a_crash(tmp_path, capsys, command, key, value):
    # float marginals whose rounded row sums outlast the last column of the
    # northwest corner (the least-cost start of this cost closes no row
    # with a rest; the next test walks the northwest order)
    assert_float_round_off_is_not_a_crash(
        tmp_path, capsys, command, key, value, lambda i, j: (i * j) % 5)


@pytest.mark.parametrize(
    "command, key, value", [("solve", "mode", "float"), ("certify", "verdict", "pass")]
)
def test_float_round_off_of_a_northwest_order_start_is_not_a_crash(
        tmp_path, capsys, command, key, value):
    # a cost that grows in row-major order, so the least-cost start walks the
    # cells in the northwest order, and its last column gets a row whose
    # rounded rest outlasts it
    assert_float_round_off_is_not_a_crash(
        tmp_path, capsys, command, key, value, lambda i, j: 3 * i + j)


def assert_float_round_off_is_not_a_crash(tmp_path, capsys, command, key, value, cost):
    """Run ``command --float`` on a 7 x 3 instance with ``cost(i, j)`` and float
    marginals whose rounded row sums outlast the columns: it exits 0, says
    nothing on stderr, and its output has ``value`` at ``key``."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "X": {"labels": [f"x{i}" for i in range(7)]},
        "Y": {"labels": ["y0", "y1", "y2"]},
        "cost": [[str(cost(i, j)) for j in range(3)] for i in range(7)],
        "mu": ["7/25", "4/25", "1/25", "7/25", "5/25", "1/25", "0"],
        "nu": ["7/14", "4/14", "3/14"],
        "mode": "rational",
    }))
    code, out, err = run_cli([command, "--float", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == value


@pytest.fixture
def scaled_calls(monkeypatch):
    """The entries (a Counter) of each call of core.scaled, from any otlab module."""
    scaled, calls = otlab.core.scaled, []

    def spy(rows):
        calls.append(Counter(v for row in rows for v in row))
        return scaled(rows)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "otlab"]:
        if getattr(module, "scaled", None) is scaled:
            monkeypatch.setattr(module, "scaled", spy)
    return calls


def receiving(calls, entries):
    """The calls that received every one of ``entries`` (with multiplicity)."""
    entries = Counter(entries)
    return [values for values in calls if not entries - values]


@pytest.mark.parametrize("command", [["solve", "--dual"], ["certify"]])
def test_a_command_scales_the_cost_once(tmp_path, capsys, scaled_calls, command):
    # the read hands the cost its scaled_view, built from its distinct
    # tokens, so no call of core.scaled receives the cost's entries; the
    # transforms and the feasibility test scale only the potentials
    path = str(tmp_path / "inst.json")
    run_cli(["gen", "random-uniform", "--size", "10", "--seed", "3", "-o", path], capsys)
    cost = load_instance(path).cost
    assert cost.scaled_view == scaled(cost.entries.tolist())  # the same ints and D
    scaled_calls.clear()
    assert run_cli([*command, path], capsys)[0] == 0
    assert receiving(scaled_calls, cost.entries.flat) == []
    # the spy sees a cost that is scaled: one built from its Fraction entries
    assert CostMatrix(cost.entries).scaled_view == cost.scaled_view
    assert receiving(scaled_calls, cost.entries.flat) != []


def test_envelope_scales_no_metric_again(tmp_path, capsys, scaled_calls):
    # the read hands each metric its scaled_view, which the metric laws and
    # the envelope levels read, so no call of core.scaled receives a metric's entries
    path = str(tmp_path / "inst.json")
    run_cli(["gen", "random-uniform", "--size", "10", "--seed", "3", "-o", path], capsys)
    spaces = load_instance(path).space_x, load_instance(path).space_y
    for space in spaces:
        assert space.scaled_view == scaled(space.metric.tolist())
    scaled_calls.clear()
    assert run_cli(["envelope", "--levels", "1,2,4,8", path], capsys)[0] == 0
    for space in spaces:
        assert receiving(scaled_calls, space.metric.flat) == []
    # the spy sees a metric that is scaled: one built from its Fraction entries
    for space in spaces:
        assert FiniteSpace(space.labels, space.metric).scaled_view == space.scaled_view
        assert receiving(scaled_calls, space.metric.flat) != []


@pytest.mark.parametrize("command", [["solve", "--dual"], ["certify"],
                                     ["envelope", "--levels", "1,2,4,8"]])
def test_a_command_builds_each_array_view_once(tmp_path, capsys, monkeypatch, command):
    # the two metrics at load (their laws) and the cost once; an envelope
    # level holds the array it was computed as, so it builds none
    path = str(tmp_path / "inst.json")
    run_cli(["gen", "random-uniform", "--size", "10", "--seed", "3", "-o", path], capsys)
    inst = load_instance(path)
    array_view, calls = otlab.core.array_view, []

    def spy(rows, D, shape):
        calls.append((rows, D))
        return array_view(rows, D, shape)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "otlab"]:
        if getattr(module, "array_view", None) is array_view:
            monkeypatch.setattr(module, "array_view", spy)
    assert run_cli([*command, path], capsys)[0] == 0
    views = [inst.space_x.scaled_view, inst.space_y.scaled_view, inst.cost.scaled_view]
    assert sorted(calls) == sorted(views)


#: Fraction arithmetic and comparisons, by special method
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__abs__",
                "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


@pytest.fixture
def exact_work(monkeypatch):
    """``(ops, transforms)``: a Counter of the Fraction operations
    (``FRACTION_OPS``) made while ``solve_dual`` or ``build_certificate``
    runs, and a list with one entry per ``core.cost_transforms`` call,
    through any otlab module alias."""
    ops, transforms, inside = Counter(), [], []

    def spying(name, method):
        def spy(self, *args):
            if inside:
                ops[name] += 1
            return method(self, *args)
        return spy

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, spying(name, getattr(Fraction, name)))

    def entered(function):
        def wrapper(*args):
            inside.append(function)
            try:
                return function(*args)
            finally:
                inside.pop()
        return wrapper

    def counted(function):
        def wrapper(*args):
            transforms.append(args[2])
            return function(*args)
        return wrapper

    originals = [(otlab.dual.solve_dual, entered), (otlab.certify.build_certificate, entered),
                 (otlab.core.cost_transforms, counted)]
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "otlab"]:
        for attr, value in list(vars(module).items()):
            for original, wrap in originals:
                if value is original:
                    monkeypatch.setattr(module, attr, wrap(original))
    return ops, transforms


@pytest.mark.parametrize("command, transforms", [
    (["solve", "--dual"], 2),  # phi^c, shared by the basis pair's test and the normalization; cbar
    (["certify"], 3),  # and the certificate's own feasibility test
    (["transform", "--phi=" + ",".join(f"{i}/{i + 2}" for i in range(10))], 2),
])
def test_the_dual_and_the_certificate_compute_on_ints(tmp_path, capsys, exact_work,
                                                      command, transforms):
    path = str(tmp_path / "inst.json")
    run_cli(["gen", "random-uniform", "--size", "10", "--seed", "3", "-o", path], capsys)
    ops, calls = exact_work
    assert run_cli([*command, path], capsys)[0] == 0
    assert ops == Counter()
    assert len(calls) == transforms


@pytest.mark.parametrize("fixture, size, seed", [("random-uniform", 10, 3),
                                                 ("discrete-metric-spike", 6, 2)])
@pytest.mark.parametrize("command, built", [
    (["solve", "--dual"], {"random-uniform": 2, "discrete-metric-spike": 2}),
    (["certify"], {"random-uniform": 4, "discrete-metric-spike": 4}),
    (["envelope", "--levels", "1,2,4,8"], {"random-uniform": 22, "discrete-metric-spike": 18}),
    (["solve", "--dual", "--float"], {"random-uniform": 0, "discrete-metric-spike": 0}),
])
def test_a_command_builds_fractions_for_its_scalar_results_only(
        tmp_path, capsys, monkeypatch, fixture, size, seed, command, built):
    # the parts hold their scaled ints from the load to the output, so the
    # Fractions a command builds are its public scalars: solve --dual its
    # value and dual value; certify the plan value, the gap and the two
    # marginal deviations; envelope its 4 levels, the limit and 4 level
    # values, and the sums its value-chain laws compare (tol is the int 0);
    # --float converts from the views, so a float command builds none
    path = str(tmp_path / "inst.json")
    run_cli(["gen", fixture, "--size", str(size), "--seed", str(seed), "-o", path], capsys)
    new, count = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        count.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert run_cli([*command, path], capsys)[0] == 0
    monkeypatch.undo()
    assert len(count) == built[fixture]


#: a valid instance of tokens, and one bad field per case with its error text,
#: the same in both modes: the int reader falls back to the per-cell one
TOKENS = {"X": {"labels": ["a", "b"], "metric": [["0", "1"], ["1", "0"]]},
          "Y": {"labels": ["c", "d"], "metric": [["0", "2/1"], ["2", "0"]]},
          "cost": [["1/2", "inf"], ["3", "0"]], "mu": ["1/3", "2/3"], "nu": ["1/2", "1/2"]}
BAD_TOKENS = {
    "bad token": ("cost", [["1/2", "3/x"], ["3", "0"]],
                  "cost[0][1]: bad number '3/x' (Invalid literal for Fraction: '3/x')"),
    "zero denominator": ("cost", [["1/2", "inf"], ["3", "1/0"]],
                         "cost[1][1]: bad number '1/0' (zero denominator)"),
    "-inf": ("cost", [["-inf", "inf"], ["3", "0"]],
             "cost[0][0]: bad number '-inf' (negative infinity)"),
    "NaN": ("nu", ["1/2", "nan"], "nu[1]: bad number 'nan' (not a number)"),
    "bool": ("mu", [True, "2/3"], "mu[0]: bad number 'True' (not a number)"),
    "negative mass": ("mu", ["-1/3", "4/3"], {"rational": "mu[0]: negative mass -1/3",
                                              "float": "mu[0]: negative mass -0.3333333333333333"}),
    "infinite mass": ("mu", ["1/3", "inf"], "mu[1]: infinite mass"),
    "mass not one": ("nu", ["1/2", "1/3"], {"rational": "nu: mass sums to 5/6, expected 1",
                                            "float": "nu: mass sums to 0.8333333333333333, "
                                                     "expected 1 +/- 1e-09"}),
    "metric law": ("Y", {"labels": ["c", "d"], "metric": [["0", "4/2"], ["3", "0"]]},
                   "Y.metric is not a pseudometric: asymmetry at (0, 1)"),
    "ragged rows": ("cost", [["1/2", "inf"], ["0"]], "cost: rows have unequal lengths"),
    "non-lowest terms": ("mu", ["-2/6", " +8/6 "], {"rational": "mu[0]: negative mass -1/3",
                                                    "float": "mu[0]: negative mass -0.3333333333333333"}),
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("case", sorted(BAD_TOKENS))
def test_a_bad_token_gives_the_error_of_the_per_cell_reader(tmp_path, capsys, case, mode):
    key, value, text = BAD_TOKENS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TOKENS, key: value, "mode": mode}), encoding="utf-8")
    code, out, err = run_cli(["solve", str(path)], capsys)
    text = text[mode] if isinstance(text, dict) else text
    assert (code, out, err) == (1, "", f"otlab: error: {text}\n")
    # the valid instance solves in both modes
    path.write_text(json.dumps({**TOKENS, "mode": mode}), encoding="utf-8")
    assert run_cli(["solve", str(path)], capsys)[0] == 0


FINITE = {"cost": [["1/2", "1"], ["3", "0"]]}
# Every other error the CLI prints, one row each: the command, then the
# instance file as TOKENS with these keys replaced (None drops a key), or the
# file's text, or None for a command that reads no file; then stderr.
CLI_ERRORS = {
    "gen unknown fixture": (["gen", "mystery"], None,
                            "unknown fixture 'mystery'; choose one of discrete-metric-spike, "
                            "indicator, random-uniform, separable"),
    "gen size 0": (["gen", "random-uniform", "--size", "0"], None,
                   "fixture size must be at least 1"),
    "transform wrong phi length": (["transform", "--phi=0"], FINITE,
                                   "phi has shape (1,), expected (2,)"),
    "transform bad phi token": (["transform", "--phi=0,x"], FINITE,
                                "--phi[1]: bad number 'x' (Invalid literal for Fraction: 'x')"),
    "transform all-+inf column": (["transform", "--phi=0,0"],
                                  {"cost": [["1/2", "inf"], ["3", "inf"]]},
                                  "column 1 of the cost is entirely +inf"),
    "envelope bad level": (["envelope", "--levels", "1,x"], FINITE,
                           "levels[1]: bad number 'x' (Invalid literal for Fraction: 'x')"),
    "envelope non-increasing levels": (["envelope", "--levels", "2,1"], FINITE,
                                       "levels must be nonempty and strictly increasing"),
    "envelope no metric": (["envelope", "--levels", "1,2"],
                           {**FINITE, "X": {"labels": ["a", "b"]}},
                           "the envelope needs metrics on both spaces; refusing to default to "
                           "the discrete metric silently"),
    "envelope negative cost": (["envelope", "--levels", "1,2"],
                               {"cost": [["1/2", "inf"], ["-1", "0"]]},
                               "the envelope requires a nonnegative cost; cost[1][0] is -1"),
    "envelope negative float cost": (["envelope", "--float", "--levels", "1,2"],
                                     {"cost": [["1/2", "inf"], ["0", "-3/2"]]},
                                     "the envelope requires a nonnegative cost; "
                                     "cost[1][1] is -1.5"),
    "oracle over budget": (["oracle"], {"X": {"labels": list("abcde")},
                                        "Y": {"labels": list("fghi")}, "cost": [["1"] * 4] * 5,
                                        "mu": ["1/5"] * 5, "nu": ["1/4"] * 4},
                           "5x4 instance exceeds the oracle budget of 16 cells"),
    "oracle walled cost": (["oracle"], {}, "the oracle requires a bounded cost"),
    "invalid JSON": (["solve"], "{", "{path} is not valid JSON: Expecting property name enclosed "
                                     "in double quotes: line 1 column 2 (char 1)"),
    "missing key": (["solve"], {"nu": None}, "instance JSON is missing key 'nu'"),
    "non-string label": (["solve"], {"X": {"labels": ["a", 1]}},
                         "X.labels[1]: expected a string, got 1"),
    "unknown mode": (["solve"], {"mode": "decimal"}, "unknown mode 'decimal'"),
    "mu of the wrong length": (["solve"], {"mu": ["1"]}, "mu has 1 entries, X has 2"),
    "non-square metric": (["solve"], {"X": {"labels": ["a", "b"], "metric": [["0", "1"]]}},
                          "X.metric shape (1, 2) does not match 2 labels"),
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_a_cli_error_is_one_exact_line(tmp_path, capsys, case):
    args, data, text = CLI_ERRORS[case]
    path = tmp_path / "bad.json"
    if data is not None:
        if not isinstance(data, str):
            data = json.dumps({key: value for key, value in {**TOKENS, **data}.items()
                               if value is not None})
        path.write_text(data, encoding="utf-8")
        args = args + [str(path)]
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (1, "", f"otlab: error: {text.format(path=path)}\n")


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


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_infinite_envelope_level_is_named(tmp_path, capsys, flags):
    path = tmp_path / "inst.json"
    run_cli(["gen", "random-uniform", "--size", "3", "--seed", "0", "-o", str(path)], capsys)
    code, out, err = run_cli(["envelope", "--levels", "1,inf", *flags, str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "otlab: error: the level n must be finite and nonnegative, got inf\n"


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_envelope_at_level_zero_over_an_infinite_distance(tmp_path, capsys, flags):
    path = tmp_path / "walled.json"
    path.write_text(json.dumps({
        "X": {"labels": ["a", "b"], "metric": [["0/1", "inf"], ["inf", "0/1"]]},
        "Y": {"labels": ["u", "v"], "metric": [["0/1", "1/1"], ["1/1", "0/1"]]},
        "cost": [["1/1", "2/1"], ["3/1", "1/1"]], "mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"],
    }), encoding="utf-8")
    code, out, err = run_cli(["envelope", "--levels", "0,1,2", *flags, str(path)], capsys)
    assert (code, err) == (0, "")
    levels = json.loads(out)["levels"]
    zero, one = ("0/1", "1/1") if not flags else (0.0, 1.0)
    assert [lv["value"] for lv in levels] == [zero, one, one]


def _line_metric(points):
    return [[str(abs(a - b)) for b in points] for a in points]


@pytest.mark.parametrize("command", [["solve"], ["solve", "--float"], ["certify", "--float"]])
def test_a_rational_line_metric_passes_in_float_mode(tmp_path, capsys, command):
    # converted to float, some distances round above the sum of two others
    from fractions import Fraction as F

    points = [F(8, 9), F(2), F(27, 11), F(30, 11), F(36, 11)]
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "X": {"labels": list("abcde"), "metric": _line_metric(points)},
        "Y": {"labels": ["u"]},
        "cost": [["1"]] * 5, "mu": ["1/5"] * 5, "nu": ["1"],
    }), encoding="utf-8")
    code, out, err = run_cli([*command, str(path)], capsys)
    assert (code, err) == (0, "")


def test_a_float_line_metric_passes(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "mode": "float",
        "X": {"labels": ["a", "b", "c"], "metric": [[0, 0.7, 0.8], [0.7, 0, 0.1], [0.8, 0.1, 0]]},
        "Y": {"labels": ["u"]},
        "cost": [[0], [1], [2]], "mu": [0.5, 0.25, 0.25], "nu": [1],
    }), encoding="utf-8")
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert (code, err) == (0, "")


def test_a_bad_metric_names_its_space(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "X": {"labels": ["a", "b", "c"], "metric": _line_metric([0, 1, 2])},
        "Y": {"labels": ["u", "v", "w"], "metric": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]]},
        "cost": [["0", "1", "2"]] * 3, "mu": ["1/3"] * 3, "nu": ["1/3"] * 3,
    }), encoding="utf-8")
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "otlab: error: Y.metric is not a pseudometric: triangle at (0, 1, 2)\n"


def test_a_metric_of_the_wrong_shape_names_its_space(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "X": {"labels": ["a", "b"]},
        "Y": {"labels": ["u", "v"], "metric": _line_metric([0, 1, 2])},
        "cost": [["0", "1"]] * 2, "mu": ["1/2"] * 2, "nu": ["1/2"] * 2,
    }), encoding="utf-8")
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "otlab: error: Y.metric shape (3, 3) does not match 2 labels\n"


def test_envelope_law_violation_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    from otlab import envelope
    from otlab.primal import OptimalPlanResult

    path = tmp_path / "spike.json"
    run_cli(["gen", "discrete-metric-spike", "--size", "2", "-o", str(path)], capsys)
    values = iter([5, 3, 2])  # limit, then a chain that falls
    monkeypatch.setattr(
        envelope, "solve_primal",
        lambda instance, basis=None: OptimalPlanResult(plan=None, value=next(values), basis=()),
    )
    code, out, err = run_cli(["envelope", "--levels", "1,2", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("otlab: error:") and err.count("\n") == 1


# --- usage errors and subprocess smoke ---------------------------------------------


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1


def test_one_parser_serves_every_command_alike(fixture_file, capsys):
    from otlab.cli import _build_parser

    path = str(fixture_file)
    sequence = [["solve", "--dual", path], ["solve", path], ["solve", "--levels", "1", path],
                ["certify", path]]
    in_turn = [run_cli(argv, capsys) for argv in sequence]
    assert _build_parser() is _build_parser()
    alone = []
    for argv in sequence:
        _build_parser.cache_clear()
        alone.append(run_cli(argv, capsys))
    assert in_turn == alone
    assert "phi" not in json.loads(in_turn[1][1])
    assert in_turn[2][0] == 1 and "unrecognized arguments: --levels" in in_turn[2][2]


def test_non_utf8_instance_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"otlab: error: {path} is not valid JSON: 'utf-8' codec")
    assert err.count("\n") == 1


def test_bad_oracle_budget_is_a_one_line_error(fixture_file, capsys, monkeypatch):
    monkeypatch.setenv("OT_LAB_BUDGET", "abc")
    code, out, err = run_cli(["oracle", str(fixture_file)], capsys)
    assert (code, out) == (1, "")
    assert err == "otlab: error: OT_LAB_BUDGET: bad number 'abc' (not an integer)\n"


@pytest.mark.parametrize("args", [
    ["transform", "--phi", "0,abc,1"],
    ["envelope", "--levels", "1,x"],
    ["transform", "--float", "--phi", "0,1e400,1"],
    ["transform", "--phi=-inf,0,1"],
])
def test_bad_number_token_is_a_usage_error(fixture_file, capsys, args):
    code, out, err = run_cli(args + [str(fixture_file)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("otlab: error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_an_infinite_potential_has_no_transform(fixture_file, capsys, flags):
    code, out, err = run_cli(["transform", *flags, "--phi=inf,0,1", str(fixture_file)], capsys)
    assert (code, out, err) == (1, "", "otlab: error: phi must have finite entries\n")


class JSONNumber(str):
    """A token written into the instance file as a bare JSON number."""


@pytest.mark.parametrize("mode, field, cell, token, flags, where", [
    ("rational", "mu", 0, "1/0", [], "mu[0]"),
    ("rational", "cost", 1, "1e400", ["--float"], "cost[0][1]"),
    ("float", "cost", 1, "1e400", [], "cost[0][1]"),
    ("float", "mu", 0, float("nan"), [], "mu[0]"),
    ("float", "cost", 1, float("nan"), [], "cost[0][1]"),
    ("rational", "cost", 1, float("-inf"), [], "cost[0][1]"),
    ("rational", "cost", 1, JSONNumber("1e400"), ["--float"], "cost[0][1]"),
    ("float", "cost", 1, JSONNumber("1e400"), [], "cost[0][1]"),
    ("rational", "mu", 0, float("nan"), [], "mu[0]"),
    ("rational", "mu", 0, True, [], "mu[0]"),
    ("float", "cost", 0, True, [], "cost[0][0]"),
])
def test_bad_number_in_instance_is_a_one_line_error(
    fixture_file, capsys, mode, field, cell, token, flags, where
):
    data = json.loads(fixture_file.read_text())
    data["mode"] = mode
    if field == "mu":
        data["mu"][cell] = token
    else:
        data["cost"][0][cell] = token
    text = json.dumps(data)  # writes NaN and -inf as the literals NaN, -Infinity
    if isinstance(token, JSONNumber):
        text = text.replace(json.dumps(token), token)
    fixture_file.write_text(text)
    code, out, err = run_cli(["solve"] + flags + [str(fixture_file)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"otlab: error: {where}: bad number") and err.count("\n") == 1
    if token != token:  # NaN gets one reason in both modes
        assert err.endswith(" (not a number)\n")


@pytest.mark.parametrize("field, value, where", [
    ("cost", "7", "cost"),
    ("mu", "1", "mu"),
    ("cost", ["7"], "cost[0]"),
    ("X", {"labels": "ab"}, "X.labels"),
    ("X", {"labels": ["a"], "metric": "0"}, "X.metric"),
])
def test_a_string_in_place_of_a_list_is_a_one_line_error(tmp_path, capsys, field, value, where):
    data = {"X": {"labels": ["a"]}, "Y": {"labels": ["b"]},
            "cost": [["7"]], "mu": ["1"], "nu": ["1"]}
    data[field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["solve", "--dual", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"otlab: error: {where}: expected a list, got the string ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value, message", [
    ("mu", {"1/2": 0, "2/4": 0}, "mu: expected a list, got {'1/2': 0, '2/4': 0}"),
    ("nu", {"1": "x"}, "nu: expected a list, got {'1': 'x'}"),
    ("cost", {"3": 0, "5": 0}, "cost: expected a list, got {'3': 0, '5': 0}"),
    ("nu", 1, "nu: expected a list, got 1"),
    ("mu", None, "mu: expected a list, got None"),
    ("cost", [True], "cost[0]: expected a list, got True"),
    ("X", "a", "X: expected an object, got 'a'"),
    ("Y", ["b"], "Y: expected an object, got ['b']"),
    ("X", {"labels": 1}, "X.labels: expected a list, got 1"),
    ("X", {"labels": [["a"], None]}, "X.labels[0]: expected a string, got ['a']"),
    ("Y", {"labels": [True]}, "Y.labels[0]: expected a string, got True"),
    ("X", {"labels": ["a"], "metric": {"0": 0}}, "X.metric: expected a list, got {'0': 0}"),
])
def test_no_list_or_object_where_one_belongs_is_a_one_line_error(
    tmp_path, capsys, field, value, message
):
    # a JSON object is not read as its keys, nor a label as its str()
    data = {"X": {"labels": ["a"]}, "Y": {"labels": ["b"]},
            "cost": [["7"]], "mu": ["1"], "nu": ["1"]}
    data[field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["solve", "--dual", str(path)], capsys)
    assert (code, out, err) == (1, "", f"otlab: error: {message}\n")


def test_float_mass_not_one_prints_a_plain_float(fixture_file, capsys):
    data = json.loads(fixture_file.read_text())
    data["mode"] = "float"
    data["mu"] = [0.5, 0.6, 0.0]
    fixture_file.write_text(json.dumps(data))
    code, out, err = run_cli(["solve", str(fixture_file)], capsys)
    assert (code, out) == (1, "")
    assert err == "otlab: error: mu: mass sums to 1.1, expected 1 +/- 1e-09\n"


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_infinite_cost_solves_and_certifies(tmp_path, capsys, flags):
    path = tmp_path / "wall.json"
    path.write_text(json.dumps({
        "X": {"labels": ["x0", "x1"]},
        "Y": {"labels": ["y0", "y1"]},
        "cost": [["0", "inf"], ["3", "0"]],
        "mu": ["1/2", "1/2"],
        "nu": ["1/2", "1/2"],
        "mode": "rational",
    }))
    code, out, err = run_cli(["solve", "--dual"] + flags + [str(path)], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["dual_value"] == payload["value"]
    code, out, err = run_cli(["certify"] + flags + [str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "pass"


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
