"""Golden CLI output: the sha256 of stdout, stderr and the exit code of
``solve --dual``, ``certify``, ``envelope`` and ``transform`` on every
fixture family, sizes 1-6, seed 0, in both modes, and of ``solve --dual``
and ``certify`` on a 2 x 3 instance whose optimal basis holds a zero-mass
+inf cell.

The digests in ``golden_cli.json`` pin the wire format byte for byte. After
an intended change to it, write them again with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from otlab import convert_instance, solve_primal
from otlab.cli import main
from otlab.core import is_inf
from otlab.fixtures import FIXTURE_NAMES
from otlab.serialize import instance_from_dict

GOLDEN = Path(__file__).with_name("golden_cli.json")

# Row 1 reaches column 0 only, and row 0 every other column: the plan is
# three cells, and the fourth basic cell is a wall.
WALLED = {
    "X": {"labels": ["x0", "x1"]},
    "Y": {"labels": ["y0", "y1", "y2"]},
    "cost": [["inf", "13/3", "15/4"], ["7/3", "inf", "inf"]],
    "mu": ["1/2", "1/2"],
    "nu": ["1/2", "5/16", "3/16"],
}


def commands(size):
    phi = ",".join(f"{(-1) ** i * i}/{i + 1}" for i in range(size))
    return {
        "solve": ["solve", "--dual"],
        "certify": ["certify"],
        "envelope": ["envelope", "--levels", "0,1,2,4"],
        "transform": ["transform", f"--phi={phi}"],
    }


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def compute_digests(workdir):
    digests = {}
    for family in FIXTURE_NAMES:
        for size in range(1, 7):
            path = str(Path(workdir) / f"{family}-{size}.json")
            assert main(["gen", family, "--size", str(size), "--seed", "0", "-o", path]) == 0
            for name, argv in commands(size).items():
                for flags in ([], ["--float"]):
                    key = " ".join([name, family, str(size), *flags])
                    digests[key] = _digest(argv + flags + [path])
    path = Path(workdir) / "walled-2x3.json"
    path.write_text(json.dumps(WALLED))
    for name in ("solve", "certify"):
        for flags in ([], ["--float"]):
            key = " ".join([name, "walled-2x3", *flags])
            digests[key] = _digest(commands(2)[name] + flags + [str(path)])
    return digests


def test_the_walled_basis_holds_a_zero_mass_wall():
    inst = instance_from_dict(WALLED)
    for case in (inst, convert_instance(inst, "float")):
        res = solve_primal(case)
        walls = [cell for cell in res.basis if is_inf(case.cost.entries[cell])]
        assert walls and all(res.plan.entries[cell] == 0 for cell in walls)


def test_cli_output_matches_the_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = compute_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(tmp)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN}\n")
