"""The tracer's span tree and the computed counts of a traced run."""

import sys

import pytest

from run import TRACED_PASSES, closed_loop, load_otlab_cli
from tracer import Tracer
from workloads import WORKLOADS, gen_argv, make_pool

CLI = load_otlab_cli()


def _pool(name, tmp_path):
    workload = WORKLOADS[name]
    pool = make_pool(workload, 0, tmp_path)
    for item in pool:
        assert CLI.main(gen_argv(workload, item)) == 0
    return pool


def test_one_certify_op_has_two_primal_spans_one_under_solve_dual(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert CLI.main(["gen", "random-uniform", "--size", "5", "--seed", "1", "-o", str(path)]) == 0
    tracer = Tracer()
    with tracer.installed(), tracer.operation():
        assert CLI.main(["certify", str(path)]) == 0
    by_id = {span.id: span for span in tracer.spans}
    primal = [span for span in tracer.spans if span.name == "primal.solve"]
    assert len(primal) == 2
    parents = sorted(by_id[span.parent].name for span in primal)
    assert parents == ["certify.instance", "dual.solve"]
    assert {span.op for span in tracer.spans} == {0}
    assert tracer.spans[0].name == "cli" and tracer.spans[0].parent is None


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.operation():
        with tracer.span("primal.solve"):
            pass
    summary = tracer.summary()
    root, child = tracer.spans
    assert summary["layers"]["cli"]["self_s"] == pytest.approx(root.duration - child.duration)
    assert summary["spans"]["primal.solve"]["calls"] == 1


def test_installed_restores_every_patched_attribute():
    otlab_modules = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("otlab")}
    with Tracer().installed():
        assert CLI.solve_primal is not otlab_modules["otlab.cli"]["solve_primal"]
        assert sys.modules["otlab.dual"].solve_primal is CLI.solve_primal
    for name, before in otlab_modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items() if callable(v)), name


def _traced_counts(pool):
    tracer = Tracer()
    with tracer.installed():
        ops = closed_loop(CLI.main, pool, passes=TRACED_PASSES, tracer=tracer)
    summary = tracer.summary()
    calls = {name: entry["calls"] for name, entry in summary["spans"].items()}
    return len(ops), calls, summary["counts"]


@pytest.mark.parametrize("name, solves_per_op", [
    ("solve-exact", 2), ("solve-float", 2), ("certify", 2), ("envelope", 5),
])
def test_computed_counts_repeat_exactly(name, solves_per_op, tmp_path, capsys):
    pool = _pool(name, tmp_path)
    first = _traced_counts(pool)
    second = _traced_counts(pool)
    assert first == second
    n_ops, calls, _ = first
    assert calls["primal.solve"] == solves_per_op * n_ops
