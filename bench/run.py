"""otlab benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload solve-exact --seed 0 --seconds 25 --trace 0

One client runs ``otlab.cli.main([...])`` in this process on one generated
instance at a time and starts the next command only when the previous one
has returned, as a lab user waiting for each answer does. The client walks
the workload's instance pool in whole passes until ``--seconds`` have
elapsed. Every output is checked by ``checker.py`` after the timed region.

Times are host-corrected: a fixed ``Fraction`` loop (``reference_loop``)
runs between consecutive commands, and each command's wall time is scaled
by ``REFERENCE_S`` over the mean of the two loops around it. On a shared
host the same code runs up to ~1.8x slower for stretches of seconds to
minutes; the loop slows with it, so the ratio measures the code.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the run spends half of ``--seconds`` untraced, then runs
two traced passes and reports the per-layer metrics. The line before the
last one gives details: the tail percentile, the instance, pass and
operation counts, the uncorrected wall-time median, ``failed_frac``, the
first failures and the byte-drift comparison against ``pins.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checker
from tracer import LAYERS, Tracer
from workloads import RATIONAL, WORKLOADS, gen_argv, make_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"

TAIL_LADDER = (95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10
SETUP_REPEATS = 5
TRACED_PASSES = 2
# reference_loop's wall time on an idle core of the 2-vCPU Intel Xeon VM the
# benchmark was tuned on (Python 3.11). It only turns reference-loop units
# into seconds; comparisons between commits do not depend on its value.
REFERENCE_S = 0.0033
IMPORT_PROBE = "import time; t = time.perf_counter(); import otlab; print(time.perf_counter() - t)"

TIMED_SPANS = (
    "serialize.load", "serialize.dump", "core.validate", "primal.solve",
    "dual.solve", "dual.extract", "dual.improve", "ctransform.normalize",
    "certify.gap", "certify.marginals", "certify.slackness", "certify.cyclic",
    "envelope.schedule", "envelope.lipschitz",
)
CALLED_SPANS = ("primal.solve", "ctransform.transform", "envelope.lipschitz", "core.validate")
COMPUTED = ("primal.cells", "certify.support_cells", "certify.cyclic.checks", "envelope.cell_evals")


@dataclass
class Op:
    index: int  # position of the instance in the pool
    wall_s: float
    seconds: float  # wall_s, host-corrected
    rc: object
    stdout: str  # interned: every pass of a deterministic command shares one copy
    error: str  # traceback summary when the command raised, else ""


def reference_loop() -> float:
    """Wall time of a fixed pure-Python Fraction loop: the host's speed now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def corrected(wall_s, before, after):
    """wall_s at the host speed where reference_loop takes REFERENCE_S."""
    return wall_s * REFERENCE_S * 2 / (before + after)


def load_otlab_cli():
    """Import otlab from this checkout's src/, and from nowhere else."""
    if not (SRC / "otlab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no otlab package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import otlab.cli

    if Path(otlab.cli.__file__).resolve().parent != (SRC / "otlab").resolve():
        raise SystemExit(f"bench: imported otlab from {otlab.cli.__file__}, not {SRC}")
    return otlab.cli


def run_op(main, index, argv, tracer=None):
    """(wall seconds, exit code, stdout, error) of one command."""
    out = io.StringIO()
    error = ""
    rc = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        with tracer.operation() if tracer else nullcontext():
            start = time.perf_counter()
            try:
                rc = main(list(argv))
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                error = "".join(traceback.format_exception_only(exc)).strip()
            seconds = time.perf_counter() - start
    return seconds, rc, sys.intern(out.getvalue()), error


def closed_loop(main, pool, seconds=None, passes=None, tracer=None):
    """Whole passes over the pool, one command at a time with a reference
    loop between commands, until `seconds` have elapsed or `passes` passes
    are done. Returns the ops."""
    ops = []
    start = time.perf_counter()
    before = reference_loop()
    for done in itertools.count(1):
        for index, item in enumerate(pool):
            wall_s, rc, stdout, error = run_op(main, index, item.argv, tracer)
            after = reference_loop()
            ops.append(Op(index, wall_s, corrected(wall_s, before, after), rc, stdout, error))
            before = after
        if done == passes or (passes is None and time.perf_counter() - start >= seconds):
            return ops


def typical(ops, pool_size):
    """Each pool instance's median corrected command time over the run."""
    seconds = [[] for _ in range(pool_size)]
    for op in ops:
        seconds[op.index].append(op.seconds)
    return [statistics.median(s) for s in seconds]


def write_pool(cli, workload, pool):
    for item in pool:
        if cli.main(gen_argv(workload, item)) != 0:
            raise SystemExit(f"bench: otlab gen failed for {item.key}")


def set_up(cli, workload, pool) -> float:
    """Median over SETUP_REPEATS of: a fresh interpreter's `import otlab`
    plus generating and writing the pool's instance files in-process,
    host-corrected with five reference loops on either side."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(reference_loop() for _ in range(5))
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        start = time.perf_counter()
        write_pool(cli, workload, pool)
        wall_s = float(probe.stdout) + time.perf_counter() - start
        after = statistics.median(reference_loop() for _ in range(5))
        samples.append(corrected(wall_s, before, after))
    return statistics.median(samples)


def tail(seconds):
    """(percentile, value): the highest ladder percentile with at least
    MIN_BEYOND samples strictly past its nearest rank."""
    ordered = sorted(seconds)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def pinned(workload) -> bool:
    """Rational solve and envelope outputs are pinned; certify's stdout
    carries no optimum, so its bytes are the same for every instance."""
    return workload.mode == RATIONAL and workload.kind != "certify"


def load_pins(workload, seed):
    """sha256 of stdout per instance file, or None when pins.json holds no
    digests for this workload and seed."""
    pins = json.loads(PINS.read_text())
    if not pinned(workload) or pins["seed"] != seed:
        return None
    prefix = workload.name + "/"
    return {k[len(prefix):]: v for k, v in pins["sha256"].items() if k.startswith(prefix)}


def check_ops(workload, pool, ops, pins):
    """(failed count, first failure messages, ops compared with a pinned
    digest, ops whose bytes differ from it)."""
    pins = pins or {}
    instances = {}
    verdicts = {}
    failed, messages, compared, drifted = 0, [], 0, 0
    for op in ops:
        item = pool[op.index]
        if op.error or op.rc != 0:
            problems = [op.error or f"exit code {op.rc}"]
        else:
            key = (op.index, op.stdout)
            if key not in verdicts:
                if op.index not in instances:
                    instances[op.index] = checker.Instance(item.path.read_text())
                verdicts[key] = checker.check_output(workload.kind, instances[op.index], op.stdout)
            problems = verdicts[key]
            digest = pins.get(item.key)
            if digest:
                compared += 1
                drifted += hashlib.sha256(op.stdout.encode()).hexdigest() != digest
        if problems:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{item.key}: {'; '.join(problems[:3])}")
    return failed, messages, compared, drifted


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(ops, pool_size, setup_s, rss_mb):
    seconds = typical(ops, pool_size)
    percentile, tail_s = tail(seconds)
    metrics = {
        "op_s.p50": metric(statistics.median(seconds), "s"),
        "op_s.tail": metric(tail_s, "s"),
        "ops_per_s": metric(pool_size / sum(seconds), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return metrics, {
        "tail_percentile": percentile, "instances": pool_size, "passes": len(ops) // pool_size,
        "wall_s.p50": statistics.median(op.wall_s for op in ops),
    }


def per_layer(summary, traced_ops, untraced_ops, pool_size, drifted, compared):
    """Per-layer metrics of the traced passes, per run and per operation."""
    n = len(traced_ops)
    op_wall = sum(op.wall_s for op in traced_ops)  # the clock the spans use
    spans, layers, counts = summary["spans"], summary["layers"], summary["counts"]
    metrics = {}

    def both(name, total, unit):
        metrics[name] = metric(total, unit)
        metrics[name + ".per_op"] = metric(total / n, unit + "/op")

    for name in TIMED_SPANS:
        both(f"{name}.self_s", spans.get(name, {}).get("self_s", 0.0), "s")
    for name in CALLED_SPANS:
        both(f"{name}.calls", spans.get(name, {}).get("calls", 0), "count")
    for name in COMPUTED:
        both(name, counts.get(name, 0), "count")
    both("serialize.bytes_out", sum(len(op.stdout.encode()) for op in traced_ops), "B")
    both("cli.other_s", layers["cli"]["self_s"], "s")
    for layer in LAYERS:
        metrics[f"{layer}.share"] = metric(layers[layer]["self_s"] / op_wall, "ratio")
        metrics[f"{layer}.errors"] = metric(layers[layer]["errors"], "count")
    traced_p50 = statistics.median(typical(traced_ops, pool_size))
    untraced_p50 = statistics.median(typical(untraced_ops, pool_size))
    metrics["trace.overhead"] = metric(traced_p50 / untraced_p50 - 1, "ratio")
    metrics["out.digest_compared"] = metric(compared, "count")
    metrics["out.digest_changed"] = metric(drifted, "count")
    return metrics


def run(workload_name, seed, seconds, trace) -> dict:
    workload = WORKLOADS[workload_name]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    cli = load_otlab_cli()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        pool = make_pool(workload, seed, work_dir)
        if trace:
            write_pool(cli, workload, pool)
            untraced = closed_loop(cli.main, pool, seconds=seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced = closed_loop(cli.main, pool, passes=TRACED_PASSES, tracer=tracer)
            ops = untraced + traced
        else:
            setup_s = set_up(cli, workload, pool)
            ops = closed_loop(cli.main, pool, seconds=seconds)
            rss_mb = peak_rss_mb()  # before the checks below load anything
        pins = load_pins(workload, seed)
        failed, messages, compared, drifted = check_ops(workload, pool, ops, pins)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    detail = {
        "workload": workload.name, "seed": seed, "trace": int(bool(trace)),
        "ops": len(ops), "failed_frac": metric(failed / len(ops), "ratio"),
        "digests": (
            f"{drifted} of {compared} ops differ from pins.json" if pins is not None
            else "not compared: pins.json holds no digests for this workload and seed"
        ),
        "failures": messages,
    }
    if trace:
        # overhead against as many untraced passes, run just before the traced ones
        metrics = per_layer(
            tracer.summary(), traced, untraced[-len(traced):], len(pool), drifted, compared
        )
        detail["traced_ops"] = len(traced)
    else:
        metrics, stats = end_to_end(ops, len(pool), setup_s, rss_mb)
        detail.update(stats)
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="otlab closed-loop CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
