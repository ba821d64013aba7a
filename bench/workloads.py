"""The benchmark's workloads: which CLI command runs on which instance pool.

Every workload is a fixed ladder of (fixture, size) pairs, each repeated
``copies`` times with instance seeds drawn from the run seed. The sizes are
fixed so that a different run seed changes the instances but not the mix
of problem sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

RATIONAL = "rational"
FLOAT = "float"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve", "certify" or "envelope": selects the output checks
    command: tuple  # CLI arguments placed before the instance path
    mode: str
    ladder: tuple  # ((fixture, (size, ...)), ...)
    copies: int


@dataclass(frozen=True)
class Item:
    """One generated instance and the command the client runs on it."""

    fixture: str
    size: int
    seed: int
    path: Path
    argv: tuple

    @property
    def key(self) -> str:
        return self.path.name


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-exact",
            kind="solve",
            command=("solve", "--dual"),
            mode=RATIONAL,
            ladder=(("random-uniform", (10,)),),
            copies=50,
        ),
        Workload(
            name="solve-float",
            kind="solve",
            command=("solve", "--dual"),
            mode=FLOAT,
            ladder=(("random-uniform", (14,)),),
            copies=50,
        ),
        Workload(
            name="certify",
            kind="certify",
            command=("certify",),
            mode=RATIONAL,
            ladder=(
                ("random-uniform", (5, 6, 7)),
                ("separable", (5, 6, 7)),
                ("indicator", (4, 6, 8, 10)),
                ("discrete-metric-spike", (6, 8, 10)),
            ),
            copies=8,
        ),
        Workload(
            name="envelope",
            kind="envelope",
            command=("envelope", "--levels", "1,2,4,8"),
            mode=RATIONAL,
            ladder=(
                ("random-uniform", (3, 4, 5, 6, 7)),
                ("discrete-metric-spike", (4, 5, 6, 7)),
            ),
            copies=8,
        ),
    )
}


def make_pool(workload: Workload, seed: int, work_dir: Path) -> list:
    """The workload's instance pool for a run seed, in the fixed order the
    client walks it on every pass. Same seed, same pool."""
    rng = random.Random(f"{workload.name}:{seed}")
    items = []
    for fixture, sizes in workload.ladder:
        for size in sizes:
            for _ in range(workload.copies):
                inst_seed = rng.randrange(2**31)
                path = work_dir / f"{fixture}-n{size}-s{inst_seed}.json"
                items.append(
                    Item(fixture, size, inst_seed, path, workload.command + (str(path),))
                )
    rng.shuffle(items)
    return items


def gen_argv(workload: Workload, item: Item) -> list:
    """`otlab gen` arguments that write the item's instance file."""
    argv = ["gen", item.fixture, "--size", str(item.size), "--seed", str(item.seed)]
    if workload.mode == FLOAT:
        argv.append("--float")
    return argv + ["-o", str(item.path)]
