"""Deterministic instance generators for the CLI and the test corpus.

Fixture families:

* ``indicator`` — samples `size` reals symmetric about 0 and evaluates the
  half-line indicator cost 1[x >= 0] + 1[y >= 0] on the grid (a bounded
  cost that is not lower semicontinuous for the usual line topology);
* ``random-uniform`` — seeded random rational costs, marginals, and
  1-d point metrics;
* ``separable`` — cost a(x) + b(y); every feasible plan is optimal;
* ``discrete-metric-spike`` — zero diagonal, spike value 10 off it, with
  the discrete metric: the canonical envelope-saturation example.

Generation is a pure function of (name, size, seed); all randomness flows
through one seeded generator so files regenerate byte-identically.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import FLOAT, RATIONAL, Instance, convert_instance, make_instance
from .errors import UnknownFixture

SPIKE = 10  # off-diagonal cost of the discrete-metric-spike family


def _symmetric_points(size: int):
    half = Fraction(size - 1, 2)
    return [Fraction(i) - half for i in range(size)]


def _abs_metric(points):
    return [[abs(a - b) for b in points] for a in points]


def _indicator(x) -> int:
    return 1 if x >= 0 else 0


def _fixture_indicator(size: int, rng: random.Random) -> Instance:
    points = _symmetric_points(size)
    cost = [[_indicator(x) + _indicator(y) for y in points] for x in points]
    uniform = [Fraction(1, size)] * size
    labels = [str(p) for p in points]
    metric = _abs_metric(points)
    return make_instance(
        cost,
        uniform,
        uniform,
        metric_x=metric,
        metric_y=metric,
        labels_x=labels,
        labels_y=labels,
    )


def _random_marginal(rng: random.Random, size: int):
    raw = [rng.randint(1, 9) for _ in range(size)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def _random_points(rng: random.Random, size: int):
    points = [Fraction(0)]
    for _ in range(size - 1):
        points.append(points[-1] + rng.randint(1, 3))
    return points


def _on_random_lines(cost, rng: random.Random) -> Instance:
    """The square ``cost`` on two random point lines with their line
    metrics and two random marginals, drawn from ``rng`` in that order."""
    size = len(cost)
    px = _random_points(rng, size)
    py = _random_points(rng, size)
    return make_instance(
        cost,
        _random_marginal(rng, size),
        _random_marginal(rng, size),
        metric_x=_abs_metric(px),
        metric_y=_abs_metric(py),
    )


def _fixture_random_uniform(size: int, rng: random.Random) -> Instance:
    cost = [
        [Fraction(rng.randint(0, 20), rng.randint(1, 4)) for _ in range(size)]
        for _ in range(size)
    ]
    return _on_random_lines(cost, rng)


def _fixture_separable(size: int, rng: random.Random) -> Instance:
    a = [Fraction(rng.randint(0, 10), rng.randint(1, 3)) for _ in range(size)]
    b = [Fraction(rng.randint(0, 10), rng.randint(1, 3)) for _ in range(size)]
    return _on_random_lines([[ai + bj for bj in b] for ai in a], rng)


def _fixture_spike(size: int, rng: random.Random) -> Instance:
    cost = [[0 if i == j else SPIKE for j in range(size)] for i in range(size)]
    metric = [[0 if i == j else 1 for j in range(size)] for i in range(size)]
    uniform = [Fraction(1, size)] * size
    return make_instance(cost, uniform, uniform, metric_x=metric, metric_y=metric)


_REGISTRY = {
    "indicator": _fixture_indicator,
    "random-uniform": _fixture_random_uniform,
    "separable": _fixture_separable,
    "discrete-metric-spike": _fixture_spike,
}

FIXTURE_NAMES = tuple(sorted(_REGISTRY))


def generate_fixture(name: str, size: int = 2, seed: int = 0, mode: str = RATIONAL) -> Instance:
    """Deterministic instance for (name, size, seed)."""
    if name not in _REGISTRY:
        raise UnknownFixture(
            f"unknown fixture {name!r}; choose one of {', '.join(FIXTURE_NAMES)}"
        )
    if size < 1:
        raise UnknownFixture("fixture size must be at least 1")
    rng = random.Random(seed)
    instance = _REGISTRY[name](size, rng)
    if mode == FLOAT:
        instance = convert_instance(instance, FLOAT)
    return instance
