"""Shared corpus builders for the unit and acceptance suites."""

import random
from fractions import Fraction

import pytest

from otlab import make_instance


def random_rational_instance(rng, size_lo=1, size_hi=4, with_metrics=False,
                             max_num=20, max_den=4):
    """A seeded random instance with exact rational data."""
    m = rng.randint(size_lo, size_hi)
    n = rng.randint(size_lo, size_hi)
    cost = [
        [Fraction(rng.randint(0, max_num), rng.randint(1, max_den)) for _ in range(n)]
        for _ in range(m)
    ]
    kwargs = {}
    if with_metrics:
        kwargs["metric_x"] = _line_metric(rng, m)
        kwargs["metric_y"] = _line_metric(rng, n)
    return make_instance(cost, random_marginal(rng, m), random_marginal(rng, n), **kwargs)


def random_marginal(rng, size):
    raw = [rng.randint(1, 9) for _ in range(size)]
    total = sum(raw)
    return [Fraction(v, total) for v in raw]


def _line_metric(rng, size):
    points = [Fraction(0)]
    for _ in range(size - 1):
        points.append(points[-1] + rng.randint(1, 3))
    return [[abs(a - b) for b in points] for a in points]


def random_potential(rng, size, max_num=10, max_den=4):
    return [
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        for _ in range(size)
    ]


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def primal_calls(monkeypatch):
    """Record every solve_primal call made through any otlab module alias
    (``otlab.solve_primal``, ``otlab.cli.solve_primal``, ...)."""
    import sys

    from otlab import primal

    original = primal.solve_primal
    calls = []

    def counting(instance, basis=None):
        calls.append(instance)
        return original(instance, basis=basis)

    for name, module in list(sys.modules.items()):
        if name == "otlab" or name.startswith("otlab."):
            if getattr(module, "solve_primal", None) is original:
                monkeypatch.setattr(module, "solve_primal", counting)
    return calls


@pytest.fixture
def feasibility_calls(monkeypatch):
    """Record every dual feasibility test (its cost): the one test behind
    DualPotentials.is_feasible_for and require_feasible_for."""
    from otlab import DualPotentials

    original = DualPotentials._feasible_read
    calls = []

    def counting(self, cost):
        calls.append(cost)
        return original(self, cost)

    monkeypatch.setattr(DualPotentials, "_feasible_read", counting)
    return calls
