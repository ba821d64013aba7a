"""Shared corpus builders for the unit and acceptance suites."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from otlab import Marginal, as_vector, make_instance, northwest_corner


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


# Distinct primes: an instance mixing them has a denominator LCM above 2**64.
DENOMINATORS = [1, 2, 3, 7, 2**31 - 1, 2**61 - 1, 10**9 + 7]


@st.composite
def rational_instances(draw, anywhere=False):
    """Rational instances with mixed and huge denominators, zero masses,
    optionally all-equal costs, and optionally +inf walls that keep the
    northwest-corner plan finite (so a finite optimum exists). With
    ``anywhere`` the walls may also sit on that plan's support, so the
    simplex first pivots mass off them, or finds no finite plan."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    den = st.sampled_from(DENOMINATORS)

    def marginal(size):
        raw = [Fraction(draw(st.integers(0, 9)), draw(den)) for _ in range(size)]
        if not any(raw):
            raw[draw(st.integers(0, size - 1))] = Fraction(1)
        total = sum(raw)
        return [w / total for w in raw]

    mu, nu = marginal(m), marginal(n)
    if draw(st.booleans()):
        tie = Fraction(draw(st.integers(-20, 50)), draw(den))
        cost = [[tie] * n for _ in range(m)]
    else:
        cost = [[Fraction(draw(st.integers(-20, 50)), draw(den)) for _ in range(n)]
                for _ in range(m)]
    if draw(st.booleans()):
        keep = () if anywhere else set(
            northwest_corner(marginal_of(mu), marginal_of(nu)).support()
        )
        for i in range(m):
            for j in range(n):
                if (i, j) not in keep and draw(st.integers(0, 2)) == 0:
                    cost[i][j] = "inf"
    return make_instance(cost, mu, nu)


def marginal_of(weights):
    return Marginal(as_vector(weights, "rational"))


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
