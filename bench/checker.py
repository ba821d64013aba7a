"""Output checks that share no code with otlab's solvers.

Each check parses the instance file and the command's stdout on its own
(rationals as ``Fraction``) and returns a list of problems; an empty list
means the output is a correct optimum. Rational mode compares exactly; float
mode allows an error relative to the cost's sup norm.

``exact_value`` is the reference optimum for outputs that carry no plan (the
envelope limit): an integer min-cost flow by successive shortest paths on the
scaled instance, exact because transport polytopes have integral vertices
for integral marginals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

FLOAT_TOL = 1e-9


def _scalar(value, rational: bool):
    if value == "inf":
        return math.inf
    if rational:
        if not isinstance(value, str):
            raise ValueError(f"rational output carries a non-string scalar {value!r}")
        return Fraction(value)
    return float(value)


class Instance:
    """The parts of an instance file the checks need."""

    def __init__(self, text: str):
        data = json.loads(text)
        self.mode = data["mode"]
        self.rational = self.mode == "rational"
        self.cost = [[_scalar(v, self.rational) for v in row] for row in data["cost"]]
        self.mu = [_scalar(v, self.rational) for v in data["mu"]]
        self.nu = [_scalar(v, self.rational) for v in data["nu"]]
        if self.rational:
            self.value_tol = self.mass_tol = Fraction(0)
        else:
            norm = max(abs(v) for row in self.cost for v in row)
            self.value_tol = FLOAT_TOL * (1 + norm)
            self.mass_tol = FLOAT_TOL

    @property
    def shape(self):
        return len(self.mu), len(self.nu)


def check_output(kind: str, instance: Instance, stdout: str) -> list:
    """Problems found in one command's stdout; [] when it is correct."""
    try:
        out = json.loads(stdout)
        return _CHECKS[kind](instance, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def check_solve(inst: Instance, out: dict) -> list:
    """Feasible plan, feasible potentials tight on the support and equal
    objective values: together a proof that both are optimal."""
    problems = []
    m, n = inst.shape
    r = inst.rational
    if out["mode"] != inst.mode:
        problems.append(f"mode {out['mode']!r} != instance mode {inst.mode!r}")
    plan = [[_scalar(v, r) for v in row] for row in out["plan"]]
    phi = [_scalar(v, r) for v in out["phi"]]
    psi = [_scalar(v, r) for v in out["psi"]]
    if len(plan) != m or any(len(row) != n for row in plan) or len(phi) != m or len(psi) != n:
        return problems + ["plan or potentials have the wrong shape"]
    value = _scalar(out["value"], r)
    dual_val = _scalar(out["dual_value"], r)
    mtol, vtol = inst.mass_tol, inst.value_tol

    if any(x < -mtol for row in plan for x in row):
        problems.append("negative plan mass")
    for i in range(m):
        if abs(sum(plan[i]) - inst.mu[i]) > mtol:
            problems.append(f"row {i} does not sum to mu")
    for j in range(n):
        if abs(sum(plan[i][j] for i in range(m)) - inst.nu[j]) > mtol:
            problems.append(f"column {j} does not sum to nu")
    for i in range(m):
        for j in range(n):
            slack = inst.cost[i][j] - phi[i] - psi[j]
            if slack < -vtol:
                problems.append(f"phi + psi > c at ({i}, {j})")
            elif plan[i][j] > mtol and slack > vtol:
                problems.append(f"support cell ({i}, {j}) is not tight")
    if abs(value - dual_val) > vtol:
        problems.append("value != dual_value")
    plan_cost = sum(plan[i][j] * inst.cost[i][j] for i in range(m) for j in range(n))
    if abs(plan_cost - value) > vtol:
        problems.append("value != cost of the plan")
    potential_value = sum(p * w for p, w in zip(phi, inst.mu)) + sum(
        p * w for p, w in zip(psi, inst.nu)
    )
    if abs(potential_value - dual_val) > vtol:
        problems.append("dual_value != value of the potentials")
    return problems


def check_certify(inst: Instance, out: dict) -> list:
    problems = []
    if out["verdict"] != "pass":
        problems.append(f"verdict {out['verdict']!r}")
    if out["gap"] != "0/1":
        problems.append(f"gap {out['gap']!r} is not 0/1")
    if out["marginals"]["verdict"] != "pass":
        problems.append("marginal law fails")
    if out["slackness"]:
        problems.append("complementary slackness fails")
    failing = [k for k, v in out["cyclic"].items() if v != "pass"]
    if sorted(out["cyclic"]) != ["k2", "k3", "k4"] or failing:
        problems.append(f"cyclic report {out['cyclic']!r}")
    return problems


def check_envelope(inst: Instance, out: dict) -> list:
    problems = []
    r = inst.rational
    levels = [(_scalar(lv["n"], r), _scalar(lv["value"], r)) for lv in out["levels"]]
    limit = _scalar(out["limit"], r)
    values = [v for _, v in levels]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("level values decrease")
    if any(v > limit for v in values):
        problems.append("a level value exceeds the limit")
    if limit != exact_value(inst):
        problems.append("limit is not the instance's optimal value")
    first_saturated = next((n for n, v in levels if v == limit), None)
    saturation = out["saturation_level"]
    if (saturation is None) != (first_saturated is None) or (
        saturation is not None and _scalar(saturation, r) != first_saturated
    ):
        problems.append("saturation_level is not the first level at the limit")
    return problems


_CHECKS = {"solve": check_solve, "certify": check_certify, "envelope": check_envelope}


def exact_value(inst: Instance) -> Fraction:
    """Exact optimal transport value of a rational instance with finite
    costs, by successive shortest paths on integer-scaled data."""
    m, n = inst.shape
    mass_scale = math.lcm(*(Fraction(w).denominator for w in inst.mu + inst.nu))
    cost_scale = math.lcm(*(Fraction(c).denominator for row in inst.cost for c in row))
    supply = [int(w * mass_scale) for w in inst.mu]
    demand = [int(w * mass_scale) for w in inst.nu]
    cost = [[int(c * cost_scale) for c in row] for row in inst.cost]
    flow = [[0] * n for _ in range(m)]
    while any(supply):
        # Bellman-Ford over the residual graph, every row with supply left a
        # source; rows are nodes 0..m-1, columns m..m+n-1.
        dist = [0 if s else None for s in supply] + [None] * n
        pred = [None] * (m + n)
        changed = True
        while changed:
            changed = False
            for i in range(m):
                if dist[i] is None:
                    continue
                for j in range(n):
                    d = dist[i] + cost[i][j]
                    if dist[m + j] is None or d < dist[m + j]:
                        dist[m + j], pred[m + j] = d, i
                        changed = True
            for j in range(n):
                if dist[m + j] is None:
                    continue
                for i in range(m):
                    if flow[i][j] > 0:
                        d = dist[m + j] - cost[i][j]
                        if dist[i] is None or d < dist[i]:
                            dist[i], pred[i] = d, m + j
                            changed = True
        sink = min((j for j in range(n) if demand[j]), key=lambda j: dist[m + j])
        path = [m + sink]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])
        source = path[-1]
        amount = min(supply[source], demand[sink])
        for a, b in zip(path, path[1:]):
            if a < m:  # column b -> row a walks a reverse arc
                amount = min(amount, flow[a][b - m])
        for a, b in zip(path, path[1:]):
            if a >= m:
                flow[b][a - m] += amount
            else:
                flow[a][b - m] -= amount
        supply[source] -= amount
        demand[sink] -= amount
    total = sum(flow[i][j] * cost[i][j] for i in range(m) for j in range(n))
    return Fraction(total, mass_scale * cost_scale)
