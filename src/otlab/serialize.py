"""JSON wire formats.

Instance schema::

    {
      "X": {"labels": [...], "metric": [[...]]?},
      "Y": {"labels": [...], "metric": [[...]]?},
      "cost": [[...]],            // "inf" string for +infinity
      "mu": [...], "nu": [...],
      "mode": "rational" | "float",
      "meta": {...}?              // optional provenance (fixture, seed)
    }

Rational scalars travel as "p/q" strings (integers as "p/1"); float-mode
scalars as JSON numbers. A float block of finite JSON numbers (no int, no
string, no NaN or Infinity literal) is read in one numpy pass; any other
is read cell by cell, to the same numbers and errors (``core.read_part``).
A JSON number beyond the float range is read like the same token written
as a string: exact in rational mode, a bad number in float mode.
Certificates serialize with the layout
``{"gap", "marginals", "slackness", "cyclic", "tolerances", "verdict"}``.
Key order is fixed so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from .certify import DualityCertificate
from .core import (
    FLOAT,
    RATIONAL,
    DualPotentials,
    FiniteSpace,
    Instance,
    is_inf,
    make_instance,
    require_list,
)
from .envelope import EnvelopeSchedule
from .errors import OTLabError
from .primal import OptimalPlanResult


def format_scalar(value, mode: str, D: int = 1):
    """Mode-aware JSON scalar of ``value / D`` (a scaled value over its
    denominator ``D``; 1 in float mode): "p/q" strings in lowest terms in
    rational mode, with no ``Fraction`` built, numbers in float mode, "inf"
    for the infinity marker."""
    if is_inf(value):
        return "inf"
    if mode != RATIONAL:
        return float(value)
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    p, q = value.numerator, value.denominator * D
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def format_vector(values, mode: str):
    return [format_scalar(v, mode) for v in values]


def format_matrix(rows, mode: str):
    return [[format_scalar(v, mode) for v in row] for row in rows]


def instance_to_dict(instance: Instance) -> dict:
    mode = instance.mode

    def space_dict(space: FiniteSpace):
        d = {"labels": list(space.labels)}
        if space.mode is not None:
            d["metric"] = format_matrix(space.metric, mode)
        return d

    return {
        "X": space_dict(instance.space_x),
        "Y": space_dict(instance.space_y),
        "cost": format_matrix(instance.cost.entries, mode),
        "mu": format_vector(instance.mu.weights, mode),
        "nu": format_vector(instance.nu.weights, mode),
        "mode": mode,
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        mode = data.get("mode", RATIONAL)
        if mode not in (RATIONAL, FLOAT):
            raise OTLabError(f"unknown mode {mode!r}")
        x, y = data["X"], data["Y"]
        for name, space in (("X", x), ("Y", y)):
            if not isinstance(space, dict):
                raise OTLabError(f"{name}: expected an object, got {space!r}")
            require_list(space["labels"], f"{name}.labels")
            for k, label in enumerate(space["labels"]):
                if not isinstance(label, str):
                    raise OTLabError(f"{name}.labels[{k}]: expected a string, got {label!r}")
        # keys are read in check order: X, Y, cost, mu, nu (labels before metric)
        return make_instance(
            labels_x=tuple(x["labels"]),
            metric_x=x.get("metric"),
            labels_y=tuple(y["labels"]),
            metric_y=y.get("metric"),
            cost=data["cost"],
            mu=data["mu"],
            nu=data["nu"],
            mode=mode,
        )
    except KeyError as exc:
        raise OTLabError(f"instance JSON is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, OTLabError):
            raise
        raise OTLabError(f"malformed instance JSON: {exc}") from exc


def _json_float(token: str):
    """A JSON number as a float, or its token when it lies beyond the float
    range, so that it reads like the same token written as a string: exact
    in rational mode, a bad number in float mode, never an ``inf`` wall."""
    value = float(token)
    return token if math.isinf(value) else value


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=_json_float)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise OTLabError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise OTLabError(f"{path} must contain a JSON object")
    return instance_from_dict(data)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def result_to_dict(
    result: OptimalPlanResult,
    mode: str,
    pot: Optional[DualPotentials] = None,
    dual_val=None,
) -> dict:
    (m, n), (cells, masses, D) = result.plan.shape, result.plan.scaled_view
    plan = [[format_scalar(0, mode)] * n for _ in range(m)]
    for (i, j), x in zip(cells, masses):
        plan[i][j] = format_scalar(x, mode, D)
    out = {
        "mode": mode,
        "value": format_scalar(result.value, mode),
        "plan": plan,
        "basis": [list(cell) for cell in result.basis],
    }
    if pot is not None:
        phi, psi, D = pot.scaled_view
        out["phi"] = [format_scalar(v, mode, D) for v in phi]
        out["psi"] = [format_scalar(v, mode, D) for v in psi]
        out["dual_value"] = format_scalar(dual_val, mode)
    return out


def certificate_to_dict(cert: DualityCertificate, mode: str) -> dict:
    cyclic = {}
    for k in sorted(cert.cyclic):
        violation = cert.cyclic[k]
        if violation is None:
            cyclic[f"k{k}"] = "pass"
        else:
            cyclic[f"k{k}"] = {
                "cells": [list(c) for c in violation.cells],
                "baseline": format_scalar(violation.baseline, mode),
                "permuted": format_scalar(violation.permuted, mode),
            }
    return {
        "gap": format_scalar(cert.gap, mode),
        "marginals": {
            "max_row_deviation": format_scalar(cert.marginals.max_row_deviation, mode),
            "max_col_deviation": format_scalar(cert.marginals.max_col_deviation, mode),
            "verdict": "pass" if cert.marginals.passed else "fail",
        },
        "slackness": [
            {
                "cell": list(v.cell),
                "mass": format_scalar(v.mass, mode),
                "slack": format_scalar(v.slack, mode),
            }
            for v in cert.slackness
        ],
        "cyclic": cyclic,
        "tolerances": {
            "gap": format_scalar(cert.tol, mode),
            "marginals": format_scalar(cert.marginals.tol, mode),
        },
        "verdict": "pass" if cert.verdict else "fail",
    }


def schedule_to_dict(schedule: EnvelopeSchedule, mode: str) -> dict:
    return {
        "mode": mode,
        "levels": [
            {"n": format_scalar(lv.n, mode), "value": format_scalar(lv.value, mode)}
            for lv in schedule.levels
        ],
        "limit": format_scalar(schedule.limit_value, mode),
        "saturation_level": (
            None
            if schedule.saturation_level is None
            else format_scalar(schedule.saturation_level, mode)
        ),
    }
