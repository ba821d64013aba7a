"""Lipschitz regularization of the cost and its value-convergence chain.

The level-n envelope replaces the cost by its inf-convolution with n times
the sum metric after truncation at n:

    c_n(x, y) = min over (z, t) of  min(c(z, t), n) + n * (d(x, z) + d(y, t))

c_n is n-Lipschitz for the sum metric, squeezed as 0 <= c_n <= min(c, n)
for nonnegative c, nondecreasing in n, and on finite spaces recovers c
exactly from a finite level onward, which :func:`saturation_index` reads
off the induced pseudometrics in closed form. Optimal values inherit the
monotone chain v_n <= v_{n+1} <= v and meet v at that saturation level.

The sum metric separates, so the matrix is two min-plus products
(``core.min_plus``, exact ints when rational) in O(|X| |Y| (|X| + |Y|)):

    inner = min(c, n) (x) n d_Y,    c_n = n d_X (x) inner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    INF,
    CostMatrix,
    Instance,
    Number,
    as_matrix,
    as_numbers,
    cost_tolerance,
    is_inf,
    min_plus,
    require_pseudometric,
    to_number,
    zero,
)
from .ctransform import OVER_X, OVER_Y, induced_pseudometric
from .errors import (
    BadNumber,
    DimensionMismatch,
    EnvelopeLawViolation,
    InfeasibleFiniteCost,
    InfeasibleInput,
    MissingMetric,
)
from .primal import solve_primal


@dataclass(frozen=True, eq=False)
class EnvelopeLevel:
    n: Number
    cost: CostMatrix
    value: Number


@dataclass(frozen=True, eq=False)
class EnvelopeSchedule:
    """Sorted regularization levels with their optimal values, the
    unregularized limit value, and the smallest listed level (if any) whose
    value already equals the limit."""

    levels: tuple
    limit_value: Number
    saturation_level: Optional[Number]


def _require_nonnegative(cost: CostMatrix):
    for v in cost.entries.flat:
        if not is_inf(v) and v < 0:
            raise InfeasibleInput("the envelope requires a nonnegative cost")


def _read_metrics(cost: CostMatrix, d_x, d_y) -> list:
    """``d_x`` and ``d_y`` read as :func:`lipschitz_envelope` states."""
    read = []
    for name, d, k in zip(("d_x", "d_y"), (d_x, d_y), cost.shape):
        d = as_matrix(d, cost.mode, name)
        if d.shape != (k, k):
            raise DimensionMismatch(f"{name} has shape {d.shape}, expected ({k}, {k})")
        require_pseudometric(d, name)
        read.append(d)
    return read


def lipschitz_envelope(cost: CostMatrix, d_x, d_y, n: Number) -> CostMatrix:
    """The level-n envelope matrix (see module docstring). The level is read
    in the cost's mode (a bad one is a BadNumber) and must be finite and
    nonnegative (else InfeasibleInput). The metrics are read in the cost's
    mode (``core.as_matrix``), must be square over X and Y (else
    DimensionMismatch) and must pass ``core.require_pseudometric`` (else
    MetricViolation naming d_x or d_y)."""
    _require_nonnegative(cost)
    try:
        n = to_number(n, cost.mode)
    except ValueError as exc:
        raise BadNumber(f"level n: {exc}") from None
    _require_level(n)
    return _level_cost(cost, *_read_metrics(cost, d_x, d_y), n)


def _require_level(n: Number):
    if is_inf(n) or n < 0:
        raise InfeasibleInput(f"the level n must be finite and nonnegative, got {n}")


def _level_cost(cost: CostMatrix, dx: np.ndarray, dy: np.ndarray, n: Number) -> CostMatrix:
    """The level-n envelope of a nonnegative cost, on metrics and a finite
    nonnegative level already read in its mode."""
    # inner[k, j] = min_l min(c[k, l], n) + n * d_Y[j, l]
    inner = min_plus(np.minimum(cost.entries, n), _times(n, dy.T))
    out = min_plus(_times(n, dx), inner)
    return CostMatrix(out)


def _times(n: Number, d: np.ndarray) -> np.ndarray:
    """``n * d`` with 0 * inf = 0 (the convention of core)."""
    return d * n if n else np.full(d.shape, n, dtype=d.dtype)


def envelope_schedule(instance: Instance, n_list: Sequence[Number]) -> EnvelopeSchedule:
    """Solve the regularized problem along increasing levels, on the
    instance's metrics as ``FiniteSpace`` checked them (read once, not per level).

    Checks the monotone chain v_n <= v_{n+1} <= v, raising
    EnvelopeLawViolation when it breaks, and reports the smallest listed
    level whose value equals the unregularized limit, if any. Comparisons
    are exact in rational mode; in float mode a level allows the larger cost
    tolerance of c and of its envelope matrix (above c only where c is +inf).
    """
    if instance.space_x.metric is None or instance.space_y.metric is None:
        raise MissingMetric(
            "the envelope needs metrics on both spaces; refusing to default "
            "to the discrete metric silently"
        )
    _require_nonnegative(instance.cost)
    levels_in = as_numbers(n_list, instance.mode, "levels")
    if not levels_in or any(b <= a for a, b in zip(levels_in, levels_in[1:])):
        raise InfeasibleInput("levels must be nonempty and strictly increasing")
    for n in levels_in:
        _require_level(n)

    try:
        limit_value = solve_primal(instance).value
    except InfeasibleFiniteCost:
        # every plan hits an infinite cell: the value chain still rises, but
        # toward +inf and never saturates
        limit_value = INF
    dx = instance.space_x.metric
    dy = instance.space_y.metric
    limit_tol = cost_tolerance(instance.cost)
    levels = []
    saturation = None
    for n in levels_in:
        cost_n = _level_cost(instance.cost, dx, dy, n)
        value_n = solve_primal(replace(instance, cost=cost_n)).value
        tol = max(limit_tol, cost_tolerance(cost_n))
        if levels:
            previous = levels[-1]
            _assert_entrywise_le(previous.cost, cost_n, tol)
            if value_n < previous.value - tol:
                raise EnvelopeLawViolation(
                    f"value chain must be nondecreasing in n: level {n} gives "
                    f"{value_n} < {previous.value}"
                )
        if value_n > limit_value + tol:
            raise EnvelopeLawViolation(
                f"regularized value {value_n} at level {n} exceeds the limit "
                f"value {limit_value}"
            )
        if saturation is None and abs(value_n - limit_value) <= tol:
            saturation = n
        levels.append(EnvelopeLevel(n=n, cost=cost_n, value=value_n))

    return EnvelopeSchedule(
        levels=tuple(levels), limit_value=limit_value, saturation_level=saturation
    )


def _assert_entrywise_le(a: CostMatrix, b: CostMatrix, tol: Number):
    m, n = a.shape
    for i in range(m):
        for j in range(n):
            x, y = a.entries[i, j], b.entries[i, j]
            # tol >= 0, so the plain comparison settles almost every cell
            if x > y and x > y + tol:
                raise EnvelopeLawViolation(
                    f"envelope must be nondecreasing in n at cell ({i}, {j})"
                )


def saturation_index(cost: CostMatrix, d_x, d_y) -> Number:
    """The smallest level n with lipschitz_envelope(cost, n) == cost:

        n* = max(||c||, max over both axes and pairs with d > 0 of d_c / d),

    where d_c is that axis's :func:`~otlab.ctransform.induced_pseudometric`
    and d its metric. Since c_n <= min(c, n), n* >= ||c||. For n >= ||c||,
    c_n = c exactly when c is n-Lipschitz for d_X + d_Y; by the triangle
    inequality through (x', y) that holds exactly when c is n-Lipschitz in
    each coordinate, that is d_c <= n d on each axis. O(|X| |Y| (|X| + |Y|)).

    Raises InfeasibleInput when no finite level recovers c: the cost
    differs over a pair at distance 0. The metrics are read as by
    :func:`lipschitz_envelope`.
    """
    cost.require_bounded("the saturation index")
    _require_nonnegative(cost)
    levels = [zero(cost.mode), cost.sup_norm()]
    for axis, d in zip((OVER_X, OVER_Y), _read_metrics(cost, d_x, d_y)):
        d_c = induced_pseudometric(cost, axis)
        stuck = (d == 0) & (d_c > 0)
        if stuck.any():
            pair = divmod(int(stuck.argmax()), len(d))
            raise InfeasibleInput(f"cost differs across the {axis} pair {pair} at distance 0; "
                                  f"no finite level recovers it")
        moves = d > 0
        if moves.any():
            levels.append((d_c[moves] / d[moves]).max())
    return max(levels)
