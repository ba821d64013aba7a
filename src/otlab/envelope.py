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
(``core.min_plus_arrays``) in O(|X| |Y| (|X| + |Y|)):

    inner = min(c, n) (x) n d_Y,    c_n = n d_X (x) inner.

Rational data run on ints. The cost and the metrics (each part's cached
``int_view``) join over one denominator D, and the levels join it: with Q
the lcm of the levels' denominators, min(c, n), n d_X and n d_Y are ints
over DQ, so every level of a schedule is an int array over DQ, which its
cost holds as its ``int_view`` for the simplex (``CostMatrix.from_array``),
and the monotone law between two levels is one int comparison. A +inf distance
becomes n + 1: every level entry is at most n (the diagonal terms give
min(c, n)), so no sum through it is a minimum, and at level 0 the matrix is
0, as 0 * inf = 0 wants. Float data run the same products in float64.

The schedule solves the limit, then each level from the optimal basis of
the solve before it (``solve_primal(..., basis=...)``): the marginals are
those of every level, so that basis is feasible, and the next cost is near
enough that it is a few pivots from optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    INF,
    RATIONAL,
    CostMatrix,
    Instance,
    Number,
    as_matrix,
    array_view,
    as_numbers,
    cost_tolerance,
    frozen_array,
    int_dtype,
    is_inf,
    min_plus_arrays,
    require_pseudometric,
    scaled_array,
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
    if (cost.int_view[0] < 0).any():  # 0 on the +inf walls
        raise InfeasibleInput("the envelope requires a nonnegative cost")


def _read_metrics(cost: CostMatrix, d_x, d_y) -> list:
    """``d_x`` and ``d_y`` as :func:`lipschitz_envelope` reads them: ``(d,
    view)``, ``view`` the ``core.array_view`` of ``d``."""
    read = []
    for name, d, k in zip(("d_x", "d_y"), (d_x, d_y), cost.shape):
        d = as_matrix(d, cost.mode, name)
        if d.shape != (k, k):
            raise DimensionMismatch(f"{name} has shape {d.shape}, expected ({k}, {k})")
        view = array_view(*scaled_array(d), d.shape)
        require_pseudometric(d, name, view)
        read.append((d, view))
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
    return _level_costs(cost, _read_metrics(cost, d_x, d_y), [n])[0]


def _require_level(n: Number):
    if is_inf(n) or n < 0:
        raise InfeasibleInput(f"the level n must be finite and nonnegative, got {n}")


def _level_costs(cost: CostMatrix, metrics: list, levels: list) -> list:
    """The envelope of a nonnegative cost at each level, on symmetric metrics
    (:func:`_read_metrics` pairs, of which it reads the array views) and
    finite nonnegative levels read in its mode, one ``CostMatrix`` each: a
    rational level holds as its ``int_view`` its ints over the one denominator
    of all the levels (module docstring), in ``core.int_dtype`` of the level's
    largest product, and a finite float level's ``int_view`` is its entries."""
    rational = cost.mode == RATIONAL
    views = [cost.int_view] + [view for _, view in metrics]
    D = math.lcm(*(d for *_, d in views))  # 1 in float mode
    Q = math.lcm(*(n.denominator for n in levels)) if rational else 1
    # a part over D is its ints times D // d; a part of zeros stays zeros, in any dtype
    (c, wc, c_max, fc), (x, wx, x_max, fx), (y, wy, y_max, fy) = (
        (a, wall, big * (D // d), D // d if big else 1) for a, wall, big, d in views)
    out = []
    for n in levels:
        P = n.numerator * (Q // n.denominator) if rational else n  # n Q
        top = P * D  # n over the denominator D Q
        dtype = int_dtype(max(top + 1, P * max(x_max, y_max), Q * c_max)) if rational \
            else np.float64
        # inner[k, j] = min_l min(c[k, l], n) + n * d_Y[j, l]
        trunc = np.where(wc, top, np.minimum(c.astype(dtype) * (Q * fc), top))
        nx, ny = (np.where(w, top + 1, a.astype(dtype) * (P * f))
                  for a, w, f in ((x, wx, fx), (y, wy, fy)))
        entries = min_plus_arrays(nx, min_plus_arrays(trunc, ny))
        out.append(CostMatrix.from_array(entries, D * Q) if rational
                   else CostMatrix(frozen_array(entries, cost.mode)))
    return out


def envelope_schedule(instance: Instance, n_list: Sequence[Number]) -> EnvelopeSchedule:
    """Solve the regularized problem along increasing levels, on the
    instance's metrics as ``FiniteSpace`` checked them (read once, not per level).

    Checks the monotone chain v_n <= v_{n+1} <= v, raising
    EnvelopeLawViolation when it breaks, and reports the smallest listed
    level whose value equals the unregularized limit, if any. Comparisons
    are exact in rational mode; in float mode a level allows the larger cost
    tolerance of c and of its envelope matrix (above c only where c is +inf).
    """
    if instance.space_x.mode is None or instance.space_y.mode is None:
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
        limit = solve_primal(instance)
        limit_value, basis = limit.value, limit.basis
    except InfeasibleFiniteCost:
        # every plan hits an infinite cell: the value chain still rises, but
        # toward +inf and never saturates
        limit_value, basis = INF, None
    limit_tol = cost_tolerance(instance.cost)
    metrics = [(None, s.int_view) for s in (instance.space_x, instance.space_y)]
    levels = []
    saturation = None
    for n, cost_n in zip(levels_in, _level_costs(instance.cost, metrics, levels_in)):
        # each level starts from the optimal basis of the solve before it
        result = solve_primal(replace(instance, cost=cost_n), basis=basis)
        value_n, basis = result.value, result.basis
        tol = max(limit_tol, cost_tolerance(cost_n))
        if levels:
            previous = levels[-1]
            _assert_entrywise_le(previous.cost.int_view[0], cost_n.int_view[0], tol)
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


def _assert_entrywise_le(a: np.ndarray, b: np.ndarray, tol: Number):
    """Raise EnvelopeLawViolation at the first cell in row-major order where
    ``a > b + tol``: the ``int_view`` arrays of two :func:`_level_costs` levels."""
    over = a > b + tol
    first = int(over.argmax())
    if over.flat[first]:
        raise EnvelopeLawViolation(
            f"envelope must be nondecreasing in n at cell {divmod(first, a.shape[1])}"
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
    for axis, (d, _) in zip((OVER_X, OVER_Y), _read_metrics(cost, d_x, d_y)):
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
