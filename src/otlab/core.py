"""Domain types and elementary value functionals for finite transport.

The data model is a finite transport instance: two finite spaces (with
optional metrics), a cost matrix over their product, and two probability
marginals. Everything downstream (solvers, transforms, certificates,
envelopes) consumes these types.

Two arithmetic modes coexist and are carried by array dtype:

* ``"rational"`` — entries are ``fractions.Fraction`` (or ints) held in
  ``dtype=object`` arrays; every identity is checked with exact equality.
* ``"float"`` — entries are ``float64``; checks use an explicit tolerance
  (:data:`FLOAT_TOL`).

Infinite costs are represented by the genuine ``math.inf`` marker, never a
large sentinel value. Wherever a plan mass of zero meets an infinite cost
the product contributes zero (the lower-integral convention 0 * inf = 0).

All containers are frozen dataclasses over read-only numpy arrays: they are
immutable after validation and safe to share across threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleInput,
    InfeasiblePotentials,
    InfiniteCostInBoundedMode,
    MassNotOne,
    MetricViolation,
    NegativeMass,
)

RATIONAL = "rational"
FLOAT = "float"

#: Absolute tolerance used by float-mode feasibility and identity checks.
FLOAT_TOL = 1e-9

#: Tolerance for float-mode marginal normalization.
MASS_TOL = 1e-12

INF = math.inf

Number = Union[int, Fraction, float]


def is_inf(x) -> bool:
    """True for the +inf cost marker."""
    return isinstance(x, float) and math.isinf(x)


def to_number(x, mode: str) -> Number:
    """Coerce a scalar (int, Fraction, float, "p/q" or "inf" string) to the
    arithmetic mode. Rational mode refuses non-integral floats rather than
    silently converting binary fractions."""
    if isinstance(x, str):
        x = INF if x.strip() in ("inf", "+inf", "Infinity") else Fraction(x)
    if is_inf(x):
        return INF
    if mode == RATIONAL:
        if isinstance(x, float):
            if not x.is_integer():
                raise ValueError(
                    f"non-integral float {x!r} in rational mode; pass a Fraction or 'p/q' string"
                )
            return Fraction(int(x))
        return Fraction(x)
    if mode == FLOAT:
        return float(x)
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def zero(mode: str) -> Number:
    return Fraction(0) if mode == RATIONAL else 0.0


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def as_vector(values: Sequence, mode: str) -> np.ndarray:
    vals = [to_number(v, mode) for v in values]
    dtype = object if mode == RATIONAL else np.float64
    return _freeze(np.array(vals, dtype=dtype))


def as_matrix(rows: Sequence[Sequence], mode: str) -> np.ndarray:
    converted = [[to_number(v, mode) for v in row] for row in rows]
    widths = {len(r) for r in converted}
    if len(widths) > 1:
        raise DimensionMismatch("matrix rows have unequal lengths")
    dtype = object if mode == RATIONAL else np.float64
    arr = np.empty((len(converted), widths.pop() if widths else 0), dtype=dtype)
    for i, row in enumerate(converted):
        for j, v in enumerate(row):
            arr[i, j] = v
    return _freeze(arr)


def budget_from_env(budget: Optional[int], default: int) -> int:
    """An explicit budget, else the ``OT_LAB_BUDGET`` environment variable,
    else ``default``."""
    if budget is not None:
        return budget
    env = os.environ.get("OT_LAB_BUDGET")
    return int(env) if env else default


def mode_of(arr: np.ndarray) -> str:
    return RATIONAL if arr.dtype == object else FLOAT


def tolerance(mode: str) -> Number:
    """Default comparison tolerance for a mode (0 exact in rational mode)."""
    return Fraction(0) if mode == RATIONAL else FLOAT_TOL


# ---------------------------------------------------------------------------
# Integer scaling
# ---------------------------------------------------------------------------


def _common_denominator(values) -> int:
    """Least common multiple of the denominators of finite rational values;
    infinite markers are skipped."""
    return math.lcm(*{v.denominator for v in values if not is_inf(v)})


def _scale_to_ints(values, scale: int) -> list:
    """Rational values times ``scale`` (a multiple of every denominator) as
    Python ints; infinite markers stay symbolic."""
    return [v if is_inf(v) else v.numerator * (scale // v.denominator) for v in values]


def shortest_distances(n: int, arcs, z=0):
    """Bellman-Ford from a virtual source joined to all ``n`` nodes by arcs of
    weight ``z``.

    ``arcs`` holds ``(u, v, w)`` triples, relaxed in the given order as
    ``dist[v] = min(dist[v], dist[u] + w)``; rounds stop at the first one that
    changes nothing. Returns the distance list, or None when some directed
    cycle has negative total weight (no round settles). Without a negative
    cycle the distances are unique, whatever the arc order."""
    dist = [z] * n
    for _ in range(n + 1):
        changed = False
        for u, v, w in arcs:
            d = dist[u] + w
            if d < dist[v]:
                dist[v] = d
                changed = True
        if not changed:
            return dist
    return None


def _comparable_rows(arr: np.ndarray, exact: bool = False) -> list:
    """Rows of a matrix as plain Python numbers that compare like the
    entries: rational entries scaled to ints by one common factor, float
    entries as floats, or with ``exact`` also scaled to ints through their
    exact ``Fraction`` values. Positive scaling preserves every order
    relation and every sum comparison; ``+inf`` markers stay symbolic."""
    rows = arr.tolist()
    if mode_of(arr) != RATIONAL:
        if not exact:
            return rows
        rows = [[v if is_inf(v) else Fraction(v) for v in row] for row in rows]
    scale = _common_denominator(v for row in rows for v in row)
    return [_scale_to_ints(row, scale) for row in rows]


def metric_violation(d: np.ndarray):
    """The first failed pseudometric law of a square matrix, or None.

    Returns ``(kind, cell)``: ``("diagonal", (i,))``, ``("negative", (i, j))``,
    ``("asymmetry", (i, j))`` or ``("triangle", (i, l, j))`` when
    d[i][j] > d[i][l] + d[l][j]. Rows are scanned in ``i, j`` order with the
    diagonal, sign and symmetry checks first, then triples in ``i, j, l``
    order, so the first reported cell is deterministic. Callers format the
    message from the original entries."""
    rows = _comparable_rows(d)
    k = len(rows)
    for i in range(k):
        row = rows[i]
        if row[i] != 0:
            return "diagonal", (i,)
        for j in range(k):
            if row[j] < 0:
                return "negative", (i, j)
            if row[j] != rows[j][i]:
                return "asymmetry", (i, j)
    for i in range(k):
        row_i = rows[i]
        for j in range(k):
            d_ij = row_i[j]
            # symmetric by now, so rows[j][l] == d[l][j]
            if any(d_ij > a + b for a, b in zip(row_i, rows[j])):
                for l in range(k):
                    if d_ij > row_i[l] + rows[l][j]:
                        return "triangle", (i, l, j)
    return None


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite ground space: distinct point labels plus an optional metric.

    The metric matrix, when present, must be square, symmetric, nonnegative,
    zero on the diagonal and satisfy the triangle inequality for every
    triple. Zero distance between distinct points is allowed (pseudometric).
    """

    labels: tuple
    metric: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if not self.labels:
            raise DimensionMismatch("space needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise MetricViolation("labels must be distinct")
        if self.metric is not None:
            d = self.metric
            k = len(self.labels)
            if d.shape != (k, k):
                raise DimensionMismatch(
                    f"metric shape {d.shape} does not match {k} labels"
                )
            bad = metric_violation(d)
            if bad is None:
                return
            kind, cell = bad
            names = tuple(self.labels[a] for a in cell)
            if kind == "diagonal":
                raise MetricViolation(f"nonzero diagonal at {names[0]}")
            if kind == "negative":
                raise MetricViolation(f"negative distance ({names[0]}, {names[1]})")
            if kind == "asymmetry":
                raise MetricViolation(f"asymmetry at ({names[0]}, {names[1]})")
            i, l, j = cell
            raise MetricViolation(
                f"triangle inequality fails on ({i}, {l}, {j}): "
                f"d({i},{j})={d[i, j]} > {d[i, l]} + {d[l, j]}"
            )

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Cost entries over X x Y; each entry finite or +inf, never -inf."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise DimensionMismatch("cost must be a 2-d matrix")
        for row in self.entries:
            for v in row:
                if isinstance(v, float) and math.isinf(v) and v < 0:
                    raise InfiniteCostInBoundedMode("-inf cost entry")
                if isinstance(v, float) and math.isnan(v):
                    raise InfiniteCostInBoundedMode("NaN cost entry")

    @classmethod
    def bounded(cls, entries: np.ndarray) -> "CostMatrix":
        """Construct with the boundedness flag set: +inf entries rejected."""
        c = cls(entries)
        if not c.is_bounded:
            raise InfiniteCostInBoundedMode("infinite entry in bounded cost")
        return c

    @property
    def shape(self):
        return self.entries.shape

    @property
    def is_bounded(self) -> bool:
        return not any(is_inf(v) for v in self.entries.flat)

    @property
    def mode(self) -> str:
        return mode_of(self.entries)

    def sup_norm(self) -> Number:
        """max |c[i][j]| over all entries; requires a bounded matrix."""
        if not self.is_bounded:
            raise InfiniteCostInBoundedMode("sup norm of an unbounded cost")
        return max(abs(v) for v in self.entries.flat)


@dataclass(frozen=True, eq=False)
class Marginal:
    """A probability vector: nonnegative weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.ndim != 1 or w.shape[0] == 0:
            raise DimensionMismatch("marginal must be a nonempty vector")
        for v in w:
            if is_inf(v):
                raise NegativeMass("marginal entries must be finite")
            if v < 0:
                raise NegativeMass(f"negative mass {v}")
        total = sum(w)
        if mode_of(w) == RATIONAL:
            if total != 1:
                raise MassNotOne(f"mass sums to {total}, expected 1")
        elif abs(total - 1.0) > MASS_TOL:
            raise MassNotOne(f"mass sums to {total!r}, expected 1 +/- {MASS_TOL}")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def mode(self) -> str:
        return mode_of(self.weights)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative joint mass matrix; the discrete transport plan."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise DimensionMismatch("plan must be a 2-d matrix")
        for v in self.entries.flat:
            if is_inf(v):
                raise NegativeMass("plan entries must be finite")
            if v < 0:
                raise NegativeMass(f"negative plan mass {v}")

    @property
    def shape(self):
        return self.entries.shape

    @property
    def mode(self) -> str:
        return mode_of(self.entries)

    def row_sums(self):
        return [sum(self.entries[i, :]) for i in range(self.shape[0])]

    def col_sums(self):
        return [sum(self.entries[:, j]) for j in range(self.shape[1])]

    def support(self, tol: Optional[Number] = None):
        """Cells carrying mass above tol (0 rational / 1e-12 float)."""
        if tol is None:
            tol = Fraction(0) if self.mode == RATIONAL else 1e-12
        m, n = self.shape
        return tuple(
            (i, j) for i in range(m) for j in range(n) if self.entries[i, j] > tol
        )

    def check_feasible(self, mu: Marginal, nu: Marginal, tol: Optional[Number] = None):
        """Raise unless row sums match mu and column sums match nu."""
        if self.shape != (mu.size, nu.size):
            raise DimensionMismatch(
                f"plan shape {self.shape} vs marginals ({mu.size}, {nu.size})"
            )
        if tol is None:
            tol = tolerance(self.mode)
        for i, s in enumerate(self.row_sums()):
            if abs(s - mu.weights[i]) > tol:
                raise InfeasibleInput(f"row {i} sums to {s}, expected {mu.weights[i]}")
        for j, s in enumerate(self.col_sums()):
            if abs(s - nu.weights[j]) > tol:
                raise InfeasibleInput(f"column {j} sums to {s}, expected {nu.weights[j]}")


@dataclass(frozen=True, eq=False)
class DualPotentials:
    """A pair (phi over X, psi over Y) of finite potential vectors."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if self.phi.ndim != 1 or self.psi.ndim != 1:
            raise DimensionMismatch("potentials must be vectors")
        for v in list(self.phi) + list(self.psi):
            if isinstance(v, float) and not math.isfinite(v):
                raise InfeasiblePotentials(f"non-finite potential entry {v!r}")

    @property
    def shape(self):
        return (self.phi.shape[0], self.psi.shape[0])

    def max_violation(self, cost: CostMatrix) -> Number:
        """max over cells of phi[i] + psi[j] - c[i][j] (negative slack)."""
        if cost.shape != self.shape:
            raise DimensionMismatch(f"potentials {self.shape} vs cost {cost.shape}")
        worst = None
        for i in range(self.shape[0]):
            for j in range(self.shape[1]):
                c = cost.entries[i, j]
                if is_inf(c):
                    continue
                v = self.phi[i] + self.psi[j] - c
                if worst is None or v > worst:
                    worst = v
        return worst if worst is not None else zero(mode_of(self.phi))

    def is_feasible_for(self, cost: CostMatrix, tol: Optional[Number] = None) -> bool:
        if tol is None:
            tol = tolerance(mode_of(self.phi))
        return self.max_violation(cost) <= tol


@dataclass(frozen=True, eq=False)
class Instance:
    """A full transport instance; see :func:`validate_instance`."""

    space_x: FiniteSpace
    space_y: FiniteSpace
    cost: CostMatrix
    mu: Marginal
    nu: Marginal
    mode: str = RATIONAL
    validated: bool = field(default=False, compare=False)

    @property
    def shape(self):
        return (self.space_x.size, self.space_y.size)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_instance(instance: Instance, require_bounded: bool = False) -> Instance:
    """Run every cross-field invariant and return the validated instance.

    Individual types validate their own invariants at construction; this
    checks mutual consistency: dimensions, dtype/mode agreement, and (when
    ``require_bounded``) the absence of infinite costs.
    """
    m, n = instance.space_x.size, instance.space_y.size
    if instance.cost.shape != (m, n):
        raise DimensionMismatch(
            f"cost shape {instance.cost.shape} vs spaces ({m}, {n})"
        )
    if instance.mu.size != m:
        raise DimensionMismatch(f"mu has {instance.mu.size} entries, X has {m}")
    if instance.nu.size != n:
        raise DimensionMismatch(f"nu has {instance.nu.size} entries, Y has {n}")
    if instance.mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown mode {instance.mode!r}")
    arrays = [instance.cost.entries, instance.mu.weights, instance.nu.weights]
    for space in (instance.space_x, instance.space_y):
        if space.metric is not None:
            arrays.append(space.metric)
    for arr in arrays:
        if mode_of(arr) != instance.mode:
            raise ValueError(
                f"array dtype {arr.dtype} does not match mode {instance.mode!r}"
            )
    if require_bounded and not instance.cost.is_bounded:
        raise InfiniteCostInBoundedMode("instance declared bounded has +inf cost")
    return replace(instance, validated=True)


def make_instance(
    cost,
    mu,
    nu,
    mode: str = RATIONAL,
    metric_x=None,
    metric_y=None,
    labels_x=None,
    labels_y=None,
) -> Instance:
    """Build and validate an Instance from plain nested sequences."""
    cost_m = as_matrix(cost, mode)
    m, n = cost_m.shape
    if labels_x is None:
        labels_x = tuple(f"x{i}" for i in range(m))
    if labels_y is None:
        labels_y = tuple(f"y{j}" for j in range(n))
    sx = FiniteSpace(labels=tuple(labels_x), metric=None if metric_x is None else as_matrix(metric_x, mode))
    sy = FiniteSpace(labels=tuple(labels_y), metric=None if metric_y is None else as_matrix(metric_y, mode))
    inst = Instance(
        space_x=sx,
        space_y=sy,
        cost=CostMatrix(cost_m),
        mu=Marginal(as_vector(mu, mode)),
        nu=Marginal(as_vector(nu, mode)),
        mode=mode,
    )
    return validate_instance(inst)


def convert_instance(instance: Instance, mode: str) -> Instance:
    """Re-express an instance in the other arithmetic mode."""
    if mode == instance.mode:
        return instance

    def conv_mat(arr):
        return as_matrix([[v for v in row] for row in arr], mode)

    sx = FiniteSpace(
        labels=instance.space_x.labels,
        metric=None if instance.space_x.metric is None else conv_mat(instance.space_x.metric),
    )
    sy = FiniteSpace(
        labels=instance.space_y.labels,
        metric=None if instance.space_y.metric is None else conv_mat(instance.space_y.metric),
    )
    inst = Instance(
        space_x=sx,
        space_y=sy,
        cost=CostMatrix(conv_mat(instance.cost.entries)),
        mu=Marginal(as_vector(list(instance.mu.weights), mode)),
        nu=Marginal(as_vector(list(instance.nu.weights), mode)),
        mode=mode,
    )
    return validate_instance(inst)


def scaled_data(instance: Instance):
    """Clear denominators once: return ``(mu, nu, cost, L, M)`` as nested
    Python lists, where rational-mode marginals are ints scaled by the LCM
    ``L`` of their denominators and finite costs are ints scaled by the LCM
    ``M`` of theirs. ``+inf`` cost cells stay the ``INF`` marker. Float mode
    passes the values through as floats with ``L = M = 1``."""
    mu = instance.mu.weights.tolist()
    nu = instance.nu.weights.tolist()
    cost = instance.cost.entries.tolist()
    if instance.mode != RATIONAL:
        return mu, nu, cost, 1, 1
    L = _common_denominator(mu + nu)
    M = _common_denominator(c for row in cost for c in row)
    return (
        _scale_to_ints(mu, L),
        _scale_to_ints(nu, L),
        [_scale_to_ints(row, M) for row in cost],
        L,
        M,
    )


# ---------------------------------------------------------------------------
# Value functionals
# ---------------------------------------------------------------------------


def plan_cost(plan: TransportPlan, cost: CostMatrix) -> Number:
    """Total transport cost sum_ij plan[i][j] * c[i][j].

    Returns +inf when positive mass sits on an infinite-cost cell; zero mass
    on such a cell contributes nothing (0 * inf = 0 convention).
    """
    if plan.shape != cost.shape:
        raise DimensionMismatch(f"plan {plan.shape} vs cost {cost.shape}")
    total = zero(plan.mode)
    for i in range(plan.shape[0]):
        for j in range(plan.shape[1]):
            mass = plan.entries[i, j]
            if mass > 0:
                c = cost.entries[i, j]
                if is_inf(c):
                    return INF
                total += mass * c
    return total


def dual_value(pot: DualPotentials, mu: Marginal, nu: Marginal) -> Number:
    """Dual objective sum_i phi[i] mu[i] + sum_j psi[j] nu[j]."""
    if pot.shape != (mu.size, nu.size):
        raise DimensionMismatch(
            f"potentials {pot.shape} vs marginals ({mu.size}, {nu.size})"
        )
    return sum(pot.phi[i] * mu.weights[i] for i in range(mu.size)) + sum(
        pot.psi[j] * nu.weights[j] for j in range(nu.size)
    )


def product_plan(mu: Marginal, nu: Marginal) -> TransportPlan:
    """The product coupling of mu and nu, the standard witness that the
    feasible set is nonempty."""
    out = np.multiply.outer(mu.weights, nu.weights)
    if mode_of(mu.weights) == RATIONAL:
        out = out.astype(object)
    return TransportPlan(_freeze(out))
