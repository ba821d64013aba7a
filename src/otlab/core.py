"""Domain types and elementary value functionals for finite transport.

The data model is a finite transport instance: two finite spaces (with
optional metrics), a cost matrix over their product, and two probability
marginals. Everything downstream (solvers, transforms, certificates,
envelopes) consumes these types.

Two arithmetic modes coexist and are carried by array dtype:

* ``"rational"`` — entries are ``fractions.Fraction`` (or ints) held in
  ``dtype=object`` arrays; every identity is checked with exact equality.
* ``"float"`` — entries are ``float64``; checks use tolerances relative to
  the size of what is compared (:func:`tolerance`, :func:`cost_tolerance`,
  whose cost scale ``CostMatrix.scale`` is scanned once per cost).

Infinite costs are represented by the genuine ``math.inf`` marker, never a
large sentinel value. Wherever a plan mass of zero meets an infinite cost
the product contributes zero (the lower-integral convention 0 * inf = 0).

All containers are frozen dataclasses over read-only numpy arrays
(:func:`frozen_array`) that check their invariants at construction, so a
built object is valid, immutable and safe to share across threads. An
:class:`Instance` checks that its parts agree in shape and mode, and takes
its mode from the cost; :func:`make_instance` builds one from raw values.
A :class:`TransportPlan` collects its nonzero cells in the one scan that
checks its entries, and every reader of plan mass reads those. One tree
walk, :func:`hang_subtree`, gives the tight potentials of a basis: whole,
through :func:`tree_potentials`, and one moved subtree per simplex pivot;
read in reverse, its walk order gives a warm-start basis its masses.
A basis is always one spanning tree, hung from row 0; :func:`tree_potentials`
refuses any other cell set before it walks. Its one dual, :func:`basis_dual`,
serves the dual extraction and the oracle dual. One kernel,
:func:`min_plus_arrays`, is the one three-index numpy pass, and it returns
minima only. Through :func:`min_plus` it gives the c-transforms, the dual
feasibility test and the induced pseudometrics (a max-plus product);
directly, the Lipschitz envelope, the triangle law (``d <= d (x) d``, a
min-plus square) and the min-plus powers of the cyclic-monotonicity check.
Rational data become exact ints in one place, :func:`scaled`; a cost and a
marginal cache theirs (``scaled_view``), so the parts that instances share
are scaled once, and one guard, :func:`int_dtype`, keeps the ints in int64
where every sum fits. One feasibility test reads a dual pair once. One check,
:func:`require_pseudometric`, words every metric-law error; it decides the
triangle law at the float tolerance and the others exactly.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadNumber,
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

#: Relative tolerance of every float-mode comparison (see :func:`tolerance`).
FLOAT_REL = 1e-9

INF = math.inf

Number = Union[int, Fraction, float]


def is_inf(x) -> bool:
    """True for the +inf cost marker."""
    return isinstance(x, float) and math.isinf(x)


#: String tokens read as the float they spell (the JSON literals Infinity,
#: -Infinity and NaN among them); every other string is read by Fraction.
_FLOAT_WORDS = {"inf", "+inf", "Infinity", "-inf", "-Infinity", "nan", "NaN"}

#: The "p/q" and integer tokens that ``Fraction(str)`` reads as
#: ``Fraction(int(p), int(q))``: ASCII digits, an optional sign, a nonzero
#: denominator and optional ASCII whitespace around the whole token.
_INT_TOKEN = re.compile(r"\s*([+-]?)([0-9]+)(?:/(0*[1-9][0-9]*))?\s*", re.ASCII)

_BAD_NUMBER_REASONS = {
    ZeroDivisionError: "zero denominator",
    OverflowError: "beyond the float range",
}


def to_number(x, mode: str) -> Number:
    """Coerce a scalar (int, Fraction, float, "p/q" or "inf" string) to the
    arithmetic mode. Rational mode refuses non-integral floats rather than
    silently converting binary fractions. A token that gives no number of
    the mode (bad syntax, a zero denominator, a value beyond the float
    range, NaN, -inf, a bool) raises ValueError naming the token; a NaN or
    -inf string gives the same reason as the float it spells.

    A string reads as ``Fraction(str)`` reads it. The common ``[+-]p[/q]``
    tokens of ASCII digits (``_INT_TOKEN``) are parsed by ``int()`` into
    the same value; every other token (zero denominators, underscores,
    non-ASCII digits or spaces, decimals, exponents) goes to
    ``Fraction(str)`` itself, so the accepted set and the error texts are
    those of ``Fraction``. A Fraction in rational mode, and a finite float
    in float mode, is returned as it is."""
    try:
        value = x
        if isinstance(x, str):
            token = _INT_TOKEN.fullmatch(x)
            if token is not None:
                sign, p, q = token.groups()
                p = int(p)
                value = Fraction(-p if sign == "-" else p, int(q) if q else 1)
            elif x.strip() in _FLOAT_WORDS:
                value = float(x)
            else:
                value = Fraction(x)
        if type(value) is Fraction and mode == RATIONAL:
            return value
        if type(value) is float and mode == FLOAT and math.isfinite(value):
            return value
        if isinstance(value, bool):
            raise ValueError("not a number")
        if is_inf(value):
            if value < 0:
                raise ValueError("negative infinity")
            return INF
        if isinstance(value, float) and math.isnan(value):
            raise ValueError("not a number")
        if mode == RATIONAL:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(
                    "non-integral float in rational mode; pass a Fraction or 'p/q' string"
                )
            return Fraction(value)
        if mode == FLOAT:
            return float(value)
    except (ArithmeticError, TypeError, ValueError) as exc:
        reason = _BAD_NUMBER_REASONS.get(type(exc), exc)
        raise ValueError(f"bad number {str(x)!r} ({reason})") from None
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def zero(mode: str) -> Number:
    return Fraction(0) if mode == RATIONAL else 0.0


def frozen_array(values, mode: str) -> np.ndarray:
    """A read-only array of ``values`` in the mode's dtype: object in
    rational mode, float64 in float mode."""
    arr = np.array(values, dtype=object if mode == RATIONAL else np.float64)
    arr.setflags(write=False)
    return arr


def require_list(values, name: str):
    """Raise BadNumber naming ``name`` when a string, a mapping or a scalar
    (a number, a bool, None) stands where a list belongs, rather than read
    its characters or its keys."""
    if isinstance(values, (str, Mapping, numbers.Number)) or values is None:
        kind = "the string " if isinstance(values, str) else ""
        raise BadNumber(f"{name}: expected a list, got {kind}{values!r}")


def as_numbers(values, mode: str, name: str) -> list:
    """``to_number`` over a sequence; a bad entry raises BadNumber naming
    ``name[k]``; no sequence at all (:func:`require_list`) names ``name``."""
    require_list(values, name)
    out = []
    for k, v in enumerate(values):
        try:
            out.append(to_number(v, mode))
        except ValueError as exc:
            raise BadNumber(f"{name}[{k}]: {exc}") from None
    return out


def as_vector(values: Sequence, mode: str, name: str = "values") -> np.ndarray:
    """A frozen vector in ``mode``; ``name`` labels a bad entry's error."""
    return frozen_array(as_numbers(values, mode, name), mode)


def as_matrix(rows: Sequence[Sequence], mode: str, name: str = "values") -> np.ndarray:
    """A frozen matrix in ``mode``; ``name`` labels a bad cell's error."""
    require_list(rows, name)
    converted = [as_numbers(row, mode, f"{name}[{i}]") for i, row in enumerate(rows)]
    if len({len(r) for r in converted}) > 1:
        raise DimensionMismatch(f"{name}: rows have unequal lengths")
    return frozen_array(converted or np.empty((0, 0)), mode)


def mode_of(arr: np.ndarray) -> str:
    return RATIONAL if arr.dtype == object else FLOAT


def tolerance(mode: str, scale: Number = 1) -> Number:
    """Tolerance for quantities of size ``scale`` (1 for masses): a plain
    int 0 in rational mode, so integer loops stay on ints; else FLOAT_REL * scale."""
    return 0 if mode == RATIONAL else FLOAT_REL * scale


def cost_tolerance(cost: "CostMatrix") -> Number:
    """The tolerance of cost-valued quantities (values, potentials, slacks):
    ``tolerance(mode, cost.scale)``, without scanning a rational cost."""
    return 0 if cost.mode == RATIONAL else tolerance(FLOAT, cost.scale)


# ---------------------------------------------------------------------------
# Exact integer kernel
# ---------------------------------------------------------------------------


def scaled(rows) -> tuple:
    """Rational rows, of any lengths, as ``(ints, D)``: ``D`` the lcm of the
    finite entries' denominators and each finite ``v`` the int ``v * D``;
    floats are infinite markers and stay. Order and sums compare alike."""
    D = math.lcm(*{v.denominator for row in rows for v in row if type(v) is not float})
    return [[v if type(v) is float else v.numerator * (D // v.denominator) for v in row]
            for row in rows], D


def int_dtype(bound: int):
    """int64 when ints within ``bound`` and the sum of any two fit in it;
    else Python ints in an object array."""
    return np.int64 if bound < 2**62 else object


def _int_array(ints: list, k: int):
    """``(array, s)``: a row of :func:`scaled` in ``int_dtype(s)``, with
    ``+inf`` as ``s = k max|finite| + 1`` and ``-inf`` as ``-s``."""
    s = k * max((abs(v) for v in ints if type(v) is not float), default=0) + 1
    return np.array([(s if v > 0 else -s) if type(v) is float else v for v in ints],
                    dtype=int_dtype(s)), s


#: Cells of one block of rows of the min-plus sums: memory stays that of the operands.
_BLOCK = 1 << 14


def min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The min-plus product of two matrices of one mode, frozen:
    ``out[i, j] = min_k a[i, k] + b[k, j]``, ``+inf`` where every sum is.
    Floats sum in float64. Rational operands sum as ints over their joint
    denominator, ``+inf`` as ``s = 3 max|finite| + 1``, so any sum with an
    ``s`` term tops every finite one."""
    mode = mode_of(b)
    if mode == RATIONAL:
        (ints,), D = scaled([a.ravel().tolist() + b.ravel().tolist()])
        ints, s = _int_array(ints, 3)
        a, b = ints[:a.size].reshape(a.shape), ints[a.size:].reshape(b.shape)
    out = min_plus_arrays(a, b)
    if mode == RATIONAL:
        finite = 2 * (s // 3)  # the largest finite sum, 2 max|finite|
        out = [[INF if v > finite else Fraction(v, D) for v in row] for row in out.tolist()]
    return frozen_array(out, mode)


def min_plus_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The min-plus product of two int or float64 arrays, one block of rows
    at a time, in the operands' dtype and not frozen, the sums taken as
    they come: the one three-index pass of the package."""
    m, (K, n) = a.shape[0], b.shape
    out = np.empty((m, n), dtype=b.dtype)
    step = max(1, _BLOCK // max(1, K * n))
    for lo in range(0, m, step):
        out[lo:lo + step] = (a[lo:lo + step, :, None] + b).min(axis=1)
    return out


def tree_potentials(m: int, n: int, cells, rows, z):
    """One walk of the spanning tree a basis forms, giving its tight
    potentials: ``pot[i] + pot[m + j] = rows[i][j]`` on every cell, where
    the nodes are the rows ``0..m-1`` and then the columns ``m..m+n-1``.

    The tree hangs from row 0 at potential ``z``; a potential is the
    alternating cost sum on the path to row 0, whatever the walk order.
    Returns ``(pot, parent, wall)`` by node: potentials with ``+inf`` cells
    counted as ``z``, the parent link toward row 0 (-1 there), and, only
    when some cell is ``+inf``, the potentials of the 0/1 ``+inf``
    indicator (else None), so that ``(wall, pot)`` are the lexicographic
    potentials of the cost. Cells that are not a spanning tree
    (:func:`require_spanning_tree`) raise InfeasibleInput before the walk."""
    require_spanning_tree(m, n, cells)
    size = m + n
    wall = [0] * size if any(rows[i][j] == INF for i, j in cells) else None
    parent, pot = [-1] * size, [z] * size
    hang_subtree(m, tree_adjacency(m, n, cells), rows, z, 0, -1, parent, pot, wall)
    return pot, parent, wall


def require_spanning_tree(m: int, n: int, cells):
    """Raise InfeasibleInput, naming the count or the cell, unless the cells
    are m+n-1 cells of the m x n grid without a cycle, so that they join
    every row and column in one spanning tree."""
    size = m + n
    if len(cells) != size - 1:
        raise InfeasibleInput(
            f"{len(cells)} basis cells; a spanning tree of {m} x {n} has {size - 1}"
        )
    root = list(range(size))  # union-find over the nodes the cells join

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in cells:
        if not (0 <= i < m and 0 <= j < n):
            raise InfeasibleInput(f"basis cell ({i}, {j}) lies outside the {m} x {n} grid")
        a, b = find(i), find(m + j)
        if a == b:
            raise InfeasibleInput(f"basis cell ({i}, {j}) closes a cycle")
        root[a] = b


def basis_dual(cells, cost: "CostMatrix") -> Optional["DualPotentials"]:
    """The dual of a spanning-tree basis: its potentials tight on every
    finite basic cell (:func:`tree_potentials`, phi[0] = 0) when they are
    feasible for ``cost``, which certifies the basis optimal; else None.

    When the basis holds zero-mass +inf cells (see primal), the walk also
    gives the wall potentials, those of the 0/1 +inf indicator; ``(wall,
    pot)`` are then the simplex's lexicographic optimality certificate, as
    in the big-M argument. One scalar lift ``pot + t * wall`` turns it into
    finite feasible potentials: every finite cell has ``wall[i] + wall[m+j]
    <= 0`` at the optimum, so a large enough ``t`` covers the cells with a
    negative wall part, and it costs nothing, since the plan puts no mass on
    +inf cells."""
    m, n = cost.shape
    rows = cost.entries.tolist()
    pot, _, wall = tree_potentials(m, n, cells, rows, zero(cost.mode))
    if wall is not None:
        # the smallest lift t >= 0 that leaves no finite cell with slack
        # c - P + t * -W below 0, where W and P are its wall and pot sums
        t = max([0] + [
            (pot[i] + pot[m + j] - c) / -(wall[i] + wall[m + j])
            for i, row in enumerate(rows) for j, c in enumerate(row)
            if not is_inf(c) and wall[i] + wall[m + j] < 0
        ])
        if t > 0:
            pot = [p + t * w for p, w in zip(pot, wall)]
    pot = DualPotentials(frozen_array(pot[:m], cost.mode), frozen_array(pot[m:], cost.mode))
    return pot if pot.is_feasible_for(cost) else None


def tree_adjacency(m: int, n: int, cells) -> list:
    """Neighbour lists of the nodes (rows, then columns) of a cell set."""
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    return adj


def hang_subtree(m: int, adj, rows, z, root: int, above: int, parent, pot, wall):
    """Hang the tree that ``root`` reaches without passing ``above`` under
    ``above`` (-1 makes ``root`` an anchor at potential ``z``), writing the
    ``parent``, ``pot`` and, unless None, ``wall`` entries of its nodes in
    place by the walk of :func:`tree_potentials`, and return the nodes it
    hung in walk order, each after its parent. A potential depends only on
    the path to the anchor, so after a basis exchange re-hanging the cut-off
    subtree under the entering cell gives exactly the values of a fresh
    walk."""
    parent[root] = above
    nodes = [root]
    for v in nodes:
        u = parent[v]
        if u < 0:
            pot[v] = z
            if wall is not None:
                wall[v] = 0
        else:
            c = rows[u][v - m] if u < m else rows[v][u - m]
            if wall is not None:
                wall[v] = (c == INF) - wall[u]
            pot[v] = (z if c == INF else c) - pot[u]
        for w in adj[v]:
            if w != u:
                parent[w] = v
                nodes.append(w)
    return nodes


def _law_array(d: np.ndarray) -> np.ndarray:
    """The entries of a square matrix as one numpy array on which every
    metric law reads as on the entries: float64, or :func:`_int_array` with
    ``+inf`` as ``s = 2 max|finite| + 1``, unlike every finite entry and,
    once all are nonnegative, above every sum of two, while ``s + x >= s``."""
    if mode_of(d) != RATIONAL:
        return np.asarray(d, dtype=np.float64)
    (ints,), _ = scaled([d.ravel().tolist()])
    return _int_array(ints, 2)[0].reshape(d.shape)


def metric_violation(d: np.ndarray):
    """The first failed pseudometric law of a square matrix, or None:
    ``("diagonal", (i,))``, ``("negative", (i, j))``, ``("asymmetry", (i, j))``
    or ``("triangle", (i, l, j))`` when d[i][j] > d[i][l] + d[l][j] + tol.
    The laws are read on :func:`_law_array`: the diagonal, sign and symmetry
    by numpy masks, then the triangle law as the min-plus square, failing
    where ``d > d (x) d + tol``; each at its first cell (i, j) in row-major
    order, a triangle at its first l. The first three laws are exact; the
    float triangle allows ``tol = tolerance(FLOAT, largest finite d)``, so
    sums that round below a distance pass (``tol`` is 0 in rational mode)."""
    a = _law_array(d)
    k = a.shape[0]
    if not k:
        return None
    # a failed diagonal marks its whole row, so it is found before the row's cells
    bad = (a < 0) | (a != a.T) | (a.diagonal() != 0)[:, None]
    first = int(bad.argmax())
    if bad.flat[first]:
        i, j = divmod(first, k)
        if a[i, i] != 0:
            return "diagonal", (i,)
        return ("negative" if a[i, j] < 0 else "asymmetry"), (i, j)
    tol = 0 if mode_of(d) == RATIONAL else tolerance(FLOAT, a[np.isfinite(a)].max())
    # l = i gives (d (x) d)[i, j] <= d[i, j], so only a shorter two-step path fails
    over = a > min_plus_arrays(a, a) + tol
    first = int(over.argmax())
    if not over.flat[first]:
        return None
    i, j = divmod(first, k)
    return "triangle", (i, int((a[i, j] > a[i] + a[:, j] + tol).argmax()), j)


def require_pseudometric(d: np.ndarray, name: str):
    """Raise MetricViolation naming ``name`` and the first failed law of
    :func:`metric_violation` (``"d_x is not a pseudometric: triangle at
    (0, 1, 2)"``); the one place a metric-law error is worded."""
    bad = metric_violation(d)
    if bad is not None:
        raise MetricViolation(f"{name} is not a pseudometric: {bad[0]} at {bad[1]}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite ground space: distinct point labels plus an optional metric.

    The metric matrix, when present, must be square over the labels and
    pass :func:`require_pseudometric` as ``metric``: symmetric, nonnegative,
    zero on the diagonal and within the triangle inequality for every
    triple. Zero distance between distinct points is allowed (pseudometric).
    """

    labels: tuple
    metric: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if not self.labels:
            raise DimensionMismatch("labels must name at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise MetricViolation("labels must be distinct")
        if self.metric is not None:
            d = self.metric
            k = len(self.labels)
            if d.shape != (k, k):
                raise DimensionMismatch(
                    f"metric shape {d.shape} does not match {k} labels"
                )
            require_pseudometric(d, "metric")

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

    @property
    def shape(self):
        return self.entries.shape

    @property
    def is_bounded(self) -> bool:
        return not any(is_inf(v) for v in self.entries.flat)

    @cached_property
    def scale(self) -> float:
        """The largest finite |c[i][j]| as a float (0.0 when none is
        finite), from one scan on first use."""
        vals = [abs(v) for v in self.entries.flat if not is_inf(v)]
        return float(max(vals)) if vals else 0.0

    @property
    def mode(self) -> str:
        return mode_of(self.entries)

    @cached_property
    def scaled_view(self) -> tuple:
        """The rational entries as :func:`scaled` rows ``(ints, D)``, from
        one pass on first use (or as :meth:`from_scaled` was given them)."""
        return scaled(self.entries.tolist())

    @classmethod
    def from_scaled(cls, ints: list, D: int) -> "CostMatrix":
        """The rational cost ``ints / D`` (int rows, ``+inf`` markers kept),
        built holding ``(ints, D)`` as its :attr:`scaled_view`: any common
        denominator ``D`` serves the readers of the view, not only the lcm."""
        cost = cls(frozen_array(
            [[v if type(v) is float else Fraction(v, D) for v in row] for row in ints], RATIONAL
        ))
        cost.__dict__["scaled_view"] = (ints, D)
        return cost

    def require_bounded(self, what: str):
        """Raise InfiniteCostInBoundedMode, worded here only, unless :attr:`is_bounded`."""
        if not self.is_bounded:
            raise InfiniteCostInBoundedMode(f"{what} requires a bounded cost")

    def sup_norm(self) -> Number:
        """max |c[i][j]| over all entries; requires a bounded matrix."""
        self.require_bounded("the sup norm")
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
            if not v >= 0:  # NaN fails every comparison
                raise NegativeMass(f"negative mass {v}")
        total = sum(w)
        if mode_of(w) == RATIONAL:
            if total != 1:
                raise MassNotOne(f"mass sums to {total}, expected 1")
        elif abs(total - 1.0) > tolerance(FLOAT):
            raise MassNotOne(f"mass sums to {float(total)}, expected 1 +/- {FLOAT_REL}")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def mode(self) -> str:
        return mode_of(self.weights)

    @cached_property
    def scaled_view(self) -> tuple:
        """The rational weights as one :func:`scaled` row ``(ints, D)``,
        from one pass on first use."""
        (ints,), D = scaled([self.weights.tolist()])
        return ints, D


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative joint mass matrix; the discrete transport plan.

    One scan of the entries collects ``cells``, the ``((i, j), mass)`` pairs
    of the nonzero entries in row-major order, and checks them; every reader
    of plan mass (:func:`plan_cost`, :meth:`support`, the certificate's
    marginal law and slackness report) reads them, not the m x n entries."""

    entries: np.ndarray
    cells: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise DimensionMismatch("plan must be a 2-d matrix")
        cells = tuple(((i, j), v) for i, row in enumerate(self.entries.tolist())
                      for j, v in enumerate(row) if v)  # 0 and -0.0 carry no mass
        for _, v in cells:
            if is_inf(v):
                raise NegativeMass("plan entries must be finite")
            if not v > 0:  # NaN fails every comparison
                raise NegativeMass(f"negative plan mass {v}")
        object.__setattr__(self, "cells", cells)

    @property
    def shape(self):
        return self.entries.shape

    @property
    def mode(self) -> str:
        return mode_of(self.entries)

    def support(self):
        """Cells carrying mass above ``tolerance(mode)``."""
        tol = tolerance(self.mode)
        return tuple(cell for cell, mass in self.cells if mass > tol)


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

    def is_feasible_for(self, cost: CostMatrix) -> bool:
        """phi + psi <= c + ``cost_tolerance(cost)`` on finite cells, read as
        psi <= phi^c + tol with phi^c[j] = min_i c[i][j] - phi[i], for the
        pair :meth:`_read` in the cost's mode."""
        return self._feasible_read(cost) is not None

    def require_feasible_for(self, cost: CostMatrix) -> "DualPotentials":
        """The pair :meth:`_read` in the cost's mode; raise InfeasiblePotentials,
        worded here only, unless :meth:`is_feasible_for`."""
        pot = self._feasible_read(cost)
        if pot is None:
            raise InfeasiblePotentials("potentials violate phi + psi <= c")
        return pot

    def _feasible_read(self, cost: CostMatrix) -> Optional["DualPotentials"]:
        """The one feasibility test: the pair read once in the cost's mode
        (:meth:`_read`), if it passes :meth:`is_feasible_for`; else None."""
        if cost.shape != self.shape:
            raise DimensionMismatch(f"potentials {self.shape} vs cost {cost.shape}")
        pot = self._read(cost.mode)
        (phi_c,) = min_plus(-pot.phi[None], cost.entries)
        return pot if np.all(pot.psi <= phi_c + cost_tolerance(cost)) else None

    def _read(self, mode: str) -> "DualPotentials":
        """The pair by ``as_vector``: a bad entry is a BadNumber (``psi[0]: ...``)."""
        phi, psi = as_vector(self.phi, mode, "phi"), as_vector(self.psi, mode, "psi")
        return DualPotentials(phi, psi)


@dataclass(frozen=True, eq=False)
class Instance:
    """A full transport instance: two spaces, a cost over their product and
    two marginals, all in one arithmetic mode.

    Construction checks what the parts cannot check alone: the cost is
    |X| x |Y|, mu has |X| entries and nu |Y|, and the marginals and metrics
    share the cost's dtype. The mode is read from the cost."""

    space_x: FiniteSpace
    space_y: FiniteSpace
    cost: CostMatrix
    mu: Marginal
    nu: Marginal

    def __post_init__(self):
        m, n = self.shape
        if self.cost.shape != (m, n):
            raise DimensionMismatch(f"cost shape {self.cost.shape} vs spaces ({m}, {n})")
        if self.mu.size != m:
            raise DimensionMismatch(f"mu has {self.mu.size} entries, X has {m}")
        if self.nu.size != n:
            raise DimensionMismatch(f"nu has {self.nu.size} entries, Y has {n}")
        arrays = [self.mu.weights, self.nu.weights]
        arrays += [s.metric for s in (self.space_x, self.space_y) if s.metric is not None]
        for arr in arrays:
            if mode_of(arr) != self.mode:
                raise ValueError(
                    f"array dtype {arr.dtype} does not match mode {self.mode!r}"
                )

    @property
    def shape(self):
        return (self.space_x.size, self.space_y.size)

    @property
    def mode(self) -> str:
        return self.cost.mode


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
    """Build an Instance from raw values: nested sequences or arrays of
    anything :func:`to_number` reads. Labels default to ``x0, x1, ...`` and
    ``y0, y1, ...`` over the cost's rows and columns, read only once the
    cost and its first row are lists. The fields are built in a fixed order
    (X, Y, cost, mu, nu), so the first bad one is the one reported; a
    MetricViolation or DimensionMismatch of a space names it (``X.metric``,
    ``Y.labels``)."""
    if labels_x is None or labels_y is None:
        require_list(cost, "cost")
        if len(cost):
            require_list(cost[0], "cost[0]")
    if labels_x is None:
        labels_x = [f"x{i}" for i in range(len(cost))]
    if labels_y is None:
        labels_y = [f"y{j}" for j in range(len(cost[0]) if len(cost) else 0)]

    def space(name, labels, metric):
        if metric is not None:
            metric = as_matrix(metric, mode, f"{name}.metric")
        try:
            return FiniteSpace(tuple(labels), metric)
        except (MetricViolation, DimensionMismatch) as exc:
            raise type(exc)(f"{name}.{exc}") from None

    return Instance(
        space("X", labels_x, metric_x),
        space("Y", labels_y, metric_y),
        CostMatrix(as_matrix(cost, mode, "cost")),
        Marginal(as_vector(mu, mode, "mu")),
        Marginal(as_vector(nu, mode, "nu")),
    )


def convert_instance(instance: Instance, mode: str) -> Instance:
    """The instance in ``mode`` by :func:`to_number`: to float, a Fraction
    rounds to the nearest float; to rational, a float converts exactly, so
    any float but an integral one or ``+inf`` is a BadNumber naming its cell."""
    if mode == instance.mode:
        return instance
    x, y = instance.space_x, instance.space_y
    return make_instance(
        instance.cost.entries,
        instance.mu.weights,
        instance.nu.weights,
        mode,
        metric_x=x.metric,
        metric_y=y.metric,
        labels_x=x.labels,
        labels_y=y.labels,
    )


def scaled_data(instance: Instance):
    """Clear denominators: ``(mu, nu, cost, L, M)`` as lists, in rational
    mode the marginals over the lcm ``L`` of theirs and the cost over its
    ``M`` (``+inf`` stays ``INF``), from the ``scaled_view`` each part
    caches, so a part shared by instances is scaled once; float mode passes
    the floats through with ``L = M = 1``. The cost rows are the cache:
    read them, do not write them."""
    if instance.mode != RATIONAL:
        return (instance.mu.weights.tolist(), instance.nu.weights.tolist(),
                instance.cost.entries.tolist(), 1, 1)
    (mu, L_mu), (nu, L_nu) = instance.mu.scaled_view, instance.nu.scaled_view
    L = math.lcm(L_mu, L_nu)
    cost, M = instance.cost.scaled_view
    return [v * (L // L_mu) for v in mu], [v * (L // L_nu) for v in nu], cost, L, M


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
    for (i, j), mass in plan.cells:
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
    return TransportPlan(
        frozen_array(np.multiply.outer(mu.weights, nu.weights), mu.mode)
    )


def plan_from_cells(shape, masses: dict, mode: str) -> TransportPlan:
    """The plan with the ``{(i, j): mass}`` entries and zero elsewhere."""
    m, n = shape
    z = zero(mode)
    return TransportPlan(frozen_array(
        [[masses.get((i, j), z) for j in range(n)] for i in range(m)], mode
    ))
