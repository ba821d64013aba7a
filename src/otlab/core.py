"""Domain types and elementary value functionals for finite transport.

The data model is a finite transport instance: two finite spaces (with
optional metrics), a cost matrix over their product, and two probability
marginals. Everything downstream (solvers, transforms, certificates,
envelopes) consumes these types.

Two arithmetic modes coexist: ``"rational"``, where every identity is
checked with exact equality, and ``"float"`` (``float64``), where checks
use tolerances relative to the size of what is compared (:func:`tolerance`,
:func:`cost_tolerance`, whose cost scale ``CostMatrix.scale`` is scanned
once per cost). Infinite costs are the genuine ``math.inf`` marker, never a
large sentinel value; wherever a plan mass of zero meets an infinite cost
the product contributes zero (the lower-integral convention 0 * inf = 0).

The data of every part and result is its ``scaled_view``: its numbers as
ints over one denominator, ``(ints, D)``, ``+inf`` kept, in rational mode,
and the floats over ``D = 1`` in float mode, so one formula serves both. A
loaded rational cost, marginal and metric (:func:`read_part` reads each
distinct token straight to its ints), an envelope level (:meth:`CostMatrix.from_array`),
a solved plan (:func:`plan_from_cells`: its nonzero cells and their masses)
and a dual pair (:meth:`DualPotentials.from_scaled`) hold only the view and
check their laws on it. Their public arrays (``entries``, ``weights``,
``metric``, ``phi``, ``psi`` and a plan's ``cells``) are derived from it on
first read, as read-only ``Fraction`` arrays; a part a caller builds from
such arrays holds them and derives its view once. A loaded float block of
floats (``+inf`` walls too) is one float64 array from one numpy pass
(:func:`read_part`), and a float instance converted from a rational one is
read from its views (:func:`convert_instance`). The solvers, the transforms, the value
functionals, the certificate and the output read the views, so a command
builds ``Fraction``s only for the scalars it reports (:func:`unscale`).
A matrix's one array form is :func:`array_view` of its view (0 on the
``+inf`` walls, the wall mask, the largest finite ``|entry|``), cached as a
cost's and a metric's ``int_view``, which every array reader reads. One
guard, :func:`int_dtype`, keeps the ints of every numpy array in int64
where every sum fits.

All containers are frozen dataclasses that check their invariants at
construction, so a built object is valid, immutable and safe to share
across threads. An :class:`Instance` checks that its parts agree in shape
and mode, and takes its mode from the cost; :func:`make_instance` builds
one from raw values. One tree walk, :func:`hang_subtree`, gives the tight
potentials of a basis: whole, through :func:`tree_potentials`, and one
moved subtree per simplex pivot; read in reverse, its walk order gives a
warm-start basis its masses. A basis is always one spanning tree, hung from
row 0; :func:`tree_potentials` refuses any other cell set before it walks.
Its one dual, :func:`basis_dual`, serves the dual extraction and the oracle
dual. One kernel, :func:`min_plus_arrays`, is the one three-index numpy
pass, and it returns minima only. Through :func:`cost_transforms`
(potentials against a cost's cached ints) it gives the c-transforms, the
dual feasibility test and the induced pseudometrics (a max-plus product);
directly, the Lipschitz envelope, the triangle law (``d <= d (x) d``, a
min-plus square) and the min-plus powers of the cyclic-monotonicity check.
One feasibility test reads a dual pair once, and its phi^c
(:meth:`DualPotentials.phi_c`) also serves the normalization. One check,
:func:`require_pseudometric`, words every metric-law error; it decides the
triangle law at the float tolerance and the others exactly.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Mapping
from dataclasses import MISSING, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
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

#: The wall tokens a float block's array read takes as ``+inf`` (:func:`read_part`).
_WALL_TOKENS = {"inf", "+inf"}

#: The "p/q" and integer tokens that ``Fraction(str)`` reads as
#: ``Fraction(int(p), int(q))``: ASCII digits, an optional sign, a nonzero
#: denominator and optional ASCII whitespace around the whole token; the
#: reader parses them itself (:func:`_token_ratio`).
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

    A string reads as ``Fraction(str)`` reads it, so the accepted set and
    the error texts are those of ``Fraction``. A Fraction in rational mode,
    and a finite float in float mode, is returned as it is."""
    try:
        value = x
        if isinstance(x, str):
            value = float(x) if x.strip() in _FLOAT_WORDS else Fraction(x)
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


def _token_ratio(token: str) -> tuple:
    """A rational token as the reduced ints ``(p, q)``, ``q > 0``, of the
    number ``Fraction(token)`` reads (``+inf`` as ``(INF, 1)``): an
    ``_INT_TOKEN`` by ``int()`` and ``math.gcd``, any other by
    :func:`to_number`, which raises ValueError on a bad one."""
    match = _INT_TOKEN.fullmatch(token)
    if match is None:
        v = to_number(token, RATIONAL)
        return (v, 1) if is_inf(v) else (v.numerator, v.denominator)
    sign, p, q = match.groups()
    p, q = int(p), int(q or 1)
    g = math.gcd(p, q)
    return (-p if sign == "-" else p) // g, q // g


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


def read_part(cls, values, mode: str, name: str, *fields, vector: bool = False):
    """``cls(*fields, array)`` of ``values`` read as by :func:`as_matrix` (a
    ``vector``: :func:`as_vector`). Two kinds of non-empty rectangular
    block (a list of equal-length lists; a ``vector``: a plain list) skip
    the per-cell read:

    - a float block whose cells are all ``float`` or the wall tokens
      ``"inf"`` and ``"+inf"`` (read as ``+inf``) is read by one
      ``np.array(values, dtype=np.float64)``, kept unless an entry is NaN
      or ``-inf``, and frozen: the part is ``cls(*fields, array)``;
    - a rational block of str tokens is read with each distinct token once
      into its reduced ints (:func:`_token_ratio`), its cells sharing them,
      into the block's scaled view ``(ints, D)`` over the lcm ``D`` of their
      denominators, and the part is ``cls.from_scaled(*fields, ints, D)``:
      it holds that view and no ``Fraction``.

    Any other block (an int, a bool, any other string or a NaN or ``-inf``
    float among floats; ``True``, ``1`` and ``1.0`` hash alike among tokens), or
    a rational one with a bad token, is read cell by cell, so a bad cell
    raises as there."""
    rows = [values] if vector else values
    kinds = None
    if type(rows) is list and rows and all(type(r) is list for r in rows) \
            and len(set(map(len, rows))) == 1:
        kinds = set(map(type, chain.from_iterable(rows)))
    cells = rows
    if mode == FLOAT and kinds is not None and str in kinds and kinds <= {float, str}:
        cells = [[INF if v in _WALL_TOKENS else v for v in row] for row in rows]
        kinds = set(map(type, chain.from_iterable(cells)))
    if mode == FLOAT and kinds == {float}:
        arr = np.array(cells[0] if vector else cells, dtype=np.float64)
        if (arr > -INF).all():
            arr.setflags(write=False)
            return cls(*fields, arr)
    elif mode == RATIONAL and kinds is not None and kinds <= {str}:
        try:
            ratios = {token: _token_ratio(token) for token in set(chain.from_iterable(rows))}
        except ValueError:
            pass
        else:
            D = math.lcm(*(q for _, q in ratios.values()))
            ints = {token: p if type(p) is float else p * (D // q)
                    for token, (p, q) in ratios.items()}
            view = [[ints[token] for token in row] for row in rows]
            return cls.from_scaled(*fields, view[0] if vector else view, D)
    read = as_vector if vector else as_matrix
    return cls(*fields, read(values, mode, name))


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
    """A frozen vector in ``mode``, read entry by entry by :func:`to_number`
    (as :func:`as_matrix`); ``name`` labels a bad entry's error."""
    return frozen_array(as_numbers(values, mode, name), mode)


def as_matrix(rows: Sequence[Sequence], mode: str, name: str = "values") -> np.ndarray:
    """A frozen matrix in ``mode``, read cell by cell by :func:`to_number`;
    ``name`` labels a bad cell's error. It defines what a block reads as:
    :func:`read_part`'s one-pass reads of a float or a rational block give
    the same numbers, and leave every other block, and every error, to it."""
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


def scaled_array(arr: np.ndarray) -> tuple:
    """A frozen vector or matrix as exact numbers over one denominator,
    ``(values, D)``: in rational mode the ints of :func:`scaled` (one row
    for a vector), in float mode the array itself over ``D = 1``, so that
    one formula on ``(values, D)`` serves both modes."""
    if mode_of(arr) != RATIONAL:
        return arr, 1
    if arr.ndim == 1:
        (ints,), D = scaled([arr.tolist()])
        return ints, D
    return scaled(arr.tolist())


def unscale(v, D: int, mode: str) -> Number:
    """The number ``v / D`` of a scaled value: ``Fraction(v, D)`` in
    rational mode, and ``v`` itself for a float (``D = 1``) or ``+inf``."""
    return v if mode != RATIONAL or type(v) is float else Fraction(v, D)


def unscaled(values, D: int, mode: str) -> np.ndarray:
    """The frozen vector of ``values / D`` (:func:`unscale`)."""
    return frozen_array([unscale(v, D, mode) for v in values], mode)


def int_dtype(bound: int):
    """int64 when ints within ``bound`` and the sum of any two fit in it;
    else Python ints in an object array."""
    return np.int64 if bound < 2**62 else object


def array_view(rows, D: int, shape) -> tuple:
    """The one array form of a matrix's scaled view ``(rows, D)``
    (:func:`scaled_array`): ``(a, wall, big, D)``, ``a`` the entries with 0 on
    the ``+inf`` cells in ``int_dtype(big)`` (float mode: float64, ``D = 1``),
    ``wall`` the ``+inf`` mask and ``big`` the largest finite ``|entry|``."""
    if isinstance(rows, np.ndarray):  # float mode: the floats themselves
        wall = rows == INF
        a = np.where(wall, 0.0, rows)
        return a, wall, np.abs(a).max(initial=0.0), D
    try:  # no wall, and every int within int64
        a, wall = np.array(rows, dtype=np.int64).reshape(shape), np.zeros(shape, dtype=bool)
        big = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    except (OverflowError, ValueError):  # a +inf wall, or an int beyond int64
        view = np.array(rows, dtype=object).reshape(shape)
        wall = view == INF
        a = np.where(wall, 0, view)
        big = max(a.max(initial=0), -a.min(initial=0))  # Python ints
    return a.astype(int_dtype(big), copy=False), wall, big, D


#: Cells of one block of rows of the min-plus sums: memory stays that of the operands.
_BLOCK = 1 << 14


def cost_transforms(p: tuple, cost: "CostMatrix", axis: int) -> tuple:
    """The transforms of finite potentials ``p = (rows, D)``, one per row,
    a scaled view (ints over ``D``, or floats over ``D = 1``, as
    :func:`scaled_array` gives): ``out[r, b] = min_a c(a, b) - p[r, a]``
    over the cost's rows (``axis=0``, the c-transform) or columns
    (``axis=1``, cbar), as the scaled view ``(out, E)``, ``INF`` on an
    all-+inf line. Floats sum in float64. Rational mode reads the cost's
    ints (its :attr:`~CostMatrix.int_view` array) and scales only ``p``,
    both over ``E``, the lcm of their denominators; ``+inf`` is
    ``s = 3 max|finite| + 1``, above every finite sum, and the sums take
    ``int_dtype(s)``."""
    pot, D = p
    rational = cost.mode == RATIONAL
    if rational:
        ints, wall, big, M = cost.int_view
        E = math.lcm(M, D)
        k = E // M if big else 1  # a cost of zeros stays zeros, in any dtype
        pot = [[v * (E // D) for v in row] for row in pot]
        s = 3 * max([big * k] + [abs(v) for row in pot for v in row]) + 1
        dtype = int_dtype(s)
        c = np.where(wall, s, ints.astype(dtype) * k)
        pot = np.array(pot, dtype=dtype).reshape(len(pot), cost.shape[axis])
    else:
        c, pot, E = cost.entries, np.asarray(pot, dtype=np.float64), 1
    out = min_plus_arrays(-pot, c if axis == 0 else c.T)
    if rational:
        finite = 2 * (s // 3)  # the largest finite sum, 2 max|finite|
        out = [[INF if v > finite else v for v in row] for row in out.tolist()]
    return out, E


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
    hang_subtree(m, tree_adjacency(m, n, cells), rows, z, 0, -1, parent, pot, wall,
                 [0] * size)
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
    finite basic cell (:func:`tree_potentials` on the cost's ``scaled_view``,
    phi[0] = 0) when they are feasible for ``cost``, which certifies the
    basis optimal; else None. The pair holds its ints as its ``scaled_view``.

    When the basis holds zero-mass +inf cells (see primal), the walk also
    gives the wall potentials, those of the 0/1 +inf indicator; ``(wall,
    pot)`` are then the simplex's lexicographic optimality certificate, as
    in the big-M argument. One scalar lift ``pot + t * wall`` turns it into
    finite feasible potentials: every finite cell has ``wall[i] + wall[m+j]
    <= 0`` at the optimum, so a large enough ``t`` covers the cells with a
    negative wall part, and it costs nothing, since the plan puts no mass on
    +inf cells. In rational mode ``t = a / b`` and the lifted potentials are
    the ints ``pot * b + a * wall`` over ``M * b``."""
    m, n = cost.shape
    rational = cost.mode == RATIONAL
    rows, D = cost.scaled_view
    pot, _, wall = tree_potentials(m, n, cells, rows, 0 if rational else 0.0)
    if wall is not None:
        # the smallest lift t = a / b >= 0 that leaves no finite cell with
        # slack c - P + t * -W below 0, where W and P are its wall and pot
        # sums; float mode takes each quotient itself, over b = 1
        a, b = 0, 1
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                w = wall[i] + wall[m + j]
                if w < 0 and not is_inf(c):
                    x, y = pot[i] + pot[m + j] - c, -w
                    if not rational:
                        x, y = x / y, 1
                    if x * b > a * y:
                        a, b = x, y
        if a > 0:
            pot, D = [p * b + a * w for p, w in zip(pot, wall)], D * b
    pot = DualPotentials.from_scaled(pot[:m], pot[m:], D, cost.mode)
    return pot if pot.is_feasible_for(cost) else None


def tree_adjacency(m: int, n: int, cells) -> list:
    """Neighbour lists of the nodes (rows, then columns) of a cell set."""
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    return adj


def hang_subtree(m: int, adj, rows, z, root: int, above: int, parent, pot, wall, depth):
    """Hang the tree that ``root`` reaches without passing ``above`` under
    ``above`` (-1 makes ``root`` an anchor at potential ``z``), writing the
    ``parent``, ``pot``, ``depth`` and, unless None, ``wall`` entries of its
    nodes in place by the walk of :func:`tree_potentials`, and return the
    nodes it hung in walk order, each after its parent. A node's depth is
    the length of its path to the anchor (0 there), kept beside its parent
    link so that two nodes meet by climbing only to where their paths join.
    A potential and a depth depend only on the path to the anchor, so after
    a basis exchange re-hanging the cut-off subtree under the entering cell
    gives exactly the values of a fresh walk."""
    parent[root] = above
    depth[root] = depth[above] + 1 if above >= 0 else 0
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
                depth[w] = depth[v] + 1
                nodes.append(w)
    return nodes


def _law_array(view: tuple) -> np.ndarray:
    """A square matrix's :func:`array_view` with its walls put back, as
    ``+inf`` in float64 or as ``s = 2 big + 1`` in ``int_dtype(s)``: unlike
    every finite entry and, once all are nonnegative, above every sum of
    two, while ``s + x >= s``, so every metric law reads as on the entries."""
    a, wall, big, _ = view
    if a.dtype == np.float64:
        return np.where(wall, INF, a)
    return np.where(wall, 2 * big + 1, a.astype(int_dtype(2 * big + 1)))


def metric_violation(d: Optional[np.ndarray], view: Optional[tuple] = None):
    """The first failed pseudometric law of a square matrix ``d`` (or its
    :func:`array_view` ``view``), or None: ``("diagonal", (i,))``, ``("negative",
    (i, j))``, ``("asymmetry", (i, j))`` or ``("triangle", (i, l, j))`` when
    d[i][j] > d[i][l] + d[l][j] + tol. The laws are read on :func:`_law_array`:
    the diagonal, sign and symmetry by numpy masks, then the triangle law as
    the min-plus square, failing where ``d > d (x) d + tol``; each at its
    first cell (i, j) in row-major order, a triangle at its first l. The
    first three laws are exact; the float triangle allows ``tol =
    tolerance(FLOAT, largest finite d)``, so sums that round below a distance
    pass (``tol`` is 0 in rational mode)."""
    a = _law_array(view or array_view(*scaled_array(d), d.shape))
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
    tol = 0 if a.dtype != np.float64 else tolerance(FLOAT, a[np.isfinite(a)].max())
    # l = i gives (d (x) d)[i, j] <= d[i, j], so only a shorter two-step path fails
    over = a > min_plus_arrays(a, a) + tol
    first = int(over.argmax())
    if not over.flat[first]:
        return None
    i, j = divmod(first, k)
    return "triangle", (i, int((a[i, j] > a[i] + a[:, j] + tol).argmax()), j)


def require_pseudometric(d: Optional[np.ndarray], name: str, view: Optional[tuple] = None):
    """Raise MetricViolation naming ``name`` and the first failed law of
    :func:`metric_violation` (``"d_x is not a pseudometric: triangle at
    (0, 1, 2)"``), read on its :func:`array_view` ``view`` when given (and
    ``d`` not read); the one place a metric-law error is worded."""
    bad = metric_violation(d, view)
    if bad is not None:
        raise MetricViolation(f"{name} is not a pseudometric: {bad[0]} at {bad[1]}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class _Derived(cached_property):
    """A dataclass field that a part built by its constructor holds as given,
    and that a part built from its view (:func:`_holding`) derives by
    ``derive`` on first read. On the class it reads as ``default``, or, with
    none, raises AttributeError, so that the field has no default."""

    def __init__(self, derive, default=MISSING):
        super().__init__(derive)
        self.default = default

    def __get__(self, part, owner=None):
        if part is not None:
            return super().__get__(part, owner)
        if self.default is MISSING:
            raise AttributeError(self.attrname)
        return self.default


def _holding(cls, **stored):
    """A ``cls`` built, without its constructor, holding ``stored`` (its
    ``scaled_view``, ``mode`` and ``shape`` or ``size``) only."""
    part = object.__new__(cls)
    part.__dict__.update(stored)
    return part


def _unscaled_rows(rows, D: int) -> np.ndarray:
    """The frozen rational matrix of scaled ``rows`` over ``D`` (:func:`unscale`)."""
    return frozen_array([[unscale(v, D, RATIONAL) for v in row] for row in rows], RATIONAL)


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite ground space: distinct point labels plus an optional metric.

    The metric matrix, when present, must be square over the labels and
    pass :func:`require_pseudometric` as ``metric``: symmetric, nonnegative,
    zero on the diagonal and within the triangle inequality for every
    triple. Zero distance between distinct points is allowed (pseudometric).
    The metric's laws and the envelope read its :attr:`int_view`.
    """

    labels: tuple
    metric: Optional[np.ndarray] = _Derived(lambda space: _unscaled_rows(*space.scaled_view), None)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if not self.labels:
            raise DimensionMismatch("labels must name at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise MetricViolation("labels must be distinct")
        if self.mode is not None:
            k = len(self.labels)
            held = self.__dict__.get("metric")  # none yet when built from the view
            shape = held.shape if held is not None else np.shape(self.scaled_view[0])
            if shape != (k, k):
                raise DimensionMismatch(f"metric shape {shape} does not match {k} labels")
            require_pseudometric(None, "metric", self.int_view)

    @classmethod
    def from_scaled(cls, labels, ints: list, D: int) -> "FiniteSpace":
        """The space whose rational metric is the int rows ``ints / D``
        (``+inf`` markers kept), held as its :attr:`scaled_view`."""
        space = _holding(cls, labels=labels, scaled_view=(ints, D), mode=RATIONAL)
        space.__post_init__()
        return space

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def mode(self) -> Optional[str]:
        """The metric's arithmetic mode; None without a metric."""
        return None if self.metric is None else mode_of(self.metric)

    @cached_property
    def scaled_view(self) -> tuple:
        """The metric as :func:`scaled_array` rows ``(ints, D)`` (float mode:
        the metric over 1), stored (:meth:`from_scaled`) or from one pass."""
        return scaled_array(self.metric)

    @cached_property
    def int_view(self) -> tuple:
        """The metric's :func:`array_view`, built once."""
        return array_view(*self.scaled_view, (self.size, self.size))


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Cost entries over X x Y; each entry finite or +inf, never -inf."""

    entries: np.ndarray = _Derived(lambda cost: _unscaled_rows(*cost.scaled_view))

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2:
            raise DimensionMismatch("cost must be a 2-d matrix")
        # the floats of an object array are its only infinite markers
        flat = e.ravel() if e.dtype == np.float64 else np.array(
            [v if isinstance(v, float) else 0.0 for v in e.flat], dtype=np.float64)
        bad = ~(flat > -INF)
        if bad.any():  # the first -inf or NaN in row-major order
            v = flat[bad.argmax()]
            raise InfiniteCostInBoundedMode(f"{'NaN' if v != v else '-inf'} cost entry")

    @cached_property
    def shape(self):
        return self.entries.shape

    @property
    def is_bounded(self) -> bool:
        return not self.int_view[1].any()

    @cached_property
    def scale(self) -> float:
        """The largest finite |c[i][j]| as a float (0.0 when none is
        finite), read off :attr:`int_view` on first use."""
        return float(self.int_view[2] / self.int_view[3])

    @cached_property
    def mode(self) -> str:
        return mode_of(self.entries)

    @cached_property
    def scaled_view(self) -> tuple:
        """The entries as :func:`scaled_array` rows ``(ints, D)`` (float
        mode: the entries over 1), stored (:meth:`from_scaled`) or from one
        pass on first use."""
        return scaled_array(self.entries)

    @cached_property
    def int_view(self) -> tuple:
        """The entries' :func:`array_view`, built once (held by a :meth:`from_array` level)."""
        return array_view(*self.scaled_view, self.shape)

    @classmethod
    def from_scaled(cls, ints: list, D: int) -> "CostMatrix":
        """The rational cost ``ints / D`` (int rows, ``+inf`` markers kept),
        held as its :attr:`scaled_view`: any common denominator ``D`` serves
        the readers of the view, not only the lcm."""
        return _holding(cls, scaled_view=(ints, D), mode=RATIONAL, shape=(len(ints), len(ints[0])))

    @classmethod
    def from_array(cls, a: np.ndarray, D: int) -> "CostMatrix":
        """The finite rational cost ``a / D`` of an int array (an envelope
        level), holding ``a`` as its :attr:`int_view`: no reader converts it again."""
        return _holding(cls, scaled_view=(a.tolist(), D), mode=RATIONAL, shape=a.shape,
                        int_view=(a, np.zeros(a.shape, dtype=bool), int(abs(a).max()), D))

    def require_bounded(self, what: str):
        """Raise InfiniteCostInBoundedMode, worded here only, unless :attr:`is_bounded`."""
        if not self.is_bounded:
            raise InfiniteCostInBoundedMode(f"{what} requires a bounded cost")

    def sup_norm(self) -> Number:
        """max |c[i][j]| over all entries; requires a bounded matrix."""
        self.require_bounded("the sup norm")
        return unscale(*self.int_view[2:], self.mode)


@dataclass(frozen=True, eq=False)
class Marginal:
    """A probability vector: nonnegative weights summing to one, checked on
    its :attr:`scaled_view`: a rational one entry by entry, a float one by
    numpy masks over its float64 array; the first entry that is infinite,
    negative or NaN is reported as ``marginal[k]`` (``mu[k]`` by :func:`make_instance`)."""

    weights: np.ndarray = _Derived(lambda mu: unscaled(*mu.scaled_view, RATIONAL))

    def __post_init__(self):
        if ("weights" in self.__dict__ and self.weights.ndim != 1) or not self.size:
            raise DimensionMismatch("marginal must be a nonempty vector")
        ints, D = self.scaled_view
        # NaN fails every comparison, so both tests below catch it
        if self.mode == RATIONAL:
            k = next((k for k, v in enumerate(ints) if is_inf(v) or not v >= 0), None)
        else:
            mask = ~(ints >= 0) | (ints == INF)
            k = int(mask.argmax()) if mask.any() else None
        if k is not None:
            bad = ints[k]
            raise NegativeMass(f"marginal[{k}]: " + (
                "infinite mass" if is_inf(bad) else f"negative mass {unscale(bad, D, self.mode)}"))
        if self.mode == RATIONAL:
            if sum(ints) != D:
                raise MassNotOne(f"marginal: mass sums to {Fraction(sum(ints), D)}, expected 1")
        elif abs(sum(ints) - 1.0) > tolerance(FLOAT):
            raise MassNotOne(
                f"marginal: mass sums to {float(sum(ints))}, expected 1 +/- {FLOAT_REL}")

    @classmethod
    def from_scaled(cls, ints: list, D: int) -> "Marginal":
        """The rational marginal ``ints / D``, held as its :attr:`scaled_view`."""
        mu = _holding(cls, scaled_view=(ints, D), mode=RATIONAL, size=len(ints))
        mu.__post_init__()
        return mu

    @cached_property
    def size(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def mode(self) -> str:
        return mode_of(self.weights)

    @cached_property
    def scaled_view(self) -> tuple:
        """The weights as one :func:`scaled_array` row ``(ints, D)`` (float
        mode: the weights over 1), stored (:meth:`from_scaled`) or from one
        pass on first use."""
        return scaled_array(self.weights)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative joint mass matrix; the discrete transport plan.

    Its :attr:`scaled_view` holds ``cells``, its nonzero cells in row-major
    order, and their masses as ints over one denominator; every reader of
    plan mass (:func:`plan_cost`, :meth:`support`, the certificate's
    marginal law and slackness report) reads that, not the m x n entries.
    A plan of :func:`plan_from_cells` holds only the view, from which
    ``entries`` and :attr:`cells` are derived on first read; a plan built
    from its entries collects :attr:`cells` in the one scan that checks them."""

    entries: np.ndarray = _Derived(lambda plan: _dense(plan.shape, dict(plan.cells), plan.mode))

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise DimensionMismatch("plan must be a 2-d matrix")
        object.__setattr__(self, "cells", tuple(
            ((i, j), v) for i, row in enumerate(self.entries.tolist())
            for j, v in enumerate(row) if v))  # 0 and -0.0 carry no mass
        self._check()

    def _check(self):
        _, masses, D = self.scaled_view
        for v in masses:
            if is_inf(v):
                raise NegativeMass("plan entries must be finite")
            if not v > 0:  # NaN fails every comparison
                raise NegativeMass(f"negative plan mass {unscale(v, D, self.mode)}")

    @cached_property
    def cells(self) -> tuple:
        """The ``((i, j), mass)`` pairs of the nonzero entries, in row-major order."""
        cells, masses, D = self.scaled_view
        return tuple(zip(cells, (unscale(x, D, self.mode) for x in masses)))

    @cached_property
    def shape(self):
        return self.entries.shape

    @cached_property
    def mode(self) -> str:
        return mode_of(self.entries)

    @cached_property
    def scaled_view(self) -> tuple:
        """``(cells, masses, D)``: the nonzero cells in row-major order and
        their masses as ints over one denominator ``D`` (float mode: the
        masses over 1), stored (:func:`plan_from_cells`) or from one
        :func:`scaled` pass over :attr:`cells` on first use."""
        cells, masses = tuple(zip(*self.cells)) or ((), ())
        if self.mode != RATIONAL:
            return cells, masses, 1
        (ints,), D = scaled([masses])
        return cells, ints, D

    def support(self):
        """Cells carrying mass above ``tolerance(mode)``."""
        cells, masses, D = self.scaled_view
        tol = tolerance(self.mode) * D
        return tuple(cell for cell, x in zip(cells, masses) if x > tol)


@dataclass(frozen=True, eq=False)
class DualPotentials:
    """A pair (phi over X, psi over Y) of finite potential vectors.

    Its readers compute on :attr:`scaled_view`, the pair as ints over one
    denominator, after reading it in the cost's mode (:meth:`_read`). A pair
    of :meth:`from_scaled` holds only that view and derives ``phi`` and
    ``psi`` from it on first read."""

    phi: np.ndarray = _Derived(lambda pot: unscaled(*pot.scaled_view[::2], pot.mode))
    psi: np.ndarray = _Derived(lambda pot: unscaled(*pot.scaled_view[1:], pot.mode))

    def __post_init__(self):
        if self.phi.ndim != 1 or self.psi.ndim != 1:
            raise DimensionMismatch("potentials must be vectors")
        for v in list(self.phi) + list(self.psi):
            if isinstance(v, float) and not math.isfinite(v):
                raise InfeasiblePotentials(f"non-finite potential entry {v!r}")

    @classmethod
    def from_scaled(cls, phi: list, psi: list, D: int, mode: str) -> "DualPotentials":
        """The pair ``phi / D, psi / D`` in ``mode`` (float mode: the floats,
        ``D = 1``), held as its :attr:`scaled_view`."""
        return _holding(cls, scaled_view=(phi, psi, D), mode=mode, shape=(len(phi), len(psi)))

    @cached_property
    def mode(self) -> str:
        return mode_of(self.phi)

    @cached_property
    def scaled_view(self) -> tuple:
        """``(phi, psi, D)``: the pair as ints over one denominator (float
        mode: the floats over 1), stored (:meth:`from_scaled`) or from one
        :func:`scaled` pass on first use, of a pair in its mode
        (:meth:`_in_mode`)."""
        if self.mode != RATIONAL:
            return self.phi, self.psi, 1
        (phi, psi), D = scaled([self.phi.tolist(), self.psi.tolist()])
        return phi, psi, D

    @cached_property
    def shape(self):
        return (self.phi.shape[0], self.psi.shape[0])

    def phi_c(self, cost: CostMatrix) -> tuple:
        """``(phi^c, E)``, the c-transform of phi (:func:`cost_transforms`)
        as one scaled row over ``E``, ``+inf`` on an all-+inf column, of a
        pair read in the cost's mode: computed once per pair and cost, so
        that the feasibility test and the normalization share it."""
        memo = self.__dict__.get("_phi_c")
        if memo is None or memo[0] is not cost:
            phi, _, D = self.scaled_view
            (row,), E = cost_transforms(([phi], D), cost, 0)
            memo = self.__dict__["_phi_c"] = cost, row, E
        return memo[1], memo[2]

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
        (:meth:`_read`), if it passes :meth:`is_feasible_for` on its
        :attr:`scaled_view` and :meth:`phi_c`; else None."""
        if cost.shape != self.shape:
            raise DimensionMismatch(f"potentials {self.shape} vs cost {cost.shape}")
        pot = self._read(cost.mode)
        _, psi, D = pot.scaled_view
        phi_c, E = pot.phi_c(cost)
        f, tol = E // D, cost_tolerance(cost) * E
        return pot if all(q * f <= v + tol for q, v in zip(psi, phi_c)) else None

    def _in_mode(self, mode: str) -> bool:
        """Whether the pair reads as itself in ``mode``: read-only arrays (so
        that a cached :attr:`scaled_view` stays true) of float64, or of
        ``Fraction``s only, the numbers ``to_number`` returns as they are."""
        if "phi" not in self.__dict__:  # a pair of from_scaled: its arrays are its mode's
            return mode == self.mode
        arrays = (self.phi, self.psi)
        if any(a.flags.writeable for a in arrays):
            return False
        if mode != RATIONAL:
            return all(a.dtype == np.float64 for a in arrays)
        return set(map(type, self.phi.tolist() + self.psi.tolist())) <= {Fraction}

    def _read(self, mode: str) -> "DualPotentials":
        """The pair by ``as_vector``: a bad entry is a BadNumber (``psi[0]: ...``).
        A pair already in ``mode`` (:meth:`_in_mode`) reads as itself."""
        if self._in_mode(mode):
            return self
        return DualPotentials(as_vector(self.phi, mode, "phi"), as_vector(self.psi, mode, "psi"))


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
        for part, name in ((self.mu, "weights"), (self.nu, "weights"),
                           (self.space_x, "metric"), (self.space_y, "metric")):
            if part.mode not in (None, self.mode):
                raise ValueError(
                    f"array dtype {getattr(part, name).dtype} does not match mode {self.mode!r}"
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
    (X, Y, cost, mu, nu), so the first bad one is the one reported; an error
    names its part (``X.metric[0][1]``, ``Y.labels``, ``mu[0]``, ``nu``). Each
    part is one :func:`read_part`, which caches the read's ints as its ``scaled_view``."""
    if labels_x is None or labels_y is None:
        require_list(cost, "cost")
        if len(cost):
            require_list(cost[0], "cost[0]")
    if labels_x is None:
        labels_x = [f"x{i}" for i in range(len(cost))]
    if labels_y is None:
        labels_y = [f"y{j}" for j in range(len(cost[0]) if len(cost) else 0)]

    def space(name, labels, metric):
        try:
            if metric is None:
                return FiniteSpace(tuple(labels))
            return read_part(FiniteSpace, metric, mode, "metric", tuple(labels))
        except (BadNumber, MetricViolation, DimensionMismatch) as exc:
            raise type(exc)(f"{name}.{exc}") from None

    def marginal(name, values):
        try:
            return read_part(Marginal, values, mode, name, vector=True)
        except (NegativeMass, MassNotOne) as exc:
            raise type(exc)(name + str(exc).removeprefix("marginal")) from None

    return Instance(
        space("X", labels_x, metric_x),
        space("Y", labels_y, metric_y),
        read_part(CostMatrix, cost, mode, "cost"),
        marginal("mu", mu),
        marginal("nu", nu),
    )


def convert_instance(instance: Instance, mode: str) -> Instance:
    """The instance in ``mode``. To float, each number is ``v / D`` of its
    part's ``scaled_view`` ints, the nearest float, as ``float(Fraction(v,
    D))`` rounds (``+inf`` kept), and the float blocks are read by
    :func:`read_part`; a number beyond the float range sends the instance
    through :func:`to_number`, which reports it as a BadNumber naming its
    cell. To rational, a float converts exactly by :func:`to_number`, so
    any float but an integral one or ``+inf`` is a BadNumber naming its cell."""
    if mode == instance.mode:
        return instance
    x, y = instance.space_x, instance.space_y
    if mode == FLOAT:
        try:
            cost, mu, nu, metric_x, metric_y = (
                None if part.mode is None else _float_rows(*part.scaled_view)
                for part in (instance.cost, instance.mu, instance.nu, x, y))
        except OverflowError:
            pass
        else:
            return make_instance(cost, mu, nu, FLOAT, metric_x=metric_x, metric_y=metric_y,
                                 labels_x=x.labels, labels_y=y.labels)
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


def _float_rows(values: list, D: int) -> list:
    """A scaled row, or rows, of ints over ``D`` (``+inf`` kept) as the
    floats ``v / D``: int true division rounds correctly, and raises
    OverflowError beyond the float range."""
    return [_float_rows(v, D) if type(v) is list else v if type(v) is float else v / D
            for v in values]


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


def scaled_plan_cost(plan: TransportPlan, cost: CostMatrix) -> tuple:
    """:func:`plan_cost` as ``(total, D)``, summed on the ``scaled_view``
    ints of the plan and the cost (float mode: the floats over 1)."""
    if plan.shape != cost.shape:
        raise DimensionMismatch(f"plan {plan.shape} vs cost {cost.shape}")
    (cells, masses, D), (rows, M) = plan.scaled_view, cost.scaled_view
    total = 0 if plan.mode == RATIONAL else 0.0
    for (i, j), x in zip(cells, masses):
        c = rows[i][j]
        if is_inf(c):
            return INF, 1
        total += x * c
    return total, D * M


def plan_cost(plan: TransportPlan, cost: CostMatrix) -> Number:
    """Total transport cost sum_ij plan[i][j] * c[i][j].

    Returns +inf when positive mass sits on an infinite-cost cell; zero mass
    on such a cell contributes nothing (0 * inf = 0 convention).
    """
    return unscale(*scaled_plan_cost(plan, cost), plan.mode)


def _require_dual_shape(pot: DualPotentials, mu: Marginal, nu: Marginal):
    if pot.shape != (mu.size, nu.size):
        raise DimensionMismatch(
            f"potentials {pot.shape} vs marginals ({mu.size}, {nu.size})"
        )


def scaled_dual_value(pot: DualPotentials, mu: Marginal, nu: Marginal) -> tuple:
    """:func:`dual_value` of a pair in the marginals' mode as ``(total, D)``,
    summed on the ``scaled_view`` ints of the pair and the marginals."""
    _require_dual_shape(pot, mu, nu)
    (phi, psi, D), (a, L), (b, K) = pot.scaled_view, mu.scaled_view, nu.scaled_view
    return sum(map(mul, phi, a)) * K + sum(map(mul, psi, b)) * L, D * L * K


def dual_value(pot: DualPotentials, mu: Marginal, nu: Marginal) -> Number:
    """Dual objective sum_i phi[i] mu[i] + sum_j psi[j] nu[j]. A pair of
    another mode than the marginals' is summed as its entries multiply with
    the weights (a float pair on rational marginals gives a float)."""
    if pot._in_mode(mu.mode):
        return unscale(*scaled_dual_value(pot, mu, nu), mu.mode)
    _require_dual_shape(pot, mu, nu)
    return sum(map(mul, pot.phi, mu.weights)) + sum(map(mul, pot.psi, nu.weights))


def product_plan(mu: Marginal, nu: Marginal) -> TransportPlan:
    """The product coupling of mu and nu, the standard witness that the
    feasible set is nonempty."""
    return TransportPlan(
        frozen_array(np.multiply.outer(mu.weights, nu.weights), mu.mode)
    )


def _dense(shape, masses: dict, mode: str) -> np.ndarray:
    """The frozen matrix with the ``{(i, j): mass}`` entries and zero elsewhere."""
    z = zero(mode)
    return frozen_array([[masses.get((i, j), z) for j in range(shape[1])]
                         for i in range(shape[0])], mode)


def plan_from_cells(shape, masses: dict, mode: str, D: Optional[int] = None) -> TransportPlan:
    """The plan with the ``{(i, j): mass}`` entries and zero elsewhere. With
    ``D``, the masses are ints over ``D`` (float mode: floats, ``D = 1``),
    and the plan holds only its :attr:`~TransportPlan.scaled_view`."""
    if D is None:
        return TransportPlan(_dense(shape, masses, mode))
    cells = tuple(sorted(cell for cell, x in masses.items() if x))
    plan = _holding(TransportPlan, scaled_view=(cells, [masses[cell] for cell in cells], D),
                    mode=mode, shape=tuple(shape))
    plan._check()
    return plan
