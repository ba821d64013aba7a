"""The c-transform calculus on finite spaces.

For a potential phi on X, its c-transform is the tightest partner keeping
the pair dual-feasible:

    phi^c(y)  = min_x { c(x, y) - phi(x) }          (vector over Y)
    psi^cbar(x) = min_y { c(x, y) - psi(y) }        (vector over X)

The double transform phi^{c cbar} dominates phi pointwise; a potential
fixed by it is c-concave. Both transform images are 1-Lipschitz for the
pseudometrics induced by the cost (worst-case cost variation across one
coordinate; :func:`induced_pseudometric` returns them as plain frozen
matrices), and the normalized pair

    ( phi^{c cbar} + min phi^c ,  phi^c - min phi^c )

lands, for a bounded cost, in the boxes [-3 ||c||, ||c||] x [0, 2 ||c||] —
which is what makes dual solutions of this canonical shape possible.
``+inf`` cost cells are skipped by both transforms, one row each of
``core.cost_transforms``; caller potentials are read in the cost's mode
(``core.as_vector``) before they are checked, so it never sees two modes.
The transforms and the normalization compute on scaled rows ``(ints, D)``
(``core.scaled_array``), and ``Fraction``s are built for the public
arrays of their results only (a normalized pair holds its ints); normalizing
a pair reuses the phi^c of its feasibility test.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CostMatrix,
    DualPotentials,
    as_vector,
    cost_tolerance,
    cost_transforms,
    frozen_array,
    is_inf,
    scaled_array,
    unscale,
    unscaled,
)
from .errors import DimensionMismatch, UnboundedTransform

OVER_X = "over-X"
OVER_Y = "over-Y"

_LINES = ("column", "row")  # the cost's line that an all-+inf transform entry names, by axis


def _finite(view: tuple, axis: int) -> tuple:
    """A transform row ``(row, E)`` as it is; an ``+inf`` entry raises
    UnboundedTransform naming the cost's all-+inf line."""
    for b, v in enumerate(view[0]):
        if is_inf(v):
            raise UnboundedTransform(f"{_LINES[axis]} {b} of the cost is entirely +inf")
    return view


def _transform(view: tuple, cost: CostMatrix, axis: int) -> tuple:
    """One row of ``core.cost_transforms`` (``axis`` 0: phi^c, 1: psi^cbar)
    of a scaled row ``(row, D)``, as ``(row, E)``, finite (:func:`_finite`)."""
    (row,), E = cost_transforms(([view[0]], view[1]), cost, axis)
    return _finite((row, E), axis)


def _potential(pot, cost: CostMatrix, axis: int, name: str) -> tuple:
    """``pot`` read in the cost's mode (a NaN or -inf is a BadNumber), then
    of the line's length and finite, as a scaled row ``(row, D)``."""
    pot = as_vector(pot, cost.mode, name)
    if pot.shape[0] != cost.shape[axis]:
        raise DimensionMismatch(f"{name} has shape {pot.shape}, expected ({cost.shape[axis]},)")
    if any(is_inf(x) for x in pot):
        raise UnboundedTransform(f"{name} must have finite entries")
    return scaled_array(pot)


def c_transform(phi, cost: CostMatrix):
    """phi^c over Y. Columns that are entirely +inf admit no finite value
    and raise UnboundedTransform."""
    return unscaled(*_transform(_potential(phi, cost, 0, "phi"), cost, 0), cost.mode)


def cbar_transform(psi, cost: CostMatrix):
    """psi^cbar over X; the mirror of :func:`c_transform`."""
    return unscaled(*_transform(_potential(psi, cost, 1, "psi"), cost, 1), cost.mode)


def _normal_form(psi: tuple, phi_cc: tuple, mode: str) -> DualPotentials:
    """The pair (phi^{c cbar} + m, phi^c - m), m = min phi^c, of the rows
    ``psi = (phi^c, E)`` and ``phi_cc``, both over ``E``: the cost's
    denominator divides ``E``, so the cbar-transform keeps it."""
    (row, E), (cc, _) = psi, phi_cc
    shift = min(row)
    return DualPotentials.from_scaled([v + shift for v in cc], [v - shift for v in row], E, mode)


def normalize_pair(phi, cost: CostMatrix) -> DualPotentials:
    """The canonical feasible pair (phi^{c cbar} + m, phi^c - m) with
    m = min_j phi^c[j].

    ``phi`` is a potential over X, or a pair (DualPotentials) whose phi is
    normalized with its :meth:`~otlab.core.DualPotentials.phi_c`, the one
    its feasibility test computed. Dominates (phi, phi^c) in the oplus
    order; with a bounded cost it lands inside the [-3||c||, ||c||] x
    [0, 2||c||] boxes. An all-+inf row or column of the cost raises
    UnboundedTransform naming it."""
    if isinstance(phi, DualPotentials):
        if phi.shape != cost.shape:
            raise DimensionMismatch(f"potentials {phi.shape} vs cost {cost.shape}")
        psi = _finite(phi._read(cost.mode).phi_c(cost), 0)
    else:
        psi = _transform(_potential(phi, cost, 0, "phi"), cost, 0)
    return _normal_form(psi, _transform(psi, cost, 1), cost.mode)


def _transform_chain(phi, cost: CostMatrix) -> tuple:
    """``(phi^c, phi^{c cbar}, normalize_pair(phi, cost))`` of a potential
    over X, from one c-transform and one cbar-transform."""
    psi = _transform(_potential(phi, cost, 0, "phi"), cost, 0)
    phi_cc = _transform(psi, cost, 1)
    return unscaled(*psi, cost.mode), unscaled(*phi_cc, cost.mode), \
        _normal_form(psi, phi_cc, cost.mode)


def induced_pseudometric(cost: CostMatrix, axis: str) -> np.ndarray:
    """Worst-case cost variation across the other coordinate, a frozen
    matrix that is a pseudometric by construction:

    over-X entry (i, i') = max_j |c[i][j] - c[i'][j]|
    over-Y entry (j, j') = max_i |c[i][j] - c[i][j']|

    One max-plus product: the cost's lines are potentials, so over X
    ``low[i, i'] = min_j c[i'][j] - c[i][j]`` is the cbar-transform of row i
    and entry (i, i') is ``max(-low[i, i'], -low[i', i])``, exact in both modes."""
    cost.require_bounded("the induced pseudometric")
    if axis not in (OVER_X, OVER_Y):
        raise ValueError(f"axis must be {OVER_X!r} or {OVER_Y!r}")
    rows, D = cost.scaled_view
    lines, over = (rows, 1) if axis == OVER_X else (list(zip(*rows)), 0)
    low, E = cost_transforms((lines, D), cost, over)
    low = np.array(low)
    return frozen_array([[unscale(v, E, cost.mode) for v in row]  # 0 - 0.0 is +0.0
                         for row in np.maximum(0 - low, 0 - low.T).tolist()], cost.mode)


def is_c_concave(phi, cost: CostMatrix) -> bool:
    """Whether phi is fixed by the double transform: ||phi^{c cbar} - phi||
    within ``cost_tolerance(cost)``, which is 0 in rational mode. The double
    transform never falls below phi, so this is a one-sided check in exact
    arithmetic. phi is read in the cost's mode, as by :func:`c_transform`,
    and compared on the scaled rows: ``|a / E - b / D| <= tol`` as
    ``|a D - b E| <= tol D E``."""
    row, D = _potential(phi, cost, 0, "phi")
    cc, E = _transform(_transform((row, D), cost, 0), cost, 1)
    return max(abs(a * D - b * E) for a, b in zip(cc, row)) <= cost_tolerance(cost) * D * E
