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
)
from .errors import DimensionMismatch, UnboundedTransform

OVER_X = "over-X"
OVER_Y = "over-Y"


def _transform(pot, cost: CostMatrix, axis: int, name: str, line: str):
    """One row of ``core.cost_transforms`` (``axis`` 0: phi^c, 1: psi^cbar);
    ``pot`` is read in the cost's mode first (a NaN or -inf is a BadNumber),
    then must be finite."""
    pot = as_vector(pot, cost.mode, name)
    if pot.shape[0] != cost.shape[axis]:
        raise DimensionMismatch(f"{name} has shape {pot.shape}, expected ({cost.shape[axis]},)")
    if any(is_inf(x) for x in pot):
        raise UnboundedTransform(f"{name} must have finite entries")
    (out,) = cost_transforms(pot[None], cost, axis)
    for b, v in enumerate(out):
        if is_inf(v):
            raise UnboundedTransform(f"{line} {b} of the cost is entirely +inf")
    return out


def c_transform(phi, cost: CostMatrix):
    """phi^c over Y. Columns that are entirely +inf admit no finite value
    and raise UnboundedTransform."""
    return _transform(phi, cost, 0, "phi", "column")


def cbar_transform(psi, cost: CostMatrix):
    """psi^cbar over X; the mirror of :func:`c_transform`."""
    return _transform(psi, cost, 1, "psi", "row")


def normalize_pair(phi, cost: CostMatrix) -> DualPotentials:
    """The canonical feasible pair (phi^{c cbar} + m, phi^c - m) with
    m = min_j phi^c[j].

    Dominates (phi, phi^c) in the oplus order; with a bounded cost it lands
    inside the [-3||c||, ||c||] x [0, 2||c||] boxes. An all-+inf row or
    column of the cost raises UnboundedTransform naming it."""
    psi = c_transform(phi, cost)
    shift = min(psi)
    return DualPotentials(frozen_array(cbar_transform(psi, cost) + shift, cost.mode),
                          frozen_array(psi - shift, cost.mode))


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
    lines, over = (cost.entries, 1) if axis == OVER_X else (cost.entries.T, 0)
    low = cost_transforms(lines, cost, over)
    return frozen_array(np.maximum(0 - low, 0 - low.T), cost.mode)  # 0 - 0.0 is +0.0


def is_c_concave(phi, cost: CostMatrix) -> bool:
    """Whether phi is fixed by the double transform: ||phi^{c cbar} - phi||
    within ``cost_tolerance(cost)``, which is 0 in rational mode. The double
    transform never falls below phi, so this is a one-sided check in exact
    arithmetic. phi is read in the cost's mode, as by :func:`c_transform`."""
    phi = as_vector(phi, cost.mode, "phi")
    return max(abs(cbar_transform(c_transform(phi, cost), cost) - phi)) <= cost_tolerance(cost)
