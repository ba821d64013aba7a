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
``+inf`` cost cells are skipped by both transforms, which are one row of the
min-plus product ``core.min_plus``; caller potentials are read in the
cost's mode (``core.as_vector``), so the product never sees two modes.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CostMatrix,
    DualPotentials,
    as_vector,
    cost_tolerance,
    frozen_array,
    is_inf,
    min_plus,
)
from .errors import DimensionMismatch, UnboundedTransform

OVER_X = "over-X"
OVER_Y = "over-Y"


def _transform(pot, rows: np.ndarray, mode: str, name: str, line: str):
    """``out[b] = min_a rows[a, b] - pot[a]``: one row of ``core.min_plus``.
    ``rows`` is the cost for the c-transform and its transpose for the
    cbar-transform; ``pot`` is read in the cost's mode."""
    raw = np.asarray(pot)
    if raw.ndim != 1 or raw.shape[0] != len(rows):
        raise DimensionMismatch(f"{name} has shape {raw.shape}, expected ({len(rows)},)")
    if any(is_inf(x) or (isinstance(x, float) and x != x) for x in raw):
        raise UnboundedTransform(f"{name} must have finite entries")
    (out,) = min_plus(-as_vector(pot, mode, name)[None], rows)
    for b, v in enumerate(out):
        if is_inf(v):
            raise UnboundedTransform(f"{line} {b} of the cost is entirely +inf")
    return out


def c_transform(phi, cost: CostMatrix):
    """phi^c over Y. Columns that are entirely +inf admit no finite value
    and raise UnboundedTransform."""
    return _transform(phi, cost.entries, cost.mode, "phi", "column")


def cbar_transform(psi, cost: CostMatrix):
    """psi^cbar over X; the mirror of :func:`c_transform`."""
    return _transform(psi, cost.entries.T, cost.mode, "psi", "row")


def normalize_pair(phi, cost: CostMatrix) -> DualPotentials:
    """The canonical feasible pair (phi^{c cbar} + m, phi^c - m) with
    m = min_j phi^c[j].

    Dominates (phi, phi^c) in the oplus order; with a bounded cost it lands
    inside the [-3||c||, ||c||] x [0, 2||c||] boxes. An all-+inf row or
    column of the cost raises UnboundedTransform naming it."""
    psi = c_transform(phi, cost)
    phi_cc = cbar_transform(psi, cost)
    shift = min(psi)
    return DualPotentials(
        phi=frozen_array(phi_cc + shift, cost.mode),
        psi=frozen_array(psi - shift, cost.mode),
    )


def induced_pseudometric(cost: CostMatrix, axis: str) -> np.ndarray:
    """Worst-case cost variation across the other coordinate, a frozen
    matrix that is a pseudometric by construction:

    over-X entry (i, i') = max_j |c[i][j] - c[i'][j]|
    over-Y entry (j, j') = max_i |c[i][j] - c[i][j']|

    One max-plus product: with ``low = min_plus(-c, c.T)``, entry (i, i') is
    ``max(-low[i, i'], -low[i', i])``, exact as negation is, in both modes."""
    cost.require_bounded("the induced pseudometric")
    if axis not in (OVER_X, OVER_Y):
        raise ValueError(f"axis must be {OVER_X!r} or {OVER_Y!r}")
    # rows of c are the points of the measured axis
    c = cost.entries if axis == OVER_X else cost.entries.T
    low = min_plus(-c, c.T)
    return frozen_array(np.maximum(0 - low, 0 - low.T), cost.mode)  # 0 - 0.0 is +0.0


def is_c_concave(phi, cost: CostMatrix) -> bool:
    """Whether phi is fixed by the double transform: ||phi^{c cbar} - phi||
    within ``cost_tolerance(cost)``, which is 0 in rational mode. The double
    transform never falls below phi, so this is a one-sided check in exact
    arithmetic. phi is read in the cost's mode, as by :func:`c_transform`."""
    phi_cc = cbar_transform(c_transform(phi, cost), cost)
    phi = as_vector(phi, cost.mode, "phi")
    return max(abs(phi_cc - phi)) <= cost_tolerance(cost)
