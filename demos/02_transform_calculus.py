"""The c-transform calculus: tightening, domination, bound boxes.

Starting from an arbitrary potential phi, the transform pair
(phi^{c cbar}, phi^c) dominates (phi, phi^c) pointwise in the oplus order,
stays dual-feasible, and after normalization lands in fixed boxes scaled
by ||c||. The double transform is a closure operator: applying it twice
changes nothing.
"""

import random
from fractions import Fraction as F

from otlab import (
    as_vector,
    c_transform,
    cbar_transform,
    induced_pseudometric,
    is_c_concave,
    make_instance,
    normalize_pair,
)
from otlab.ctransform import OVER_Y

rng = random.Random(3)
size = 4
cost_rows = [[F(rng.randint(0, 8), 2) for _ in range(size)] for _ in range(size)]
inst = make_instance(cost_rows, [F(1, size)] * size, [F(1, size)] * size)
print("cost:")
for row in inst.cost.entries.tolist():
    print("   ", row)

phi = as_vector([F(rng.randint(-6, 6), 2) for _ in range(size)], "rational")
print("\nphi          :", list(phi))

psi = c_transform(phi, inst.cost)
phi_cc = cbar_transform(psi, inst.cost)
print("phi^c        :", list(psi))
print("phi^{c cbar} :", list(phi_cc), "   (>= phi entrywise)")
print("c-concave?   :", is_c_concave(phi, inst.cost), "->", is_c_concave(phi_cc, inst.cost))

# triple transform collapses: (phi^{c cbar})^c == phi^c
print("triple collapse exact:", list(c_transform(phi_cc, inst.cost)) == list(psi))

pair = normalize_pair(phi, inst.cost)
norm = inst.cost.sup_norm()
print("\nnormalized phi:", list(pair.phi), f"  (box [-3||c||, ||c||] = [{-3 * norm}, {norm}])")
print("normalized psi:", list(pair.psi), f"  (box [0, 2||c||] = [0, {2 * norm}])")

# transforms are 1-Lipschitz for the induced pseudometrics
d_y = induced_pseudometric(inst.cost, OVER_Y)
worst = max(
    abs(psi[j] - psi[l]) - d_y[j, l] for j in range(size) for l in range(size)
)
print("\n1-Lipschitz slack (should be <= 0):", worst)
