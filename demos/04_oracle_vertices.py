"""What the brute-force oracle actually walks.

Every vertex of the transportation polytope sits on a spanning tree of the
bipartite supply-demand graph; the oracle's walk yields all of them (here:
3^2 * 3^2 = 81 trees for a 3x3 instance), and the oracle takes the exact
minimum over the feasible ones. The network simplex must agree bit for bit.
"""

import random
from fractions import Fraction as F

from otlab import make_instance, oracle_dual, oracle_primal, solve_primal
from otlab.oracle import _enumerate_trees

rng = random.Random(12)
m = n = 3
cost = [[F(rng.randint(0, 9)) for _ in range(n)] for _ in range(m)]
mu_raw = [rng.randint(1, 5) for _ in range(m)]
nu_raw = [rng.randint(1, 5) for _ in range(n)]
# balance the integer masses so both sides agree
total = sum(mu_raw)
while sum(nu_raw) != total:
    nu_raw[rng.randrange(n)] += 1 if sum(nu_raw) < total else -1
inst = make_instance(
    cost,
    [F(v, total) for v in mu_raw],
    [F(v, total) for v in nu_raw],
)

# the unpruned walk yields every spanning tree with its (possibly negative)
# masses; the trees whose masses are all nonnegative are the vertices
trees = list(_enumerate_trees(
    m, n, mu_raw, nu_raw, [[int(c) for c in row] for row in cost], prune_infeasible=False
))
feasible = sum(all(x >= 0 for x in masses) for _, masses, _ in trees)
print(f"spanning trees of K_{m},{n}: {len(trees)} (formula: {m**(n-1) * n**(m-1)})")
print(f"feasible trees (vertices, with degenerate repeats): {feasible}")

res = oracle_primal(inst)
print("\noracle optimum:", res.value)
print("oracle plan:   ", [[str(v) for v in row] for row in res.plan.entries.tolist()])

simplex = solve_primal(inst)
print("simplex value: ", simplex.value, "| exact match:", simplex.value == res.value)

pot = oracle_dual(inst)
print("\ntree-propagated dual potentials close the gap independently:")
print("phi:", [str(v) for v in pot.phi], " psi:", [str(v) for v in pot.psi])
