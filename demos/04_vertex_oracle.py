"""The exact enumeration oracle and what it certifies.

On a small field the K infimum over coefficient splits is attained at a
support split: each coefficient goes entirely to one side or the
other.  Enumerating all 2^N subsets gives an exact reference value, at
exponential cost, with a fixed cap of 20 coefficients so nobody asks
for 2^60 subsets by accident.  The formula routes are checked against
it.
"""

import numpy as np

from besovk import (BesovIndex, CoeffField, GridSpec, InterpQuery,
                    generate, k_cuboid_continuous, k_plan, vertex_tables)
from besovk.errors import BudgetError

spec = GridSpec(n=1, J=2, layer_sizes=(2, 3))
field = CoeffField(spec, [np.array([1.0, 0.3]), np.array([0.6, 0.2, 0.45])])
i0 = BesovIndex(0.0, 1.0, 1.0)
i1 = BesovIndex(0.5, 2.0, 2.0)

# exact sum-form K by enumerating all 2^5 support splits
plan = k_plan(field, InterpQuery(i0, i1))
for t in (0.1, 1.0, 10.0):
    exact = vertex_tables(field, i0, i1).k(t)
    approx = plan.k([t])[0]
    print(f"t={t:<5g} oracle={exact:.6f}  {plan.label}={approx:.6f}"
          f"  ratio={approx / exact:.4f}")

# max-form variant (xi = inf) sandwiches the sum form within factor 2
t = 1.0
tables = vertex_tables(field, i0, i1)
k1 = tables.k(t, xi=1.0)
kinf = tables.k(t, xi=np.inf)
print(f"\nxi=1: {k1:.6f}  xi=inf: {kinf:.6f}  (k1/kinf = {k1 / kinf:.4f} <= 2)")

# the continuous relaxation allows fractional splits; it lower-bounds
# the vertex value and stays within a factor 2 of it
kc = k_cuboid_continuous(field, i0, i1, t)
print(f"continuous relaxation: {kc:.6f}  vertex/continuous = {k1 / kc:.4f}")

# the cap turns exponential blowups into clean refusals: 21 coefficients
big = generate(GridSpec(n=1, J=3, layer_sizes=(7, 7, 7)), "uniform-random", 0)
try:
    vertex_tables(big, i0, i1).k(1.0)
except BudgetError as e:
    print("\nbudget refusal:", e)
