"""
K-functionals between two Besov sequence spaces
===============================================

K(t) = inf over splits f = g + h of ||g||_0 + t*||h||_1.  The solver
routes each index couple to a closed form when one exists and reports
which route it took.  On every route swapping the two spaces commutes
exactly via K(t; A0, A1) = t * K(1/t; A1, A0).  Only the degenerate and
general routes are also nondecreasing in t, with K(t)/t nonincreasing;
the split routes move a whole layer or coefficient across their split
at a breakpoint of t, and K can drop there (see README).
"""

import numpy as np

from besovk import (BesovIndex, CaseTag, CoeffField, GridSpec, InterpQuery,
                    besov_norm, default_t_grid, k_plan)

spec = GridSpec(n=1, J=3, layer_sizes=(1, 2, 4))
field = CoeffField(spec, [np.array([0.9]),
                          np.array([0.5, 0.3]),
                          np.array([0.2, 0.1, 0.4, 0.05])])

couples = [
    ("identical spaces   ", BesovIndex(0.5, 2.0, 1.0), BesovIndex(0.5, 2.0, 1.0)),
    ("p equal, q equal   ", BesovIndex(-0.5, 2.0, 1.0), BesovIndex(1.0, 2.0, 1.0)),
    ("p equal, q differ  ", BesovIndex(-0.5, 2.0, 1.0), BesovIndex(1.0, 2.0, 3.0)),
    ("p equal, s equal   ", BesovIndex(0.5, 2.0, 1.0), BesovIndex(0.5, 2.0, np.inf)),
    ("q equal, p differ  ", BesovIndex(0.0, 1.0, 2.0), BesovIndex(0.5, np.inf, 2.0)),
    ("all differ (finite)", BesovIndex(0.0, 1.0, 1.0), BesovIndex(0.5, 2.0, 2.0)),
]

print(f"{'couple':22s}{'case':26s}{'K(1)':>12s}  route")
for name, i0, i1 in couples:
    q = InterpQuery(i0, i1)
    plan = k_plan(field, q)
    print(f"{name:22s}{q.case.name:26s}{plan.k([1.0])[0]:12.6f}  {plan.label}")

# the swap commutation holds to machine precision on every route
q = InterpQuery(BesovIndex(0.0, 1.0, 1.0), BesovIndex(0.5, 2.0, 2.0))
plan, swapped = k_plan(field, q), k_plan(field, q.swapped())
for t in (0.01, 1.0, 100.0):
    fwd = plan.k([t])[0]
    rev = swapped.k([1.0 / t])[0]
    print(f"t={t:<7g} K={fwd:.9f}  t*K_swapped(1/t)={t * rev:.9f}")

# the endpoints: K(t) -> ||f||_A0 as t -> inf, K(t)/t -> ||f||_A1 as t -> 0
n0 = besov_norm(field, q.idx0)
n1 = besov_norm(field, q.idx1)
k_hi, k_lo = plan.k([2.0 ** 40, 2.0 ** -40])
print(f"\n||f||_A0 = {n0:.9f}   K(2^40)       = {k_hi:.9f}")
print(f"||f||_A1 = {n1:.9f}   K(2^-40)/2^-40 = {k_lo / 2.0 ** -40:.9f}")

# sample a whole curve on a log grid from the same plan
ts = default_t_grid(-6, 6, 0.5)
ks = plan.k(ts)
print(f"\ncurve method {plan.label}, {len(ts)} points")
for t, k in zip(ts, ks):
    bar = "#" * int(round(40 * k / ks[-1]))
    print(f"  t=2^{np.log2(t):+5.1f}  K={k:9.6f}  {bar}")
