"""Brute-force K-functional oracles.

Two independent references for the closed-form engine:

- k_vertex_exact: exhaustive minimum over all 2^N support splits of the
  grid (each coefficient goes wholly to one side).  Exact for the
  split-infimum functional; for the max-form aggregation (xi = inf) the
  split infimum IS the K-functional, so this oracle is exact there.
- k_cuboid_continuous: the continuous infimum over decompositions
  0 <= g <= f, by cyclic coordinate descent with golden-section line
  searches.  Valid in the convex regime (all indices >= 1).

Both refuse problems larger than their budget rather than truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffField
from .errors import BudgetError, UsageError
from .grid import BesovIndex, layer_weight
from .norms import _pow2_factor, besov_norm

__all__ = [
    "OracleBudget",
    "vertex_tables",
    "k_vertex_exact",
    "k_cuboid_continuous",
]


@dataclass(frozen=True)
class OracleBudget:
    max_total_coeffs: int = 20
    max_subsets: int = 2**20
    coord_descent_iters: int = 500


def _layer_norm_table(v: np.ndarray, p: float) -> np.ndarray:
    """l^p norm of every sub-multiset of v, indexed by bitmask."""
    m = len(v)
    masks = np.arange(2**m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    if math.isinf(p):
        return np.max(bits * v[None, :], axis=1) if m else np.zeros(1)
    return (bits @ (v**p)) ** (1.0 / p)


class VertexTables:
    """Cached per-split norms ||f 1_S||_A0, ||f 1_S||_A1 over all masks.

    Bit gamma of a mask selects flat coefficient gamma (layers
    concatenated in order).  The complement of mask S is 2^N - 1 - S,
    so the A1 norms of complements are just the reversed table.  They
    hold the field scaled by fac (norms._pow2_factor); k undoes it.
    """

    def __init__(self, field: CoeffField, idx0: BesovIndex, idx1: BesovIndex,
                 budget: OracleBudget | None = None):
        budget = budget or OracleBudget()
        N = field.spec.total_coeffs
        if N > budget.max_total_coeffs:
            raise BudgetError(
                f"{N} coefficients exceed the enumeration budget "
                f"({budget.max_total_coeffs}); refusing rather than truncating"
            )
        if 2**N > budget.max_subsets:
            raise BudgetError(
                f"2^{N} subsets exceed the enumeration budget ({budget.max_subsets})"
            )
        self.fac = _pow2_factor(field.max_abs())
        if self.fac != 1.0:
            field = field.scaled(self.fac)
        self.a = self._side_table(field, idx0)
        self.b = self._side_table(field, idx1)
        self.b_comp = self.b[::-1]

    @staticmethod
    def _side_table(field: CoeffField, idx: BesovIndex) -> np.ndarray:
        q = idx.q
        tot = None
        for j in range(field.spec.J):
            w = layer_weight(field.spec, idx, j)
            lp = _layer_norm_table(field.layers[j], idx.p)
            contrib = (w * lp) ** q if not math.isinf(q) else w * lp
            if tot is None:
                tot = contrib
            elif math.isinf(q):
                tot = np.maximum(contrib[:, None], tot[None, :]).ravel()
            else:
                tot = (contrib[:, None] + tot[None, :]).ravel()
        return tot ** (1.0 / q) if not math.isinf(q) else tot

    def _split_values(self, t: float, xi: float) -> np.ndarray:
        """(||f 1_S||_A0^xi + t^xi ||f 1_Sc||_A1^xi)^(1/xi) for every mask S.
        At t = inf, t * 0 is the limit 0: a split with nothing left for
        A1 keeps its A0 norm, so K(inf) = ||f||_A0."""
        if not t >= 0:
            raise UsageError(f"t must be nonnegative, got {t}")
        tb = t * self.b_comp if t < math.inf else np.where(self.b_comp > 0.0, math.inf, 0.0)
        if math.isinf(xi):
            return np.maximum(self.a, tb)
        return (self.a**xi + tb**xi) ** (1.0 / xi)

    def k(self, t: float, xi: float = 1.0) -> float:
        return float(self._split_values(t, xi).min()) / self.fac

    def best_split(self, t: float, xi: float = 1.0) -> int:
        return int(self._split_values(t, xi).argmin())

    def curve(self, ts, xi: float = 1.0) -> np.ndarray:
        """k at each t of ts."""
        return np.array([self.k(float(t), xi) for t in np.asarray(ts, dtype=float)])


def vertex_tables(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex,
                  budget: OracleBudget | None = None) -> VertexTables:
    return VertexTables(field, idx0, idx1, budget)


def k_vertex_exact(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex, t: float,
                   xi: float = 1.0, budget: OracleBudget | None = None) -> float:
    """Exhaustive split minimum of (||f 1_S||_A0^xi + t^xi ||f 1_Sc||_A1^xi)^(1/xi)."""
    return vertex_tables(field, idx0, idx1, budget).k(t, xi)


class _SideAccum:
    """Incremental one-sided Besov norm under single-coordinate edits.

    An exponent of 1 takes no power: float ** calls libm pow, and
    pow(x, 1.0) is x exactly, so r + x is bit for bit (r + x**1.0)**1.0.
    No other exponent has a shortcut (x**2.0 and x*x, x**0.5 and
    sqrt(x) differ in the last bit for some x)."""

    def __init__(self, consts: tuple, vecs):
        self.w, self.exps = consts
        (self.p, self.ip, self.q, self.iq,
         self.p_inf, self.q_inf, self.p_one, self.q_one) = self.exps
        self.base = [float(v.max()) if self.p_inf else float(np.sum(v**self.p))
                     for v in vecs]
        self.vecs = [v.tolist() for v in vecs]
        self.terms = [self._term(j, b) for j, b in enumerate(self.base)]

    @staticmethod
    def consts(field: CoeffField, idx: BesovIndex) -> tuple:
        """(layer weights, exponent tuple) of one side, shared by every
        descent start."""
        p, q = idx.p, idx.q
        exps = (p, 1.0 / p, q, 1.0 / q, math.isinf(p), math.isinf(q), p == 1.0, q == 1.0)
        return [layer_weight(field.spec, idx, j) for j in range(field.spec.J)], exps

    def _term(self, j: int, base: float) -> float:
        lp = base if self.p_inf or self.p_one else base**self.ip
        wlp = self.w[j] * lp
        return wlp if self.q_inf or self.q_one else wlp**self.q

    def norm(self) -> float:
        if self.q_inf:
            return max(self.terms)
        return sum(self.terms) if self.q_one else sum(self.terms) ** self.iq

    def prepare(self, j: int, i: int) -> tuple:
        """Stash layer-j state with coordinate i removed; returns what a
        1-D evaluation needs: (layer rest, layer weight, other layers)
        followed by self.exps."""
        self._j, self._i = j, i
        v = self.vecs[j]
        if self.p_inf:
            rest = max(v[:i] + v[i + 1 :], default=0.0)
        else:
            rest = self.base[j] - (v[i] if self.p_one else v[i] ** self.p)
            if rest < 0.0:
                rest = 0.0
        self._rest = rest
        if self.q_inf:
            agg_rest = max(self.terms[:j] + self.terms[j + 1 :], default=0.0)
        else:
            agg_rest = sum(self.terms) - self.terms[j]
        return (rest, self.w[j], agg_rest) + self.exps

    def commit(self, x: float):
        j = self._j
        self.vecs[j][self._i] = x
        if self.p_inf:
            self.base[j] = max(self._rest, x)
        else:
            self.base[j] = self._rest + (x if self.p_one else x**self.p)
        self.terms[j] = self._term(j, self.base[j])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = _INVPHI * _INVPHI


def _golden_min(fi: float, xtol: float, t: float, side0: tuple, side1: tuple) -> float:
    """Golden-section minimiser on [0, fi] of x -> N0(x) + t N1(fi - x),
    both sides' norms with one coordinate split x | fi - x; side0 and
    side1 are _SideAccum.prepare's tuples.  The objective is evaluated
    inline at one site, once per probe: c and d to start, one new c or
    d per step, and at the end each endpoint no probe has moved onto.
    An exponent of 1 takes no power, as in _SideAccum.
    Returns the first of a, b, c, d with the least value."""
    r0, w0, a0, p0, ip0, q0, iq0, p0_inf, q0_inf, p0_one, q0_one = side0
    r1, w1, a1, p1, ip1, q1, iq1, p1_inf, q1_inf, p1_one, q1_one = side1
    invphi, invphi2 = _INVPHI, _INVPHI2
    a, b = 0.0, fi
    h = b - a
    if h <= xtol:
        return 0.5 * (a + b)
    c = a + invphi2 * h
    d = a + invphi * h
    fa = fb = fd = None
    x, left = c, True  # left: x is c; False: x is d; None: x is a or b
    while True:
        y = fi - x
        if p0_inf:
            u0 = w0 * (x if x > r0 else r0)
        elif p0_one:
            u0 = w0 * (r0 + x)
        else:
            u0 = w0 * (r0 + x**p0) ** ip0
        if p1_inf:
            u1 = w1 * (y if y > r1 else r1)
        elif p1_one:
            u1 = w1 * (r1 + y)
        else:
            u1 = w1 * (r1 + y**p1) ** ip1
        if q0_inf:
            u0 = u0 if u0 > a0 else a0
        elif q0_one:
            u0 = a0 + u0
        else:
            u0 = (a0 + u0**q0) ** iq0
        if q1_inf:
            u1 = u1 if u1 > a1 else a1
        elif q1_one:
            u1 = a1 + u1
        else:
            u1 = (a1 + u1**q1) ** iq1
        fx = u0 + t * u1
        if left:
            fc = fx
            if fd is None:
                x, left = d, False
                continue
        elif left is False:
            fd = fx
        elif fa is None:
            fa = fx
        else:
            fb = fx
        if h > xtol:
            if fc < fd:
                b, d, fb, fd = d, c, fd, fc
                h = b - a
                x = c = a + invphi2 * h
                left = True
            else:
                a, c, fa, fc = c, d, fc, fd
                h = b - a
                x = d = a + invphi * h
                left = False
        elif fa is None:
            x, left = a, None
        elif fb is None:
            x, left = b, None
        else:
            break
    for z, fz in ((b, fb), (c, fc), (d, fd)):
        if fz < fa:
            a, fa = z, fz
    return a


def _vertex_start(flat: np.ndarray, mask: int) -> np.ndarray | None:
    """g of the vertex split `mask` over the flat field (bit k keeps
    coefficient k in g), or None when it repeats a descent start: g = 0
    when mask & nz == 0 and g = f when mask & nz == nz, with nz the mask
    of the nonzero coefficients."""
    ks = np.arange(len(flat))
    nz = int(np.sum((flat != 0.0) << ks))
    if mask & nz in (0, nz):
        return None
    return np.where((mask >> ks) & 1 == 1, flat, 0.0)


def k_cuboid_continuous(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex, t: float,
                        budget: OracleBudget | None = None) -> float:
    """Continuous decomposition infimum over the box 0 <= g <= f.

    Convex regime only (all indices >= 1): the objective
    ||g||_A0 + t ||f - g||_A1 is then jointly convex and cyclic
    coordinate descent with exact line searches converges.  Descent is
    multi-started from g = 0, g = f, and the best vertex split (when
    enumeration fits the budget), so the returned value never exceeds
    the vertex minimum.  A vertex split equal to g = 0 or g = f is not
    descended again: descent is deterministic and would repeat its value.
    At t = inf only g = f is finite, and K is ||f||_A0.

    The descent runs on the field scaled by the one rescaling rule
    (norms._pow2_factor) and unscales at the end.  Each line search is
    one golden-section loop (_golden_min) that evaluates one fused
    scalar objective inline: both sides' norms with the other
    coordinates held fixed, from per-side (layer rest, layer weight,
    other layers) state.  With vmax the scaled field's largest entry
    and floor = min(1, vmax), a start stops when a sweep improves by at
    most 1e-12 * max(floor, |previous value|), or after
    coord_descent_iters sweeps; line searches stop at
    1e-10 * max(floor, f_i).  A field with vmax >= 1 keeps the floor 1,
    and one below 1 gets tolerances relative to vmax, which scale with
    the field.  Non-smooth couples (a p or q = inf) can stall
    coordinate descent and run the full coord_descent_iters.
    """
    budget = budget or OracleBudget()
    for name, v in (("p0", idx0.p), ("q0", idx0.q), ("p1", idx1.p), ("q1", idx1.q)):
        if v < 1.0:
            raise UsageError(f"continuous oracle needs the convex regime; {name} = {v} < 1")
    if not t >= 0:
        raise UsageError(f"t must be nonnegative, got {t}")
    N = field.spec.total_coeffs
    if N > budget.max_total_coeffs:
        raise BudgetError(
            f"{N} coefficients exceed the descent budget ({budget.max_total_coeffs})"
        )
    if math.isinf(t):
        return besov_norm(field, idx0)
    fac = _pow2_factor(field.max_abs())
    if fac != 1.0:
        field = field.scaled(fac)
    floor = min(1.0, field.max_abs())

    starts = [tuple(np.zeros_like(v) for v in field.layers),
              tuple(v.copy() for v in field.layers)]
    if 2**N <= budget.max_subsets:
        mask = vertex_tables(field, idx0, idx1, budget).best_split(t, xi=1.0)
        g = _vertex_start(np.concatenate(field.layers), mask)
        if g is not None:
            starts.append(tuple(np.split(g, np.cumsum(field.spec.layer_sizes)[:-1])))

    best = math.inf
    live = [(j, i, fi, 1e-10 * max(floor, fi)) for j, v in enumerate(field.layers)
            for i, fi in enumerate(v.tolist()) if fi != 0.0]
    consts0, consts1 = _SideAccum.consts(field, idx0), _SideAccum.consts(field, idx1)
    for g0 in starts:
        side0 = _SideAccum(consts0, g0)
        side1 = _SideAccum(consts1, [f - g for f, g in zip(field.layers, g0)])
        val = side0.norm() + t * side1.norm()
        for _ in range(budget.coord_descent_iters):
            prev = val
            for j, i, fi, xtol in live:
                x_star = _golden_min(fi, xtol, t, side0.prepare(j, i), side1.prepare(j, i))
                side0.commit(x_star)
                side1.commit(fi - x_star)
            val = side0.norm() + t * side1.norm()
            if prev - val <= 1e-12 * max(floor, abs(prev)):
                break
        best = min(best, val)
    return best / fac
