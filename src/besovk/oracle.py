"""Brute-force K-functional oracles.

Two independent references for the closed-form engine:

- vertex_tables(...).k: exhaustive minimum over all 2^N support splits
  of the grid (each coefficient goes wholly to one side).  Exact for
  the split-infimum functional; for the max-form aggregation (xi = inf)
  the split infimum IS the K-functional, so this oracle is exact there.
- k_cuboid_continuous: the continuous infimum over decompositions
  0 <= g <= f, by cyclic coordinate descent with golden-section line
  searches.  Valid in the convex regime (all indices >= 1).

Both refuse a field of more than _MAX_COEFFS coefficients rather than
truncating (a fixed cap: 2^20 masks at most), and a descent start stops
after _MAX_SWEEPS sweeps.  The descent starts run in lockstep, one sweep
each per round, and a start that at its recent pace could not reach the
least value of any start before the cap is retired; a retired start's
value still enters the minimum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .coeffs import CoeffField
from .errors import BudgetError, UsageError
from .grid import BesovIndex, layer_weight
from .norms import _scaled_field, _unscaled, besov_norm

__all__ = [
    "vertex_tables",
    "k_cuboid_continuous",
]

_MAX_COEFFS = 20  # coefficients an oracle takes
_MAX_SWEEPS = 500  # coordinate-descent sweeps per start
_PACE = 20  # sweeps a start makes before it can retire, and its window of gains


def _budgeted(field: CoeffField, what: str) -> tuple[CoeffField, float]:
    """The one cap site of both oracles: refuse a field of more than
    _MAX_COEFFS coefficients (BudgetError), else return the field scaled
    by the one rescaling rule (norms._scaled_field) and the factor, which
    K divides out."""
    N = field.spec.total_coeffs
    if N > _MAX_COEFFS:
        raise BudgetError(f"{N} coefficients exceed the {what} budget ({_MAX_COEFFS}); "
                          "refusing rather than truncating")
    return _scaled_field(field)


def _layer_norm_table(v: np.ndarray, p: float) -> np.ndarray:
    """l^p norm of every sub-multiset of v, indexed by bitmask (bit k
    selects v[k]): from the empty split, each v[k] doubles the filled
    prefix, so every mask sums its powers in bit order from 0.0."""
    inf, tot = math.isinf(p), np.zeros(1 << len(v))
    for k, x in enumerate(v if inf else v**p):
        (np.maximum if inf else np.add)(tot[: 1 << k], x, out=tot[1 << k : 2 << k])
    return tot if inf else tot ** (1.0 / p)


class VertexTables:
    """Cached per-split norms ||f 1_S||_A0, ||f 1_S||_A1 over all masks.

    Bit gamma of a mask selects flat coefficient gamma (layers
    concatenated in order).  The complement of mask S is 2^N - 1 - S,
    so the A1 norms of complements are just the reversed table.  They
    hold the field scaled by fac (norms._scaled_field); k undoes it.
    """

    def __init__(self, field: CoeffField, idx0: BesovIndex, idx1: BesovIndex):
        field, self.fac = _budgeted(field, "enumeration")
        self.a = self._side_table(field, idx0)
        self.b_comp = self._side_table(field, idx1)[::-1]

    @staticmethod
    def _side_table(field: CoeffField, idx: BesovIndex) -> np.ndarray:
        """||f 1_S||_A over every mask S: the layers fold, last outermost, into the empty split."""
        q = idx.q
        tot = np.zeros(1)
        for j in range(field.spec.J):
            wlp = layer_weight(field.spec, idx, j) * _layer_norm_table(field.layers[j], idx.p)
            tot = np.maximum.outer(wlp, tot) if math.isinf(q) else np.add.outer(wlp**q, tot)
        return (tot if math.isinf(q) else tot ** (1.0 / q)).ravel()

    def _split_values(self, t: float, xi: float) -> np.ndarray:
        """(||f 1_S||_A0^xi + t^xi ||f 1_Sc||_A1^xi)^(1/xi) for every mask S.
        At t = inf, t * 0 is the limit 0: a split with nothing left for
        A1 keeps its A0 norm, so K(inf) = ||f||_A0.  Where the power sum
        is not a normal double (below 2^-1022, or inf) and the larger
        term m is positive and finite, the sum is taken over m instead,
        m ((a/m)^xi + (tb/m)^xi)^(1/xi), as a large xi needs.  An xi
        outside [1, inf], nan included, is refused as InterpQuery
        refuses it."""
        if not t >= 0:
            raise UsageError(f"t must be nonnegative, got {t}")
        if not xi >= 1.0:
            raise UsageError(f"xi must lie in [1, inf], got {xi}")
        with np.errstate(over="ignore"):  # an overflow reads inf, which k refuses
            tb = t * self.b_comp if t < math.inf else np.where(self.b_comp > 0.0, math.inf, 0.0)
            if math.isinf(xi):
                return np.maximum(self.a, tb)
            if xi == 1.0:
                return self.a + tb
            tot = self.a**xi + tb**xi
            out = tot ** (1.0 / xi)
            m = np.maximum(self.a, tb)
            redo = ~((tot >= 2.0**-1022) & (tot < math.inf)) & (m > 0.0) & (m < math.inf)
            if redo.any():
                m = m[redo]
                out[redo] = m * ((self.a[redo] / m)**xi + (tb[redo] / m)**xi) ** (1.0 / xi)
        return out

    def k(self, t: float, xi: float = 1.0) -> float:
        return _unscaled(float(self._split_values(t, xi).min()), self.fac, "vertex oracle K")

    def best_split(self, t: float) -> int:
        """The lowest mask that attains the sum-form (xi = 1) minimum."""
        return int(self._split_values(t, 1.0).argmin())

    def curve(self, ts, xi: float = 1.0) -> np.ndarray:
        """k at each t of ts."""
        return np.array([self.k(float(t), xi) for t in np.asarray(ts, dtype=float)])


def vertex_tables(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex) -> VertexTables:
    return VertexTables(field, idx0, idx1)


class _SideAccum:
    """Incremental one-sided Besov norm under single-coordinate edits.

    Every power is a plain power, an exponent of 1 too: float ** calls
    libm pow, and pow(x, 1.0) is x exactly, so r + x**1.0 is bit for bit
    r + x.  Only _golden_min, where the powers are the cost, skips
    them."""

    def __init__(self, consts: tuple, vecs):
        self.w, self.exps = consts
        self.p, self.ip, self.q, self.iq, self.p_inf, self.q_inf = self.exps[:6]
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
        wlp = self.w[j] * (base if self.p_inf else base**self.ip)
        return wlp if self.q_inf else wlp**self.q

    def norm(self) -> float:
        return max(self.terms) if self.q_inf else sum(self.terms) ** self.iq

    def prepare(self, j: int, i: int) -> tuple:
        """Stash layer-j state with coordinate i removed; returns what a
        1-D evaluation needs: (layer rest, layer weight, other layers)
        followed by self.exps."""
        self._j, self._i = j, i
        v = self.vecs[j]
        if self.p_inf:
            rest = max(v[:i] + v[i + 1 :], default=0.0)
        else:
            rest = self.base[j] - v[i] ** self.p
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
        self.base[j] = max(self._rest, x) if self.p_inf else self._rest + x**self.p
        self.terms[j] = self._term(j, self.base[j])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = _INVPHI * _INVPHI


def _golden_min(fi: float, xtol: float, t: float, side0: tuple, side1: tuple) -> float:
    """Golden-section minimiser on [0, fi] of x -> N0(x) + t N1(fi - x),
    both sides' norms with one coordinate split x | fi - x; side0 and
    side1 are _SideAccum.prepare's tuples.  The objective is evaluated
    inline at one site, once per probe: c and d to start, one new c or
    d per step, and at the end each endpoint no probe has moved onto.
    An exponent of 1 takes no power: pow(x, 1.0) is x exactly, and this
    is the one place where skipping it pays, the objective evaluations
    being most of a line search.
    Needs fi > xtol.  Returns the first of a, b, c, d with the least
    value."""
    r0, w0, a0, p0, ip0, q0, iq0, p0_inf, q0_inf, p0_one, q0_one = side0
    r1, w1, a1, p1, ip1, q1, iq1, p1_inf, q1_inf, p1_one, q1_one = side1
    invphi, invphi2 = _INVPHI, _INVPHI2
    a, b = 0.0, fi
    h = b - a
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


def _start_masks(flat: np.ndarray, best: int) -> list[int]:
    """The descent's start masks over the flat field (bit k keeps
    coefficient k in g): 0 (g = 0), nz (g = f), with nz the mask of the
    nonzero coefficients, and the best vertex split unless best & nz is
    0 or nz: descent is deterministic, and it would repeat one of them."""
    nz = sum(1 << k for k, x in enumerate(flat.tolist()) if x != 0.0)
    return [0, nz] + ([best] if best & nz not in (0, nz) else [])


def k_cuboid_continuous(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex,
                        t: float) -> float:
    """Continuous decomposition infimum over the box 0 <= g <= f.

    Convex regime only (all indices >= 1): the objective
    ||g||_A0 + t ||f - g||_A1 is then jointly convex and cyclic
    coordinate descent with exact line searches converges.  Descent is
    multi-started from the masks of _start_masks, g = 0, g = f and the
    best vertex split, so the returned value never exceeds the vertex
    minimum; each g is the field where its mask's bit is set, 0
    elsewhere.  A field of more than _MAX_COEFFS coefficients is refused
    (BudgetError).  At t = inf only g = f is finite, and K is ||f||_A0.

    The descent runs on the field scaled by the one rescaling rule
    (norms._scaled_field) and unscales at the end.  Each line search is
    one golden-section loop (_golden_min) that evaluates one fused
    scalar objective inline: both sides' norms with the other
    coordinates held fixed, from per-side (layer rest, layer weight,
    other layers) state.  With vmax the scaled field's largest entry
    and floor = min(1, vmax), a start stops when a sweep improves by at
    most 1e-12 * max(floor, |previous value|), or after
    _MAX_SWEEPS sweeps; line searches stop at
    1e-10 * max(floor, f_i), and a coefficient f_i at or below that
    tolerance keeps its start value.  A field with vmax >= 1 keeps the floor 1,
    and one below 1 gets tolerances relative to vmax, which scale with
    the field.  Non-smooth couples (a p or q = inf) can stall
    coordinate descent and run the full _MAX_SWEEPS.

    The starts run in lockstep: each round makes one sweep of every
    running start, each start on its own _SideAccum pair, so a start
    makes the line searches and values it would make alone.  After a
    round the leader is the least value of any start, and a running
    start that has made at least _PACE sweeps retires when its value
    exceeds the leader by more than its sweeps left times its largest
    gain over its last _PACE sweeps: at that pace it could not reach the
    leader before the cap.  K is the least value of every start, retired
    ones included.  A lone start, or the leader, is never retired, so a
    stalled start that keeps the lead still runs the full _MAX_SWEEPS.
    A retired start could in principle have gone on to end lower: a
    start whose gains shrink toward a plateau can escape it, its gains
    growing again, and win.  A window of _PACE sweeps waits out every such
    escape measured; that K never changes is measured, not proved.
    """
    for name, v in (("p0", idx0.p), ("q0", idx0.q), ("p1", idx1.p), ("q1", idx1.q)):
        if v < 1.0:
            raise UsageError(f"continuous oracle needs the convex regime; {name} = {v} < 1")
    if not t >= 0:
        raise UsageError(f"t must be nonnegative, got {t}")
    scaled, fac = _budgeted(field, "descent")
    if math.isinf(t):
        return besov_norm(field, idx0)
    field = scaled
    floor = min(1.0, field.max_abs())

    flat = np.concatenate(field.layers)
    masks = _start_masks(flat, vertex_tables(field, idx0, idx1).best_split(t))
    gs = np.where((np.array(masks)[:, None] >> np.arange(len(flat))) & 1 == 1, flat, 0.0)
    cuts = [0, *itertools.accumulate(field.spec.layer_sizes)]
    starts = [[g[a:b] for a, b in zip(cuts, cuts[1:])] for g in gs]

    live = [(j, i, fi, 1e-10 * max(floor, fi)) for j, v in enumerate(field.layers)
            for i, fi in enumerate(v.tolist()) if fi > 1e-10 * floor]
    consts0, consts1 = _SideAccum.consts(field, idx0), _SideAccum.consts(field, idx1)
    sides = [(_SideAccum(consts0, g0),
              _SideAccum(consts1, [f - g for f, g in zip(field.layers, g0)])) for g0 in starts]
    vals = [side0.norm() + t * side1.norm() for side0, side1 in sides]
    gains = [[] for _ in sides]
    running, sweep = range(len(sides)), 0
    while running and sweep < _MAX_SWEEPS:
        sweep, moving = sweep + 1, []
        for s in running:
            side0, side1 = sides[s]
            for j, i, fi, xtol in live:
                x_star = _golden_min(fi, xtol, t, side0.prepare(j, i), side1.prepare(j, i))
                side0.commit(x_star)
                side1.commit(fi - x_star)
            prev, vals[s] = vals[s], side0.norm() + t * side1.norm()
            if prev - vals[s] > 1e-12 * max(floor, abs(prev)):
                gains[s].append(prev - vals[s])
                moving.append(s)
        leader, left = min(vals), _MAX_SWEEPS - sweep
        running = [s for s in moving if sweep < _PACE
                   or vals[s] - leader <= left * max(gains[s][-_PACE:])]
    return _unscaled(min(vals), fac, "continuous oracle K")
