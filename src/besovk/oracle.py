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
from .norms import _running_norm, _scaled_field, _t_array, _trapped, _unscaled, besov_norm

__all__ = [
    "vertex_tables",
    "k_cuboid_continuous",
]

_MAX_COEFFS = 20  # coefficients an oracle takes
_MAX_SWEEPS = 500  # coordinate-descent sweeps per start
_PACE = 20  # sweeps a start makes before it can retire, and its window of gains


def _budgeted(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex,
              what: str) -> tuple[CoeffField, float]:
    """The one cap site of both oracles: refuse a field of more than
    _MAX_COEFFS coefficients (BudgetError), else return the field scaled
    by the one rescaling rule (norms._scaled_field) and the factor, which
    K divides out.  Its sizes are what the side norms raise: the largest
    entry to each p, and the largest weighted entry, max_j w_j max f_j, to
    each q, each layer's largest entry read once per call.  A weight past
    double range is refused (NumericError), as the side tables refuse it."""
    N = field.spec.total_coeffs
    if N > _MAX_COEFFS:
        raise BudgetError(f"{N} coefficients exceed the {what} budget ({_MAX_COEFFS}); "
                          "refusing rather than truncating")
    sizes, tops = [], [v.max() for v in field.layers]
    for idx in (idx0, idx1):
        top = max(layer_weight(field.spec, idx, j) * m for j, m in enumerate(tops))
        sizes += [(field.max_abs(), idx.p), (top, idx.q)]
    return _scaled_field(field, *sizes)


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
        field, self.fac = _budgeted(field, idx0, idx1, "enumeration")
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
        A1 keeps its A0 norm, so K(inf) = ||f||_A0.  Beside the sum at
        xi = 1 and the max at xi = inf, the l^xi norm of the two terms is
        the split kernels' one power sum, norms._running_norm.  An xi
        outside [1, inf], nan included, is refused as InterpQuery
        refuses it."""
        t = float(_t_array(t, 0))
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
            return _running_norm(np.stack((self.a, tb)), xi, 0)[-1]

    def k(self, t: float, xi: float = 1.0) -> float:
        return _unscaled(float(self._split_values(t, xi).min()), self.fac, "vertex oracle K")

    def best_split(self, t: float) -> int:
        """The lowest mask that attains the sum-form (xi = 1) minimum."""
        return int(self._split_values(t, 1.0).argmin())

    def curve(self, ts, xi: float = 1.0) -> np.ndarray:
        """k at each t of ts."""
        return np.array([self.k(t, xi) for t in _t_array(ts, 1)])


def vertex_tables(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex) -> VertexTables:
    return _trapped("vertex oracle", lambda: VertexTables(field, idx0, idx1), over="raise")


class _SideAccum:
    """Incremental one-sided Besov norm under single-coordinate edits.

    Every power is a plain power, an exponent of 1 too: float ** calls
    libm pow, and pow(x, 1.0) is x exactly, so r + x**1.0 is bit for bit
    r + x.  Only the line-search kernels, where the powers are the cost,
    skip them."""

    def __init__(self, consts: tuple, vecs):
        self.w, self.exps = consts
        self.p, self.ip, self.q, self.iq, (pk, qk) = self.exps
        self.p_inf, self.q_inf = pk == "inf", qk == "inf"
        self.base = [float(v.max()) if self.p_inf else float(np.sum(v**self.p))
                     for v in vecs]
        self.vecs = [v.tolist() for v in vecs]
        self.terms = [self._term(j, b) for j, b in enumerate(self.base)]

    @staticmethod
    def consts(field: CoeffField, idx: BesovIndex) -> tuple:
        """(layer weights, (p, 1/p, q, 1/q, kind)) of one side, shared by
        every descent start; kind is (p's kind, q's kind), each "inf",
        "one" or "pow" (a plain power), and picks the line-search kernel."""
        p, q = idx.p, idx.q
        kind = tuple("inf" if math.isinf(e) else "one" if e == 1.0 else "pow" for e in (p, q))
        return ([layer_weight(field.spec, idx, j) for j in range(field.spec.J)],
                (p, 1.0 / p, q, 1.0 / q, kind))

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

# The golden-section loop on [0, fi] as one straight-line function; {x}
# stands for the objective at probe x (y is fi - x).  The constants are
# spelled by repr, which gives back the same double.
_GOLDEN = """
def kernel(fi, xtol, t, side0, side1):
    r0, w0, a0, p0, ip0, q0, iq0, _ = side0
    r1, w1, a1, p1, ip1, q1, iq1, _ = side1
    a, b = 0.0, fi
    h = b - a
    c = a + {invphi2!r} * h
    d = a + {invphi!r} * h
    y = fi - c
    fc = {c}
    y = fi - d
    fd = {d}
    while h > xtol:
        if fc < fd:
            b, d = d, c
            fd = fc
            h = b - a
            c = a + {invphi2!r} * h
            y = fi - c
            fc = {c}
        else:
            a, c = c, d
            fc = fd
            h = b - a
            d = a + {invphi!r} * h
            y = fi - d
            fd = {d}
    y = fi - a
    fa = {a}
    y = fi - b
    fb = {b}
    if fb < fa:
        a, fa = b, fb
    if fc < fa:
        a, fa = c, fc
    if fd < fa:
        a = d
    return a
"""

# One side's norm as an expression in its coordinate {x}: the layer's
# l^p norm by p's kind, then the aggregate by q's kind.
_P_FORM = {"inf": "w{s} * ({x} if {x} > r{s} else r{s})",
           "one": "w{s} * (r{s} + {x})",
           "pow": "w{s} * (r{s} + {x} ** p{s}) ** ip{s}"}
_Q_FORM = {"inf": "(u{s} if (u{s} := {u}) > a{s} else a{s})",
           "one": "(a{s} + {u})",
           "pow": "(a{s} + ({u}) ** q{s}) ** iq{s}"}

_KERNELS: dict = {}  # (side-0 kind, side-1 kind) -> kernel, compiled when first met


def _kernel(kind0: tuple, kind1: tuple):
    """The golden-section kernel of one kind pair, from _GOLDEN."""
    def side(s, x, kind):
        u = _P_FORM[kind[0]].format(s=s, x=x)
        return _Q_FORM[kind[1]].format(s=s, u=u)

    code = _GOLDEN.format(invphi=_INVPHI, invphi2=_INVPHI2,
                          **{x: f"{side(0, x, kind0)} + t * {side(1, 'y', kind1)}"
                             for x in "abcd"})
    scope: dict = {}
    exec(compile(code, f"<golden {kind0} {kind1}>", "exec"), scope)
    return scope["kernel"]


def _golden_min(fi: float, xtol: float, t: float, side0: tuple, side1: tuple) -> float:
    """Golden-section minimiser on [0, fi] of x -> N0(x) + t N1(fi - x),
    both sides' norms with one coordinate split x | fi - x; side0 and
    side1 are _SideAccum.prepare's tuples.  Runs the kernel of the two
    sides' exponent kinds, compiled the first time the pair is met: it
    probes c and d, one new c or d per step while the bracket is wider
    than xtol, then a and b, and takes no power for an exponent of 1
    (pow(x, 1.0) is x exactly).  Needs fi > xtol.  Returns the first of
    a, b, c, d with the least value."""
    key = side0[7], side1[7]
    try:
        kernel = _KERNELS[key]
    except KeyError:
        kernel = _KERNELS[key] = _kernel(*key)
    return kernel(fi, xtol, t, side0, side1)


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

    Convex regime only (all indices >= 1): ||g||_A0 + t ||f - g||_A1 is
    then jointly convex and cyclic coordinate descent with exact line
    searches converges.  Descent is multi-started from the masks of
    _start_masks, g = 0, g = f and the best vertex split, so the returned
    value never exceeds the vertex minimum; each g is the field where its
    mask's bit is set, 0 elsewhere.  A field of more than _MAX_COEFFS
    coefficients is refused (BudgetError), and one whose powers overflow
    (NumericError).  At t = inf only g = f is finite, and K is ||f||_A0.

    The descent runs on the field scaled by the one rescaling rule at the
    sizes _budgeted names (norms._scaled_field) and unscales at the end.
    Each line search is a golden-section search (_golden_min) in the
    straight-line kernel of the couple's exponent kinds (p and q of each
    side inf, 1 or a plain power; _SideAccum.consts), compiled the first
    time a process meets the pair: its objective, inline at each probe, is
    both sides' norms with the other coordinates held fixed, from per-side
    (layer rest, layer weight, other layers) state.  With vmax the scaled
    field's largest entry and floor = min(1, vmax), a start stops when a
    sweep improves by at most 1e-12 * max(floor, |previous value|), or
    after _MAX_SWEEPS sweeps; line searches stop at 1e-10 * max(floor,
    f_i), and a coefficient f_i at or below that tolerance keeps its
    start value.  A field with vmax >= 1 keeps the
    floor 1, and one below 1 gets tolerances relative to vmax, which scale
    with the field.  Non-smooth couples (a p or q = inf) can stall
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
    t = float(_t_array(t, 0))
    if not t >= 0:
        raise UsageError(f"t must be nonnegative, got {t}")
    return _trapped("continuous oracle", lambda: _descent(field, idx0, idx1, t), over="raise")


def _descent(field: CoeffField, idx0: BesovIndex, idx1: BesovIndex, t: float) -> float:
    """k_cuboid_continuous on arguments it has checked."""
    scaled, fac = _budgeted(field, idx0, idx1, "descent")
    if math.isinf(t):
        return besov_norm(field, idx0)
    field = scaled
    floor = min(1.0, field.max_abs())

    flat = np.concatenate(field.layers)
    masks = _start_masks(flat, VertexTables(field, idx0, idx1).best_split(t))
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
