"""Closed-form K-functional engine for Besov sequence-space couples.

The K-functional of a coefficient field f between two Besov sequence
spaces A0, A1 is the decomposition infimum

    K(t, f; A0, A1) = inf { ||g||_A0 + t ||f - g||_A1 : g + h = f }.

Exhaustive minimization is exponential in the coefficient count; this
module evaluates K through closed forms, with the index regime deciding
the route:

- p0 = p1 (_p_equal_route): collapse layers to their l^p norms and
  work on the layer axis.  Equal q gives a two-weight split sum
  (_WCurve); equal s gives a rearrangement threshold pair on the
  weighted layer norms (_SplitSum); both different composes the split
  sum through a two-sided integral decomposition (_holmstedt).
- q0 = q1 (_q_equal_route): layers decouple; aggregate the per-layer K
  values (_layer_fn) in l^q.
- p, q both different (finite q, _general_route): a three-level
  composition through power-space functionals (_power_composition).
  Each layer's powered split functional is an exact lower envelope of
  hinges; the envelopes of a batch of similar-size layers are built
  and evaluated together (_LayerKinf), the piecewise linear layer sum
  is folded one pass per batch (_fold_layers), and the outer relation
  is inverted on its pieces, in closed form or by Newton's method.  The
  value computed is the max-form (split) functional; within a factor 2
  of the sum form.

Threshold splits in the two-sided formulas classify coefficients by
rank: the side with the smaller exponent takes the floor(T) largest
entries.  The one-sided formula against a sup norm keeps the exact
fractional integral, which is classical and exact.  At a single
coefficient c, K is c min(w0, t*w1) on the degenerate, weighted-split,
rearrangement, layer-sum and GENERAL routes (to 1e-9 at exponents in
{1/2, 1, 2, inf}, and up to 2000 on the middle three: their every power
sum is one running norm, norms._running_norm, which the vertex oracle
shares, the running max from p = 2^60 on, retaken in logs where it
leaves the normal doubles); the composed split meets it only at both
ends.  Each kernel takes one orientation: _SplitSum p0 < p1, _WCurve and
_holmstedt the smaller smoothness first.
_seq_route and _layer_fn orient each couple once and commute the other
order (_commuted).

Every route is a plan (k_plan): the route is selected once per (field,
query) and everything that does not depend on t (main-grid reduction,
rearrangements, split tables, calibration limits, hinge envelopes) is
built once, on the field scaled by the one rescaling rule at its largest
entry raised to each exponent of the couple (norms._scaled_field; the
oracle route's tables scale themselves); the plan then evaluates K on a
whole t array.
k_plan is the one constructor of a plan; a weighted main-grid sequence
is a field (norms._seq_field).  k_dispatch evaluates one t from a plan,
k_curve a t grid.  _ROUTES declares each route once: its label, form and
builder, and the couples and band (K's factor from the vertex oracle of
its form) that the verify suites hold it to.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coeffs import CoeffField
from .errors import NumericError, UsageError
from .grid import BesovIndex, layer_weight
from .norms import (_pow2_factor, _running_norm, _scaled_field, _t_array, _trapped, besov_norm, lp_norm,
                    main_grid_reduce)
from .rearrange import rearrangement

__all__ = [
    "CaseTag",
    "InterpQuery",
    "KCurve",
    "KPlan",
    "default_t_grid",
    "k_plan",
    "k_dispatch",
    "k_curve",
]


class CaseTag(str, Enum):
    P_EQUAL_S_DIFF_Q_EQUAL = "P_EQUAL_S_DIFF_Q_EQUAL"
    P_EQUAL_S_DIFF_Q_DIFF = "P_EQUAL_S_DIFF_Q_DIFF"
    P_EQUAL_S_EQUAL = "P_EQUAL_S_EQUAL"
    Q_EQUAL_P_DIFF = "Q_EQUAL_P_DIFF"
    GENERAL = "GENERAL"
    DEGENERATE = "DEGENERATE"
    ORACLE_ONLY = "ORACLE_ONLY"


@dataclass(frozen=True)
class InterpQuery:
    """A couple of Besov indices plus interpolation parameters.

    theta and r parameterize the real-interpolation norm; xi selects
    the aggregation power of the decomposition functional (1 = sum
    form, inf = max form) where a caller gets to choose.
    """

    idx0: BesovIndex
    idx1: BesovIndex
    theta: float = 0.5
    r: float = 2.0
    xi: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise UsageError(f"theta must lie in (0, 1), got {self.theta}")
        if math.isnan(self.r) or self.r <= 0:
            raise UsageError(f"r must lie in (0, inf], got {self.r}")
        if math.isnan(self.xi) or self.xi < 1:
            raise UsageError(f"xi must lie in [1, inf], got {self.xi}")

    def s_tilde(self, n: int) -> float:
        inv = lambda p: 0.0 if math.isinf(p) else n / p
        return self.idx1.s - self.idx0.s + inv(self.idx0.p) - inv(self.idx1.p)

    def swapped(self) -> "InterpQuery":
        return InterpQuery(self.idx1, self.idx0, 1.0 - self.theta, self.r, self.xi)

    @property
    def case(self) -> CaseTag:
        i0, i1 = self.idx0, self.idx1
        if i0 == i1:
            return CaseTag.DEGENERATE
        if i0.p == i1.p:
            if i0.s != i1.s and i0.q == i1.q:
                return CaseTag.P_EQUAL_S_DIFF_Q_EQUAL
            if i0.s != i1.s:
                return CaseTag.P_EQUAL_S_DIFF_Q_DIFF
            return CaseTag.P_EQUAL_S_EQUAL
        if i0.q == i1.q:
            return CaseTag.Q_EQUAL_P_DIFF
        if math.isinf(i0.q) or math.isinf(i1.q):
            return CaseTag.ORACLE_ONLY
        return CaseTag.GENERAL


@dataclass(frozen=True)
class KCurve:
    """K values sampled on an increasing t grid."""

    t: np.ndarray
    k: np.ndarray
    method: str

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if len(t) != len(k):
            raise UsageError("t and k lengths differ")
        # a comparison with nan is false, so a nan t fails these checks
        if len(t) == 0 or not (t[1:] > t[:-1]).all() or not t[0] > 0:
            raise UsageError("t grid must be positive and strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "k", k)


def _check_t_window(t_min_exp: float, t_max_exp: float, points_per_decade: float) -> int:
    """The one t window rule: refuse [2^t_min_exp, 2^t_max_exp] unless both
    end points are positive finite doubles and t_min_exp <= t_max_exp, a
    density of points_per_decade nodes per binary decade unless it is
    positive and finite, and a grid of more than _MAX_T_NODES nodes; returns its count."""
    for name, e in (("t_min_exp", t_min_exp), ("t_max_exp", t_max_exp)):
        try:
            end = 2.0 ** float(e)
        except OverflowError:
            end = math.inf
        if not 0.0 < end < math.inf:
            raise UsageError(f"{name} = {e}: 2^{e} is not a positive finite double")
    if not t_min_exp <= t_max_exp:
        raise UsageError(f"need t_min_exp <= t_max_exp, got {t_min_exp} > {t_max_exp}")
    if not 0 < points_per_decade < math.inf:
        raise UsageError(f"points_per_decade must be positive and finite, got {points_per_decade}")
    span = (t_max_exp - t_min_exp) * points_per_decade
    if not span < _MAX_T_NODES - 0.5:  # a float compare, so an inf product refuses too
        raise UsageError(f"[2^{t_min_exp}, 2^{t_max_exp}] at {points_per_decade} per decade "
                         f"holds more than {_MAX_T_NODES} nodes")
    return int(round(span)) + 1


def default_t_grid(t_min_exp: float = -20.0, t_max_exp: float = 20.0,
                   points_per_decade: float = 2.0) -> np.ndarray:
    """Log-spaced t grid, points_per_decade per binary decade (81 by default, 2^22 at most)."""
    count = _check_t_window(t_min_exp, t_max_exp, points_per_decade)
    return np.logspace(t_min_exp, t_max_exp, count, base=2.0)


# ---------------------------------------------------------------------------
# prepared plans


@dataclass(frozen=True, eq=False)
class KPlan:
    """One K evaluation with its t-independent state built once; k_plan
    builds one per (field, query).

    label names the route, form the functional ("sum", "max", or
    "xi=<xi>" for another oracle aggregation power); both are plain
    read-only attributes, as is fac.  The state is built on the field
    scaled by fac (norms._scaled_field); k_scaled(ts) evaluates K of the
    scaled field at every t of a 1-d array, and k(ts) undoes the factor
    by 1-homogeneity.  Every K value this module returns goes through k.
    """

    label: str
    _fn: Callable[[np.ndarray], np.ndarray]
    fac: float = 1.0
    form: str = "sum"

    def k_scaled(self, ts) -> np.ndarray:
        return self._eval(ts, 1.0)

    def k(self, ts) -> np.ndarray:
        return self._eval(ts, self.fac)

    def _eval(self, ts, fac: float) -> np.ndarray:
        ts = _t_array(ts, 1)
        bad = ts[~(ts > 0.0)]
        if len(bad):
            raise UsageError(f"t must be positive, got {bad[0]}")
        # powers of t overflow and underflow by design (the closed forms take those
        # limits) and np.where runs both branches: no warning, but a Python float error refuses
        ks = _trapped(f"route {self.label}", lambda: self._fn(ts) / fac, all="ignore")
        bad = ts[~np.isfinite(ks)]
        if len(bad):
            raise NumericError(f"route {self.label} leaves double range at t = {float(bad[0])!r}")
        return ks


def _zeros(ts: np.ndarray) -> np.ndarray:
    return np.zeros(len(ts))


# ---------------------------------------------------------------------------
# vector kernels on plain l^p couples


class _SplitSum:
    """Sum-form K of a fixed vector between l^p0 and l^p1, p0 < p1,
    evaluated on a t array.

    Against a sup norm the exact fractional integral applies; two
    finite exponents split at the integer rank floor(t^alpha), the
    smaller exponent taking the largest entries.  One norm table per
    exponent (_running_norm) is built once, so each t costs one lookup.
    """

    def __init__(self, v, p0: float, p1: float):
        r = rearrangement(v)
        self.p0, self.p1, self.m, self.r = p0, p1, len(r), r
        # head[k]: the l^p0 norm of the k largest entries; tail[k]: the rest in l^p1
        self.head = np.concatenate(([0.0], _running_norm(r, p0, 0)))
        self.alpha = p0 if math.isinf(p1) else 1.0 / (1.0 / p0 - 1.0 / p1)  # t^alpha: the split rank
        if not math.isinf(p1):
            # powers on a reversed view, as the head's (numpy's power kernel follows layout)
            self.tail = np.concatenate((_running_norm(r.copy()[::-1], p1, 0)[::-1], [0.0]))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        m, p0 = self.m, self.p0
        T = t**self.alpha
        k = np.minimum(T, m).astype(np.intp)
        if not math.isinf(self.p1):
            # tail[m] = 0, and t * 0 is nan at t = inf (1/t of a subnormal t)
            return self.head[k] + np.where(k < m, t * self.tail[k], 0.0)
        frac, head = np.where(T < m, T - k, 0.0), self.head[k]
        # head is 0 below the first cell, where K is t r[0] (t < 1), and on a zero vector
        with np.errstate(divide="ignore", invalid="ignore"):
            grown = head * (1.0 + frac * (self.r[np.minimum(k, m - 1)] / head) ** p0) ** (1.0 / p0)
        return np.where(head > 0.0, grown, np.minimum(t, 1.0) * self.r[0])


def _commuted(fn, norm0):
    """Evaluator of K(t; A0, A1) = t K(1/t; A1, A0) from fn, that of the
    swapped couple.  At t = inf, where that reads inf * 0, K is its
    limit ||f||_A0, computed by norm0() only when some t is inf."""

    def k(ts):
        out, inf = ts * fn(1.0 / ts), np.isinf(ts)
        if inf.any():
            out[inf] = norm0()
        return out

    return k


# A batch of layer envelopes takes about 60 array calls to build and 20 to
# fold, plus about 5 per layer, whatever its size; they cost about as much
# as this many cells of zero padding (_batches).
_PAD_CELLS = 512
_FOLD_CELLS = 1 << 16  # the most cells of a rows x pieces matrix in _fold_layers
_PPD = 8.0  # cells per binary decade of _holmstedt's hull quadrature
_MAX_T_NODES = 1 << 22  # the most nodes of a t grid (_check_t_window): 32 MiB of doubles


def _batches(sizes) -> list[list[int]]:
    """Layer indices by ascending size, cut so no batch pads over _PAD_CELLS cells."""
    out, total = [[]], 0  # total: the cells of the open batch
    for j in sorted(range(len(sizes)), key=sizes.__getitem__):
        if len(out[-1]) * sizes[j] - total > _PAD_CELLS:
            out.append([])
            total = 0
        out[-1].append(j)
        total += sizes[j]
    return out


class _LayerKinf:
    """Max-form split K on each vector of a batch between the powered
    norms ||.||_p0^q0 and ||.||_p1^q1, as a function of the threshold x:

        kinf(x) = min_k max(A_k, x B_k),
        A_k = ||v 1_S||_p0^q0,  B_k = ||v 1_Sc||_p1^q1,

    over the rank-split family: S = the k largest or the k smallest
    entries, k = 0..m.  Continuous and nondecreasing in x, exact for a
    single entry, and closed under complements so the commutation
    identity is exact.

    Each term is a hinge, flat at A_k up to its kink A_k / B_k and the
    line x B_k beyond.  With the terms sorted by kink, those whose kink
    lies at or above x contribute the suffix minimum of A, the others x
    times the prefix minimum of B.  Between consecutive kinks kinf is
    the smaller of that constant and that line, which cross at most
    once, so the kinks and those crossings (breaks, kept as logs) cut
    kinf into pieces that are each constant or linear through the
    origin.  Thresholds are taken as logs, so a kink past the double
    range still has its place.

    The vectors are the rows of one zero-padded matrix (at most
    _PAD_CELLS padded cells, _batches), and the object is the whole
    batch: one table per quantity, a row per vector.  The zeros are
    exact: their splits ("k largest", k > m: B = 0; "k smallest" in the
    pads: A = 0) repeat the row's own terms.  Row i stands for
    u -> kinf_i(u sc_i), log sc_i = shifts[i]: breaks holds every row's
    breaks in log u, row after row, and parts evaluates in log u.  A row
    of zeros has no envelope (live is False) and no breaks.
    """

    def __init__(self, vs: list, p0: float, p1: float, q0: float, q1: float, shifts):
        rows = len(vs)
        r = np.zeros((rows, max(map(len, vs))))
        for row, v in zip(r, vs):
            row[:len(v)] = v
        r.sort(axis=1)
        z, inf = np.zeros((rows, 1)), np.full((rows, 1), np.inf)
        halves = np.concatenate((z, r[:, ::-1], z, r), 1).reshape(rows, 2, -1)

        # ||k largest entries||_p, then ||k smallest||_p, k = 0..m, from the
        # halves (0 and the entries descending, 0 and them ascending); side-0
        # takes the k largest or the k smallest, side-1 the complement: the
        # m - k smallest or largest, the table read backwards
        a = _running_norm(halves, p0, 2).reshape(rows, -1) ** q0
        b = _running_norm(halves, p1, 2).reshape(rows, -1)[:, ::-1] ** q1
        width = a.shape[1]
        sh = np.asarray(shifts, dtype=float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            # -inf where a = 0, inf where b = 0, nan where both are
            # (that split costs nothing and kinf vanishes)
            kinks = np.log(a) - np.log(b)
            # a row is two nondecreasing runs (A grows, B shrinks with k),
            # which a stable sort merges; flat indices let take gather it
            order = kinks.argsort(1, kind="stable") + width * np.arange(rows)[:, None]
            kinks = kinks.take(order)
            suf_a = np.concatenate((np.minimum.accumulate(a.take(order)[:, ::-1], 1)[:, ::-1],
                                    inf), 1)
            log_pre_b = np.log(np.concatenate((inf, np.minimum.accumulate(b.take(order), 1)), 1))
            log_suf_a = np.log(suf_a)
            # the crossing left of each kink, where it lies strictly after the
            # kink before: the crossings and finite kinks interleave in order
            cross = log_suf_a[:, :-1] - log_pre_b[:, :-1]
            keep = np.empty((rows, 2 * width), dtype=bool)
            keep[:, ::2] = (np.concatenate((-inf, kinks[:, :-1]), 1) < cross) & (cross < kinks)
            keep[:, 1::2] = np.isfinite(kinks)
            cuts = np.empty((rows, 2 * width))
            cuts[:, ::2], cuts[:, 1::2] = cross - sh, kinks - sh
        self.breaks = cuts[keep]
        # nan sorts last, so a row of nan kinks has no envelope; each row is
        # searched from its first finite kink on, so that x -> 0 reads the
        # slope and x -> inf the plateau
        self.live = ~np.isnan(kinks[:, -1])
        lo = (kinks == -np.inf).sum(1)
        self._kinks = [row[j:] for row, j in zip(kinks, lo.tolist())]
        # the flat index of each row's first finite kink in the tables
        self._base = (lo + (width + 1) * np.arange(rows))[:, None]
        self._shift = sh
        self._suf_a, self._log_suf_a, self._log_pre_b = suf_a, log_suf_a, log_pre_b

    def parts(self, lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The piece of every row at each log u of lu, as matrices of its
        constant (0 on a linear piece) and the log of its slope in u (-inf
        on a constant piece).  lu = -inf and inf give the two limits; a
        row that is not live reads 0 and -inf."""
        lx = lu + self._shift
        i = np.array([k.searchsorted(x) for k, x in zip(self._kinks, lx)])
        i += self._base
        lb = self._log_pre_b.take(i)
        # in place, as the fold adds: a large layer spans tens of thousands of
        # pieces, where each fresh array costs page faults
        with np.errstate(invalid="ignore"):  # -inf + inf on a row that is not live
            lx += lb
            line = lx < self._log_suf_a.take(i)
        lb = np.where(line, lb, -np.inf)
        lb += self._shift
        return np.where(line, 0.0, self._suf_a.take(i)), lb


# ---------------------------------------------------------------------------
# layer-level operations


def _layer_fn(field: CoeffField, query: InterpQuery, j: int):
    """Evaluator of K for layer j: weight0 * K(t * 2^(j*s_tilde)) on the
    plain l^p couple, commuted per layer if p0 > p1."""
    w0 = layer_weight(field.spec, query.idx0, j)
    shift = 2.0 ** (j * query.s_tilde(field.spec.n))
    v, p0, p1 = field.layers[j], query.idx0.p, query.idx1.p
    split = _SplitSum(v, min(p0, p1), max(p0, p1))
    if p0 > p1:
        split = _commuted(split, lambda: lp_norm(v, p0))
    return lambda ts: w0 * split(ts * shift)


def _lq_across(rows: list, q: float) -> np.ndarray:
    """Elementwise l^q aggregate of equal-length arrays, sup at q = inf:
    the last row of _running_norm, so that no entry depends on the
    others, on each column scaled by the one rescaling rule
    (_pow2_factor) at its largest entry raised to q."""
    fac = np.array([_pow2_factor((v, q)) for v in np.max(rows, axis=0).tolist()])
    return _running_norm(rows * fac, q, 0)[-1] / fac


# ---------------------------------------------------------------------------
# two-weight curve and its interpolation integrals (p equal, s and q differ)


def _weighted(a: np.ndarray, s: float) -> np.ndarray:
    """The main-grid sequence weighted as (2^(j*s) a_j), by numpy array
    powers: the one place this module weights a main-grid sequence."""
    return 2.0 ** (np.arange(len(a), dtype=float) * s) * a


class _WCurve:
    """The split sum W(sigma) = ||(2^(j*a) x_j) over j in N_sigma||_q
    + sigma * ||(2^(j*b) x_j) over j notin N_sigma||_q as a fast piecewise
    function of a sigma array.  N_sigma = {j : sigma * 2^(j*(b-a)) > 1}
    flips one layer at each breakpoint sigma_j = 2^(-j*(b-a)); W is
    continuous there, linear between breakpoints, exactly linear below
    the smallest and constant above the largest.  At q = 1 it is the
    exact decoupled sum of per-layer minima.  It takes a <= b; at a = b
    every breakpoint is 1 and W is min(1, sigma) times the norm.
    """

    def __init__(self, x: np.ndarray, a: float, b: float, q: float = 1.0):
        wa, wb = _weighted(x, a), _weighted(x, b)
        # l^q norms of layers j >= k (side a) and of layers j < k (side b)
        self._suffix_a = np.concatenate((_running_norm(wa[::-1], q, 0)[::-1], [0.0]))
        self._prefix_b = np.concatenate(([0.0], _running_norm(wb, q, 0)))
        self.breaks = 2.0 ** (-np.arange(len(x), dtype=float)[::-1] * (b - a))  # ascending
        self.lo = float(self.breaks[0])   # below: W = sigma * norm_b
        self.hi = float(self.breaks[-1])  # above: W = norm_a
        self.norm_a = float(self._suffix_a[0])
        self.norm_b = float(self._prefix_b[-1])

    def __call__(self, sigma: np.ndarray) -> np.ndarray:
        # k = number of layers with sigma_j >= sigma (not yet flipped in)
        k = len(self.breaks) - np.searchsorted(self.breaks, sigma, side="left")
        # above hi k = 0 and prefix_b[0] = 0; the cap keeps inf * 0 out
        return self._suffix_a[k] + np.minimum(sigma, self.hi) * self._prefix_b[k]


def _logcell_integral(u_lo, u_hi, g_lo, g_hi) -> np.ndarray:
    """Integral of g over each cell [u_lo, u_hi], u_lo < u_hi, in log
    coordinates, modeling g as an exponential between its endpoint
    values (exact for power-law g); the trapezoid where an endpoint
    value is not positive or the two nearly agree.  Arrays in, one entry
    per cell out."""
    h = u_hi - u_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lr = np.log(g_hi / g_lo)
        expo = (g_hi - g_lo) * h / lr
    trap = 0.5 * (g_lo + g_hi) * h
    exact = (g_lo > 0.0) & (g_hi > 0.0) & (np.abs(lr) >= 1e-9)
    return np.where(exact, expo, trap)


def _grid_integral(fun, lo, hi) -> np.ndarray:
    """One log-grid quadrature pass of an integrand d sigma/sigma over
    the ranges [lo_i, hi_i] (arrays, lo < hi), one integral per range.
    A range of D binary decades gets ceil(D * _PPD) cells (at least one)
    with nodes spaced as np.linspace spaces them.  The ranges are laid
    end to end, and fun(sigma, first), given the first node of each
    range, maps all nodes at once to the integrand values, so a range
    may hold its own integrand (_holmstedt's pieces).
    """
    u_lo, u_hi = np.log(lo), np.log(hi)
    span = u_hi - u_lo
    cells = np.maximum(1, np.ceil(span / math.log(2.0) * _PPD)).astype(np.intp)
    nodes = cells + 1
    first = np.cumsum(nodes) - nodes  # first node of each range
    last = first + cells
    seg = np.arange(len(cells)).repeat(nodes)
    us = (np.arange(len(seg)) - first[seg]) * (span / cells)[seg] + u_lo[seg]
    us[last] = u_hi
    gs = fun(np.exp(us), first)
    # every pair of neighbouring nodes is a cell, and the pair that joins
    # two ranges a stray one (of any width), summed on its own and dropped
    vals = _logcell_integral(us[:-1], us[1:], gs[:-1], gs[1:])
    return np.add.reduceat(vals, np.sort(np.concatenate((first, last)))[:-1])[::2]


class _Piece:
    """The low (0 to X) or high (X to inf) piece of the split,
    (int (sig^-theta W)^q dsig/sig)^(1/q) on an X array, or its sup at
    q = inf.  Outside the breakpoint hull [W.lo, W.hi] the integrand is
    an exact power law, whose tails integrate in closed form; the hull
    takes full, its whole quadrature, and part, that of [W.lo, X] (low)
    or [X, W.hi] (high) at each X inside it (_holmstedt).  The sup needs
    neither: sig^-theta W rises below the hull, falls above it and has
    no interior maximum on a linear piece of W, so its sup sits at X or
    at a breakpoint on the piece's side of X.
    """

    def __init__(self, W: _WCurve, theta: float, q: float, low: bool):
        self.W, self.theta, self.q, self.low, self.full = W, theta, q, low, 0.0
        # (edge, W's constant beyond it, exponent of sig^-theta W there) for
        # the near edge, which bounds the piece's tail, and the far one
        ends = ((W.lo, W.norm_b, 1.0 - theta), (W.hi, W.norm_a, -theta))
        self.near, self.far = ends if low else ends[::-1]
        # X on the near side of an edge, at or past it, strictly past it
        self.before, self.reach, self.past = ((np.less_equal, np.greater_equal, np.greater)
                                              if low else (np.greater_equal, np.less_equal, np.less))
        self.clamp, self.side = (np.minimum, "right") if low else (np.maximum, "left")
        if math.isinf(q):
            run = np.maximum.accumulate((W.breaks**-theta * W(W.breaks))[::1 if low else -1])
            self.peak = np.concatenate(([0.0], run) if low else (run[::-1], [0.0]))

    def g(self, sig: np.ndarray, w: np.ndarray) -> np.ndarray:  # w = W(sig)
        return (sig**-self.theta * w) ** self.q

    def limit(self) -> float:
        """The piece at X = inf (low) or 0 (high): the whole integral, or sup."""
        X = np.array([math.inf if self.low else 0.0])
        return float(self.peak.max() if math.isinf(self.q) else self(X, X < 0.0, X[:0])[0])

    def __call__(self, X: np.ndarray, mid: np.ndarray, part) -> np.ndarray:
        """The piece at X, given part at the X[mid] inside the hull."""
        (e_n, c_n, x_n), (e_f, c_f, x_f), q, W = self.near, self.far, self.q, self.W
        if math.isinf(q):
            Xc = np.clip(X, W.lo, W.hi)
            inner = np.maximum(Xc**-self.theta * W(Xc),
                               self.peak[np.searchsorted(W.breaks, Xc, side=self.side)])
            return np.where(self.before(X, e_n), self.clamp(X, e_n) ** x_n * c_n, inner)
        hull = np.where(self.reach(X, e_f), self.full, 0.0)
        hull[mid] = part
        total = c_n**q * self.clamp(X, e_n) ** (x_n * q) / abs(x_n * q) + hull
        total = total + np.where(self.past(X, e_f),
                                 c_f**q * (e_f ** (x_f * q) - X ** (x_f * q)) / abs(x_f * q), 0.0)
        return total ** (1.0 / q)


def _holmstedt(a: np.ndarray, s0: float, q0: float, s1: float, q1: float):
    """Evaluator of the composed K on a main-grid sequence a between the
    weighted spaces l^{s0,q0} and l^{s1,q1}, s0 < s1 and q0 != q1 (the
    p-equal case with s and q both different).

    Realizes the couple as interpolation spaces at parameters 1/3 and
    2/3 of an inner two-weight couple (exponents 2*s0 - s1 and
    2*s1 - s0, inner aggregation exponent 1), whose split sum W is
    piecewise linear in sigma.  The two-sided integral decomposition
    splits at t^3:

        K(t) = (int_0^(t^3) (sig^(-1/3) W)^q0 dsig/sig)^(1/q0)
             + t (int_(t^3)^inf (sig^(-2/3) W)^q1 dsig/sig)^(1/q1)

    with sup forms when an exponent is infinite (_Piece).  Outside the
    breakpoint hull of W the integrands are exact power laws and the
    tails integrate in closed form; the hull is quadratured on a log
    grid at _PPD cells per binary decade.

    The raw composition has endpoint limits that are equivalent, not
    equal, to the couple's norms, so the result is calibrated: with
    N0, N1 the weighted l^q norms and M0, M1 the raw limits of K and
    K/t, the returned value is (N0/M0) * raw((N1 M0)/(M1 N0) * t).
    Calibration keeps homogeneity, monotonicity, and the equivalence
    band, and makes K(inf) = N0 and K(t)/t -> N1 exact.  A raw limit of
    0 (W^q underflowed) cannot calibrate: the build raises ArithmeticError.

    Each quadrature pass (hull) holds the live (finite q) pieces' ranges,
    [W.lo, x_low] low and [x_high, W.hi] high, each with its own
    integrand (split) on shared nodes, exp and W.  The build's, at (W.hi,
    W.lo), gives M0 and M1 with the closed-form tails; a t array's, at
    (X, X), covers [W.lo, X] and [X, W.hi] for each X inside the hull.
    """
    W = _WCurve(a, 2.0 * s0 - s1, 2.0 * s1 - s0)
    n0, n1 = lp_norm(_weighted(a, s0), q0), lp_norm(_weighted(a, s1), q1)
    low, high = _Piece(W, 1.0 / 3.0, q0, True), _Piece(W, 2.0 / 3.0, q1, False)
    live = [p for p in (low, high) if not math.isinf(p.q)]

    def split(sig, first):  # each live piece on its own block of ranges
        w, cut = W(sig), [*first[::len(first) // len(live)], len(sig)]
        return np.concatenate([p.g(sig[i:j], w[i:j]) for p, i, j in zip(live, cut, cut[1:])])

    def hull(x_low, x_high):  # each live piece's quadrature, a row per piece
        lo = np.concatenate([np.full(len(x_low), W.lo) if p is low else x_high for p in live])
        hi = np.concatenate([x_low if p is low else np.full(len(x_high), W.hi) for p in live])
        return _grid_integral(split, lo, hi).reshape(len(live), -1)

    def raw(X):
        mid = (W.lo < X) & (X < W.hi)
        xm = X[mid]
        parts = dict(zip(live, hull(xm, xm))) if len(xm) else {}  # else every part is xm
        return low(X, mid, parts.get(low, xm)), high(X, mid, parts.get(high, xm))

    if W.lo < W.hi:  # the hull once per live piece
        for p, val in zip(live, hull(np.array([W.hi]), np.array([W.lo]))[:, 0].tolist()):
            p.full = val
    m0, m1 = low.limit(), high.limit()  # raw K(inf), raw K(t)/t at 0
    if not (m0 > 0.0 and m1 > 0.0):  # a power of W underflowed: no calibration
        raise ArithmeticError(f"calibration limits M0 = {m0:g}, M1 = {m1:g} must be positive")

    def k(ts):
        tt = ts * (n1 * m0) / (m1 * n0)
        X = tt**3.0  # split point tt^(1/(th1-th0))
        lo_piece, hi_piece = raw(X)
        # the high piece vanishes at X = inf, where tt * 0 would be nan
        return (n0 / m0) * (lo_piece + np.where(hi_piece > 0.0, tt * hi_piece, 0.0))

    return k


# ---------------------------------------------------------------------------
# regime routes


def _seq_route(a: np.ndarray, s_a: float, q0: float, s_b: float, q1: float):
    """Evaluator of K for a main-grid sequence between the weighted
    spaces l^{s_a,q0} and l^{s_b,q1}, routed by which exponents coincide;
    (s_a, q0) > (s_b, q1) is commuted."""
    if (s_a, q0) > (s_b, q1):
        return _commuted(_seq_route(a, s_b, q1, s_a, q0), lambda: lp_norm(_weighted(a, s_a), q0))
    if q0 == q1:
        return _WCurve(a, s_a, s_b, q0)
    if s_a == s_b:
        return _SplitSum(_weighted(a, s_a), q0, q1)
    return _holmstedt(a, s_a, q0, s_b, q1)


def _fold_layers(batches: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layer sum KX(u) = sum_j kinf_j(u sc_j) of the layer envelopes,
    in batches (_LayerKinf), as a table: the merged breaks lv (in log u),
    and on each of the len(lv) + 1 pieces between them the constant and
    the log of the slope of KX.

    Folded one batch (_batches) at a time, smallest layers first: merge
    the batch's breaks into the running ones, carry the running piece
    over to each merged piece, evaluate the batch on the merged pieces in
    one pass and add every row in turn (a row that is not live reads 0
    and -inf, which add nothing).  A step whose rows x pieces matrices
    would pass _FOLD_CELLS cells takes its pieces in bands, which
    changes no operation.  Every term is nonnegative
    (constants add, log slopes combine by logaddexp), so nothing cancels,
    and the work is that of the breaks seen so far.
    """
    lv = np.empty(0)
    const, lslope = np.zeros(1), np.full(1, -np.inf)
    for env in batches:
        merged = np.sort(np.concatenate((lv, env.breaks)))
        reps = np.concatenate(([-np.inf], 0.5 * (merged[:-1] + merged[1:]), [np.inf]))
        run = lv.searchsorted(reps)
        const, lslope = const[run], lslope[run]  # new arrays, added to in place
        # parts makes rows x pieces matrices: a band of pieces at a time
        step = max(1, _FOLD_CELLS // len(env.live))
        for at in range(0, len(reps), step):
            c_band, lb_band = const[at:at + step], lslope[at:at + step]
            for c, lb in zip(*env.parts(reps[at:at + step])):
                c_band += c
                np.logaddexp(lb_band, lb, out=lb_band)
        lv = merged
    return lv, const, lslope


def _power_composition(batches: list, q0: float, q1: float):
    """Evaluator of the max-form K from batches of layer envelopes (_LayerKinf).

    The layer sum KX(u) = sum_j kinf_j(u sc) is constant plus linear on
    each piece between the merged layer breaks (in log u, _fold_layers).
    K solves u^(1/q1) KX(u)^(1/q0 - 1/q1) = t, strictly increasing in u
    for either order of q0, q1, and is KX(u)^(1/q0).  The left side at
    each break places every t on its piece: a linear piece gives
    K = t slope^(1/q1) (below the first break, t ||f||_A1), a constant
    piece K = const^(1/q0) (above the last, ||f||_A0), and a mixed piece
    is solved by Newton's method in log u, vectorised over t.
    """
    e = 1.0 / q0 - 1.0 / q1
    lv, const, lslope = _fold_layers(batches)
    with np.errstate(divide="ignore"):
        lconst = np.log(const)
    # log of the left side at each break, from the piece right of it
    lg = lv / q1 + e * np.logaddexp(lconst[1:], lslope[1:] + lv)

    def k(ts):
        lt = np.log(ts)
        p = lg.searchsorted(lt)
        lc, lb = lconst[p], lslope[p]
        out = np.where(lc == -np.inf, np.exp(lt + lb / q1), np.exp(lc / q0))
        mixed = np.flatnonzero((lc > -np.inf) & (lb > -np.inf))
        if len(mixed):
            lc, lb, lt = lc[mixed], lb[mixed], lt[mixed]
            # F(v) = v/q1 + e logaddexp(lc, lb + v) - lt rises with slope
            # between 1/q1 and 1/q0 and is convex for e > 0, concave for
            # e < 0, so Newton from the piece's right (e > 0) or left end
            # moves monotonically onto the root; a step the other way is
            # rounding at the root.  Each t stops on its own step, so it
            # gets the same value whatever else is evaluated with it.
            v = lv[p[mixed] - (e < 0)]
            go = np.ones(len(v), dtype=bool)
            while go.any():
                lx = np.logaddexp(lc, lb + v)
                step = (v / q1 + e * lx - lt) / (1.0 / q1 + e * np.exp(lb + v - lx))
                go &= step * e > 0
                v = np.where(go, v - step, v)
                go &= np.abs(step) > 1e-14 * np.maximum(1.0, np.abs(v))
            out[mixed] = np.exp(np.logaddexp(lc, lb + v) / q0)
        return out

    return k


# ---------------------------------------------------------------------------
# route table and dispatch


def _degenerate_route(field, query):
    norm = besov_norm(field, query.idx0)
    return lambda ts: np.minimum(1.0, ts) * norm


def _p_equal_route(field, query):
    i0, i1 = query.idx0, query.idx1
    n = field.spec.n
    return _seq_route(main_grid_reduce(field, i0.p), i0.weight_exponent(n), i0.q,
                      i1.weight_exponent(n), i1.q)


def _q_equal_route(field, query):
    layers = [_layer_fn(field, query, j) for j in range(field.spec.J)]
    q = query.idx0.q
    return lambda ts: _lq_across([f(ts) for f in layers], q)


def _general_route(field, query):
    i0, i1 = query.idx0, query.idx1
    q0, q1 = i0.q, i1.q
    lsc = query.s_tilde(field.spec.n) * q1 * math.log(2.0)  # log sc_j = j * lsc
    batches = [_LayerKinf([layer_weight(field.spec, i0, j) * field.layers[j] for j in js],
                          i0.p, i1.p, q0, q1, np.array(js) * lsc)
               for js in _batches(field.spec.layer_sizes)]
    batches = [env for env in batches if env.live.any()]
    if not batches:
        return _zeros
    return _power_composition(batches, q0, q1)


def _vertex_route(field, query):
    from .oracle import VertexTables

    tables = VertexTables(field, query.idx0, query.idx1)  # on its own scale, tables.fac
    return lambda ts: np.array([tables._split_values(t, query.xi).min() for t in ts]) / tables.fac


# case -> (route label, form, builder(field, query) -> evaluator of a t
# array, couples, band); the oracle's form (None) follows the query's xi.
# The verify suites draw a formula route's couples as it declares them:
# exponent draws in order ("p" or "q" one value for both indices, "p2" or
# "q2" two distinct ones from a pool) and a smoothness rule, "same", "free"
# or "apart" (redrawn until 0.5 apart, so breakpoint hulls stay short).
# The composed split's aggregation exponents stay at 1 or above: below 1 its
# constants degrade fast (one spike already shows a factor 81 at 0.5).  A
# band (None: unbanded) bounds K's factor from the vertex oracle of the
# route's form: an engineering tolerance, not a sharp constant.
_FULL_POOL = (0.5, 1.0, 1.5, 2.0, math.inf)
_CONVEX_POOL = (1.0, 1.5, 2.0, math.inf)
_SPLIT_POOL = (0.5, 1.0, 2.0, math.inf)
_ROUTES = {
    CaseTag.DEGENERATE: ("formula:degenerate", "sum", _degenerate_route,
                         ((("p", _FULL_POOL), ("q", _FULL_POOL)), "same"), None),
    CaseTag.P_EQUAL_S_DIFF_Q_EQUAL: ("formula:p-equal:weighted-split", "sum", _p_equal_route,
                                     ((("p", _FULL_POOL), ("q", _SPLIT_POOL)), "apart"), 8.0),
    CaseTag.P_EQUAL_S_DIFF_Q_DIFF: ("formula:p-equal:composed-split", "sum", _p_equal_route,
                                    ((("p", _FULL_POOL), ("q2", _CONVEX_POOL)), "apart"), 8.0),
    CaseTag.P_EQUAL_S_EQUAL: ("formula:p-equal:rearrangement", "sum", _p_equal_route,
                              ((("p", _FULL_POOL), ("q2", _SPLIT_POOL)), "same"), 8.0),
    CaseTag.Q_EQUAL_P_DIFF: ("formula:q-equal:layer-sum", "sum", _q_equal_route,
                             ((("q", _FULL_POOL), ("p2", _SPLIT_POOL)), "free"), 8.0),
    CaseTag.GENERAL: ("formula:general:power-composition-kinf", "max", _general_route,
                      ((("p2", (1.0, 2.0, math.inf)), ("q2", (0.5, 1.0, 2.0, 3.0))), "free"),
                      16.0),
    CaseTag.ORACLE_ONLY: ("oracle:vertex-enumeration", None, _vertex_route, None, None),
}


def k_plan(field: CoeffField, query: InterpQuery, method: str = "formula") -> KPlan:
    """Select the route for the query's index regime once and build its
    t-independent state, on the field scaled by the one rescaling rule at
    its largest entry raised to each finite p and q of the couple
    (norms._scaled_field); the plan's k(ts) then evaluates K on t arrays
    and divides the factor out.  The oracle route's tables scale
    themselves (oracle._budgeted), and the plan keeps factor 1.

    The GENERAL route computes the max-form functional (within a factor
    2 of the sum form); other routes target the sum form.  Queries with
    p and q both different and a q = inf fall outside the closed forms
    and are answered by the enumeration oracle, which refuses a field of
    more than 20 coefficients (BudgetError).
    method 'oracle' takes the enumeration oracle whatever the regime,
    which alone honours an xi other than 1 and inf; the formula routes
    compute a fixed form and refuse one (UsageError).  A route whose
    build overflows, or whose arithmetic raises, refuses (NumericError).
    """
    if method not in ("formula", "oracle"):
        raise UsageError(f"unknown method {method!r}; use 'formula' or 'oracle'")
    case = query.case if method == "formula" else CaseTag.ORACLE_ONLY
    w0, w1 = (i.weight_exponent(field.spec.n) for i in (query.idx0, query.idx1))
    if case is CaseTag.P_EQUAL_S_DIFF_Q_DIFF and w0 == w1:  # _seq_route runs the rearrangement
        case = CaseTag.P_EQUAL_S_EQUAL
    label, form, build = _ROUTES[case][:3]
    if form is None:  # the oracle computes the form that xi selects
        form = {1.0: "sum", math.inf: "max"}.get(query.xi, f"xi={query.xi:g}")
    elif query.xi not in (1.0, math.inf):
        raise UsageError(f"route {label} computes the {form} form and cannot honour "
                         f"xi={query.xi:g}; use xi 1 or inf, or method 'oracle'")
    if field.max_abs() == 0.0:
        return KPlan(label, _zeros, form=form)
    fac, vmax = 1.0, field.max_abs()
    if case is not CaseTag.ORACLE_ONLY:  # the oracle's tables scale themselves (oracle._budgeted)
        exps = (e for i in (query.idx0, query.idx1) for e in (i.p, i.q))
        field, fac = _scaled_field(field, *((vmax, e) for e in exps))
    return _trapped(f"route {label}", lambda: KPlan(label, build(field, query), fac, form),
                    over="raise")  # a build that overflows gives a wrong K


def k_dispatch(field: CoeffField, query: InterpQuery, t: float) -> tuple[float, str]:
    """Route a K evaluation by index regime; returns (value, method tag).

    One-t use of k_plan, which describes the routes and the oracle's
    cap of 20 coefficients.
    """
    ts = _t_array(t, 0)[None]
    plan = k_plan(field, query)
    return float(plan.k(ts)[0]), plan.label


def k_curve(field: CoeffField, query: InterpQuery, ts=None, method: str = "formula") -> KCurve:
    """Sample K on a t grid; method 'formula' or 'oracle'.

    The t-independent state is built once and the whole grid is
    evaluated from it.
    """
    grid = default_t_grid() if ts is None else _t_array(ts, 1)
    plan = k_plan(field, query, method)
    return KCurve(grid, plan.k(grid), plan.label)
