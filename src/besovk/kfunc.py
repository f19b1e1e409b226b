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
  hinges (_LayerKinf), the layer sum is piecewise linear, and the outer
  relation is inverted on its pieces, in closed form or by Newton's
  method.  The value computed is the max-form (split) functional; it
  matches the sum form within a factor 2.

Threshold splits in the two-sided formulas classify coefficients by
rank: the side with the smaller exponent takes the floor(T) largest
entries.  The one-sided formula against a sup norm keeps the exact
fractional integral, which is classical and exact.  At a single
coefficient every route collapses to min(w0, t*w1) * c exactly.

Every route is a plan (k_plan): the route is selected once per (field,
query) and everything that does not depend on t (main-grid reduction,
rearrangements, split tables, calibration limits, hinge envelopes) is
built once; the plan then evaluates K on a whole t array.  k_dispatch
evaluates one t from a plan, k_curve a t grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coeffs import CoeffField
from .errors import UsageError
from .grid import BesovIndex, layer_weight
from .norms import _pow2_factor, besov_norm, lp_norm, main_grid_reduce
from .rearrange import rearrangement

__all__ = [
    "CaseTag",
    "InterpQuery",
    "KCurve",
    "default_t_grid",
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
        if len(t) == 0 or (np.diff(t) <= 0).any() or (t <= 0).any():
            raise UsageError("t grid must be positive and strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "k", k)


def default_t_grid(t_min_exp: float = -20.0, t_max_exp: float = 20.0,
                   points_per_decade: float = 2.0) -> np.ndarray:
    """Log-spaced t grid, points_per_decade per binary decade (81 by default)."""
    count = int(round((t_max_exp - t_min_exp) * points_per_decade)) + 1
    return np.logspace(t_min_exp, t_max_exp, count, base=2.0)


# ---------------------------------------------------------------------------
# prepared plans


class KPlan:
    """One K evaluation with its t-independent state built once.

    label names the route, form the functional ("sum", "max", or
    "xi=<xi>" for another oracle aggregation power).  The state is built
    on the field scaled by fac (_scaled_plan); k_scaled(ts) evaluates K
    of the scaled field at every t of a 1-d array, and k(ts) undoes the
    factor.  Every K value this module returns goes through k.
    """

    def __init__(self, label: str, fn, fac: float = 1.0, form: str = "sum"):
        self.label = label
        self._form = form
        self.fac = fac
        self._fn = fn

    @property
    def form(self) -> str:
        return self._form

    def k_scaled(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        bad = ts[~(ts > 0.0)]
        if len(bad):
            raise UsageError(f"t must be positive, got {bad[0]}")
        # powers of t overflow to inf and underflow to 0 by design (the
        # closed forms take those limits), and np.where evaluates both
        # branches; neither is worth a warning
        with np.errstate(all="ignore"):
            return self._fn(ts)

    def k(self, ts) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.k_scaled(ts) / self.fac


def _zeros(ts: np.ndarray) -> np.ndarray:
    return np.zeros(len(ts))


def _scaled_plan(label: str, vmax: float, build, form: str = "sum") -> KPlan:
    """A plan on data whose largest entry is vmax, scaled by the one
    rescaling rule (_pow2_factor): K(f) = K(fac f) / fac by exact
    1-homogeneity, which keeps q-th powers representable.  build(fac)
    returns the evaluator for the data scaled by fac."""
    if vmax == 0.0:
        return KPlan(label, _zeros, form=form)
    fac = _pow2_factor(vmax)
    return KPlan(label, build(fac), fac, form)


# ---------------------------------------------------------------------------
# vector kernels on plain l^p couples


class _SplitSum:
    """Sum-form K of a fixed vector between l^p0 and l^p1, evaluated on
    a t array.

    p0 = p1 gives min(1, t) times the norm.  Against a sup norm the
    exact fractional integral applies; two finite exponents split at
    the integer rank floor(t^alpha), the smaller exponent taking the
    largest entries.  Larger-first exponents route through the exact
    commutation K(t, A0, A1) = t K(1/t, A1, A0).  Power sums of the
    rearrangement are tabulated once, so each t costs one lookup.
    """

    def __init__(self, v, p0: float, p1: float):
        r = rearrangement(v)
        self.swap = p0 > p1
        if self.swap:
            p0, p1 = p1, p0
        self.p0, self.p1, self.m = p0, p1, len(r)
        if p0 == p1:
            self.norm = lp_norm(r, p0)
            return
        # head[k]: sum of the k largest p0-th powers; tail[k]: the rest in p1
        self.pow0 = r**p0
        self.head = np.concatenate(([0.0], np.cumsum(self.pow0)))
        if not math.isinf(p1):
            self.alpha = 1.0 / (1.0 / p0 - 1.0 / p1)
            self.tail = np.concatenate((np.cumsum((r**p1)[::-1])[::-1], [0.0]))

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        if self.swap:
            return ts * self._eval(1.0 / ts)
        return self._eval(ts)

    def _eval(self, t: np.ndarray) -> np.ndarray:
        if self.p0 == self.p1:
            return np.minimum(1.0, t) * self.norm
        m, p0 = self.m, self.p0
        if math.isinf(self.p1):
            T = t**p0
            k = np.minimum(T, m).astype(np.intp)
            frac = np.where(T < m, T - k, 0.0)
            total = self.head[k] + frac * self.pow0[np.minimum(k, m - 1)]
            return total ** (1.0 / p0)
        T = t**self.alpha
        k = np.minimum(T, m).astype(np.intp)
        # tail[m] = 0, and t * 0 is nan at t = inf (1/t of a subnormal t)
        tail = np.where(k < m, t * self.tail[k] ** (1.0 / self.p1), 0.0)
        return self.head[k] ** (1.0 / p0) + tail


class _LayerKinf:
    """Max-form split K on one vector between the powered norms
    ||.||_p0^q0 and ||.||_p1^q1, as a function of the threshold x:

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
    """

    def __init__(self, v: np.ndarray, p0: float, p1: float, q0: float, q1: float):
        r = np.sort(np.asarray(v, dtype=float))[::-1]

        def rank_norms(p: float) -> np.ndarray:
            # ||k largest entries||_p, then ||k smallest||_p, k = 0..m
            if math.isinf(p):
                return np.concatenate((np.maximum.accumulate(np.concatenate(([0.0], r))),
                                       np.maximum.accumulate(np.concatenate(([0.0], r[::-1])))))
            pw = r**p
            return np.concatenate(([0.0], pw.cumsum(), [0.0], pw[::-1].cumsum())) ** (1.0 / p)

        # side-0 takes the k largest or the k smallest, side-1 the
        # complement: the m - k smallest or largest, the table read backwards
        a = rank_norms(p0) ** q0
        b = rank_norms(p1)[::-1] ** q1
        with np.errstate(divide="ignore", invalid="ignore"):
            # -inf where a = 0, inf where b = 0, nan where both are
            # (that split costs nothing and kinf vanishes)
            kinks = np.log(a) - np.log(b)
            order = kinks.argsort()
            kinks = kinks[order]
            self._suf_a = np.concatenate((np.minimum.accumulate(a[order][::-1])[::-1],
                                          [np.inf]))
            self._log_pre_b = np.log(np.concatenate(([np.inf],
                                                     np.minimum.accumulate(b[order]))))
            self._log_suf_a = np.log(self._suf_a)
            cross = self._log_suf_a - self._log_pre_b
        self.live = not np.isnan(kinks).any()
        edges = np.concatenate(([-np.inf], kinks, [np.inf]))
        cuts = np.concatenate((kinks, cross[(edges[:-1] < cross) & (cross < edges[1:])]))
        self.breaks = cuts[np.isfinite(cuts)]
        self.breaks.sort()
        # the finite kinks, offset by the kinks at -inf, so that x -> 0
        # reads the slope and x -> inf the plateau
        self._lo = int(kinks.searchsorted(-np.inf, side="right"))
        self._kinks = kinks[self._lo:kinks.searchsorted(np.inf)]

    def parts(self, lx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The piece of kinf at each log threshold lx, as its constant
        (0 on a linear piece) and the log of its slope (-inf on a
        constant piece).  lx = -inf and inf give the two limits."""
        i = self._lo + self._kinks.searchsorted(lx)
        lb = self._log_pre_b[i]
        line = lx + lb < self._log_suf_a[i]
        return np.where(line, 0.0, self._suf_a[i]), np.where(line, lb, -np.inf)


# ---------------------------------------------------------------------------
# layer-level operations


def _layer_fn(field: CoeffField, query: InterpQuery, j: int):
    """Evaluator of K for layer j: weight0 * K(t * 2^(j*s_tilde)) on the
    plain l^p couple."""
    w0 = layer_weight(field.spec, query.idx0, j)
    shift = 2.0 ** (j * query.s_tilde(field.spec.n))
    split = _SplitSum(field.layers[j], query.idx0.p, query.idx1.p)
    return lambda ts: w0 * split(ts * shift)


def _lq_across(rows: list, q: float) -> np.ndarray:
    """Elementwise l^q aggregate of equal-length arrays (sup at q = inf),
    accumulated row by row so that no entry depends on the others."""
    if math.isinf(q):
        return np.max(rows, axis=0)
    total = 0.0
    for row in rows:
        total = total + row**q
    return total ** (1.0 / q)


# ---------------------------------------------------------------------------
# two-weight curve and its interpolation integrals (p equal, s and q differ)


class _WCurve:
    """The split sum W(sigma) = ||(2^(j*a) x_j) over j in N_sigma||_q
    + sigma * ||(2^(j*b) x_j) over j notin N_sigma||_q as a fast piecewise
    function of a sigma array.  N_sigma = {j : sigma * 2^(j*(b-a)) > 1}
    flips one layer at each breakpoint sigma_j = 2^(-j*(b-a)); W is
    continuous there, linear between breakpoints, exactly linear below
    the smallest and constant above the largest.  At q = 1 it is the
    exact decoupled sum of per-layer minima.
    """

    def __init__(self, x: np.ndarray, a: float, b: float, q: float = 1.0):
        if not a < b:
            raise UsageError(f"requires a < b, got {a} >= {b}")
        J = len(x)
        js = np.arange(J, dtype=float)
        wa = 2.0 ** (js * a) * x
        wb = 2.0 ** (js * b) * x
        # l^q norms of layers j >= k (side a) and of layers j < k (side b)
        if math.isinf(q):
            suffix_a = np.maximum.accumulate(wa[::-1])[::-1]
            prefix_b = np.maximum.accumulate(wb)
        else:
            suffix_a = np.cumsum((wa**q)[::-1])[::-1] ** (1.0 / q)
            prefix_b = np.cumsum(wb**q) ** (1.0 / q)
        self._suffix_a = np.concatenate((suffix_a, [0.0]))
        self._prefix_b = np.concatenate(([0.0], prefix_b))
        self.breaks = 2.0 ** (-js[::-1] * (b - a))  # ascending
        self.lo = float(self.breaks[0])   # below: W = sigma * norm_b
        self.hi = float(self.breaks[-1])  # above: W = norm_a
        self.norm_a = float(self._suffix_a[0])
        self.norm_b = float(self._prefix_b[-1])

    def __call__(self, sigma: np.ndarray) -> np.ndarray:
        # k = number of layers with sigma_j >= sigma (not yet flipped in)
        k = len(self.breaks) - np.searchsorted(self.breaks, sigma, side="left")
        return self._suffix_a[k] + sigma * self._prefix_b[k]

    def phi_at_breaks(self, theta: float) -> np.ndarray:
        """sigma^-theta W(sigma) at each breakpoint."""
        return self.breaks**-theta * self(self.breaks)


def _logcell_integral(u_lo, u_hi, g_lo, g_hi) -> np.ndarray:
    """Integral of g over each cell [u_lo, u_hi] in log coordinates,
    modeling g as an exponential between its endpoint values (exact for
    power-law g); the trapezoid where an endpoint value is not positive
    or the two nearly agree, and zero on an empty cell.  Arrays in, one
    entry per cell out."""
    h = u_hi - u_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lr = np.log(g_hi / g_lo)
        expo = (g_hi - g_lo) * h / lr
    trap = 0.5 * (g_lo + g_hi) * h
    exact = (g_lo > 0.0) & (g_hi > 0.0) & (np.abs(lr) >= 1e-9)
    return np.where(h > 0, np.where(exact, expo, trap), 0.0)


def _grid_integral(fun, lo, hi, points_per_decade: float) -> np.ndarray:
    """Log-grid quadrature of fun(sigma) d sigma/sigma over [lo, hi] for
    each pair of bounds, zero where lo >= hi.  Each bound is a scalar or
    an array; a scalar pairs with every entry of the other.

    A range of D binary decades gets ceil(D * points_per_decade) cells
    (at least one) with nodes spaced as np.linspace spaces them.  The
    ranges are laid end to end, so fun runs once on every node, and
    each range's cells are summed on their own.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    live = lo < hi
    out = np.zeros(live.shape)
    n = np.count_nonzero(live)
    if not n:
        return out
    u_lo = np.log(lo[live] if lo.ndim else lo.repeat(n))
    u_hi = np.log(hi[live] if hi.ndim else hi.repeat(n))
    cells = np.maximum(1, np.ceil((u_hi - u_lo) / math.log(2.0) * points_per_decade))
    cells = cells.astype(np.intp)
    first = np.cumsum(cells + 1) - (cells + 1)  # first node of each range
    last = first + cells
    seg = np.arange(n).repeat(cells + 1)
    us = (np.arange(len(seg)) - first[seg]) * ((u_hi - u_lo) / cells)[seg] + u_lo[seg]
    us[last] = u_hi
    gs = fun(np.exp(us))
    cell = np.ones(len(us) - 1, dtype=bool)  # node i opens a cell unless it ends a range
    cell[last[:-1]] = False
    vals = _logcell_integral(us[:-1][cell], us[1:][cell], gs[:-1][cell], gs[1:][cell])
    out[live] = np.add.reduceat(vals, first - np.arange(n))
    return out


def _piece_low(W: _WCurve, theta: float, q: float, ppd: float):
    """Evaluator of (int_0^X (sig^-theta W)^q dsig/sig)^(1/q) on an X
    array; the sup form at q = inf.  The whole hull [W.lo, W.hi] is
    quadratured once: an X inside it costs the quadrature of [W.lo, X],
    one outside it closed forms only."""
    if math.isinf(q):
        # sig^-theta W is increasing below the hull, decreasing above it,
        # and has no interior maximum on a linear piece of W, so its sup
        # over (0, X] sits at X or at a breakpoint below X
        peak = np.concatenate(([0.0], np.maximum.accumulate(W.phi_at_breaks(theta))))

        def sup(X):
            Xc = np.clip(X, W.lo, W.hi)
            inner = np.maximum(Xc**-theta * W(Xc),
                               peak[np.searchsorted(W.breaks, Xc, side="right")])
            return np.where(X <= W.lo, np.minimum(X, W.lo) ** (1.0 - theta) * W.norm_b,
                            inner)

        return sup
    e_lo, e_hi = (1.0 - theta) * q, theta * q
    fun = lambda s: (s**-theta * W(s)) ** q
    full = float(_grid_integral(fun, W.lo, W.hi, ppd))

    def integral(X):
        hull = np.where(X >= W.hi, full, 0.0)
        mid = (W.lo < X) & (X < W.hi)
        hull[mid] = _grid_integral(fun, W.lo, X[mid], ppd)
        total = W.norm_b**q * np.minimum(X, W.lo) ** e_lo / e_lo + hull
        total = total + np.where(X > W.hi, W.norm_a**q * (W.hi**-e_hi - X**-e_hi) / e_hi,
                                 0.0)
        return total ** (1.0 / q)

    return integral


def _piece_high(W: _WCurve, theta: float, q: float, ppd: float):
    """Evaluator of (int_X^inf (sig^-theta W)^q dsig/sig)^(1/q) on an X
    array; the sup form at q = inf.  As in _piece_low, only an X inside
    the hull costs a quadrature, of [X, W.hi]."""
    if math.isinf(q):
        # as in _piece_low: the sup over [X, inf) sits at X or at a
        # breakpoint above X
        peak = np.concatenate((np.maximum.accumulate(W.phi_at_breaks(theta)[::-1])[::-1],
                               [0.0]))

        def sup(X):
            Xc = np.clip(X, W.lo, W.hi)
            inner = np.maximum(Xc**-theta * W(Xc),
                               peak[np.searchsorted(W.breaks, Xc, side="left")])
            return np.where(X >= W.hi, np.maximum(X, W.hi) ** -theta * W.norm_a, inner)

        return sup
    e_lo, e_hi = (1.0 - theta) * q, theta * q
    fun = lambda s: (s**-theta * W(s)) ** q
    full = float(_grid_integral(fun, W.lo, W.hi, ppd))

    def integral(X):
        hull = np.where(X <= W.lo, full, 0.0)
        mid = (W.lo < X) & (X < W.hi)
        hull[mid] = _grid_integral(fun, X[mid], W.hi, ppd)
        total = W.norm_a**q * np.maximum(X, W.hi) ** -e_hi / e_hi + hull
        total = total + np.where(X < W.lo, W.norm_b**q * (W.lo**e_lo - X**e_lo) / e_lo,
                                 0.0)
        return total ** (1.0 / q)

    return integral


def _holmstedt(a: np.ndarray, s0: float, q0: float, s1: float, q1: float,
               ppd: float):
    """Evaluator of the composed K on a main-grid sequence a between the
    weighted spaces l^{s0,q0} and l^{s1,q1}, s0 != s1 and q0 != q1 (the
    p-equal case with s and q both different).

    Realizes the couple as interpolation spaces at parameters 1/3 and
    2/3 of an inner two-weight couple (exponents 2*s0 - s1 and
    2*s1 - s0, inner aggregation exponent 1), whose split sum W is
    piecewise linear in sigma.  The two-sided integral decomposition
    splits at t^3:

        K(t) = (int_0^(t^3) (sig^(-1/3) W)^q0 dsig/sig)^(1/q0)
             + t (int_(t^3)^inf (sig^(-2/3) W)^q1 dsig/sig)^(1/q1)

    with sup forms when an exponent is infinite.  Outside the
    breakpoint hull of W the integrands are exact power laws and the
    tails integrate in closed form; the hull is quadratured on a log
    grid at ppd cells per binary decade.

    The raw composition has endpoint limits that are equivalent, not
    equal, to the couple's norms, so the result is calibrated: with
    N0, N1 the weighted l^q norms and M0, M1 the raw limits of K and
    K/t, the returned value is (N0/M0) * raw((N1 M0)/(M1 N0) * t).
    Calibration keeps homogeneity, monotonicity, and the equivalence
    band, and makes K(inf) = N0 and K(t)/t -> N1 exact.

    s0 > s1 is routed through the exact commutation identity.  W, N0,
    N1, M0 and M1 and the full-hull quadrature of both pieces are built
    once.  A t whose split point t^3 lies outside the hull then costs
    closed forms only; one inside it costs the two partial-hull
    quadratures.
    """
    if s0 > s1:
        swapped = _holmstedt(a, s1, q1, s0, q0, ppd)
        return lambda ts: ts * swapped(1.0 / ts)
    if not a.any():
        return _zeros
    W = _WCurve(a, 2.0 * s0 - s1, 2.0 * s1 - s0)
    js = np.arange(len(a), dtype=float)
    n0 = lp_norm(2.0 ** (js * s0) * a, q0)
    n1 = lp_norm(2.0 ** (js * s1) * a, q1)
    low = _piece_low(W, 1.0 / 3.0, q0, ppd)
    high = _piece_high(W, 2.0 / 3.0, q1, ppd)
    m0 = float(low(np.array([math.inf]))[0])  # raw K(inf)
    m1 = float(high(np.array([0.0]))[0])      # raw K(t)/t at 0

    def k(ts):
        tt = ts * (n1 * m0) / (m1 * n0)
        X = tt**3.0  # split point tt^(1/(th1-th0))
        return (n0 / m0) * (low(X) + tt * high(X))

    return k


# ---------------------------------------------------------------------------
# regime routes


def _seq_route(a: np.ndarray, s_a: float, q0: float, s_b: float, q1: float):
    """Evaluator of K for a main-grid sequence between the weighted
    spaces l^{s_a,q0} and l^{s_b,q1}, routed by which exponents coincide."""
    if s_a == s_b:
        return _SplitSum(2.0 ** (np.arange(len(a), dtype=float) * s_a) * a, q0, q1)
    if q0 == q1:
        if s_a < s_b:
            return _WCurve(a, s_a, s_b, q0)
        W = _WCurve(a, s_b, s_a, q0)
        return lambda ts: ts * W(1.0 / ts)
    return _holmstedt(a, s_a, q0, s_b, q1, 8.0)


def _seq_plan(a, s_a: float, q0: float, s_b: float, q1: float) -> KPlan:
    """Plan of K for a main-grid sequence between the weighted spaces
    l^{s_a,q0} and l^{s_b,q1} (_seq_route), for reiteration_check."""
    arr = np.asarray(a, dtype=float)
    return _scaled_plan("", float(arr.max()) if arr.size else 0.0,
                        lambda fac: _seq_route(arr * fac, s_a, q0, s_b, q1))


def _fold_layers(layers: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layer sum KX(u) = sum_j kinf_j(u sc_j) of the layer envelopes
    (lay, log sc_j) as a table: the merged breaks lv (in log u), and on
    each of the len(lv) + 1 pieces between them the constant and the log
    of the slope of KX.

    The table is folded one layer at a time, fewest breaks first: merge
    the layer's breaks into the running ones, carry the running piece
    over to each merged piece and add the layer's own.  Every term is
    nonnegative (constants add, log slopes combine by logaddexp), so
    nothing cancels, and the work is that of the breaks seen so far,
    not the layer count times all breaks.
    """
    lv = np.empty(0)
    const, lslope = np.zeros(1), np.full(1, -np.inf)
    for lay, lsc in sorted(layers, key=lambda pair: len(pair[0].breaks)):
        merged = np.concatenate((lv, lay.breaks - lsc))
        merged.sort()
        reps = np.concatenate(([-np.inf], 0.5 * (merged[:-1] + merged[1:]), [np.inf]))
        run = lv.searchsorted(reps)
        c, lb = lay.parts(reps + lsc)
        const = const[run] + c
        lslope = np.logaddexp(lslope[run], lb + lsc)
        lv = merged
    return lv, const, lslope


def _power_composition(layers: list, q0: float, q1: float):
    """Evaluator of the max-form K from the layer envelopes (lay, log sc).

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
    lv, const, lslope = _fold_layers(layers)
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


def _degenerate_route(field, query, budget):
    norm = besov_norm(field, query.idx0)
    return lambda ts: np.minimum(1.0, ts) * norm


def _p_equal_route(field, query, budget):
    i0, i1 = query.idx0, query.idx1
    n = field.spec.n
    return _seq_route(main_grid_reduce(field, i0.p), i0.weight_exponent(n), i0.q,
                      i1.weight_exponent(n), i1.q)


def _q_equal_route(field, query, budget):
    layers = [_layer_fn(field, query, j) for j in range(field.spec.J)]
    q = query.idx0.q
    return lambda ts: _lq_across([f(ts) for f in layers], q)


def _general_route(field, query, budget):
    i0, i1 = query.idx0, query.idx1
    q0, q1 = i0.q, i1.q
    lsc = query.s_tilde(field.spec.n) * q1 * math.log(2.0)  # log sc_j = j * lsc
    layers = []
    for j in range(field.spec.J):
        lay = _LayerKinf(layer_weight(field.spec, i0, j) * field.layers[j],
                         i0.p, i1.p, q0, q1)
        if lay.live:
            layers.append((lay, j * lsc))
    if not layers:
        return _zeros
    return _power_composition(layers, q0, q1)


def _vertex_route(field, query, budget):
    from .oracle import vertex_tables

    tables = vertex_tables(field, query.idx0, query.idx1, budget=budget)
    return lambda ts: tables.curve(ts, query.xi)


# case -> (route label, form, builder(field, query, budget) -> evaluator of
# a t array); the oracle's form (None) follows the query's xi
_ROUTES = {
    CaseTag.DEGENERATE: ("formula:degenerate", "sum", _degenerate_route),
    CaseTag.P_EQUAL_S_DIFF_Q_EQUAL: ("formula:p-equal:weighted-split", "sum",
                                     _p_equal_route),
    CaseTag.P_EQUAL_S_DIFF_Q_DIFF: ("formula:p-equal:composed-split", "sum",
                                    _p_equal_route),
    CaseTag.P_EQUAL_S_EQUAL: ("formula:p-equal:rearrangement", "sum", _p_equal_route),
    CaseTag.Q_EQUAL_P_DIFF: ("formula:q-equal:layer-sum", "sum", _q_equal_route),
    CaseTag.GENERAL: ("formula:general:power-composition-kinf", "max", _general_route),
    CaseTag.ORACLE_ONLY: ("oracle:vertex-enumeration", None, _vertex_route),
}


def k_plan(field: CoeffField, query: InterpQuery, budget=None) -> KPlan:
    """Select the route for the query's index regime once and build its
    t-independent state; the plan's k(ts) then evaluates K on t arrays.

    The GENERAL route computes the max-form functional (within a factor
    2 of the sum form); other routes target the sum form.  Queries with
    p and q both different and a q = inf fall outside the closed forms
    and are answered by the enumeration oracle, subject to its budget.
    """
    return _method_plan(field, query, "formula", budget)


def k_dispatch(field: CoeffField, query: InterpQuery, t: float,
               budget=None) -> tuple[float, str]:
    """Route a K evaluation by index regime; returns (value, method tag).

    One-t use of k_plan, which describes the routes.
    """
    plan = k_plan(field, query, budget)
    return float(plan.k(np.array([t], dtype=float))[0]), plan.label


def _method_plan(field: CoeffField, query: InterpQuery, method: str,
                 budget=None) -> KPlan:
    """Plan for method 'formula' (the route table) or 'oracle' (vertex
    enumeration whatever the index regime)."""
    if method not in ("formula", "oracle"):
        raise UsageError(f"unknown method {method!r}; use 'formula' or 'oracle'")
    label, form, build = _ROUTES[query.case if method == "formula" else CaseTag.ORACLE_ONLY]
    if form is None:  # the oracle computes the form that xi selects
        form = {1.0: "sum", math.inf: "max"}.get(query.xi, f"xi={query.xi:g}")

    def scaled(fac):
        return build(field.scaled(fac) if fac != 1.0 else field, query, budget)

    return _scaled_plan(label, field.max_abs(), scaled, form)


def k_curve(field: CoeffField, query: InterpQuery, ts=None, method: str = "formula",
            budget=None) -> KCurve:
    """Sample K on a t grid; method 'formula' or 'oracle'.

    The t-independent state is built once and the whole grid is
    evaluated from it.
    """
    grid = default_t_grid() if ts is None else np.asarray(ts, dtype=float)
    plan = _method_plan(field, query, method, budget)
    return KCurve(grid, plan.k(grid), plan.label)
