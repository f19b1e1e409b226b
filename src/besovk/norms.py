"""Sequence-space norms on truncated grids.

Besov norm: weighted l^q across layers of the l^p norms within layers,
with layer weight 2^(j*(s + n/2 - n/p)).  The Lorentz functionals use
exact unit-cell integrals of the nonincreasing rearrangement, and the
dyadic Besov-Lorentz variant measures level sets with the scaled
counting measure 2^(-n*j) * #.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .coeffs import CoeffField
from .errors import NumericError, UsageError
from .grid import BesovIndex, GridSpec, layer_weight
from .rearrange import _as_clean_array, rearrangement

__all__ = [
    "lp_norm",
    "besov_norm",
    "main_grid_reduce",
    "lorentz_seq_norm",
    "besov_lorentz_norm",
]


def _pow2_factor(*sizes: tuple[float, float]) -> float:
    """The one rescaling rule, for data raised to powers: each size (vmax,
    power) names the largest entry of data the caller raises to power, and
    its window 2^(+-w), w = min(100, 1000/power), inside which vmax^power
    is a normal double (a size of vmax 0 or power inf has none).  1 when
    every vmax lies in its window, else the power of two 2^k, clamped to
    2^(+-1000), at the middle of the k that bring each into its window:
    for one size, the k that pulls vmax to [1/2, 1).  Where no k brings
    all, k is the least that lifts each to its window's floor, so that a
    power leaves the doubles by an overflow, which callers trap, and not
    by a silent underflow to 0.  Scaling by it is exact, and a clamped
    two-power factor cannot overflow the way 1/vmax can for subnormal data."""
    wins = [(v, min(100.0, 1000.0 / p)) for v, p in sizes if v > 0.0 and p < math.inf]
    for v, w in wins:
        if not 2.0**-w < v < 2.0**w:
            break
    else:
        return 1.0
    es = [(w, math.frexp(min(v, sys.float_info.max))[1]) for v, w in wins]
    lo, hi = max(-w - e for w, e in es), min(w - e for w, e in es)
    k = math.floor((lo + hi) / 2 + 0.5) if lo <= hi else math.ceil(lo) + 1
    return 2.0 ** max(min(k, 1000), -1000)


def _powers(x: np.ndarray, power: float) -> tuple[np.ndarray, float, float]:
    """x ** power at the rescaling rule's scale, fac = _pow2_factor((vmax,
    power)): the powers of x * fac and peak 1, or, where (vmax * fac)^power
    is not a normal double (past an exponent of about 1000, or at a
    clamped fac), those of x / vmax and peak vmax * fac, vmax the largest
    entry.  The l^power norm of x is sum(powers)^(1/power) * peak / fac."""
    vmax = float(x.max())
    fac = _pow2_factor((vmax, power))
    peak = vmax * fac
    try:
        small = 0.0 < peak < math.inf and peak**power < 2.0**-1022
    except OverflowError:
        small = True
    if small:
        return (x / vmax) ** power, fac, peak
    return (x * fac) ** power, fac, 1.0


def _running_norm(x: np.ndarray, p: float, axis: int) -> np.ndarray:
    """The l^p norm of every prefix of x along axis, the one power sum of
    the split kernels and of the vertex oracle's l^xi aggregation: the
    running max from p = 2^60 on, inf included, where any n <= 2^63
    entries have n^(1/p) - 1 < 2^-54.  Below, a prefix whose power sum is
    not a normal double (0, subnormal or inf) is retaken in logs,
    exp(logaddexp.accumulate(p log x) / p); the rest keep their bits."""
    if p >= 2.0**60:
        return np.maximum.accumulate(x, axis)
    with np.errstate(over="ignore"):  # an inf sum is retaken
        sums = np.cumsum(x**p, axis)
    out = sums ** (1.0 / p)
    lost = (sums < 2.0**-1022) | (sums == np.inf)
    if (lost & (x > 0.0)).any():  # iff some lost prefix holds a nonzero entry
        with np.errstate(divide="ignore"):
            out[lost] = np.exp(np.logaddexp.accumulate(p * np.log(x), axis)[lost] / p)
    return out


def _scaled_field(field: CoeffField, *sizes: tuple[float, float]) -> tuple[CoeffField, float]:
    """The field scaled by the rescaling rule at its largest entry at power
    1 and at the sizes its caller raises it to, and the factor; a quantity
    of degree d in the field divides by factor^d."""
    fac = _pow2_factor((field.max_abs(), 1.0), *sizes)
    return (field.scaled(fac) if fac != 1.0 else field), fac


def _unscaled(x: float, fac: float, what: str) -> float:
    """x / fac for a result of degree 1 in data scaled by fac, refused
    (NumericError naming what) where it leaves double range."""
    x = x / fac
    if not math.isfinite(x):
        raise NumericError(f"{what} leaves double range")
    return x


def _trapped(what: str, fn, **errstate):
    """fn() under numpy's errstate as given, an ArithmeticError refused as NumericError(what)."""
    try:
        with np.errstate(**errstate):
            return fn()
    except ArithmeticError as exc:
        raise NumericError(f"{what} leaves double range: {exc}") from None


def _t_array(t, ndim: int) -> np.ndarray:
    """t as a float array, a real scalar at ndim 0 and a 1-d array at ndim 1, else UsageError."""
    ts = np.asarray(t)
    if ts.ndim != ndim:
        raise UsageError(f"t must be {('a real scalar', 'a 1-d array')[ndim]}, got {ts.ndim} dimensions")
    if ts.dtype.kind not in "iuf":
        raise UsageError(f"t must be real, got {t!r}")
    return ts.astype(float, copy=False)


def lp_norm(v, p: float) -> float:
    """l^p quasi-norm of a nonnegative vector; sup at p = inf.

    The p-th powers are taken through _powers, so that the largest is a
    normal double; where its factor is 1 and its peak 1, the result is
    bit for bit the unscaled one.  UsageError for p <= 0 or NaN, and v
    is refused as rearrangement refuses it (a vector that is not flat,
    UsageError; a NaN or negative entry, DataError)."""
    if not p > 0:
        raise UsageError(f"lp_norm requires p > 0, got p = {p}")
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or not arr.min(initial=0.0) >= 0.0:  # one reduction; nan fails it too
        _as_clean_array(arr)  # raises
    if len(arr) == 0:
        return 0.0
    if math.isinf(p):
        return _unscaled(float(arr.max()), 1.0, "lp_norm")
    powers, fac, peak = _powers(arr, p)
    return _unscaled(float(powers.sum() ** (1.0 / p)) * peak, fac, "lp_norm")


def besov_norm(field: CoeffField, index: BesovIndex) -> float:
    """Weighted l^q across layers of the per-layer l^p norms."""
    terms = [layer_weight(field.spec, index, j) * lp_norm(v, index.p)
             for j, v in enumerate(field.layers)]
    return lp_norm(terms, index.q)


def main_grid_reduce(field: CoeffField, p: float) -> np.ndarray:
    """Collapse each layer to its l^p norm; the main-grid sequence."""
    return np.array([lp_norm(v, p) for v in field.layers])


def _seq_field(a) -> CoeffField:
    """A main-grid sequence as the field with one coefficient per layer
    (n = 1).  At p = inf and smoothness s - 1/2 its layer j weighs
    2^(j*s), so besov_norm at BesovIndex(s - 0.5, inf, q) is the
    weighted l^q norm (sum_j (2^(j*s) a_j)^q)^(1/q) of the sequence."""
    arr = np.asarray(a, dtype=float)
    return CoeffField(GridSpec(1, len(arr), (1,) * len(arr)), arr[:, None])


def lorentz_seq_norm(v, p: float, q: float) -> float:
    """Discrete Lorentz functional of a nonnegative vector.

    Exact integral of (tau^(1/p) f*(tau))^q dtau/tau over the step
    rearrangement: sum_i f*[i]^q ((i+1)^(q/p) - i^(q/p)) to the 1/q,
    and sup_i (i+1)^(1/p) f*[i] when q = inf.  At p = q it telescopes
    to the plain l^p norm.  The q-th powers are taken through _powers.
    Where the cells (i+1)^(q/p) - i^(q/p) or the sum leave double
    range, the sum is retaken in logs (_lorentz_log_sum).  UsageError
    unless 0 < p < inf and q > 0 (NaN fails both).
    """
    if not 0 < p < math.inf:
        raise UsageError(f"lorentz_seq_norm requires finite p > 0, got p = {p}")
    if not q > 0:
        raise UsageError(f"lorentz_seq_norm requires q > 0, got q = {q}")
    r = rearrangement(v)
    if len(r) == 0:
        return 0.0
    i = np.arange(len(r), dtype=float)
    if math.isinf(q):
        with np.errstate(over="ignore"):  # an overflow reads inf, which _unscaled refuses
            top = float(np.max((i + 1.0) ** (1.0 / p) * r))
        return _unscaled(top, 1.0, "lorentz_seq_norm")
    powers, fac, peak = _powers(r, q)
    with np.errstate(over="ignore", invalid="ignore"):  # a cell past double range is retaken
        cells = (i + 1.0) ** (q / p) - i ** (q / p)
        total = float(np.sum(powers * cells))
    if not math.isfinite(total):
        return _unscaled(_lorentz_log_sum(r, p, q), 1.0, "lorentz_seq_norm")
    return _unscaled(total ** (1.0 / q) * peak, fac, "lorentz_seq_norm")


def _lorentz_log_sum(r: np.ndarray, p: float, q: float) -> float:
    """lorentz_seq_norm over the positive entries of the rearrangement
    r: each term (r_i/r_0)^q ((i+1)^e - i^e), e = q/p, is taken as its
    log, q log(r_i/r_0) + e log(i+1) + log(1 - (1 - 1/(i+1))^e), and the
    terms are summed over the largest; the norm is r_0 times the sum to
    the 1/q."""
    r = r[r > 0.0]
    if len(r) == 0:
        return 0.0
    e, i = q / p, np.arange(len(r), dtype=float)
    # at i = 0, log1p(-1) = -inf and the cell is 1; an r_i/r_0 that
    # underflows to 0 reads log 0 = -inf, a term too small to count
    with np.errstate(divide="ignore"):
        logs = (q * np.log(r / r[0]) + e * np.log1p(i)
                + np.log(-np.expm1(e * np.log1p(-1.0 / (i + 1.0)))))
    top = float(logs.max())
    return float(r[0]) * math.exp((top + math.log(float(np.sum(np.exp(logs - top))))) / q)


def _layer_dyadic_lorentz(values: np.ndarray, nj_scale: float, meas: float, p: float, r: float) -> float:
    """Dyadic Lorentz functional of one layer: the l^r norm of its level heights.

    Level u has the height x_u = 2^u (meas * c_u)^(1/p), or 2^u at p = inf,
    c_u the count of heights nj_scale * values above 2^u, for u from u0,
    the largest u below every height, to the largest u below the top one.
    The levels below u0 count every height, a geometric block, so x_u0^r
    is divided by 1 - 2^-r.  The r-th powers come from _powers; at r = inf
    the norm is the largest x_u.  Past double range it reads inf or raises
    OverflowError.
    """
    v = nj_scale * values[values > 0]
    if len(v) == 0:
        return 0.0
    asc = np.sort(v)

    def _below(x: float) -> int:
        # largest integer u with 2^u < x
        u = math.floor(math.log2(x))
        if 2.0**u >= x:
            u -= 1
        return u

    us = np.arange(_below(float(asc[0])), _below(float(asc[-1])) + 1, dtype=float)
    counts = len(asc) - np.searchsorted(asc, 2.0**us, side="right")
    with np.errstate(over="ignore"):  # an overflow reads inf, which the caller refuses
        heights = 2.0**us if math.isinf(p) else 2.0**us * (meas * counts) ** (1.0 / p)
        if math.isinf(r):
            return float(np.max(heights))
        powers, fac, peak = _powers(heights, r)
        powers[0] /= -math.expm1(-r * math.log(2.0))  # 1 - 2^-r, positive at every r > 0
        return float(np.sum(powers)) ** (1.0 / r) * peak / fac


def besov_lorentz_norm(field: CoeffField, s: float, p: float, q: float, r: float) -> float:
    """Besov scale of dyadic layer Lorentz functionals.

    Layer j contributes 2^(j*s) times the dyadic Lorentz functional of
    its height function 2^(n*j/2) f_j under the measure 2^(-n*j) * #;
    layers aggregate in l^q as the sequence field (_seq_field) of their
    terms, on the field scaled by _scaled_field at power 1 (its data enter
    linearly), whose power-of-two factor shifts every dyadic level exactly.
    NumericError when a layer term or a layer weight leaves double range.
    """
    if not (p > 0 and q > 0 and r > 0):
        raise UsageError("indices must be positive")
    field, fac = _scaled_field(field)
    n, terms = field.spec.n, []
    for j, v in enumerate(field.layers):
        try:
            L = _layer_dyadic_lorentz(v, 2.0 ** (n * j / 2.0), 2.0 ** (-n * j), p, r)
        except OverflowError:
            L = math.inf
        if not math.isfinite(L):
            raise NumericError(f"layer {j} Lorentz term at r={r:g} leaves double range")
        terms.append(L)
    return _unscaled(besov_norm(_seq_field(terms), BesovIndex(s - 0.5, math.inf, q)), fac,
                     "besov_lorentz_norm")
