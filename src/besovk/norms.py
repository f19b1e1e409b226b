"""Sequence-space norms on truncated grids.

Besov norm: weighted l^q across layers of the l^p norms within layers,
with layer weight 2^(j*(s + n/2 - n/p)).  The Lorentz functionals use
exact unit-cell integrals of the nonincreasing rearrangement, and the
dyadic Besov-Lorentz variant measures level sets with the scaled
counting measure 2^(-n*j) * #.
"""

from __future__ import annotations

import math

import numpy as np

from .coeffs import CoeffField
from .errors import UsageError
from .grid import BesovIndex, layer_weight
from .rearrange import rearrangement

__all__ = [
    "lp_norm",
    "besov_norm",
    "main_grid_reduce",
    "weighted_lq_norm",
    "lorentz_seq_norm",
    "besov_lorentz_norm",
]


def _pow2_factor(vmax: float, window: float = 100.0) -> float:
    """The one rescaling rule: 1 when the largest entry vmax lies within
    2^(+-window), else the exact power of two, clamped to 2^(+-1000),
    that pulls vmax back toward 1.  Scaling by it is exact, and a
    clamped two-power factor cannot overflow the way 1/vmax can for
    subnormal data."""
    if 2.0**-window < vmax < 2.0**window:
        return 1.0
    return 2.0 ** max(min(-math.frexp(vmax)[1], 1000), -1000)


def lp_norm(v, p: float) -> float:
    """l^p quasi-norm of a nonnegative vector; sup at p = inf.

    The p-th powers are taken at the scale _pow2_factor picks, so that
    they neither underflow nor overflow; in range it is 1, and the
    result is bit for bit the unscaled one."""
    arr = np.asarray(v, dtype=float)
    if len(arr) == 0:
        return 0.0
    if math.isinf(p):
        return float(arr.max())
    fac = _pow2_factor(float(arr.max()))
    if fac != 1.0:
        arr = arr * fac
    return float((arr**p).sum() ** (1.0 / p)) / fac


def besov_norm(field: CoeffField, index: BesovIndex) -> float:
    """Weighted l^q across layers of the per-layer l^p norms."""
    terms = [
        layer_weight(field.spec, index, j) * lp_norm(field.layers[j], index.p)
        for j in range(field.spec.J)
    ]
    return lp_norm(terms, index.q)


def main_grid_reduce(field: CoeffField, p: float) -> np.ndarray:
    """Collapse each layer to its l^p norm; the main-grid sequence."""
    return np.array([lp_norm(v, p) for v in field.layers])


def weighted_lq_norm(a, s: float, q: float) -> float:
    """(sum_j (2^(j*s) a_j)^q)^(1/q) over a main-grid sequence."""
    arr = np.asarray(a, dtype=float)
    js = np.arange(len(arr))
    return lp_norm(2.0 ** (js * s) * arr, q)


def lorentz_seq_norm(v, p: float, q: float) -> float:
    """Discrete Lorentz functional of a nonnegative vector.

    Exact integral of (tau^(1/p) f*(tau))^q dtau/tau over the step
    rearrangement: sum_i f*[i]^q ((i+1)^(q/p) - i^(q/p)) to the 1/q,
    and sup_i (i+1)^(1/p) f*[i] when q = inf.  At p = q it telescopes
    to the plain l^p norm.
    """
    if math.isinf(p):
        raise UsageError("lorentz_seq_norm requires finite p")
    r = rearrangement(v)
    if len(r) == 0:
        return 0.0
    i = np.arange(len(r), dtype=float)
    if math.isinf(q):
        return float(np.max((i + 1.0) ** (1.0 / p) * r))
    cells = (i + 1.0) ** (q / p) - i ** (q / p)
    return float(np.sum(r**q * cells) ** (1.0 / q))


def _layer_dyadic_lorentz(values: np.ndarray, nj_scale: float, meas: float, p: float, r: float) -> float:
    """Dyadic Lorentz functional of one layer.

    values are the layer magnitudes, scaled to heights v = nj_scale * values;
    level sets are measured by meas * #{v > 2^u}.  Returns
    (sum_u (2^u)^r mu(u)^(r/p))^(1/r) with sums over all integers u,
    the block below the smallest positive height summed as an exact
    geometric series; sup form when r = inf.
    """
    v = nj_scale * values[values > 0]
    if len(v) == 0:
        return 0.0
    asc = np.sort(v)
    N = len(asc)
    vmax = float(asc[-1])
    vmin = float(asc[0])

    def _below(x: float) -> int:
        # largest integer u with 2^u < x
        u = math.floor(math.log2(x))
        if 2.0**u >= x:
            u -= 1
        return u

    umax = _below(vmax)  # count > 0 iff u <= umax
    u0 = _below(vmin)  # count == N for all u <= u0

    def mu_pow(count: np.ndarray, expo: float) -> np.ndarray:
        if math.isinf(p):
            return (count > 0).astype(float)
        return (meas * count) ** expo

    if math.isinf(r):
        us = np.arange(u0, umax + 1, dtype=float)
        counts = N - np.searchsorted(asc, 2.0**us, side="right")
        return float(np.max(2.0**us * mu_pow(counts, 1.0 / p)))

    total = 0.0
    if umax > u0:
        us = np.arange(u0 + 1, umax + 1, dtype=float)
        counts = N - np.searchsorted(asc, 2.0**us, side="right")
        total += float(np.sum((2.0 ** (us * r)) * mu_pow(counts, r / p)))
    # exact geometric block where every entry clears the level
    head = 1.0 if math.isinf(p) else (meas * N) ** (r / p)
    total += head * 2.0 ** (u0 * r) / (1.0 - 2.0 ** (-r))
    return total ** (1.0 / r)


def besov_lorentz_norm(field: CoeffField, s: float, p: float, q: float, r: float) -> float:
    """Besov scale of dyadic layer Lorentz functionals.

    Layer j contributes 2^(j*s) times the dyadic Lorentz functional of
    its height function 2^(n*j/2) f_j under the measure 2^(-n*j) * #;
    layers aggregate in l^q.
    """
    if p <= 0 or q <= 0 or r <= 0:
        raise UsageError("indices must be positive")
    n = field.spec.n
    terms = []
    for j in range(field.spec.J):
        L = _layer_dyadic_lorentz(
            field.layers[j], 2.0 ** (n * j / 2.0), 2.0 ** (-n * j), p, r
        )
        terms.append(L)
    return weighted_lq_norm(np.asarray(terms), s, q)
