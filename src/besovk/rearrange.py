"""Nonincreasing rearrangements and their power integrals.

A finite nonnegative vector v is identified with the step function
taking value sorted(v)[i] on the unit cell [i, i+1).  Its rearrangement
integrals are then exact finite sums; a fractional upper limit T picks
up frac(T) of the cell it lands in.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, UsageError

__all__ = [
    "distribution_count",
    "rearrangement",
    "partial_power_integral",
    "tail_power_integral",
    "threshold_split",
]


def _as_clean_array(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise UsageError(f"expected a flat vector, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise DataError("vector contains NaN")
    if (arr < 0).any():
        raise DataError("vector must be nonnegative")
    return arr


def _as_rearrangement(r) -> np.ndarray:
    """r as a clean vector (_as_clean_array), refused (UsageError) unless nonincreasing."""
    arr = _as_clean_array(r)
    if (arr[1:] > arr[:-1]).any():
        raise UsageError("r must be nonincreasing (a rearrangement)")
    return arr


def distribution_count(v, lam: float) -> int:
    """Number of entries strictly above lam."""
    arr = _as_clean_array(v)
    return int(np.count_nonzero(arr > lam))


def rearrangement(v) -> np.ndarray:
    """Entries sorted in nonincreasing order."""
    return np.sort(_as_clean_array(v))[::-1]


def _split_limit(r: np.ndarray, T: float) -> tuple[int, float]:
    # clamp before int(): T may be astronomically large
    if math.isnan(T) or T < 0:
        raise UsageError(f"integral limit must be >= 0, got {T}")
    m = len(r)
    if T >= m:
        return m, 0.0
    k = int(T)
    return k, T - k


def partial_power_integral(r, p: float, T: float) -> float:
    """Integral of (f*)^p over [0, T] for the step function of r.

    r must already be a rearrangement: a flat, nonnegative and
    nonincreasing vector, else UsageError (DataError for a NaN or a
    negative entry); p > 0 finite, else UsageError.
    """
    if not 0 < p < math.inf:
        raise UsageError(f"partial_power_integral requires finite p > 0, got p = {p}")
    arr = _as_rearrangement(r)
    k, frac = _split_limit(arr, T)
    total = float(np.sum(arr[:k] ** p))
    if frac > 0.0:
        total += frac * float(arr[k] ** p)
    return total


def tail_power_integral(r, p: float, T: float) -> float:
    """Integral of (f*)^p over [T, inf); zero once T passes len(r).
    r and p as partial_power_integral takes them."""
    if not 0 < p < math.inf:
        raise UsageError(f"tail_power_integral requires finite p > 0, got p = {p}")
    arr = _as_rearrangement(r)
    k, frac = _split_limit(arr, T)
    total = float(np.sum(arr[k:] ** p))
    if frac > 0.0:
        total -= frac * float(arr[k] ** p)
    return total


def threshold_split(v, T: float):
    """Partition indices of v into the floor(T) largest and the rest.

    Ties broken by ascending original index.  Returns
    (big_indices, small_indices, boundary_fraction) with
    boundary_fraction = frac(T), the weight of the first small cell in
    the fractional integral reading.
    """
    arr = _as_clean_array(v)
    k, frac = _split_limit(arr, T)
    # stable sort on -v keeps ascending index order within ties
    order = np.argsort(-arr, kind="stable")
    big = np.sort(order[:k])
    small = np.sort(order[k:])
    return big, small, frac
