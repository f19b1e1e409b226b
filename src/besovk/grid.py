"""Truncated dyadic grids and smoothness indices.

A grid holds J scale layers, layer j carrying a finite index set of
``layer_sizes[j]`` coefficient slots.  Positions inside a layer are
abstract: every operation here depends only on coefficient magnitudes,
so a layer is just a bag of numbers.  The ambient dimension n enters
through the layer weights 2^(j*(s + n/2 - n/p)) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, UsageError

__all__ = ["GridSpec", "BesovIndex", "layer_weight", "validate_compat"]


@dataclass(frozen=True)
class GridSpec:
    """Shape of a truncated grid: dimension, layer count, layer sizes."""

    n: int
    J: int
    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(m) for m in self.layer_sizes))
        if self.n < 1 or int(self.n) != self.n:
            raise UsageError(f"dimension n must be a positive integer, got {self.n}")
        if self.J < 1 or int(self.J) != self.J:
            raise UsageError(f"layer count J must be a positive integer, got {self.J}")
        if len(self.layer_sizes) != self.J:
            raise UsageError(
                f"expected {self.J} layer sizes, got {len(self.layer_sizes)}"
            )
        if any(m < 1 for m in self.layer_sizes):
            raise UsageError("layer sizes must be positive")

    @property
    def total_coeffs(self) -> int:
        return sum(self.layer_sizes)


@dataclass(frozen=True)
class BesovIndex:
    """Index triple (s, p, q): smoothness, inner exponent, outer exponent.

    p and q live in (0, inf]; math.inf selects the sup forms everywhere.
    """

    s: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise UsageError(f"smoothness s must be finite, got {self.s}")
        for name, v in (("p", self.p), ("q", self.q)):
            if math.isnan(v) or v <= 0:
                raise UsageError(f"index {name} must lie in (0, inf], got {v}")

    def weight_exponent(self, n: int) -> float:
        # n/p -> 0 at p = inf
        return self.s + n / 2 - (0.0 if math.isinf(self.p) else n / self.p)


def layer_weight(spec: GridSpec, index: BesovIndex, j: int) -> float:
    """Dyadic weight 2^(j * (s + n/2 - n/p)) of layer j; NumericError past
    double range (a weight that underflows is 0)."""
    if not 0 <= j < spec.J:
        raise IndexError(f"layer {j} outside [0, {spec.J})")
    e = j * index.weight_exponent(spec.n)
    try:
        return 2.0**e
    except OverflowError:
        raise NumericError(f"layer {j} has weight 2^{e:g}, past double range") from None


def validate_compat(spec: GridSpec, layers) -> None:
    """Check a sequence of per-layer coefficient vectors matches the grid."""
    sizes = [len(v) for v in layers]
    if len(sizes) != spec.J:
        raise UsageError(f"field has {len(sizes)} layers, grid expects {spec.J}")
    for j, (got, want) in enumerate(zip(sizes, spec.layer_sizes)):
        if got != want:
            raise UsageError(f"layer {j} has {got} coefficients, grid expects {want}")
