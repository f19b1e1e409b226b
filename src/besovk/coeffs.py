"""Coefficient fields on a truncated grid, generators, and file I/O.

A field stores one nonnegative magnitude per grid slot.  Signs and
phases are irrelevant to every norm and K-functional here, so they are
stripped on entry (abs_reduce); NaN, inf and layers that are not 1-D
are rejected rather than silently propagated.

File format (JSON)::

    {"n": 1, "layers": [{"j": 0, "coeffs": [0.5, 1.0]}, {"j": 1, "coeffs": [0.25]}]}

``n`` and each ``j`` are JSON integers; layers must be sorted by j,
contiguous from 0, with nonnegative finite numbers as coefficients (not
booleans, strings or nested lists; an integer past double range reads
as inf, like 1e400).  The writer emits exactly this shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .grid import GridSpec, validate_compat

__all__ = [
    "CoeffField",
    "abs_reduce",
    "generate",
    "GENERATOR_KINDS",
    "write_field",
    "read_field",
]

GENERATOR_KINDS = ("uniform-random", "lacunary", "single-spike", "geometric-decay")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CoeffField:
    """Nonnegative coefficient magnitudes, one vector per layer."""

    spec: GridSpec
    layers: tuple

    def __post_init__(self):
        layers = tuple(_freeze(np.asarray(v, dtype=float)) for v in self.layers)
        for j, v in enumerate(layers):
            if v.ndim != 1:
                raise DataError(f"layer {j} has shape {v.shape}; a layer is 1-D")
        validate_compat(self.spec, layers)
        vmax = 0.0
        for j, v in enumerate(layers):
            if not np.isfinite(v).all():
                bad = "NaN" if np.isnan(v).any() else "inf"
                raise DataError(f"layer {j} contains {bad}")
            if (v < 0).any():
                raise DataError(f"layer {j} has negative magnitudes")
            vmax = max(vmax, float(v.max()))
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_max", vmax)

    def scaled(self, c: float) -> "CoeffField":
        if c < 0:
            raise UsageError("scale factor must be nonnegative")
        return CoeffField(self.spec, tuple(c * v for v in self.layers))

    def max_abs(self) -> float:
        """The largest entry, found once when the field is built."""
        return self._max


def abs_reduce(spec: GridSpec, raw_layers) -> CoeffField:
    """Build a field from signed/complex per-layer data by taking moduli;
    CoeffField refuses a NaN modulus (DataError)."""
    return CoeffField(spec, tuple(np.abs(np.asarray(raw)) for raw in raw_layers))


def generate(spec: GridSpec, kind: str, seed: int) -> CoeffField:
    """Deterministic test fields.  Same (spec, kind, seed) -> same field.

    - uniform-random: iid uniform on (0, 1]
    - lacunary: layer j constant near 2^(-j^2), widening dyadic gaps
    - single-spike: a single coefficient equal to 1, position seeded
    - geometric-decay: magnitudes shrinking geometrically in flat rank
    """
    if kind not in GENERATOR_KINDS:
        raise UsageError(f"unknown generator kind {kind!r}; pick from {GENERATOR_KINDS}")
    if int(seed) < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(int(seed))
    layers = []
    if kind == "uniform-random":
        for m in spec.layer_sizes:
            layers.append(1.0 - rng.random(m))
    elif kind == "lacunary":
        for j, m in enumerate(spec.layer_sizes):
            jitter = 0.5 + 0.5 * (1.0 - rng.random(m))
            layers.append(2.0 ** (-float(j * j)) * jitter)
    elif kind == "single-spike":
        flat = int(rng.integers(0, spec.total_coeffs))
        for m in spec.layer_sizes:
            v = np.zeros(m)
            if 0 <= flat < m:
                v[flat] = 1.0
            flat -= m
            layers.append(v)
    elif kind == "geometric-decay":
        rank = 0
        for m in spec.layer_sizes:
            jitter = 0.75 + 0.25 * (1.0 - rng.random(m))
            layers.append(0.8 ** (rank + np.arange(m)) * jitter)
            rank += m
    return CoeffField(spec, tuple(layers))


def field_payload(field: CoeffField) -> dict:
    """The on-disk document shape for a coefficient field."""
    return {
        "n": field.spec.n,
        "layers": [
            {"j": j, "coeffs": [float(x) for x in field.layers[j]]}
            for j in range(field.spec.J)
        ],
    }


def write_field(field: CoeffField, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_payload(field), fh, indent=2)
        fh.write("\n")


def read_field(path) -> CoeffField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=lambda s: int(s) if np.isfinite(float(s)) else float(s))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "n" not in doc or "layers" not in doc:
        raise DataError(f"{path}: expected an object with 'n' and 'layers'")
    n = doc["n"]
    # JSON true and false load as bool, which Python counts as an int
    if type(n) is not int or n < 1:
        raise DataError(f"{path}: 'n' must be a positive integer")
    entries = doc["layers"]
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{path}: 'layers' must be a nonempty list")
    layers = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "j" not in entry or "coeffs" not in entry:
            raise DataError(f"{path}: layer {pos} must carry 'j' and 'coeffs'")
        if type(entry["j"]) is not int:
            raise DataError(f"{path}: layer {pos} has a 'j' that is not an integer")
        if entry["j"] != pos:
            raise DataError(
                f"{path}: layers must be contiguous from 0, found j={entry['j']} at slot {pos}"
            )
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, list) or not coeffs:
            raise DataError(f"{path}: layer {pos} has no coefficients")
        if not all(type(c) in (int, float) for c in coeffs):
            raise DataError(f"{path}: layer {pos} has coefficients that are not numbers")
        arr = np.asarray(coeffs, dtype=float)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: layer {pos} has non-finite coefficients")
        if (arr < 0).any():
            raise DataError(f"{path}: layer {pos} has negative coefficients")
        layers.append(arr)
    spec = GridSpec(n=n, J=len(layers), layer_sizes=tuple(len(v) for v in layers))
    return CoeffField(spec, tuple(layers))
