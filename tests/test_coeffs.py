import json
import math

import numpy as np
import pytest

from besovk.coeffs import (
    GENERATOR_KINDS,
    CoeffField,
    abs_reduce,
    generate,
    read_field,
    write_field,
)
from besovk.errors import DataError, UsageError
from besovk.grid import GridSpec


def test_abs_reduce_complex_moduli():
    spec = GridSpec(n=1, J=1, layer_sizes=(2,))
    field = abs_reduce(spec, [np.array([-3.0 + 0j, 4.0j])])
    assert field.layers[0].tolist() == [3.0, 4.0]


def test_abs_reduce_zero_fixed_point():
    spec = GridSpec(n=1, J=2, layer_sizes=(2, 1))
    field = abs_reduce(spec, [[0.0, 0.0], [0.0]])
    assert field.layers[0].tolist() == [0.0, 0.0]
    assert field.layers[1].tolist() == [0.0]


def test_abs_reduce_matches_per_entry_abs():
    rng = np.random.default_rng(5)
    spec = GridSpec(n=1, J=3, layer_sizes=(4, 2, 5))
    raw = [rng.normal(size=m) for m in spec.layer_sizes]
    field = abs_reduce(spec, raw)
    for j, layer in enumerate(raw):
        for g, x in zip(field.layers[j], layer):
            assert g == abs(x)


def test_abs_reduce_rejects_nan():
    spec = GridSpec(n=1, J=1, layer_sizes=(2,))
    with pytest.raises(DataError):
        abs_reduce(spec, [[1.0, math.nan]])


def test_field_requires_nonnegative_entries():
    spec = GridSpec(n=1, J=1, layer_sizes=(2,))
    with pytest.raises(DataError):
        CoeffField(spec, [np.array([1.0, -1.0])])


def test_field_refuses_inf_entries():
    # an inf entry gave besov_norm = inf and K = nan at every t
    spec = GridSpec(n=1, J=2, layer_sizes=(1, 2))
    with pytest.raises(DataError, match="layer 0 contains inf"):
        CoeffField(spec, [[math.inf], [1.0, 2.0]])
    with pytest.raises(DataError, match="layer 1 contains NaN"):
        CoeffField(spec, [[1.0], [math.inf, math.nan]])


def test_field_refuses_layers_that_are_not_1d():
    # len() of a (1, 2) array is 1, so the size check alone passed it
    with pytest.raises(DataError, match=r"layer 0 has shape \(1, 2\)"):
        CoeffField(GridSpec(n=1, J=1, layer_sizes=(1,)), [[[1.0, 2.0]]])


def test_generate_single_spike():
    field = generate(GridSpec(n=1, J=3, layer_sizes=(2, 2, 2)), "single-spike", 3)
    flat = np.concatenate(field.layers)
    assert np.count_nonzero(flat) == 1
    assert flat.max() == 1.0


def test_generate_deterministic():
    spec = GridSpec(n=1, J=2, layer_sizes=(4, 4))
    for kind in GENERATOR_KINDS:
        a = generate(spec, kind, 42)
        b = generate(spec, kind, 42)
        for la, lb in zip(a.layers, b.layers):
            assert la.tolist() == lb.tolist()


def test_generate_uniform_mean():
    spec = GridSpec(n=1, J=1, layer_sizes=(20000,))
    field = generate(spec, "uniform-random", 0)
    assert 0.4 < field.layers[0].mean() < 0.6


def test_generate_unknown_kind():
    with pytest.raises(UsageError):
        generate(GridSpec(n=1, J=1, layer_sizes=(1,)), "bogus", 0)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_refuses_a_negative_seed(kind):
    with pytest.raises(UsageError, match="seed must be a nonnegative integer, got -1"):
        generate(GridSpec(n=1, J=1, layer_sizes=(2,)), kind, -1)


def test_write_read_round_trip(tmp_path):
    spec = GridSpec(n=2, J=2, layer_sizes=(3, 1))
    field = CoeffField(spec, [np.array([0.5, 0.0, 2.25]), np.array([1.0])])
    path = tmp_path / "field.json"
    write_field(field, path)
    back = read_field(path)
    assert back.spec == spec
    for a, b in zip(back.layers, field.layers):
        assert a.tolist() == b.tolist()


def test_read_field_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        read_field(path)
    path.write_text(json.dumps({"n": 1}), encoding="utf-8")
    with pytest.raises(DataError):
        read_field(path)
    path.write_text(json.dumps(
        {"n": 1, "layers": [{"j": 0, "coeffs": [1.0, -2.0]}]}), encoding="utf-8")
    with pytest.raises(DataError):
        read_field(path)


def test_scaled_and_max_abs():
    spec = GridSpec(n=1, J=2, layer_sizes=(2, 1))
    field = CoeffField(spec, [np.array([1.0, 3.0]), np.array([2.0])])
    assert field.max_abs() == 3.0
    doubled = field.scaled(2.0)
    assert doubled.layers[0].tolist() == [2.0, 6.0]
    assert field.layers[0].tolist() == [1.0, 3.0]
    with pytest.raises(UsageError, match="scale factor must be nonnegative"):
        field.scaled(-2.0)
