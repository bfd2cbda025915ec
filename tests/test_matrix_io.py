"""Round trips through the JSON and binary matrix formats."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavlab import TracedMatrix
from pavlab.matrix_io import load_binary, load_json, load_matrix, save_binary, save_json


def sample(dim, seed):
    rng = np.random.default_rng(seed)
    return TracedMatrix(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def test_json_round_trip_bit_exact(tmp_path):
    x = sample(5, 0)
    p = tmp_path / "m.json"
    save_json(x, p)
    y = load_json(p)
    assert np.array_equal(x.entries, y.entries)


def test_json_layout(tmp_path):
    x = TracedMatrix(np.array([[1 + 2j]]))
    p = tmp_path / "one.json"
    save_json(x, p)
    obj = json.loads(p.read_text())
    assert obj == {"dim": 1, "entries": [[[1.0, 2.0]]]}


def test_binary_round_trip_bit_exact(tmp_path):
    x = sample(7, 1)
    p = tmp_path / "m.pvlb"
    save_binary(x, p)
    y = load_binary(p)
    assert np.array_equal(x.entries, y.entries)


def test_binary_header(tmp_path):
    x = sample(3, 2)
    p = tmp_path / "m.pvlb"
    save_binary(x, p)
    raw = p.read_bytes()
    assert raw[:4] == b"PVLB"
    assert int.from_bytes(raw[4:8], "little") == 3
    assert len(raw) == 16 + 3 * 3 * 16


def test_binary_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError):
        load_binary(p)


def test_dispatch_on_content(tmp_path):
    x = sample(4, 3)
    pj, pb = tmp_path / "a", tmp_path / "b"
    save_json(x, pj)
    save_binary(x, pb)
    assert np.array_equal(load_matrix(pj).entries, x.entries)
    assert np.array_equal(load_matrix(pb).entries, x.entries)


@pytest.mark.parametrize("obj", [
    {"entries": [[[1.0, 0.0]]]},
    {"dim": 1, "entries": [[["a", 0.0]]]},
    {"dim": 1, "entries": [[[None, 0.0]]]},
    {"dim": 1},
    [1, 2],
    # a dim that is not an int: int() read 2.7 as 2, true as 1 and "1" as 1
    {"dim": 2.7, "entries": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    {"dim": 1.0, "entries": [[[1.0, 0.0]]]},
    {"dim": True, "entries": [[[1.0, 0.0]]]},
    {"dim": "1", "entries": [[[1.0, 0.0]]]},
])
def test_malformed_json_raises_value_error(tmp_path, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_json(p)


def test_json_nested_too_deeply_raises_value_error(tmp_path):
    # the parser raised RecursionError
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_matrix(p)


finite = st.floats(allow_nan=False, allow_infinity=False)  # includes -0.0 and subnormals


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trips_bit_exact_property(tmp_path_factory, data):
    dim = data.draw(st.integers(1, 4))
    parts = data.draw(st.lists(finite, min_size=2 * dim * dim, max_size=2 * dim * dim))
    x = TracedMatrix(np.array(parts).view(np.complex128).reshape(dim, dim))
    d = tmp_path_factory.mktemp("rt")
    save_json(x, d / "m.json")
    save_binary(x, d / "m.pvlb")
    for y in (load_json(d / "m.json"), load_binary(d / "m.pvlb")):
        assert y.entries.tobytes() == x.entries.tobytes()
