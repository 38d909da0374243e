"""Checkpoint format: byte layout and roundtrip."""

import json
import struct

import numpy as np
import pytest

from marlab.errors import CheckpointError, ContractError, MarlabError
from marlab.nn import Parameter, load_checkpoint, read_records, save_checkpoint


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    params = [
        Parameter(rng.standard_normal((3, 4)), name="fc.weight"),
        Parameter(rng.standard_normal((1, 4)), name="fc.bias", group="comm"),
    ]
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)

    originals = [p.data.copy() for p in params]
    for p in params:
        p.data[...] = 0.0
    load_checkpoint(path, params)
    for p, orig in zip(params, originals):
        assert np.array_equal(p.data, orig)

    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert manifest["endianness"] == "little"
    assert [e["name"] for e in manifest["params"]] == ["fc.weight", "fc.bias"]
    assert manifest["params"][1]["group"] == "comm"


def test_binary_layout_is_length_prefixed_little_endian(tmp_path):
    p = Parameter(np.array([[1.5, -2.0]]), name="w")
    path = tmp_path / "one.bin"
    save_checkpoint([p], path)
    blob = path.read_bytes()

    name_len = struct.unpack_from("<Q", blob, 0)[0]
    assert name_len == 1
    assert blob[8:9] == b"w"
    rows, cols = struct.unpack_from("<QQ", blob, 9)
    assert (rows, cols) == (1, 2)
    values = struct.unpack_from("<2d", blob, 25)
    assert values == (1.5, -2.0)
    assert len(blob) == 8 + 1 + 16 + 16


def test_read_records_order_preserved(tmp_path):
    params = [Parameter(np.zeros((2, 2)), name=f"p{i}") for i in range(5)]
    path = tmp_path / "many.bin"
    save_checkpoint(params, path)
    names = [name for name, _ in read_records(path)]
    assert names == [f"p{i}" for i in range(5)]


def test_load_missing_param_raises(tmp_path):
    p = Parameter(np.zeros((1, 1)), name="present")
    path = tmp_path / "x.bin"
    save_checkpoint([p], path)
    other = Parameter(np.zeros((1, 1)), name="absent")
    with pytest.raises(ContractError, match="absent"):
        load_checkpoint(path, [other])


def test_load_shape_mismatch_raises(tmp_path):
    p = Parameter(np.zeros((2, 2)), name="w")
    path = tmp_path / "x.bin"
    save_checkpoint([p], path)
    wrong = Parameter(np.zeros((2, 3)), name="w")
    with pytest.raises(ContractError, match="shape"):
        load_checkpoint(path, [wrong])


@pytest.mark.parametrize("keep, offset", [
    (5, 0),     # inside the first name length
    (20, 17),   # inside the column count of the first record
    (-3, -24),  # inside the 3 values of the last record
])
def test_truncated_file_names_path_and_offset(tmp_path, keep, offset):
    params = [Parameter(np.arange(4.0).reshape(2, 2), name="w"),
              Parameter(np.ones((1, 3)), name="b")]
    path = tmp_path / "cut.bin"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    offset %= len(blob)
    path.write_bytes(blob[:keep])
    with pytest.raises(CheckpointError, match=f"truncated at byte {offset}:") as info:
        read_records(path)
    assert isinstance(info.value, MarlabError)
    assert str(path) in str(info.value)


def test_absurd_name_length_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<Q", 2**62) + b"w")
    with pytest.raises(CheckpointError, match="byte 8"):
        read_records(path)


def test_name_that_is_not_utf8_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<Q", 1) + b"\xff" + struct.pack("<QQ", 0, 0))
    with pytest.raises(CheckpointError, match="byte 8 is not utf-8"):
        read_records(path)
