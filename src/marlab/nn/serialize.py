"""Binary checkpoint format for named parameter arrays.

A checkpoint is a flat sequence of records, every integer little-endian
64-bit unsigned, every value little-endian float64:

    [u64 name_len][name utf-8][u64 rows][u64 cols][rows*cols f64 values]

A JSON manifest alongside lists the records so checkpoints are inspectable
without parsing binary.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..errors import CheckpointError, ContractError
from .tensor import Parameter

FORMAT_NAME = "marlab-params-v1"
_U64 = struct.Struct("<Q")


def write_records(path, records: Iterable[tuple[str, np.ndarray]]):
    with open(path, "wb") as fh:
        for name, arr in records:
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim != 2:
                raise ContractError(f"record {name!r} must be 2-D, got ndim {arr.ndim}")
            raw = name.encode("utf-8")
            fh.write(_U64.pack(len(raw)))
            fh.write(raw)
            fh.write(_U64.pack(arr.shape[0]))
            fh.write(_U64.pack(arr.shape[1]))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def read_records(path) -> list[tuple[str, np.ndarray]]:
    out = []
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    pos = 0

    def take(size: int, what: str) -> int:
        """Offset of the next `size` bytes, which must all be in the file."""
        nonlocal pos
        if size > len(blob) - pos:
            raise CheckpointError(f"{path}: truncated at byte {pos}: {what} needs "
                                  f"{size} bytes, {len(blob) - pos} left")
        start, pos = pos, pos + size
        return start

    def take_u64(what: str) -> int:
        return _U64.unpack_from(blob, take(8, what))[0]

    while pos < len(blob):
        name_len = take_u64("a name length")
        start = take(name_len, "a record name")
        try:
            name = blob[start : start + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: record name at byte {start} is not utf-8") from exc
        rows = take_u64(f"the row count of {name!r}")
        cols = take_u64(f"the column count of {name!r}")
        count = rows * cols
        start = take(count * 8, f"the values of {name!r}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start).reshape(rows, cols)
        out.append((name, arr.astype(np.float64)))
    return out


def save_checkpoint(params: Sequence[Parameter], bin_path, extra: dict | None = None):
    """Write parameters plus a JSON manifest describing them, beside bin_path
    with the suffix .json."""
    bin_path = Path(bin_path)
    write_records(bin_path, ((p.name, p.data) for p in params))
    manifest = {
        "format": FORMAT_NAME,
        "endianness": "little",
        "record_layout": "u64 name_len | name utf-8 | u64 rows | u64 cols | rows*cols f64",
        "params": [
            {"name": p.name, "rows": p.rows, "cols": p.cols} for p in params
        ],
    }
    if extra:
        manifest["extra"] = extra
    bin_path.with_suffix(".json").write_text(json.dumps(manifest, indent=2))


def load_records(path, targets: Iterable[tuple[str, np.ndarray]]):
    """Fill each (name, array) target in place from the record of that name."""
    stored = dict(read_records(path))
    for name, target in targets:
        if name not in stored:
            raise ContractError(f"{path}: checkpoint is missing parameter {name!r}")
        arr = stored[name]
        if arr.shape != target.shape:
            raise ContractError(
                f"{path}: checkpoint shape {arr.shape} does not match {name} {target.shape}")
        target[...] = arr


def load_checkpoint(bin_path, params: Sequence[Parameter]):
    """Fill the given parameters in place from a checkpoint file."""
    load_records(bin_path, ((p.name, p.data) for p in params))
