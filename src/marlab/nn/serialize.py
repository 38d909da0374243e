"""Binary record format for named 2-D arrays: parameters and optimizer state.

A record file is a flat sequence of records, every integer little-endian
64-bit unsigned, every value little-endian float64:

    [u64 name_len][name utf-8][u64 rows][u64 cols][rows*cols f64 values]

No manifest is written beside the file: read_records lists its names and
shapes.

float32 arrays, such as a trained team's parameters and optimizer state, are
widened to float64 on writing, which is exact, so loading them back into
float32 arrays restores every bit.  A load that would change a value, such
as a float64-trained record read into a float32 array, is refused with
CheckpointError instead of rounding it.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from ..errors import CheckpointError, ContractError

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


def load_records(path, targets: Iterable[tuple[str, np.ndarray]]):
    """Fill each (name, array) target in place from the record of that name;
    a record the target's dtype cannot hold exactly raises CheckpointError."""
    stored = dict(read_records(path))
    for name, target in targets:
        if name not in stored:
            raise ContractError(f"{path}: checkpoint is missing parameter {name!r}")
        arr = stored[name]
        if arr.shape != target.shape:
            raise ContractError(
                f"{path}: checkpoint shape {arr.shape} does not match {name} {target.shape}")
        with np.errstate(over="ignore"):   # a value past the dtype's range is refused below
            target[...] = arr
        if not np.array_equal(target, arr, equal_nan=True):
            raise CheckpointError(f"{path}: record {name!r} does not fit a "
                                  f"{target.dtype} array exactly; refusing to round it")

