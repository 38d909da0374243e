"""Deterministic random-number streams.

Every source of randomness in the package is keyed by (seed, purpose,
counters...).  Runs are therefore pure functions of their seed, and
training can resume from a checkpoint bit-exactly: the stream for a given
(purpose, step) is the same no matter when it is created.
"""

import functools
import hashlib

import numpy as np

from .errors import ContractError


@functools.lru_cache(maxsize=256)
def _str_int(key: str) -> int:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _key_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ContractError(f"stream keys must be nonnegative, got {key}")
        return int(key)
    if isinstance(key, str):
        return _str_int(key)
    raise ContractError(f"stream keys must be int or str, got {type(key).__name__}")


def stream(seed: int, *keys) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, *keys)."""
    entropy = [_key_int(seed)] + [_key_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def unit_uniform(seed: int, *keys) -> float:
    """One uniform draw in [0, 1) from the keyed stream, without the cost of
    constructing a full generator.  Independent of stream() draws."""
    text = "".join([f"{_key_int(k)}|" for k in (seed,) + keys])   # "seed|key|...|"
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64
