"""Keyed random streams: a key that names no stream is a ContractError."""

import numpy as np
import pytest

from marlab.errors import ContractError
from marlab.rng import stream, unit_uniform


@pytest.mark.parametrize("draw", [stream, unit_uniform])
@pytest.mark.parametrize("keys", [(-1,), (0, -3), (0, np.int64(-1))])
def test_a_negative_key_is_a_contract_error(draw, keys):
    with pytest.raises(ContractError, match="nonnegative"):
        draw(*keys)


@pytest.mark.parametrize("draw", [stream, unit_uniform])
@pytest.mark.parametrize("keys", [(1.5,), (0, None), (0, b"act")])
def test_a_key_neither_int_nor_str_is_a_contract_error(draw, keys):
    with pytest.raises(ContractError, match="int or str"):
        draw(*keys)
