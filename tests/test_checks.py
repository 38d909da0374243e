"""Invariant suite: the QMIX gradient check near the |.| kink."""

import numpy as np
import pytest

from marlab.checks import check_gradient_qmix
from marlab.nn import tensor as T


def absolute_with_identity_backward(a):
    """|a| whose backward passes the gradient through unchanged (wrong for a < 0)."""
    def backward(g):
        T._accum(a, g)

    return T._result(np.abs(a.data), (a,), backward)


@pytest.mark.parametrize("seed", [115, 311])
def test_gradient_qmix_passes_where_a_weight_sits_at_the_kink(seed):
    # at these seeds the first state draw puts a pre-|.| weight within one
    # finite-difference step of 0; the check redraws that state
    ok, detail = check_gradient_qmix(seed, "none")
    assert ok, detail
    assert "state redraws 0" not in detail


@pytest.mark.parametrize("seed", [0, 115, 311])
def test_gradient_qmix_catches_a_wrong_absolute_backward(monkeypatch, seed):
    monkeypatch.setattr(T, "absolute", absolute_with_identity_backward)
    ok, detail = check_gradient_qmix(seed, "none")
    assert not ok, detail
