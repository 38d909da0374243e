"""Invariant suite: the QMIX gradient check near the |.| kink, and the
checks of the communication stack's claims catching what they claim to."""

import numpy as np
import pytest

from marlab.checks import (check_comm_param_count_team_size, check_deployment_equivalence,
                           check_gradient_qmix)
from marlab.comm import CommStack
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


@pytest.mark.parametrize("seed", [0, 115, 311])
def test_deployment_equivalence_catches_a_softmax_that_ignores_its_mask(monkeypatch, seed):
    assert check_deployment_equivalence(seed, "none")[0]
    masked_softmax = T._masked_softmax
    monkeypatch.setattr(T, "_masked_softmax",
                        lambda x, mask, what: masked_softmax(x, None, what))
    ok, detail = check_deployment_equivalence(seed, "none")
    assert not ok, detail


def test_comm_param_count_catches_a_parameter_added_by_a_forward(monkeypatch):
    # stacks of every team size grow alike, so only comparing one stack's
    # parameters before and after its forwards sees this
    assert check_comm_param_count_team_size(0, "none")[0]
    forward = CommStack.forward

    def growing(self, hidden, *args, **kwargs):
        self._param(np.zeros((1, 1)), f"comm.extra{len(self.parameters())}")
        return forward(self, hidden, *args, **kwargs)

    monkeypatch.setattr(CommStack, "forward", growing)
    ok, detail = check_comm_param_count_team_size(0, "none")
    assert not ok and "n = [2, 8, 27]" in detail, detail
