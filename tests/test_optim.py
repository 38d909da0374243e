"""Optimizer update rules pinned against hand-computed steps."""

import numpy as np
import pytest

from marlab.errors import ContractError
from marlab.nn import Adam, Parameter, RMSProp, clip_grad_norm


def scalar_param(value, name="w"):
    return Parameter(np.array([[value]]), name=name)


def test_adam_first_step_bias_corrected():
    # g = 2.0, lr = 1e-3: update = -lr * g / (|g| + eps) on the first step
    p = scalar_param(1.0)
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([[2.0]])
    opt.step()
    expected = 1.0 - 1e-3 * (2.0 / (2.0 + 1e-8))
    assert abs(p.data[0, 0] - expected) < 1e-15


def test_rmsprop_first_step_epsilon_inside_sqrt():
    # g = 3.0, lr = 5e-4, decay 0.99, eps 1e-5:
    # update = -lr * g / sqrt(0.01 * 9 + 1e-5)
    p = scalar_param(0.0)
    opt = RMSProp([p], lr=5e-4, decay=0.99, eps=1e-5)
    p.grad = np.array([[3.0]])
    opt.step()
    expected = -5e-4 * 3.0 / np.sqrt(0.01 * 9.0 + 1e-5)
    assert abs(p.data[0, 0] - expected) < 1e-15


def test_zero_gradient_leaves_parameters_unchanged():
    for make in (lambda ps: Adam(ps, lr=5e-4),
                 lambda ps: RMSProp(ps, lr=5e-4, decay=0.99, eps=1e-5)):
        p = scalar_param(1.5)
        opt = make([p])
        p.grad = np.zeros((1, 1))
        opt.step()
        assert p.data[0, 0] == 1.5


def test_accumulators_decay_on_zero_gradient():
    p = scalar_param(1.0)
    opt = Adam([p], lr=0.0)
    p.grad = np.array([[2.0]])
    opt.step()
    m_before, v_before = opt.m[0].copy(), opt.v[0].copy()
    p.grad = np.zeros((1, 1))
    opt.step()
    assert np.allclose(opt.m[0], 0.9 * m_before)
    assert np.allclose(opt.v[0], 0.999 * v_before)


def test_missing_gradient_raises():
    p = scalar_param(1.0)
    opt = RMSProp([p], lr=5e-4, decay=0.99, eps=1e-5)
    with pytest.raises(ContractError, match="w"):
        opt.step()


def test_gradients_cleared_after_step():
    p = scalar_param(1.0)
    opt = Adam([p], lr=5e-4)
    p.grad = np.ones((1, 1))
    opt.step()
    assert p.grad is None


def test_step_count_monotonic():
    p = scalar_param(1.0)
    opt = Adam([p], lr=5e-4)
    for i in range(1, 4):
        p.grad = np.ones((1, 1))
        opt.step()
        assert opt.step_count == i


def test_clip_global_norm():
    a = Parameter(np.zeros((1, 2)), name="a")
    b = Parameter(np.zeros((1, 2)), name="b")
    a.grad = np.array([[3.0, 0.0]])
    b.grad = np.array([[0.0, 4.0]])
    norm = clip_grad_norm([a, b], max_norm=2.5)
    assert abs(norm - 5.0) < 1e-12
    clipped = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert abs(clipped - 2.5) < 1e-12


def test_clip_no_op_when_under_limit():
    a = Parameter(np.zeros((1, 1)), name="a")
    a.grad = np.array([[1.0]])
    norm = clip_grad_norm([a], max_norm=10.0)
    assert norm == 1.0 and a.grad[0, 0] == 1.0
