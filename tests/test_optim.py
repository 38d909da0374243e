"""Optimizer update rules pinned against hand-computed steps."""

import math
import warnings

import numpy as np
import pytest

from marlab.comm import CommSettings
from marlab.config import EnvSpec, RunConfig
from marlab.errors import ContractError
from marlab.learner import TrainConfig
from marlab.nn import Adam, Parameter, RMSProp, clip_grad_norm
from marlab.runner import SeedRun


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


def test_clip_of_a_float32_norm_past_the_float32_range_scales_instead_of_zeroing():
    # 2e19 squared overflows float32; the norm is summed again in float64
    a = Parameter(np.zeros((1, 2), dtype=np.float32), name="a")
    a.grad = np.array([[2e19, 1.0]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = clip_grad_norm([a], max_norm=10.0)
    assert math.isclose(norm, 2e19, rel_tol=1e-6)
    assert a.grad.dtype == np.float32
    assert np.allclose(a.grad, [[10.0, 5e-19]], rtol=1e-6, atol=0.0)


def test_clip_of_a_finite_float32_norm_sums_in_float32():
    a = Parameter(np.zeros((2, 3), dtype=np.float32), name="a")
    a.grad = np.random.default_rng(7).standard_normal((2, 3)).astype(np.float32) * 1e3
    expected = math.sqrt(float((a.grad * a.grad).sum()))
    assert clip_grad_norm([a], max_norm=0.0) == expected


def make_optimizers():
    return (lambda ps: Adam(ps, lr=5e-4),
            lambda ps: RMSProp(ps, lr=5e-4, decay=0.99, eps=1e-5))


def assert_params_are_views_of_their_optimizers(run):
    owned = []
    for opt in run.learner.optimizers:
        for p in opt.params:
            assert p.data.base is opt.flat, p.name
        owned += opt.params
    assert sorted(p.name for p in owned) == sorted(p.name for p in run.team.parameters())


def test_team_parameters_stay_views_of_the_flat_state_through_a_resume(tmp_path):
    comm = CommSettings(enabled=True, num_layers=1, ffn_dim=8, heads=2, dropout=0.0)
    config = RunConfig(
        env=EnvSpec("cue_passing", {"n_agents": 2, "num_cues": 2}), mixer="qmix", comm=comm,
        train=TrainConfig(batch_size=4, buffer_capacity=50, anneal_steps=100, hidden_dim=8,
                          test_interval=20, test_episodes=2),
        total_env_steps=40, seeds=(1,), out_dir=str(tmp_path))
    run = SeedRun(config, seed=1, out_dir=tmp_path)
    assert_params_are_views_of_their_optimizers(run)
    run.run()
    assert run.learner.train_steps > 0
    assert_params_are_views_of_their_optimizers(run)
    run.save_state()
    fresh = SeedRun(config, seed=1, out_dir=tmp_path)
    fresh.load_state()
    assert_params_are_views_of_their_optimizers(fresh)
    for p, q in zip(run.team.parameters(), fresh.team.parameters()):
        assert p.data.tobytes() == q.data.tobytes()


@pytest.mark.parametrize("make", make_optimizers())
def test_mixed_parameter_dtypes_are_refused(make):
    params = [scalar_param(1.0, "a"), Parameter(np.ones((1, 1), dtype=np.float32), name="b")]
    with pytest.raises(ContractError, match="mix dtypes"):
        make(params)


@pytest.mark.parametrize("make", make_optimizers())
def test_a_rebound_parameter_is_refused_instead_of_trained_stale(make):
    p, q = scalar_param(1.0, "a"), scalar_param(2.0, "b")
    opt = make([p, q])
    q.data = q.data.copy()
    p.grad, q.grad = np.ones((1, 1)), np.ones((1, 1))
    with pytest.raises(ContractError, match="b.*rebound"):
        opt.step()
    assert opt.step_count == 0 and opt.flat.tolist() == [1.0, 2.0]
