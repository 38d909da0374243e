"""Communication stack: zero-init passthrough, equivariance, size invariance."""

import numpy as np
import pytest

from marlab.agents import make_team
from marlab.comm import CommSettings, CommStack
from marlab.errors import ConfigError
from marlab.learner import Learner, TrainConfig
from marlab.nn import Dense, EncoderLayer, Tensor, TrainContext
from marlab.nn import tensor as T

from gradients import check_op


def small_stack(seed, **kw):
    settings = dict(num_layers=1, ffn_dim=16, heads=2, dropout=0.1)
    settings.update(kw)
    return CommStack(CommSettings(**settings), model_dim=8, seed=seed)


def warmed_stack(seed=0, **kw):
    """A stack whose output projection is no longer zero (as if trained)."""
    stack = small_stack(seed, **kw)
    rng = np.random.default_rng(seed + 100)
    stack.out_proj.weight.data[...] = rng.standard_normal(stack.out_proj.weight.shape) * 0.5
    stack.out_proj.bias.data[...] = rng.standard_normal(stack.out_proj.bias.shape) * 0.1
    return stack


class TestInit:
    def test_fresh_stack_outputs_exact_zero(self):
        stack = small_stack(3)
        for trial in range(5):
            h = Tensor(np.random.default_rng(trial).standard_normal((4, 8)))
            z = stack(h)
            assert np.all(z.data == 0.0)

    def test_same_seed_bit_identical_params(self):
        a = small_stack(7)
        b = small_stack(7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError):
            CommSettings(num_layers=0)

    def test_width_not_divisible_by_heads_rejected(self):
        with pytest.raises(ConfigError, match="heads"):
            CommStack(CommSettings(heads=3), model_dim=8, seed=0)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError, match="heads"):
            CommStack(CommSettings(heads=3), model_dim=0, seed=0)

    def test_all_params_in_comm_group(self):
        # the learner's comm optimizer trains exactly the stack's parameters,
        # and a team without a stack has no comm optimizer
        def learner(enabled):
            settings = CommSettings(enabled=enabled, num_layers=2, ffn_dim=16, heads=2)
            team = make_team(obs_dim=3, n_actions=2, n_agents=3, state_dim=4,
                             hidden_dim=8, mixer_kind="qmix", comm=settings, seed=1)
            return Learner(team, TrainConfig(), seed=0)

        with_stack = learner(True)
        comm = with_stack.team.comm.parameters()
        assert with_stack.opt_comm.params == comm
        assert not {id(p) for p in comm} & {id(p) for p in with_stack.opt_main.params}
        assert learner(False).opt_comm is None


class TestCommunicate:
    def test_passthrough_at_init_residual_is_identity(self):
        stack = small_stack(5)
        h = Tensor(np.random.default_rng(0).standard_normal((3, 8)))
        z = stack(h)
        assert np.array_equal(T.add(h, z).data, h.data)

    def test_permutation_equivariance(self):
        stack = warmed_stack(seed=11, num_layers=2)
        gen = np.random.default_rng(1)
        for _ in range(20):
            h = gen.standard_normal((5, 8))
            perm = gen.permutation(5)
            z = stack(Tensor(h)).data
            z_perm = stack(Tensor(h[perm])).data
            assert np.abs(z_perm - z[perm]).max() <= 1e-6

    def test_mask_isolating_agent_matches_subset_run(self):
        stack = warmed_stack(seed=13)
        h3 = np.random.default_rng(2).standard_normal((3, 8))
        mask = np.array([
            [True, True, False],
            [True, True, False],
            [False, False, True],
        ])
        z_full = stack(Tensor(h3), mask=mask).data
        z_sub = stack(Tensor(h3[:2])).data
        assert np.allclose(z_full[:2], z_sub, atol=1e-12)

    def test_gradient_reaches_every_hidden_state(self):
        from marlab.nn import Parameter

        stack = warmed_stack(seed=17)
        h = Parameter(np.random.default_rng(3).standard_normal((3, 8)), name="h")
        for i in range(3):
            h.grad = None
            z = stack(h)
            row_i = np.zeros((3, 8))
            row_i[i] = 1.0
            T.tsum(T.mul(z, row_i)).backward()
            per_row = np.abs(h.grad).sum(axis=1)
            assert np.all(per_row > 0), f"row {i} increment ignores some agent"

    def test_gradients_match_finite_differences(self):
        stack = warmed_stack(seed=19, dropout=0.0)
        h = Tensor(np.random.default_rng(4).standard_normal((3, 8)))
        w = np.random.default_rng(5).standard_normal((3, 8))
        check_op(lambda: T.tsum(T.mul(stack(h), w)), stack.parameters(), tol=1e-3)

    def test_train_mode_uses_dropout_eval_does_not(self):
        stack = warmed_stack(seed=23, dropout=0.5)
        h = Tensor(np.random.default_rng(6).standard_normal((4, 8)))
        eval_a = stack(h).data
        eval_b = stack(h).data
        train = stack(h, ctx=TrainContext(seed=1, step=0)).data
        assert np.array_equal(eval_a, eval_b)
        assert not np.array_equal(eval_a, train)


class TestParamCount:
    def test_count_independent_of_team_size(self):
        # the stack never sees n at construction; exercising it with
        # different team sizes cannot change the parameter count
        stack = small_stack(29)
        before = stack.param_count()
        for n in (2, 8, 27):
            stack(Tensor(np.zeros((n, 8))))
        assert stack.param_count() == before

    def test_count_decomposes_into_layers_plus_projection(self):
        one = small_stack(31, num_layers=1)
        two = small_stack(31, num_layers=2)
        rng = np.random.default_rng(0)
        layer = EncoderLayer(8, 2, 16, 0.1, rng, "probe")
        proj = Dense(8, 8, rng, "probe_proj")
        assert one.param_count() == layer.param_count() + proj.param_count()
        assert two.param_count() == 2 * layer.param_count() + proj.param_count()
