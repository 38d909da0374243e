"""Agent network and team forward pass."""

import numpy as np
import pytest

from marlab.agents import AgentNet, TeamModel, build_inputs, make_team
from marlab.comm import CommSettings
from marlab.errors import ShapeError
from marlab.learner import Learner, TrainConfig
from marlab.nn import Parameter, Tensor
from marlab.nn.gradcheck import max_gradient_error
from marlab.nn import tensor as T


def small_team(mixer="vdn", comm=True, residual=True, seed=0, n=3):
    settings = CommSettings(enabled=comm, num_layers=1, ffn_dim=16, heads=2,
                            dropout=0.0, residual=residual)
    return make_team(obs_dim=4, n_actions=3, n_agents=n, state_dim=5,
                     hidden_dim=8, mixer_kind=mixer, comm=settings, seed=seed)


def random_inputs(gen, team, sets=1):
    n = team.agent.n_agents
    obs = gen.standard_normal((sets * n, team.agent.obs_dim))
    acts = gen.integers(0, team.agent.n_actions, size=sets * n)
    return build_inputs(obs, acts, team.agent.n_actions, n)


class TestBuildInputs:
    def test_layout_and_onehots(self):
        obs = np.arange(8, dtype=float).reshape(2, 4)
        x = build_inputs(obs, np.array([2, 0]), n_actions=3, n_agents=2)
        assert x.shape == (2, 4 + 3 + 2)
        assert np.array_equal(x[:, :4], obs)
        assert np.array_equal(x[:, 4:7], [[0, 0, 1], [1, 0, 0]])
        assert np.array_equal(x[:, 7:], np.eye(2))

    def test_first_step_has_zero_action_block(self):
        x = build_inputs(np.zeros((2, 4)), None, n_actions=3, n_agents=2)
        assert np.all(x[:, 4:7] == 0.0)

    def test_a_previous_action_of_minus_one_is_the_none_form(self):
        # unroll_team builds step 0 with the later steps, its actions -1
        obs = np.arange(16, dtype=float).reshape(4, 4)
        mixed = build_inputs(obs, np.array([-1, 2, 0, -1]), n_actions=3, n_agents=2)
        first = build_inputs(obs, None, n_actions=3, n_agents=2)
        taken = build_inputs(obs, np.array([1, 2, 0, 1]), n_actions=3, n_agents=2)
        assert mixed.dtype == first.dtype == np.float64
        assert np.array_equal(mixed[[0, 3]], first[[0, 3]])
        assert np.array_equal(mixed[[1, 2]], taken[[1, 2]])

    def test_row_count_must_split_into_teams(self):
        with pytest.raises(ShapeError):
            build_inputs(np.zeros((3, 4)), None, n_actions=2, n_agents=2)


class TestAgentNet:
    def test_zero_weights_keep_hidden_at_zero(self):
        net = AgentNet(4, 3, 2, hidden_dim=8, seed=0)
        for p in net.parameters():
            p.data[...] = 0.0
        h = net.encode(Tensor(np.ones((2, 4 + 3 + 2))), Tensor(np.zeros((2, 8))))
        assert np.all(h.data == 0.0)

    def test_shared_weights_give_identical_outputs_for_identical_inputs(self):
        net = AgentNet(4, 3, 2, hidden_dim=8, seed=1)
        row = np.random.default_rng(0).standard_normal((1, 9))
        x = Tensor(np.repeat(row, 2, axis=0))
        h = net.encode(x, Tensor(np.zeros((2, 8))))
        assert np.array_equal(h.data[0], h.data[1])
        q = net.q_head(h)
        assert np.array_equal(q.data[0], q.data[1])

    def test_zero_output_mlp_gives_zero_q(self):
        net = AgentNet(4, 3, 2, hidden_dim=8, seed=2)
        net.fc_out.weight.data[...] = 0.0
        net.fc_out.bias.data[...] = 0.0
        q = net.q_head(Tensor(np.random.default_rng(1).standard_normal((2, 8))))
        assert np.all(q.data == 0.0)

    def test_encode_gradients(self):
        net = AgentNet(3, 2, 2, hidden_dim=4, seed=3)
        gen = np.random.default_rng(2)
        x = Parameter(gen.standard_normal((2, 3 + 2 + 2)), name="x")
        h0 = Parameter(gen.standard_normal((2, 4)), name="h0")
        w = gen.standard_normal((2, 4))
        params = net.parameters() + [x, h0]
        err = max_gradient_error(lambda: T.tsum(T.mul(net.encode(x, h0), w)), params)
        assert err <= 1e-3

    def test_q_head_gradients(self):
        net = AgentNet(3, 2, 2, hidden_dim=4, seed=4)
        h = Parameter(np.random.default_rng(3).standard_normal((2, 4)), name="h")
        err = max_gradient_error(lambda: T.tsum(T.square(net.q_head(h))),
                                 net.fc_out.parameters() + [h])
        assert err <= 1e-3


class TestTeamModel:
    def test_parameters_are_agent_then_comm_then_mixer(self):
        team = small_team(mixer="qmix", comm=True)
        expected = (team.agent.parameters() + team.comm.parameters()
                    + team.mixer.parameters())
        assert [p.name for p in team.parameters()] == [p.name for p in expected]
        # the learner splits them between its two optimizers in the same order
        learner = Learner(team, TrainConfig(), seed=0)
        assert learner.opt_main.params == team.agent.parameters() + team.mixer.parameters()
        assert learner.opt_comm.params == team.comm.parameters()

    @pytest.mark.parametrize("comm_here, comm_there", [(True, False), (False, True)])
    def test_copy_between_teams_with_and_without_comm_raises(self, comm_here, comm_there):
        with pytest.raises(ShapeError):
            small_team(comm=comm_here).copy_from(small_team(comm=comm_there))

    def test_copy_from_copies_every_parameter(self):
        a, b = small_team(mixer="qmix", seed=1), small_team(mixer="qmix", seed=2)
        a.copy_from(b)
        for p, q in zip(a.parameters(), b.parameters()):
            assert p.data.tobytes() == q.data.tobytes(), p.name


class TestTeamForward:
    def test_fresh_comm_bit_identical_to_no_comm(self):
        with_comm = small_team(comm=True, seed=5)
        without = TeamModel(with_comm.agent, None, with_comm.mixer)
        gen = np.random.default_rng(4)
        h = Tensor(gen.standard_normal((3, 8)))
        x = random_inputs(gen, with_comm)
        q_a, h_a = with_comm.step(x, h)
        q_b, h_b = without.step(x, h)
        assert q_a.data.tobytes() == q_b.data.tobytes()
        assert h_a.data.tobytes() == h_b.data.tobytes()

    def test_no_residual_with_fresh_comm_feeds_zero_to_q_head(self):
        team = small_team(comm=True, residual=False, seed=6)
        gen = np.random.default_rng(5)
        x = random_inputs(gen, team)
        q, _ = team.step(x, Tensor(gen.standard_normal((3, 8))))
        bias_q = team.agent.q_head(Tensor(np.zeros((3, 8))))
        assert np.array_equal(q.data, bias_q.data)

    def test_recurrent_carry_is_pre_communication(self):
        team = small_team(comm=True, seed=7)
        # make the comm output nonzero so the distinction is observable
        team.comm.out_proj.weight.data[...] = 0.3
        gen = np.random.default_rng(6)
        x = random_inputs(gen, team)
        h0 = Tensor(gen.standard_normal((3, 8)))
        _, h1 = team.step(x, h0)
        h_direct = team.agent.encode(Tensor(x), h0)
        assert np.array_equal(h1.data, h_direct.data)

    def test_permuting_agents_permutes_outputs(self):
        team = small_team(comm=True, seed=8)
        team.comm.out_proj.weight.data[...] = np.random.default_rng(7).standard_normal(
            team.comm.out_proj.weight.shape) * 0.3
        gen = np.random.default_rng(8)
        x = random_inputs(gen, team)
        h = gen.standard_normal((3, 8))
        perm = np.array([2, 0, 1])
        q, h_next = team.step(x, Tensor(h))
        q_p, h_p = team.step(x[perm], Tensor(h[perm]))
        assert np.allclose(q_p.data, q.data[perm], atol=1e-10)
        assert np.allclose(h_p.data, h_next.data[perm], atol=1e-10)

    def test_batched_sets_match_separate_runs(self):
        team = small_team(comm=True, seed=9)
        team.comm.out_proj.weight.data[...] = 0.1
        gen = np.random.default_rng(9)
        x = random_inputs(gen, team, sets=2)
        h = gen.standard_normal((6, 8))
        q_all, _ = team.step(x, Tensor(h))
        q_one, _ = team.step(x[:3], Tensor(h[:3]))
        q_two, _ = team.step(x[3:], Tensor(h[3:]))
        assert np.allclose(q_all.data[:3], q_one.data, atol=1e-12)
        assert np.allclose(q_all.data[3:], q_two.data, atol=1e-12)

    def test_wrong_row_count_raises(self):
        team = small_team()
        with pytest.raises(ShapeError):
            team.step(np.zeros((4, team.agent.in_dim)), Tensor(np.zeros((4, 8))))
        with pytest.raises(ShapeError, match="0 rows"):
            team.step(np.zeros((0, team.agent.in_dim)), Tensor(np.zeros((0, 8))))
