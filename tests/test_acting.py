"""The lockstep acting loop: many episodes in one team step, bit for bit.

The reference is the per-episode form the loop replaced: one team step of n
rows per episode and time step, and one action_distribution and sample_from
call per agent.  Lockstep play must give every episode the same Q values,
recurrent states, actions and returns.
"""

import numpy as np
import pytest

import marlab.runner
from marlab.agents import build_inputs, make_team
from marlab.comm import CommSettings
from marlab.envs import Env, make_env
from marlab.exploration import GREEDY, ExplorationConfig, action_distribution, sample_from
from marlab.nn import Tensor, no_grad
from marlab.nn.tensor import per_block
from marlab.rng import stream, unit_uniform
from marlab.runner import _test_episode_key, evaluate, rollout_episode


def ring(n):
    """Each agent hears itself and its left neighbour."""
    return np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), -1, axis=1)


def perturbed_team(env, comm, dtype=np.float32, seed=0):
    """A team whose every parameter, the zero-started comm projection too, is
    moved off its initial value, so that communication changes the Q values."""
    settings = CommSettings(enabled=comm, num_layers=2, ffn_dim=32, heads=2, dropout=0.1)
    team = make_team(env.obs_dim, env.n_actions, env.n_agents, env.state_dim, 16, "vdn",
                     settings, seed, dtype=dtype)
    gen = np.random.default_rng(seed + 1)
    for p in team.parameters():
        p.data = (p.data + 0.3 * gen.standard_normal(p.shape)).astype(dtype)
    return team


def bits(a):
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("comm, masked", [(False, False), (True, False), (True, True)])
def test_lockstep_team_steps_equal_each_episode_alone(dtype, n, comm, masked):
    env = make_env("cue_passing", {"n_agents": n, "num_cues": 3})
    team = perturbed_team(env, comm, dtype, seed=n)
    mask = ring(n) if masked else None
    gen = np.random.default_rng(n)
    episodes = 40
    inputs = build_inputs(gen.standard_normal((episodes * n, env.obs_dim)),
                          gen.integers(0, env.n_actions, episodes * n), env.n_actions, n)
    for h0 in (np.zeros((episodes * n, 16), dtype), gen.standard_normal((episodes * n, 16))):
        h0 = h0.astype(dtype)
        with no_grad():
            alone = [team.step(inputs[e * n:(e + 1) * n], Tensor(h0[e * n:(e + 1) * n]),
                               comm_mask=mask) for e in range(episodes)]
        q_alone = np.concatenate([q.data for q, _ in alone])
        h_alone = np.concatenate([h.data for _, h in alone])
        for live in range(1, episodes + 1):
            rows = live * n
            with no_grad(), per_block(n):
                q, h = team.step(inputs[:rows], Tensor(h0[:rows]), comm_mask=mask)
            assert q.data.dtype == dtype
            assert np.array_equal(bits(q.data), bits(q_alone[:rows])), live
            assert np.array_equal(bits(h.data), bits(h_alone[:rows])), live


def per_episode_rollout(env, team, explore, eps, seed, key, comm_mask=None):
    """One episode played alone, drawing each agent's action by its own call."""
    obs, state = env.reset(stream(seed, "env", key))
    n = env.n_agents
    record = {"obs": [obs], "states": [state], "avail": [env.avail_actions()],
              "actions": [], "rewards": []}
    h, last_actions, done, t = team.initial_hidden(n), None, False, 0
    with no_grad():
        while not done:
            q, h = team.step(build_inputs(obs, last_actions, env.n_actions, n), h,
                             comm_mask=comm_mask)
            avail = record["avail"][-1]
            actions = np.array([
                sample_from(action_distribution(q.data[i:i + 1], avail[i:i + 1], explore, eps),
                            [unit_uniform(seed, "act", key, t, i)])[0]
                for i in range(n)])
            reward, done, obs, state = env.step(actions)
            for name, value in (("obs", obs), ("states", state), ("avail", env.avail_actions()),
                                ("actions", actions), ("rewards", reward)):
                record[name].append(value)
            last_actions, t = actions, t + 1
    return record


def per_episode_evaluate(env, team, episodes, seed, test_point, comm_mask=None):
    rewards = [per_episode_rollout(env, team, GREEDY, 0.0, seed,
                                   _test_episode_key(test_point, e), comm_mask)["rewards"]
               for e in range(episodes)]
    returns = [float(np.array(r, dtype=float).sum()) for r in rewards]
    return (float(np.mean(returns)), sum(map(env.is_success, returns)) / episodes,
            sum(map(len, rewards)))


class RandomLength(Env):
    """Two agents whose episodes last 1 to 5 steps, drawn at reset; the reward
    and the next observation depend on the actions taken."""

    n_agents, n_actions, obs_dim, state_dim = 2, 3, 3, 2
    best_return = 5.0

    def _start(self, rng):
        return int(rng.integers(1, 6)), 0, 0

    def _observe(self, state):
        length, t, last = state
        obs = np.array([[t / length, last, 1.0], [last / 2.0, t, -1.0]])
        return obs, np.array([length, t], dtype=float)

    def model_avail(self, state):
        avail = np.ones((2, 3), dtype=bool)
        avail[1, 0] = state[1] % 2 == 0   # agent 1 may not take action 0 at odd steps t
        return avail

    def model_initial(self):
        return [((length, 0, 0), 0.2) for length in range(1, 6)]

    def model_step(self, state, joint_action):
        length, t, _ = state
        reward = float(joint_action[0] == joint_action[1])
        return reward, (None if t + 1 == length else (length, t + 1, joint_action[0]))


@pytest.mark.parametrize("explore, eps", [(GREEDY, 0.0), (ExplorationConfig(k=2, temperature=0.5), 0.3),
                                          (ExplorationConfig(k=3, temperature=1e-320), 1.0)])
@pytest.mark.parametrize("comm", [False, True])
def test_lockstep_episodes_of_different_lengths_equal_each_one_alone(explore, eps, comm):
    env = RandomLength()
    team = perturbed_team(env, comm, seed=7)
    keys = [11 * k + 3 for k in range(23)]
    mask = ring(2) if comm else None
    traces = marlab.runner._play([RandomLength() for _ in keys], team, explore, eps, 5, keys,
                                 comm_mask=mask)
    assert len({len(trace[-1]) for trace in traces}) > 1   # episodes end at different steps
    for key, trace in zip(keys, traces):
        alone = per_episode_rollout(env, team, explore, eps, 5, key, comm_mask=mask)
        # rollout_episode plays with every agent in reach of every other
        alone_unmasked = alone if mask is None else per_episode_rollout(
            env, team, explore, eps, 5, key)
        record = rollout_episode(env, team, explore, eps, 5, key)
        assert record.terminated and record.rewards.dtype == np.float64
        # each mask is that of the global state (length, t) beside it, and the
        # last pair, shown after the last step, is the final state's
        assert record.states[-1, 1] == len(record.rewards) - 1
        for (_, t), avail in zip(record.states, record.avail):
            assert np.array_equal(avail, env.model_avail((None, int(t), None))), key
        for (name, want), played, want_unmasked in zip(
                alone.items(), trace, alone_unmasked.values()):   # the same field order
            for got, ref in ((np.array(played), np.array(want)),
                             (getattr(record, name), np.array(want_unmasked))):
                assert np.array_equal(got, ref), (key, name)
                assert got.dtype == ref.dtype, (key, name)


@pytest.mark.parametrize("name, params, comm", [
    ("matrix_game", {}, False),
    ("two_step_coop", {}, False),
    ("cue_passing", {"n_agents": 3, "num_cues": 3}, True),
])
def test_evaluate_plays_at_most_the_bound_at_a_time_and_equals_per_episode_play(
        name, params, comm, monkeypatch):
    env = make_env(name, params)
    team = perturbed_team(env, comm, seed=3)
    mask = ring(env.n_agents) if comm else None
    expected = per_episode_evaluate(env, team, 8, 9, 0, comm_mask=mask)
    batches = []
    play = marlab.runner._play

    def spy(envs, *args):
        batches.append(len(envs))
        return play(envs, *args)

    monkeypatch.setattr(marlab.runner, "MAX_TEST_EPISODES", 3)
    monkeypatch.setattr(marlab.runner, "_play", spy)
    assert evaluate(env, team, 8, 9, 0, comm_mask=mask) == expected
    assert batches == [3, 3, 2]


def test_evaluate_leaves_the_env_it_is_given_alone():
    env = make_env("cue_passing", {"n_agents": 3, "num_cues": 3})
    team = perturbed_team(env, True)
    env.reset(stream(0, "env", 0))
    before = env._state
    evaluate(env, team, 5, 1, 0)
    assert env._state == before
