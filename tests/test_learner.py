"""Learner: schedule, replay, double-Q targets, loss, and the update step."""

import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marlab
import marlab.learner as learner_module
from marlab.agents import AgentNet, TeamModel, build_inputs, make_team
from marlab.comm import CommSettings
from marlab.errors import ContractError
from marlab.learner import (
    EPISODE_ARRAYS,
    EpisodeRecord,
    Learner,
    ReplayBuffer,
    TrainConfig,
    double_q_targets,
    epsilon,
    horizons,
    pad_batch,
    taken_joint_values,
    td_loss,
    unroll_team,
)
from marlab.mixers import QmixMixer, VdnMixer, mix_values
from marlab.nn import Parameter, Tensor, TrainContext, clip_grad_norm, no_grad
from marlab.nn import tensor as T
from marlab.rng import stream


def make_episode(gen, n=2, obs_dim=3, n_actions=2, state_dim=4, length=2,
                 rewards=None):
    return EpisodeRecord(
        obs=gen.standard_normal((length + 1, n, obs_dim)),
        states=gen.standard_normal((length + 1, state_dim)),
        avail=np.ones((length + 1, n, n_actions), dtype=bool),
        actions=gen.integers(0, n_actions, size=(length, n)),
        rewards=np.asarray(rewards if rewards is not None else gen.standard_normal(length)),
        terminated=True,
    )


def tiny_team(seed=0, comm=True, mixer="vdn", dropout=0.1, dtype=np.float64):
    settings = CommSettings(enabled=comm, num_layers=1, ffn_dim=8, heads=2, dropout=dropout)
    return make_team(obs_dim=3, n_actions=2, n_agents=2, state_dim=4,
                     hidden_dim=8, mixer_kind=mixer, comm=settings, seed=seed, dtype=dtype)


def tiny_config(**kw):
    base = dict(batch_size=4, buffer_capacity=10, anneal_steps=100,
                target_update_interval=3, hidden_dim=8)
    base.update(kw)
    return TrainConfig(**base)


def filled_buffer(config, seed=0):
    buf = ReplayBuffer(config.buffer_capacity)
    gen = np.random.default_rng(seed)
    for _ in range(config.batch_size):
        buf.add(make_episode(gen))
    return buf


class TestEpsilonSchedule:
    def test_endpoints_and_midpoint(self):
        cfg = TrainConfig(anneal_steps=50_000)
        assert epsilon(0, cfg) == 1.0
        assert epsilon(50_000, cfg) == 0.05
        assert abs(epsilon(25_000, cfg) - 0.525) < 1e-12

    def test_constant_after_anneal(self):
        cfg = TrainConfig(anneal_steps=50_000)
        assert epsilon(80_000, cfg) == 0.05


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        gen = np.random.default_rng(0)
        eps = [make_episode(gen, rewards=[float(i), 0.0]) for i in range(5)]
        for ep in eps:
            buf.add(ep)
        assert len(buf) == 3
        stored_first_rewards = [ep.rewards[0] for ep in buf.episodes]
        assert stored_first_rewards == [2.0, 3.0, 4.0]

    def test_sample_uniform_without_replacement(self):
        buf = ReplayBuffer(capacity=10)
        gen = np.random.default_rng(1)
        for i in range(10):
            buf.add(make_episode(gen, rewards=[float(i), 0.0]))
        picked = buf.sample(5, np.random.default_rng(2))
        ids = [ep.rewards[0] for ep in picked]
        assert len(set(ids)) == 5

    def test_sample_underfull_raises(self):
        buf = ReplayBuffer(capacity=10)
        with pytest.raises(ContractError):
            buf.sample(1, np.random.default_rng(0))

    def test_env_checks_read_each_episode_up_to_its_length(self):
        # steps past an episode's length are padding that no load reads, so
        # what they hold is not refused; the same damage one step earlier is
        gen = np.random.default_rng(3)
        episodes = [make_episode(gen, length=1), make_episode(gen, length=3)]
        buf, sizes = ReplayBuffer(capacity=4), (2, 3, 4, 2)   # make_episode's
        for ep in episodes:
            buf.add(ep)
        arrays = buf.state_arrays()
        damage = {"avail": ((0, 1), False), "actions": ((0, 0, 1), 7),
                  "obs": ((0, 1, 0, 2), np.inf), "states": ((0, 1, 3), np.nan),
                  "rewards": ((0, 0), np.nan)}
        for key, (index, value) in damage.items():   # one step past the length
            arrays[key][(index[0], index[1] + 1, *index[2:])] = value
        loaded = ReplayBuffer.from_state_arrays(4, arrays, sizes).episodes
        for got, ep in zip(loaded, episodes, strict=True):
            for key in ("obs", "states", "avail", "actions", "rewards"):
                assert np.array_equal(getattr(got, key), getattr(ep, key)), key
        for key, (index, value) in damage.items():
            damaged = {**arrays, key: arrays[key].copy()}
            damaged[key][index] = value
            with pytest.raises(ContractError, match=rf"^{key}\[0, {index[1]}\]: "):
                ReplayBuffer.from_state_arrays(4, damaged, sizes)


class TestEpisodeRecord:
    def test_length_mismatch_rejected(self):
        gen = np.random.default_rng(0)
        ep = make_episode(gen)
        with pytest.raises(ContractError):
            EpisodeRecord(obs=ep.obs[:-1], states=ep.states, avail=ep.avail,
                          actions=ep.actions, rewards=ep.rewards)

    @pytest.mark.parametrize("change", [1, -1])
    @pytest.mark.parametrize("key", ["obs", "states", "avail", "actions", "rewards"])
    def test_each_array_one_entry_off_its_length_is_refused(self, key, change):
        ep = make_episode(np.random.default_rng(0), length=3)
        arrays = {name: getattr(ep, name) for name in EPISODE_ARRAYS}
        assert list(arrays) == ["obs", "states", "avail", "actions", "rewards"]
        array = arrays[key]
        arrays[key] = array[:change] if change < 0 else np.concatenate([array, array[:1]])
        with pytest.raises(ContractError, match="disagree on length"):
            EpisodeRecord(**arrays)

    def test_an_episode_without_steps_is_refused(self):
        # no step for the loss to count, and a terminated one's horizon would be -1
        with pytest.raises(ContractError, match="at least one step"):
            make_episode(np.random.default_rng(0), length=0)


class TestPadBatch:
    def test_padding_and_masks(self):
        gen = np.random.default_rng(0)
        short = make_episode(gen, length=1)
        long = episode_of(gen, 3, terminated=False)
        batch = pad_batch([short, long])
        # the snapshot layout, key order included, after ReplayBuffer's count
        assert list(batch) == ["lengths", "terminated", "obs", "states", "avail", "actions",
                               "rewards"]
        assert batch["lengths"].tolist() == [1, 3]
        assert batch["terminated"].tolist() == [True, False]
        assert horizons(batch).tolist() == [0, 3]
        assert batch["actions"].shape[1] == 3
        assert np.all(batch["rewards"][0, 1:] == 0.0)
        assert np.all(batch["avail"][0, 2:])  # padded steps stay well defined


def next_step_batch(rewards, avail_next, lengths=None, terminated=None):
    """The arrays double_q_targets reads, for transitions t whose next step
    t + 1 has the availability avail_next[:, t]; every state is 0.  By
    default every episode is truncated at t_max, so every transition
    bootstraps."""
    bsz, t_len, n, n_actions = avail_next.shape
    return {"lengths": np.full(bsz, t_len) if lengths is None else np.array(lengths),
            "terminated": np.zeros(bsz, bool) if terminated is None else np.array(terminated),
            "rewards": rewards,
            "actions": np.zeros((bsz, t_len, n), dtype=np.intp),
            "avail": np.concatenate([np.ones((bsz, 1, n, n_actions), dtype=bool), avail_next],
                                    axis=1),
            "states": np.zeros((bsz, t_len + 1, 1))}


def per_step(values):
    """(batch, T, n, actions) values as unroll_team's list of (batch*n, actions) tensors."""
    bsz, t_len, n, _ = values.shape
    return [Tensor(values[:, t].reshape(bsz * n, -1)) for t in range(t_len)]


class TestDoubleQTargets:
    def test_hand_built_lookahead_case(self):
        # selection must use the online argmax, evaluation the target values
        online_next = np.array([[[[1.0, 2.0], [5.0, 0.0]]]])   # argmax: 1, 0
        target_next = np.array([[[[10.0, 3.0], [7.0, 8.0]]]])  # picked: 3, 7
        batch = next_step_batch(np.array([[0.5]]), np.ones((1, 1, 2, 2), dtype=bool))
        y = double_q_targets(batch, per_step(online_next), per_step(target_next),
                             VdnMixer(2), 0.9)
        assert np.allclose(y, 0.5 + 0.9 * (3.0 + 7.0))

    def test_availability_restricts_selection(self):
        online_next = np.array([[[[9.0, 2.0], [1.0, 0.0]]]])
        target_next = np.array([[[[4.0, 3.0], [6.0, 5.0]]]])
        avail = np.array([[[[False, True], [True, True]]]])  # agent 0 cannot take 0
        batch = next_step_batch(np.array([[0.0]]), avail)
        y = double_q_targets(batch, per_step(online_next), per_step(target_next),
                             VdnMixer(2), 1.0)
        assert np.allclose(y, 3.0 + 6.0)

    def test_terminal_step_has_no_bootstrap(self):
        batch = next_step_batch(np.array([[2.0]]), np.ones((1, 1, 2, 2), dtype=bool),
                                lengths=[1], terminated=[True])
        y = double_q_targets(batch, per_step(np.ones((1, 1, 2, 2))),
                             per_step(np.ones((1, 1, 2, 2)) * 100), VdnMixer(2), 0.99)
        assert np.allclose(y, 2.0)

    def test_gamma_zero_targets_are_rewards(self):
        gen = np.random.default_rng(3)
        rewards = gen.standard_normal((2, 3))
        batch = next_step_batch(rewards, np.ones((2, 3, 2, 2), dtype=bool))
        y = double_q_targets(batch, per_step(gen.standard_normal((2, 3, 2, 2))),
                             per_step(gen.standard_normal((2, 3, 2, 2))), VdnMixer(2), 0.0)
        assert np.allclose(y, rewards)

    def test_no_values_give_a_copy_of_the_rewards(self):
        # k = 0: no transition bootstraps, so the lists are empty
        rewards = np.random.default_rng(4).standard_normal((2, 3))
        batch = next_step_batch(rewards.copy(), np.ones((2, 3, 2, 2), dtype=bool),
                                terminated=[True, True])
        y = double_q_targets(batch, [], [], VdnMixer(2), 0.9)
        assert y.tobytes() == rewards.tobytes()
        y[...] = 7.0
        assert batch["rewards"].tobytes() == rewards.tobytes()

    def test_transitions_past_the_values_keep_their_rewards(self):
        gen = np.random.default_rng(5)
        rewards = gen.standard_normal((2, 3))
        batch = next_step_batch(rewards, np.ones((2, 3, 2, 2), dtype=bool))
        online_next, target_next = (gen.standard_normal((2, 1, 2, 2)) for _ in range(2))
        y = double_q_targets(batch, per_step(online_next), per_step(target_next),
                             VdnMixer(2), 0.9)
        assert y[:, 1:].tobytes() == rewards[:, 1:].tobytes()
        full = double_q_targets(batch, per_step(np.repeat(online_next, 3, axis=1)),
                                per_step(np.repeat(target_next, 3, axis=1)), VdnMixer(2), 0.9)
        assert y[:, 0].tobytes() == full[:, 0].tobytes()

    def test_a_transition_bootstraps_iff_its_next_step_is_within_the_horizon(self):
        # horizons 1 (truncated after 1 step) and 2 (terminated after 3)
        rewards = np.arange(6.0).reshape(2, 3)
        batch = next_step_batch(rewards, np.ones((2, 3, 2, 2), dtype=bool),
                                lengths=[1, 3], terminated=[False, True])
        y = double_q_targets(batch, per_step(np.ones((2, 3, 2, 2))),
                             per_step(np.ones((2, 3, 2, 2))), VdnMixer(2), 0.5)
        assert y.tolist() == [[1.0, 1.0, 2.0], [4.0, 5.0, 5.0]]

    def test_lists_of_different_lengths_are_refused(self):
        batch = next_step_batch(np.zeros((1, 2)), np.ones((1, 2, 2, 2), dtype=bool))
        values = per_step(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ContractError, match="2 online and 1 target"):
            double_q_targets(batch, values, values[:1], VdnMixer(2), 0.9)


class TestTdLoss:
    def test_zero_when_prediction_matches_target(self):
        q = Tensor(np.array([[1.0, 2.0]]))
        loss = td_loss(q, np.array([[1.0, 2.0]]), np.array([2]))
        assert loss.item() == 0.0

    def test_single_step_squared_error(self):
        loss = td_loss(Tensor([[1.0]]), np.array([[3.0]]), np.array([1]))
        assert loss.item() == 4.0

    def test_mask_excludes_padded_steps(self):
        q = Tensor(np.array([[1.0, 100.0]]))
        loss = td_loss(q, np.array([[0.0, 0.0]]), np.array([1]))
        assert loss.item() == 1.0

    def test_gradients_match_finite_differences(self):
        from marlab.nn.gradcheck import max_gradient_error

        gen = np.random.default_rng(4)
        q = Parameter(gen.standard_normal((3, 2)), name="q")
        y = gen.standard_normal((3, 2))
        err = max_gradient_error(lambda: td_loss(q, y, np.array([2, 1, 2])), [q])
        assert err <= 1e-3

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            td_loss(Tensor([[1.0]]), np.array([[1.0]]), np.array([0]))


class TestTrainStep:
    def test_not_ready_below_batch_size(self):
        cfg = tiny_config()
        learner = Learner(tiny_team(), cfg, seed=0)
        assert learner.train_step(ReplayBuffer(cfg.buffer_capacity)) is None

    def test_updates_parameters_and_reports_metrics(self):
        cfg = tiny_config()
        team = tiny_team(1)
        learner = Learner(team, cfg, seed=0)
        buf = filled_buffer(cfg)
        before = [p.data.copy() for p in team.parameters()]
        metrics = learner.train_step(buf)
        assert metrics is not None and np.isfinite(metrics["loss"])
        changed = any(not np.array_equal(b, p.data)
                      for b, p in zip(before, team.parameters()))
        assert changed

    def test_two_runs_bit_identical(self):
        def run():
            cfg = tiny_config()
            team = tiny_team(3)
            learner = Learner(team, cfg, seed=7)
            buf = filled_buffer(cfg, seed=5)
            for _ in range(4):
                learner.train_step(buf)
            return [p.data.copy() for p in team.parameters()]

        for a, b in zip(run(), run()):
            assert a.tobytes() == b.tobytes()

    def test_zero_comm_lr_freezes_comm_group(self):
        cfg = tiny_config(comm_lr=0.0)
        team = tiny_team(5)
        learner = Learner(team, cfg, seed=1)
        buf = filled_buffer(cfg, seed=6)
        comm_before = [p.data.copy() for p in team.comm.parameters()]
        main_before = [p.data.copy() for p in learner.opt_main.params]
        learner.train_step(buf)
        for b, p in zip(comm_before, team.comm.parameters()):
            assert np.array_equal(b, p.data)
        assert any(not np.array_equal(b, p.data)
                   for b, p in zip(main_before, learner.opt_main.params))

    def test_target_updates_only_at_interval_and_copies_exactly(self):
        cfg = tiny_config(target_update_interval=3)
        team = tiny_team(7)
        learner = Learner(team, cfg, seed=2)
        buf = filled_buffer(cfg, seed=7)
        snapshot = [p.data.copy() for p in learner.target.parameters()]
        learner.train_step(buf)
        learner.train_step(buf)
        for s, p in zip(snapshot, learner.target.parameters()):
            assert np.array_equal(s, p.data)  # unchanged before the interval
        learner.train_step(buf)
        for p, q in zip(learner.target.parameters(), team.parameters()):
            assert np.array_equal(p.data, q.data)  # exact hard copy

    def test_qmix_variant_trains(self):
        cfg = tiny_config()
        learner = Learner(tiny_team(9, mixer="qmix"), cfg, seed=3)
        metrics = learner.train_step(filled_buffer(cfg, seed=8))
        assert np.isfinite(metrics["loss"])


def test_unroll_matches_manual_stepping():
    team = tiny_team(11)
    gen = np.random.default_rng(9)
    episodes = [make_episode(gen) for _ in range(2)]
    batch = pad_batch(episodes)
    qs = unroll_team(team, batch)
    assert len(qs) == 2   # two-step terminated episodes: horizon 2 - 1 = 1
    assert qs[0].shape == (2 * 2, 2)

    # replay episode 0 by hand with sets=1 and compare step 0
    h = team.initial_hidden(2)
    inputs = build_inputs(episodes[0].obs[0], None, 2, 2)
    q0, _ = team.step(inputs, h)
    assert np.allclose(q0.data, qs[0].data[:2], atol=1e-12)


def test_unroll_from_step_one_is_the_full_unroll_from_there():
    team = tiny_team(12)
    gen = np.random.default_rng(10)
    batch = pad_batch([make_episode(gen, length=3), make_episode(gen, length=2)])
    full = unroll_team(team, batch)
    part = unroll_team(team, batch, first=1)
    assert len(full) == 3 and len(part) == 2   # horizons 2 and 1
    for a, b in zip(full[1:], part):
        assert a.data.tobytes() == b.data.tobytes()


def test_one_step_terminated_episodes_have_no_step_from_one(monkeypatch):
    calls = []
    for cls, name in ((TeamModel, "step"), (AgentNet, "encode")):
        original = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *a, _f=original, **kw:
                            calls.append(self) or _f(self, *a, **kw))
    gen = np.random.default_rng(10)
    batch = pad_batch([make_episode(gen, length=1) for _ in range(3)])
    assert unroll_team(tiny_team(12), batch, first=1) == []
    assert calls == []


def reference_train_step(learner, buffer):
    """Learner.train_step as the full-unroll formula: every row at every step
    of both unrolls, and targets by the written-out bootstrap rule."""
    cfg = learner.config
    episodes = buffer.sample(cfg.batch_size, stream(learner.seed, "sample", learner.train_steps))
    batch = pad_batch(episodes)
    bsz, t_max, n = batch["actions"].shape
    online_q = per_step_unroll(learner.team, batch,
                               ctx=TrainContext(learner.seed, learner.train_steps))
    with no_grad():
        target_q = per_step_unroll(learner.target, batch, first=1)
    q_tot = T.concat_cols([
        learner.team.mixer(
            T.reshape(T.gather_cols(online_q[t], batch["actions"][:, t].reshape(-1)), bsz, n),
            Tensor(batch["states"][:, t]))
        for t in range(t_max)])

    targets = per_step_targets(batch, online_q[1:], target_q, learner.target.mixer, cfg.gamma)
    loss = td_loss(q_tot, targets, batch["lengths"])
    loss.backward()
    clip_grad_norm(learner.team.parameters(), cfg.grad_clip)
    learner.opt_main.step()
    if learner.opt_comm is not None:
        learner.opt_comm.step()
    learner.train_steps += 1
    if learner.train_steps % cfg.target_update_interval == 0:
        learner.target.copy_from(learner.team)
    return loss.item()


def episode_of(gen, length, terminated, n=2, obs_dim=3, n_actions=2, state_dim=4):
    avail = gen.random((length + 1, n, n_actions)) < 0.7
    avail[..., 0] |= ~avail.any(axis=-1)
    return EpisodeRecord(
        obs=gen.standard_normal((length + 1, n, obs_dim)),
        states=gen.standard_normal((length + 1, state_dim)),
        avail=avail, actions=(gen.random((length, n, n_actions)) * avail[:length]).argmax(-1),
        rewards=gen.standard_normal(length), terminated=terminated)


def learner_pair(lengths, terminated, mixer, comm, seed):
    """Two identical learners whose target nets differ from the online nets."""
    gen = np.random.default_rng(seed)
    buf = ReplayBuffer(len(lengths))
    for t, term in zip(lengths, terminated):
        buf.add(episode_of(gen, t, term))
    noise = [gen.standard_normal(p.shape) * 0.1
             for p in tiny_team(seed, comm=comm, mixer=mixer).parameters()]
    learners = []
    for _ in range(2):
        cfg = tiny_config(batch_size=len(lengths), buffer_capacity=len(lengths),
                          target_update_interval=2)
        learner = Learner(tiny_team(seed, comm=comm, mixer=mixer), cfg, seed=seed)
        for p, d in zip(learner.target.parameters(), noise):
            p.data += d
        learners.append(learner)
    return learners, buf


@settings(max_examples=60, deadline=None)
@given(episodes=st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=5),
       mixer=st.sampled_from(["vdn", "qmix"]), comm=st.booleans(),
       seed=st.integers(0, 2**16))
def test_train_step_is_bitwise_the_full_unroll_formula(episodes, mixer, comm, seed):
    lengths, terminated = zip(*episodes)
    (fast, ref), buf = learner_pair(lengths, terminated, mixer, comm, seed)
    for _ in range(3):   # the third step runs after a target copy
        loss = fast.train_step(buf)["loss"]
        assert loss.hex() == reference_train_step(ref, buf).hex()
        for a, b in zip(fast.team.parameters(), ref.team.parameters()):
            assert a.data.tobytes() == b.data.tobytes(), a.name
        for a, b in zip(fast.target.parameters(), ref.target.parameters()):
            assert a.data.tobytes() == b.data.tobytes(), a.name
        for opt_a, opt_b in ((fast.opt_main, ref.opt_main), (fast.opt_comm, ref.opt_comm)):
            if opt_a is not None:
                for (name, a), b in zip(opt_a.state_arrays().items(),
                                        opt_b.state_arrays().values()):
                    assert a.tobytes() == b.tobytes(), name


def team_steps_per_train_step(monkeypatch, lengths, terminated):
    calls = []
    original = TeamModel.step

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    (learner, _), buf = learner_pair(lengths, terminated, "vdn", True, seed=0)
    monkeypatch.setattr(TeamModel, "step", counting)
    learner.train_step(buf)
    return len(calls)


def test_all_terminated_two_step_batch_runs_three_team_steps(monkeypatch):
    # online steps 0 and 1, target step 1 only (step 0 just advances the carry)
    assert team_steps_per_train_step(monkeypatch, [2, 2, 2], [True] * 3) == 3


def test_truncated_max_length_episode_runs_every_needed_step(monkeypatch):
    # online 0..t_max, target 1..t_max
    t_max = 5
    assert team_steps_per_train_step(monkeypatch, [2, t_max, 3],
                                     [True, False, True]) == 2 * t_max + 1


def test_one_dropout_mask_per_layer_per_train_step(monkeypatch):
    masks = []
    original = T.dropout

    def recording(a, *args):
        masks.append(args[-1])
        return original(a, *args)

    (learner, _), buf = learner_pair([6, 6, 6], [False] * 3, "vdn", True, seed=0)
    monkeypatch.setattr(T, "dropout", recording)
    learner.train_step(buf)
    # online steps 0..6, each through drop1 and drop2 of the one comm layer
    assert len(masks) == 7 * 2
    assert len({id(m) for m in masks}) == 2
    assert masks[0] is masks[2] and masks[1] is masks[3]


def per_step_unroll(team, batch, ctx=None, first=0):
    """unroll_team as a loop over every row at every step 0..t_max, padded
    rows included, building each step's inputs on its own: the no-skip
    reference.  Returns the Q values of steps first..t_max."""
    bsz, t_max, n = batch["actions"].shape
    n_actions = batch["avail"].shape[-1]
    h = team.initial_hidden(bsz * n)
    out = []
    for t in range(t_max + 1):
        flat_obs = batch["obs"][:, t].reshape(bsz * n, -1)
        last = batch["actions"][:, t - 1].reshape(-1) if t > 0 else None
        inputs = build_inputs(flat_obs, last, n_actions, n)
        if t < first:
            h = team.agent.encode(Tensor(inputs.astype(team.dtype)), h)
            continue
        q, h = team.step(inputs, h, ctx=ctx)
        out.append(q)
    return out


def warm_team(seed, comm, mixer, dtype=np.float64):
    """tiny_team with a nonzero comm projection, so the stack and its dropout
    move the Q values."""
    team = tiny_team(seed, comm, mixer, dropout=0.3, dtype=dtype)
    if comm:
        gen = np.random.default_rng(seed)
        team.comm.out_proj.weight.data[...] = gen.standard_normal((8, 8)) * 0.5
    return team


def padded_batch(lengths, terminated, seed):
    gen = np.random.default_rng(seed)
    return pad_batch([episode_of(gen, t, term) for t, term in zip(lengths, terminated)])


ragged_lengths = st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=2, max_size=5
                          ).filter(lambda eps: len({t for t, _ in eps}) > 1)


@settings(max_examples=40, deadline=None)
@given(episodes=ragged_lengths, mixer=st.sampled_from(["vdn", "qmix"]), comm=st.booleans(),
       seed=st.integers(0, 2**16))
def test_padded_rows_are_zero_and_live_rows_are_the_per_step_loops(episodes, mixer, comm, seed):
    lengths, terminated = zip(*episodes)
    team = warm_team(seed, comm, mixer)
    batch = padded_batch(lengths, terminated, seed)
    ctx = TrainContext(seed, 3) if comm else None
    fast = unroll_team(team, batch, ctx=ctx)
    ref = per_step_unroll(team, batch, ctx=TrainContext(seed, 3) if comm else None)
    last = np.subtract(lengths, terminated)   # each episode's horizon
    assert len(fast) == max(last) + 1
    for t, (a, b) in enumerate(zip(fast, ref)):
        live = np.repeat(last, 2) >= t
        assert a.shape == b.shape
        assert np.all(a.data[~live] == 0.0)
        scale = np.abs(b.data[live]).max()
        assert np.abs(a.data[live] - b.data[live]).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(length=st.integers(1, 6), terminated=st.lists(st.booleans(), min_size=1, max_size=5),
       mixer=st.sampled_from(["vdn", "qmix"]), comm=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_equal_lengths_unroll_bit_for_bit_as_the_per_step_loop(length, terminated, mixer, comm,
                                                               dtype, seed):
    team = warm_team(seed, comm, mixer, dtype)
    batch = padded_batch([length] * len(terminated), terminated, seed)
    last = length - np.array(terminated)
    for first in (0, 1):
        fast = unroll_team(team, batch, ctx=TrainContext(seed, 0), first=first)
        ref = per_step_unroll(team, batch, ctx=TrainContext(seed, 0), first=first)
        assert len(fast) == max(last) + 1 - first
        for t, (a, b) in enumerate(zip(fast, ref), start=first):
            live = np.repeat(last, 2) >= t
            assert a.data.dtype == dtype and np.all(a.data[~live] == 0.0)
            assert a.data[live].tobytes() == b.data[live].tobytes()


@pytest.mark.parametrize("mixer", ["vdn", "qmix"])
@pytest.mark.parametrize("comm", [False, True])
@pytest.mark.parametrize("seed", [4, 5])
def test_a_train_step_over_padded_rows_equals_the_no_skip_step(monkeypatch, mixer, comm, seed):
    lengths, terminated = [2, 5, 1, 4, 3, 6], [True, False, True, False, False, True]
    (fast, ref), buf = learner_pair(lengths, terminated, mixer, comm, seed)
    for learner in (fast, ref):
        if comm:
            learner.team.comm.out_proj.weight.data[...] = 0.3
    loss = fast.train_step(buf)["loss"]

    # both of ref's unrolls run every row at every step, cut to the steps
    # unroll_team returns: up to the batch's largest horizon
    def no_skip_unroll(team, batch, ctx=None, first=0):
        return per_step_unroll(team, batch, ctx, first)[: int(horizons(batch).max()) + 1 - first]

    monkeypatch.setattr(learner_module, "unroll_team", no_skip_unroll)
    ref_loss = ref.train_step(buf)["loss"]
    assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
    for a, b in zip(fast.team.parameters(), ref.team.parameters()):
        assert np.abs(a.data - b.data).max() <= 1e-10 * max(np.abs(b.data).max(), 1.0), a.name


def test_a_live_row_takes_its_row_of_the_full_batch_dropout_mask(monkeypatch):
    lengths, terminated = [3, 6, 1, 6, 4], [True, True, False, False, True]
    team = warm_team(0, True, "vdn")
    batch = padded_batch(lengths, terminated, seed=0)
    keeps = []
    original = T.dropout

    def recording(a, keep):
        keeps.append(keep)
        return original(a, keep)

    monkeypatch.setattr(T, "dropout", recording)
    ctx = TrainContext(seed=0, step=2)
    q = unroll_team(team, batch, ctx=ctx)
    last = np.repeat(np.subtract(lengths, terminated), 2)
    assert len(q) == 7   # the truncated 6-step episode runs to step 6
    assert len(keeps) == 2 * len(q)   # drop1 and drop2 of the one comm layer at each step
    for t in range(len(q)):
        live = last >= t
        for name, keep in zip(("drop1", "drop2"), keeps[2 * t : 2 * t + 2]):
            full = ctx.dropout_mask(f"comm.layer0.{name}", (10, 8), 0.3, np.float64)
            assert np.array_equal(keep, full[live])
    # a mask shared by steps 0 and 1, with no row padded, is drawn once
    assert keeps[0] is keeps[2] and keeps[1] is keeps[3]


def test_train_step_peak_memory_is_its_forward_graph(monkeypatch):
    # QMIX + comm over truncated 12-step episodes: every step's graph is needed
    n, obs_dim, n_actions, state_dim, hidden, length = 3, 4, 3, 5, 32, 12
    gen = np.random.default_rng(0)
    cfg = TrainConfig(batch_size=8, buffer_capacity=8, hidden_dim=hidden)
    comm = CommSettings(enabled=True, num_layers=1, ffn_dim=64, heads=2, dropout=0.1)
    learner = Learner(make_team(obs_dim, n_actions, n, state_dim, hidden, "qmix", comm, 0),
                      cfg, seed=0)
    buf = ReplayBuffer(cfg.buffer_capacity)
    for _ in range(cfg.batch_size):
        buf.add(EpisodeRecord(
            obs=gen.standard_normal((length + 1, n, obs_dim)),
            states=gen.standard_normal((length + 1, state_dim)),
            avail=np.ones((length + 1, n, n_actions), dtype=bool),
            actions=gen.integers(0, n_actions, size=(length, n)),
            rewards=gen.standard_normal(length), terminated=False))
    learner.train_step(buf)
    at_backward = []
    original = Tensor.backward

    def recording(self):
        at_backward.append(tracemalloc.get_traced_memory()[0])
        return original(self)

    monkeypatch.setattr(Tensor, "backward", recording)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        learner.train_step(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    graph = at_backward[0] - base
    assert peak - base <= 1.2 * graph, (peak - base, graph)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# cue_passing VDN + comm at the benchmark's shapes: each train step's graph is
# megabytes, which glibc would return to the OS and fault in again next step
FAULTS_PER_TRAIN_STEP = """
import resource

from marlab.agents import make_team
from marlab.comm import CommSettings
from marlab.envs import make_env
from marlab.exploration import ExplorationConfig
from marlab.learner import Learner, ReplayBuffer, TrainConfig
from marlab.runner import rollout_episode

env = make_env("cue_passing", {"n_agents": 3, "num_cues": 3})
cfg = TrainConfig(batch_size=32, buffer_capacity=32, hidden_dim=64)
team = make_team(env.obs_dim, env.n_actions, env.n_agents, env.state_dim,
                 cfg.hidden_dim, "vdn", CommSettings(enabled=True), seed=0)
learner = Learner(team, cfg, seed=0)
buf = ReplayBuffer(cfg.buffer_capacity)
for e in range(cfg.batch_size):
    buf.add(rollout_episode(env, learner.team, ExplorationConfig(), 1.0, 0, e))
for _ in range(5):
    learner.train_step(buf)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    learner.train_step(buf)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_train_steps_reuse_the_heap_pages_of_the_previous_step():
    # a fresh interpreter: what earlier tests freed moves glibc's thresholds
    src = str(Path(marlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", FAULTS_PER_TRAIN_STEP],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 20


def per_step_joint_values(team, online_q, batch):
    """taken_joint_values as one mixer call per step."""
    bsz, t_max, n = batch["actions"].shape
    states = batch["states"].astype(team.dtype, copy=False)
    return T.concat_cols([
        team.mixer(T.reshape(T.gather_cols(online_q[t], batch["actions"][:, t].reshape(-1)),
                             bsz, n), Tensor(states[:, t]))
        for t in range(t_max)])


def per_step_targets(batch, online_q, target_q, mixer, gamma):
    """double_q_targets as one mix_values call per step, with the bootstrap
    rule written out: transition t of an episode of length L bootstraps iff
    t + 1 < L, or t + 1 == L and the episode was truncated."""
    bsz, _, n = batch["actions"].shape
    y = batch["rewards"].copy()
    for t, (online, target) in enumerate(zip(online_q, target_q, strict=True)):
        bootstrap = np.array([t + 1 < length or (t + 1 == length and not terminated)
                              for length, terminated in zip(batch["lengths"],
                                                            batch["terminated"])])
        masked = np.where(batch["avail"][:, t + 1], online.data.reshape(bsz, n, -1), -np.inf)
        best = masked.argmax(axis=-1)
        chosen = np.take_along_axis(target.data.reshape(bsz, n, -1), best[..., None],
                                    axis=-1)[..., 0]
        joint = mix_values(mixer, chosen, batch["states"][:, t + 1])
        y[:, t] = batch["rewards"][:, t] + gamma * bootstrap * joint
    return y


ONE_PASS_BATCHES = [([4, 4, 4], [True, False, True]),           # no padded row
                    ([2, 5, 1, 4, 3], [True, False, True, False, True]),
                    ([1], [True])]


@pytest.mark.parametrize("mixer", ["vdn", "qmix"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lengths, terminated", ONE_PASS_BATCHES)
def test_one_pass_mixing_is_the_per_step_loop_bit_for_bit(mixer, dtype, lengths, terminated):
    batch = padded_batch(lengths, terminated, seed=len(lengths))
    t_max = max(lengths)
    teams = [warm_team(7, True, mixer, dtype) for _ in range(2)]
    target = warm_team(8, True, mixer, dtype)
    losses, online_qs = [], []
    for team, mix in zip(teams, (taken_joint_values, per_step_joint_values)):
        online_qs.append(unroll_team(team, batch, ctx=TrainContext(7, 0)))
        q_tot = mix(team, online_qs[-1], batch)
        assert q_tot.shape == (len(lengths), t_max) and q_tot.data.dtype == dtype
        losses.append(td_loss(q_tot, batch["rewards"], batch["lengths"]))
        losses[-1].backward()
    assert losses[0].data.tobytes() == losses[1].data.tobytes()
    for a, b in zip(*(team.parameters() for team in teams)):
        assert a.grad.tobytes() == b.grad.tobytes(), a.name

    with no_grad():
        target_q = unroll_team(target, batch)
    for k in sorted({0, 1, min(2, t_max), t_max}):
        args = batch, online_qs[0][1 : k + 1], target_q[1 : k + 1], target.mixer, 0.9
        assert double_q_targets(*args).tobytes() == per_step_targets(*args).tobytes(), k


@pytest.mark.parametrize("mixer, kind", [("vdn", VdnMixer), ("qmix", QmixMixer)])
def test_a_train_step_mixes_once_online_and_once_on_the_target(monkeypatch, mixer, kind):
    calls = []
    original = kind.forward

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    (learner, _), buf = learner_pair([2, 5, 3], [True, False, True], mixer, True, seed=0)
    monkeypatch.setattr(kind, "forward", counting)
    learner.train_step(buf)
    assert calls == [learner.team.mixer, learner.target.mixer]


# lengths 1 to 5, terminated and truncated, the longest episode of each kind
ORACLE_EPISODES = [(3, True), (5, False), (1, True), (4, False), (2, True), (1, False), (5, True)]


def values_alone(team, ep):
    """The local Q values of steps 0..L of one episode unrolled alone: its n
    rows only, no padding, no dropout."""
    with no_grad():
        return [q.data for q in per_step_unroll(team, pad_batch([ep]))]


@pytest.mark.parametrize("mixer", ["vdn", "qmix"])
@pytest.mark.parametrize("comm", [False, True])
# the train step's unroll, and the no-skip one, whose rows past a horizon are
# real values: a VDN target that bootstraps past a terminal step then shows
@pytest.mark.parametrize("unroll", [unroll_team, per_step_unroll])
def test_targets_and_loss_are_those_of_each_episode_unrolled_alone(unroll, mixer, comm):
    gen = np.random.default_rng(31)
    episodes = [episode_of(gen, t, term) for t, term in ORACLE_EPISODES]
    assert not all(ep.avail.all() for ep in episodes)   # some actions are unavailable
    online, target, gamma = warm_team(31, comm, mixer), warm_team(32, comm, mixer), 0.9
    batch = pad_batch(episodes)
    with no_grad():
        online_q = unroll(online, batch)
        y = double_q_targets(batch, online_q[1:], unroll(target, batch, first=1),
                             target.mixer, gamma)
        loss = td_loss(taken_joint_values(online, online_q, batch), y, batch["lengths"]).item()

    errors = []
    for b, ep in enumerate(episodes):
        q_online, q_target = values_alone(online, ep), values_alone(target, ep)
        agents = np.arange(ep.actions.shape[1])
        for t in range(ep.length):
            best = np.where(ep.avail[t + 1], q_online[t + 1], -np.inf).argmax(axis=-1)
            joint = mix_values(target.mixer, q_target[t + 1][agents, best][None],
                               ep.states[t + 1][None])[0]
            want = ep.rewards[t] + gamma * (t < ep.length - 1 or not ep.terminated) * joint
            assert abs(y[b, t] - want) <= 1e-12 * max(1.0, abs(want)), (b, t)
            taken = mix_values(online.mixer, q_online[t][agents, ep.actions[t]][None],
                               ep.states[t][None])[0]
            errors.append(taken - want)
    want_loss = float(np.mean(np.square(errors)))
    assert abs(loss - want_loss) <= 1e-12 * want_loss


# -- the target values cache ------------------------------------------------

def target_alone(learner, ep) -> np.ndarray:
    """The target team's local Q values of steps 1..horizon of one episode
    unrolled alone, (horizon, n, n_actions)."""
    batch = pad_batch([ep])
    with no_grad():
        out = unroll_team(learner.target, batch, first=1)
    n_actions = ep.avail.shape[-1]
    return np.array([q.data for q in out], learner.target.dtype).reshape(
        len(out), ep.actions.shape[1], n_actions)[: horizons(batch)[0]]


def assert_cache_is_fresh(learner, buffer):
    """Every cached episode is one the buffer holds, and its values are bit
    for bit those of the current target team on the episode alone."""
    held = set(buffer.episodes)
    for ep, values in learner.target_cache.items():
        assert ep in held
        assert values.tobytes() == target_alone(learner, ep).tobytes()


@settings(max_examples=40, deadline=None)
@given(episodes=st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=2, max_size=6),
       mixer=st.sampled_from(["vdn", "qmix"]), comm=st.booleans(),
       seed=st.integers(0, 2**16))
def test_cached_target_values_are_the_batched_target_unroll(episodes, mixer, comm, seed):
    lengths, terminated = zip(*episodes)
    (learner, _), buf = learner_pair(lengths, terminated, mixer, comm, seed)
    held, gen = buf.episodes, np.random.default_rng(seed)
    for _ in range(3):   # subsets that overlap the episodes cached before them
        picked = [held[i] for i in gen.permutation(len(held))[: gen.integers(1, len(held) + 1)]]
        batch = pad_batch(picked)
        cached = learner.target_values(picked, buf)
        with no_grad():
            want = unroll_team(learner.target, batch, first=1)
        assert len(cached) == len(want) == int(horizons(batch).max())
        for t, (a, b) in enumerate(zip(cached, want), start=1):
            live = np.repeat(horizons(batch), 2) >= t
            assert a.data.dtype == np.float64 and a.shape == b.shape
            assert np.all(a.data[~live] == 0.0) and np.all(b.data[~live] == 0.0)
            scale = max(np.abs(b.data).max(), 1.0)
            assert np.abs(a.data - b.data).max() <= 1e-12 * scale
    assert len(learner.target_cache) <= len(held)


def float32_learner(hidden, seed, batch_size=6, capacity=12, interval=200, lengths=(1, 9)):
    """A float32 QMIX learner with comm at this hidden width, its target
    moved off the online team, and a full buffer of mixed episodes."""
    n, obs_dim, n_actions, state_dim = 3, 4, 3, 5
    comm = CommSettings(enabled=True, num_layers=1, ffn_dim=16, heads=2, dropout=0.1)
    team = make_team(obs_dim, n_actions, n, state_dim, hidden, "qmix", comm, seed=seed,
                     dtype=np.float32)
    learner = Learner(team, TrainConfig(batch_size=batch_size, buffer_capacity=capacity,
                                        hidden_dim=hidden, target_update_interval=interval),
                      seed=seed)
    gen = np.random.default_rng(seed)
    for p in learner.target.parameters():
        p.data += (0.1 * gen.standard_normal(p.shape)).astype(np.float32)
    buf = ReplayBuffer(capacity)
    for _ in range(capacity):
        buf.add(episode_of(gen, int(gen.integers(*lengths)), bool(gen.random() < 0.5),
                           n=n, obs_dim=obs_dim, n_actions=n_actions, state_dim=state_dim))
    return learner, buf


@pytest.mark.parametrize("hidden", [64, 32])
def test_an_episodes_float32_target_values_do_not_depend_on_its_batch(hidden):
    (a, buf), (b, _) = float32_learner(hidden, 7), float32_learner(hidden, 7)
    eps = buf.episodes
    a.target_values(eps[:8], buf)          # one batch of 8
    b.target_values(eps[4:][::-1], buf)    # another of 8, in another order
    b.target_values(eps[:4], buf)          # and the rest on their own
    for ep in eps:
        other = b.target_cache[ep]
        assert other.dtype == np.float32
        assert other.tobytes() == target_alone(b, ep).tobytes()
        if ep in a.target_cache:
            assert a.target_cache[ep].tobytes() == other.tobytes()


def test_the_cache_is_dropped_at_each_target_sync():
    learner, buf = float32_learner(32, 3, batch_size=6, capacity=8, interval=2)
    drops = 0
    for _ in range(7):
        before = len(learner.target_cache)
        learner.train_step(buf)
        drops += before > 0 and not learner.target_cache
        assert_cache_is_fresh(learner, buf)
    assert drops == 3   # after train steps 2, 4 and 6


def test_the_cache_keeps_only_episodes_the_buffer_holds():
    learner, buf = float32_learner(32, 4, batch_size=4, capacity=6)
    gen = np.random.default_rng(4)

    def episode():
        return episode_of(gen, int(gen.integers(1, 9)), False, n=3, obs_dim=4, n_actions=3,
                          state_dim=5)

    seen = []
    for _ in range(12):
        learner.train_step(buf)
        assert_cache_is_fresh(learner, buf)
        seen.extend(learner.target_cache)
        for _ in range(int(gen.integers(1, 4))):   # each evicts the oldest
            buf.add(episode())
    assert set(seen) - set(buf.episodes)   # some cached episode was evicted
    other = ReplayBuffer(6)   # another buffer, none of whose episodes is cached
    for _ in range(6):
        other.add(episode())
    learner.train_step(other)
    assert_cache_is_fresh(learner, other)


def test_loading_a_snapshot_drops_the_cache(tmp_path):
    from marlab.config import EnvSpec, RunConfig
    from marlab.runner import SeedRun

    config = RunConfig(env=EnvSpec("cue_passing", {"n_agents": 2, "num_cues": 2}),
                       comm=CommSettings(enabled=True, num_layers=1, ffn_dim=8, heads=2),
                       train=tiny_config(test_interval=40, test_episodes=2,
                                         target_update_interval=100),
                       seeds=(1,), total_env_steps=40, out_dir=str(tmp_path))
    run = SeedRun(config, 1, tmp_path)
    run.run(snapshot_interval=1)
    assert run.learner.target_cache   # no sync yet: the values of the last steps
    run.load_state()
    assert_cache_is_fresh(run.learner, run.buffer)
    assert run.learner.train_step(run.buffer) is not None
    assert_cache_is_fresh(run.learner, run.buffer)
