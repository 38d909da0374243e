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
from marlab.agents import TeamModel, make_team
from marlab.comm import CommSettings
from marlab.errors import ContractError
from marlab.learner import (
    EpisodeRecord,
    Learner,
    ReplayBuffer,
    TrainConfig,
    double_q_targets,
    epsilon,
    pad_batch,
    td_loss,
    unroll_team,
)
from marlab.mixers import mix_values
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


def tiny_team(seed=0, comm=True, mixer="vdn"):
    settings = CommSettings(enabled=comm, num_layers=1, ffn_dim=8, heads=2, dropout=0.1)
    return make_team(obs_dim=3, n_actions=2, n_agents=2, state_dim=4,
                     hidden_dim=8, mixer_kind=mixer, comm=settings, seed=seed)


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


class TestEpisodeRecord:
    def test_length_mismatch_rejected(self):
        gen = np.random.default_rng(0)
        ep = make_episode(gen)
        with pytest.raises(ContractError):
            EpisodeRecord(obs=ep.obs[:-1], states=ep.states, avail=ep.avail,
                          actions=ep.actions, rewards=ep.rewards)


class TestPadBatch:
    def test_padding_and_masks(self):
        gen = np.random.default_rng(0)
        short = make_episode(gen, length=1)
        long = make_episode(gen, length=3)
        batch = pad_batch([short, long])
        assert batch["actions"].shape[1] == 3
        assert np.array_equal(batch["mask"], [[1, 0, 0], [1, 1, 1]])
        assert batch["terminated"][0, 0] == 1.0
        assert batch["terminated"][1, 2] == 1.0
        assert np.all(batch["avail"][0, 2:])  # padded steps stay well defined


class TestDoubleQTargets:
    def test_hand_built_lookahead_case(self):
        # selection must use the online argmax, evaluation the target values
        rewards = np.array([[0.5]])
        terminated = np.array([[0.0]])
        online_next = np.array([[[[1.0, 2.0], [5.0, 0.0]]]])   # argmax: 1, 0
        target_next = np.array([[[[10.0, 3.0], [7.0, 8.0]]]])  # picked: 3, 7
        avail = np.ones((1, 1, 2, 2), dtype=bool)
        states = np.zeros((1, 1, 1))
        y = double_q_targets(rewards, terminated, online_next, target_next,
                             avail, states, lambda q, s: q.sum(axis=1), 0.9)
        assert np.allclose(y, 0.5 + 0.9 * (3.0 + 7.0))

    def test_availability_restricts_selection(self):
        rewards = np.array([[0.0]])
        terminated = np.array([[0.0]])
        online_next = np.array([[[[9.0, 2.0], [1.0, 0.0]]]])
        target_next = np.array([[[[4.0, 3.0], [6.0, 5.0]]]])
        avail = np.array([[[[False, True], [True, True]]]])  # agent 0 cannot take 0
        states = np.zeros((1, 1, 1))
        y = double_q_targets(rewards, terminated, online_next, target_next,
                             avail, states, lambda q, s: q.sum(axis=1), 1.0)
        assert np.allclose(y, 3.0 + 6.0)

    def test_terminal_step_has_no_bootstrap(self):
        rewards = np.array([[2.0]])
        terminated = np.array([[1.0]])
        online_next = np.ones((1, 1, 2, 2))
        target_next = np.ones((1, 1, 2, 2)) * 100
        avail = np.ones((1, 1, 2, 2), dtype=bool)
        y = double_q_targets(rewards, terminated, online_next, target_next,
                             avail, np.zeros((1, 1, 1)),
                             lambda q, s: q.sum(axis=1), 0.99)
        assert np.allclose(y, 2.0)

    def test_gamma_zero_targets_are_rewards(self):
        gen = np.random.default_rng(3)
        rewards = gen.standard_normal((2, 3))
        y = double_q_targets(rewards, np.zeros((2, 3)),
                             gen.standard_normal((2, 3, 2, 2)),
                             gen.standard_normal((2, 3, 2, 2)),
                             np.ones((2, 3, 2, 2), dtype=bool),
                             np.zeros((2, 3, 1)),
                             lambda q, s: q.sum(axis=1), 0.0)
        assert np.allclose(y, rewards)


class TestTdLoss:
    def test_zero_when_prediction_matches_target(self):
        q = Tensor(np.array([[1.0, 2.0]]))
        loss = td_loss(q, np.array([[1.0, 2.0]]), np.ones((1, 2)))
        assert loss.item() == 0.0

    def test_single_step_squared_error(self):
        loss = td_loss(Tensor([[1.0]]), np.array([[3.0]]), np.ones((1, 1)))
        assert loss.item() == 4.0

    def test_mask_excludes_padded_steps(self):
        q = Tensor(np.array([[1.0, 100.0]]))
        loss = td_loss(q, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert loss.item() == 1.0

    def test_gradients_match_finite_differences(self):
        from marlab.nn.gradcheck import max_gradient_error

        gen = np.random.default_rng(4)
        q = Parameter(gen.standard_normal((3, 2)), name="q")
        y = gen.standard_normal((3, 2))
        mask = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        err = max_gradient_error(lambda: td_loss(q, y, mask), [q])
        assert err <= 1e-3

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            td_loss(Tensor([[1.0]]), np.array([[1.0]]), np.zeros((1, 1)))


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
    assert len(qs) == batch["actions"].shape[1] + 1
    assert qs[0].shape == (2 * 2, 2)

    # replay episode 0 by hand with sets=1 and compare step 0
    from marlab.agents import build_inputs

    h = team.initial_hidden(2)
    inputs = build_inputs(episodes[0].obs[0], None, 2, 2)
    q0, _ = team.step(inputs, h)
    assert np.allclose(q0.data, qs[0].data[:2], atol=1e-12)


def test_unroll_steps_range_matches_full_unroll():
    team = tiny_team(12)
    gen = np.random.default_rng(10)
    batch = pad_batch([make_episode(gen, length=3), make_episode(gen, length=2)])
    full = unroll_team(team, batch)
    part = unroll_team(team, batch, steps=range(1, 3))
    assert len(part) == 2
    for a, b in zip(full[1:3], part):
        assert a.data.tobytes() == b.data.tobytes()
    assert unroll_team(team, batch, steps=range(1, 1)) == []


def reference_train_step(learner, buffer):
    """Learner.train_step as the full-unroll formula: every step of both
    unrolls, and double-Q targets at every transition."""
    cfg = learner.config
    episodes = buffer.sample(cfg.batch_size, stream(learner.seed, "sample", learner.train_steps))
    batch = pad_batch(episodes)
    bsz, t_max, n = batch["actions"].shape
    online_q = unroll_team(learner.team, batch,
                           ctx=TrainContext(learner.seed, learner.train_steps))
    with no_grad():
        target_q = unroll_team(learner.target, batch)
    q_tot = T.concat_cols([
        learner.team.mixer(
            T.reshape(T.gather_cols(online_q[t], batch["actions"][:, t].reshape(-1)), bsz, n),
            Tensor(batch["states"][:, t]))
        for t in range(t_max)])

    def stack_values(tensors):
        return np.stack([q.data.reshape(bsz, n, -1) for q in tensors], axis=1)

    targets = double_q_targets(
        batch["rewards"], batch["terminated"], stack_values(online_q[1:]),
        stack_values(target_q[1:]), batch["avail"][:, 1:], batch["states"][:, 1:],
        lambda q, s: mix_values(learner.target.mixer, q, s), cfg.gamma)
    loss = td_loss(q_tot, targets, batch["mask"])
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
