"""Training runs in float32, the invariant oracles in float64.

A graph has one dtype: a float64 array entering a float32 graph makes the op
it enters raise ContractError.  These tests watch the dtype of every op
result and gradient of a training run and of an oracle.
"""

import numpy as np
import pytest

from marlab import checks
from marlab.agents import make_team
from marlab.comm import CommSettings
from marlab.config import EnvSpec, RunConfig
from marlab.learner import (EpisodeRecord, TrainConfig, pad_batch, taken_joint_values,
                            td_loss, unroll_team)
from marlab.nn import TrainContext
from marlab.nn import tensor as T
from marlab.rng import stream
from marlab.runner import SeedRun

COMM = CommSettings(enabled=True, num_layers=1, ffn_dim=8, heads=2, dropout=0.1)


def watch_dtypes(monkeypatch) -> set:
    """Record the dtype name of every op result and every accumulated gradient."""
    seen = set()
    result = T._result

    def watched_result(data, parents, backward):
        seen.add(("result", data.dtype.name))
        return result(data, parents, backward)

    def watched(accum):
        def watched_accum(t, g):
            seen.add(("gradient", np.asarray(g).dtype.name))
            return accum(t, g)
        return watched_accum

    monkeypatch.setattr(T, "_result", watched_result)
    for name in ("_accum", "_accum_new"):
        monkeypatch.setattr(T, name, watched(getattr(T, name)))
    return seen


def run_config(mixer: str, tmp_path) -> RunConfig:
    return RunConfig(
        env=EnvSpec("cue_passing", {"n_agents": 2, "num_cues": 2}), mixer=mixer, comm=COMM,
        train=TrainConfig(batch_size=4, buffer_capacity=50, anneal_steps=100, hidden_dim=8,
                          test_interval=20, test_episodes=2, target_update_interval=3),
        seeds=(1,), total_env_steps=40, out_dir=str(tmp_path))


@pytest.mark.parametrize("mixer", ["vdn", "qmix"])
def test_a_training_run_computes_in_float32_only(mixer, tmp_path, monkeypatch):
    run = SeedRun(run_config(mixer, tmp_path), seed=1, out_dir=tmp_path)
    seen = watch_dtypes(monkeypatch)
    run.run()
    assert run.learner.train_steps > 0
    assert seen == {("result", "float32"), ("gradient", "float32")}
    params = run.team.parameters() + run.learner.target.parameters()
    assert {p.data.dtype for p in params} == {np.dtype(np.float32)}
    state = [a for opt in run.learner.optimizers for a in opt.state_arrays().values()]
    assert {a.dtype for a in state} == {np.dtype(np.float32)}


def test_the_end_to_end_gradient_check_computes_in_float64_only(monkeypatch):
    seen = watch_dtypes(monkeypatch)
    passed, detail = checks.check_gradient_end_to_end(3, "none")
    assert passed, detail
    assert seen == {("result", "float64"), ("gradient", "float64")}


def representable_episode(gen, length: int) -> EpisodeRecord:
    """An episode whose float arrays float32 holds exactly."""
    def draw(*shape):
        return gen.standard_normal(shape).astype(np.float32).astype(np.float64)

    return EpisodeRecord(obs=draw(length + 1, 2, 3), states=draw(length + 1, 4),
                         avail=np.ones((length + 1, 2, 2), dtype=bool),
                         actions=gen.integers(0, 2, size=(length, 2)),
                         rewards=draw(length), terminated=bool(length % 2))


@pytest.mark.parametrize("mixer", ["vdn", "qmix"])
def test_float32_gradients_agree_with_float64_ones(mixer):
    teams = {dtype: make_team(obs_dim=3, n_actions=2, n_agents=2, state_dim=4, hidden_dim=8,
                              mixer_kind=mixer, comm=COMM, seed=7, dtype=dtype)
             for dtype in (np.float32, np.float64)}
    gen = stream(7, "dtype-agreement")
    # warm the zero-initialised comm projection so the stack gets a gradient
    teams[np.float32].comm.out_proj.weight.data[...] = gen.standard_normal((8, 8)) * 0.2
    teams[np.float64].copy_from(teams[np.float32])   # widening is exact
    batch = pad_batch([representable_episode(gen, t) for t in (3, 1, 4, 2)])
    grads = {}
    for dtype, team in teams.items():
        q = unroll_team(team, batch, ctx=TrainContext(7, 0))
        td_loss(taken_joint_values(team, q, batch), batch["rewards"], batch["lengths"]).backward()
        grads[dtype] = np.concatenate([p.grad.ravel() for p in team.parameters()])
        assert grads[dtype].dtype == dtype
    g32, g64 = grads[np.float32], grads[np.float64]
    assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)
    assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


def test_a_float32_snapshot_round_trip_keeps_dtype_and_bytes(tmp_path):
    run = SeedRun(run_config("qmix", tmp_path), seed=1, out_dir=tmp_path)
    run.run()
    run.save_state()
    fresh = SeedRun(run.config, seed=1, out_dir=tmp_path)
    fresh.load_state()

    def arrays(r):
        state = {k: a for opt in r.learner.optimizers for k, a in opt.state_arrays().items()}
        return ([p.data for p in r.team.parameters() + r.learner.target.parameters()]
                + [state[k] for k in sorted(state)])

    for saved, loaded in zip(arrays(run), arrays(fresh), strict=True):
        assert saved.dtype == loaded.dtype == np.float32
        assert saved.tobytes() == loaded.tobytes()
