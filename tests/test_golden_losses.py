"""Golden losses: the first train-step losses of two small runs, exactly.

tests/data/golden_losses.json holds repr() of the first 30 losses of a
cue_passing run with VDN and communication, and of one with QMIX and no
communication.  cue_passing's episodes all have one length, so two more
entries hold 30 train-step losses of a float32 QMIX learner with
communication on a buffer of synthetic episodes of lengths 1-6, half of them
truncated: its batches have padded rows and rows past their horizon.  The
second of them is wider (hidden 32, batch 16), a width at which dropping a
row from the unroll moves the bits of the rows that stay.  A change meant to be
bit-exact (a faster op, a skipped computation) must leave every one of them
unchanged.  Only a change that is meant to alter training may rewrite the
file:

    PYTHONPATH=src python tests/test_golden_losses.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from marlab.agents import make_team
from marlab.config import CommSettings, EnvSpec, RunConfig
from marlab.learner import EpisodeRecord, Learner, ReplayBuffer, TrainConfig
from marlab.runner import SeedRun

GOLDEN = Path(__file__).parent / "data" / "golden_losses.json"
STEPS = 30
BATCH = 8
RUNS = {
    "vdn_comm": dict(mixer="vdn", comm=CommSettings(
        enabled=True, num_layers=1, ffn_dim=16, heads=2, dropout=0.1)),
    "qmix_nocomm": dict(mixer="qmix", comm=CommSettings(enabled=False)),
}


def first_losses(name: str, tmp_dir) -> list[str]:
    # cue_passing episodes are 2 steps long and the first update comes with
    # the BATCH-th episode, so this budget gives exactly STEPS updates
    total = 2 * (BATCH + STEPS - 1)
    config = RunConfig(
        env=EnvSpec("cue_passing", {"n_agents": 3, "num_cues": 3}),
        train=TrainConfig(batch_size=BATCH, buffer_capacity=64, hidden_dim=16,
                          anneal_steps=total, test_interval=total, test_episodes=2,
                          target_update_interval=10),
        seeds=(3,), total_env_steps=total, out_dir=str(tmp_dir), **RUNS[name])
    run = SeedRun(config, seed=3, out_dir=tmp_dir)
    losses = []
    train_step = run.learner.train_step

    def recording(buffer):
        out = train_step(buffer)
        if out is not None:
            losses.append(repr(out["loss"]))
        return out

    run.learner.train_step = recording
    run.run()
    return losses


# the padded entries' hidden width and batch size
PADDED = {"qmix_comm_padded": (16, BATCH), "qmix_comm_padded_wide": (32, 16)}


def padded_losses(hidden: int, batch: int) -> list[str]:
    n, obs_dim, n_actions, state_dim, episodes = 3, 4, 3, 5, 32
    gen = np.random.default_rng(25)
    buffer = ReplayBuffer(episodes)
    for i in range(episodes):
        length = int(gen.integers(1, 7))
        buffer.add(EpisodeRecord(
            obs=gen.standard_normal((length + 1, n, obs_dim)),
            states=gen.standard_normal((length + 1, state_dim)),
            avail=np.ones((length + 1, n, n_actions), dtype=bool),
            actions=gen.integers(0, n_actions, size=(length, n)),
            rewards=gen.standard_normal(length), terminated=i % 2 == 0))
    comm = CommSettings(enabled=True, num_layers=1, ffn_dim=16, heads=2, dropout=0.1)
    team = make_team(obs_dim, n_actions, n, state_dim, hidden, "qmix", comm, seed=3,
                     dtype=np.float32)
    learner = Learner(team, TrainConfig(batch_size=batch, buffer_capacity=episodes,
                                        hidden_dim=hidden, target_update_interval=10), seed=3)
    return [repr(learner.train_step(buffer)["loss"]) for _ in range(STEPS)]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_first_losses_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    assert len(golden) == STEPS
    assert first_losses(name, tmp_path) == golden


@pytest.mark.parametrize("name", sorted(PADDED))
def test_padded_batch_losses_match_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert len(golden) == STEPS
    assert padded_losses(*PADDED[name]) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: first_losses(name, Path(tmp) / name) for name in RUNS}
    record.update({name: padded_losses(*PADDED[name]) for name in PADDED})
    record = dict(sorted(record.items()))
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
