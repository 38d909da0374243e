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
unchanged.  Only a change that is meant to alter training may rewrite
entries, and it names each one it rewrites; the others stay as they are:

    PYTHONPATH=src python tests/test_golden_losses.py NAME...

Given no name, or one that is not an entry, it writes nothing and exits 2
naming the four entries.
"""

import json
import os
import subprocess
import sys
import tempfile
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


@pytest.mark.parametrize("args", [[], ["vdn_comm", "vdn_nocomm"]])
def test_a_rewrite_without_a_known_entry_name_writes_nothing(args):
    before = GOLDEN.read_bytes()
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 2
    assert all(name in result.stderr for name in [*RUNS, *PADDED]), result.stderr
    assert GOLDEN.read_bytes() == before


if __name__ == "__main__":
    names, entries = sys.argv[1:], sorted([*RUNS, *PADDED])
    if not names or set(names) - set(entries):
        print(f"usage: {sys.argv[0]} NAME...; each NAME an entry of {GOLDEN.name}: "
              f"{', '.join(entries)}", file=sys.stderr)
        sys.exit(2)
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        golden.update({name: first_losses(name, Path(tmp) / name) if name in RUNS
                       else padded_losses(*PADDED[name]) for name in names})
    GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
    print(f"rewrote {', '.join(names)} in {GOLDEN}", file=sys.stderr)
