"""Training orchestration for one (config, seed) run.

Episodes are collected greedily-with-noise (epsilon-greedy blended with
top-k Boltzmann when configured), stored whole, and trained on once per
collected episode.  Every test_interval environment steps the greedy policy
is measured on fresh test episodes and one CSV row is emitted; the rows
count the test points, so the next one is due at len(rows) * test_interval.
All randomness is drawn from streams keyed by (seed, purpose, counter), so
a run is a pure function of its seed and resumes bit-exactly from a snapshot.

Training runs in float32: the online and target teams, and so the
optimizer state, are float32, and acting computes in float32 too.  The
invariant oracles (checks.py, nn.gradcheck) build float64 models.  Snapshot
and checkpoint files keep float64 records; widening float32 is exact, and a
float64-trained snapshot, which float32 cannot hold, is refused on load.

A snapshot, a seed directory's state/, holds the run config, the online and
target parameters, the optimizer state, the replay buffer, and the counters
and CSV rows so far.  SeedRun names the files and writes the config, the
parameters and the counters; the Learner lays out the optimizer state
(Learner.state_arrays, resume_at) and the buffer its own arrays
(ReplayBuffer.state_arrays, from_state_arrays).  Every run snapshots at
each test point, so resuming after a crash continues from the last one.  A
snapshot is written as a unit: a process that dies while saving leaves the
previous snapshot whole, and a damaged one is a CheckpointError naming the
file.  Files are not synced to disk, so a crash of the machine is not
covered.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import zipfile
from pathlib import Path
from typing import Optional

import numpy as np

from .agents import TeamModel, build_inputs, make_team
from .config import (RunConfig, differing_keys, read_json, run_config_to_dict,
                     save_run_config)
from .envs import Env, make_env
from .errors import CheckpointError, ConfigError, ContractError, MarlabError
from .exploration import GREEDY, ExplorationConfig, action_distribution, sample_from
from .learner import MAX_TEST_EPISODES, EpisodeRecord, Learner, ReplayBuffer, epsilon
from .nn import no_grad, save_checkpoint, load_checkpoint, load_records, write_records
from .rng import stream, unit_uniform

CSV_FIELDS = ["seed", "env_step", "mean_test_return", "success_rate", "loss", "epsilon"]


def build_team_for_env(config: RunConfig, env: Env, seed: int) -> TeamModel:
    """The team a run trains and evaluates, in float32."""
    return make_team(env.obs_dim, env.n_actions, env.n_agents, env.state_dim,
                     config.train.hidden_dim, config.mixer, config.comm, seed,
                     dtype=np.float32)


def rollout_episode(env: Env, team: TeamModel, explore: ExplorationConfig,
                    eps: float, seed: int, episode_idx: int,
                    comm_mask: Optional[np.ndarray] = None) -> EpisodeRecord:
    """Collect one episode; action noise streams are keyed per (agent, step)."""
    obs, state = env.reset(stream(seed, "env", episode_idx))
    n = env.n_agents
    obs_list, state_list, avail_list = [obs], [state], [env.avail_actions()]
    action_list, reward_list = [], []
    h = team.initial_hidden(n)
    last_actions = None
    done = False
    t = 0
    with no_grad():
        while not done:
            inputs = build_inputs(obs, last_actions, env.n_actions, n)
            q, h = team.step(inputs, h, comm_mask=comm_mask)
            avail = avail_list[-1]
            actions = np.array([
                sample_from(action_distribution(q.data[i], avail[i], explore, eps),
                            unit_uniform(seed, "act", episode_idx, t, i))
                for i in range(n)
            ])
            reward, done, obs, state = env.step(actions)
            action_list.append(actions)
            reward_list.append(reward)
            obs_list.append(obs)
            state_list.append(state)
            avail_list.append(env.avail_actions())
            last_actions = actions
            t += 1
    return EpisodeRecord(
        obs=np.stack(obs_list), states=np.stack(state_list),
        avail=np.stack(avail_list), actions=np.stack(action_list),
        rewards=np.array(reward_list, dtype=float), terminated=True)


def evaluate(env: Env, team: TeamModel, episodes: int, seed: int,
             test_point: int, comm_mask: Optional[np.ndarray] = None,
             ) -> tuple[float, float, int]:
    """Greedy test protocol; returns (mean return, success rate, env steps)."""
    if episodes < 1:
        raise ContractError(f"need at least one test episode, got {episodes}")
    returns, successes, steps = [], 0, 0
    for e in range(episodes):
        record = rollout_episode(env, team, GREEDY, 0.0, seed,
                                 episode_idx=_test_episode_key(test_point, e),
                                 comm_mask=comm_mask)
        total = float(record.rewards.sum())
        returns.append(total)
        successes += int(env.is_success(total))
        steps += record.length
    return float(np.mean(returns)), successes / episodes, steps


def _test_episode_key(test_point: int, episode: int) -> int:
    # distinct from training episode indices, which count from 0
    return 1_000_000_000 + test_point * MAX_TEST_EPISODES + episode


class SeedRun:
    """State of one seed's training run; snapshotable and resumable."""

    def __init__(self, config: RunConfig, seed: int, out_dir: Path):
        self.config = config
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.env = make_env(config.env.name, config.env.params)
        self.learner = Learner(build_team_for_env(config, self.env, seed), config.train, seed)
        self.buffer = ReplayBuffer(config.train.buffer_capacity)
        self.env_step = 0
        self.episode_idx = 0
        self.last_loss = math.nan
        self.rows: list[dict] = []

    @property
    def team(self) -> TeamModel:
        return self.learner.team

    @property
    def next_test(self) -> int:
        """The env step at which the next test point is due."""
        return len(self.rows) * self.config.train.test_interval

    def _test_point(self):
        mean_return, success, _ = evaluate(
            self.env, self.team, self.config.train.test_episodes,
            self.seed, len(self.rows))
        self.rows.append({
            "seed": self.seed,
            "env_step": self.env_step,
            "mean_test_return": mean_return,
            "success_rate": success,
            "loss": self.last_loss,
            "epsilon": epsilon(self.env_step, self.config.train),
        })

    def _due_test_points(self, snapshot_interval: Optional[int]):
        while self.env_step >= self.next_test:
            self._test_point()
            if snapshot_interval and len(self.rows) % snapshot_interval == 0:
                self.save_state()

    def run(self, snapshot_interval: Optional[int] = None) -> list[dict]:
        cfg = self.config
        while self.env_step < cfg.total_env_steps:
            self._due_test_points(snapshot_interval)
            record = rollout_episode(self.env, self.team, cfg.exploration,
                                     epsilon(self.env_step, cfg.train),
                                     self.seed, self.episode_idx)
            self.buffer.add(record)
            self.env_step += record.length
            self.episode_idx += 1
            metrics = self.learner.train_step(self.buffer)
            if metrics is not None:
                self.last_loss = metrics["loss"]
        self._due_test_points(snapshot_interval)
        return self.rows

    def save_state(self):
        """Write the snapshot to state.new/, then swap it in for state/, which
        is state.old/ during the swap (see _settled_state_dir)."""
        new, state, old = (self.out_dir / f"state{s}" for s in (".new", "", ".old"))
        for stale in (new, old):
            shutil.rmtree(stale, ignore_errors=True)
        new.mkdir(parents=True)
        save_run_config(self.config, new / "config.json")
        save_checkpoint(self.team.parameters(), new / "params.bin")
        save_checkpoint(self.learner.target.parameters(), new / "target.bin")
        write_records(new / "optimizer.bin", self.learner.state_arrays().items())
        np.savez(new / "buffer.npz", **self.buffer.state_arrays())
        (new / "progress.json").write_text(json.dumps({
            "env_step": self.env_step,
            "episode_idx": self.episode_idx,
            "train_steps": self.learner.train_steps,
            "last_loss": None if math.isnan(self.last_loss) else self.last_loss,
            "rows": self.rows,
        }))
        if state.exists():
            state.rename(old)
        new.rename(state)
        shutil.rmtree(old, ignore_errors=True)

    def load_state(self):
        state_dir = _settled_state_dir(self.out_dir)
        if (state_dir / "config.json").exists():   # absent in older snapshots
            _refuse_changed_config(state_dir, state_dir / "config.json", self.config)
        path = state_dir / "progress.json"
        try:
            progress = read_json(path)
        except ConfigError as exc:
            raise CheckpointError(str(exc)) from exc
        try:   # older snapshots also hold a next_test, which the rows now give
            self.env_step = progress["env_step"]
            self.episode_idx = progress["episode_idx"]
            self.learner.resume_at(progress["train_steps"])
            last_loss, self.rows = progress["last_loss"], progress["rows"]
        except KeyError as exc:
            raise CheckpointError(f"{path}: missing {exc}") from exc
        load_checkpoint(state_dir / "params.bin", self.team.parameters())
        load_checkpoint(state_dir / "target.bin", self.learner.target.parameters())
        load_records(state_dir / "optimizer.bin", self.learner.state_arrays().items())
        path = state_dir / "buffer.npz"
        try:   # one lookup per key: each NpzFile lookup reads the whole array again
            with open(path, "rb") as fh, np.load(fh) as data:
                arrays = {key: data[key] for key in data.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: damaged ({type(exc).__name__}: {exc})") from exc
        self.buffer = ReplayBuffer.from_state_arrays(self.config.train.buffer_capacity, arrays)
        self.last_loss = last_loss if last_loss is not None else math.nan


def write_csv(path, fields: list[str], rows: list[dict]):
    """The one CSV writer: a header of fields, then each row's values in that order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows([row[k] for k in fields] for row in rows)


def train_one_seed(config: RunConfig, seed: int, out_dir, resume: bool = False) -> list[dict]:
    """Full training for one seed, snapshotting state/ at every test point;
    writes metrics.csv, a final checkpoint and a final snapshot."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = SeedRun(config, seed, out_dir)
    if resume and (_settled_state_dir(out_dir) / "progress.json").exists():
        run.load_state()
    rows = run.run(snapshot_interval=1)
    write_csv(out_dir / "metrics.csv", CSV_FIELDS, rows)
    save_checkpoint(run.team.parameters(), out_dir / "checkpoint.bin",
                    extra={"seed": seed, "env_step": run.env_step})
    run.save_state()
    return rows


def _settled_state_dir(out_dir: Path) -> Path:
    """out_dir/state, moved back from state.old first if a save_state stopped
    between its two renames: state.old then holds the last whole snapshot."""
    state, old = out_dir / "state", out_dir / "state.old"
    if old.exists() and not state.exists():
        old.rename(state)
    return state


def _refuse_changed_config(out_dir: Path, stored_path: Path, config: RunConfig):
    """A resumed run may change total_env_steps and nothing else of its config."""
    changed = [key for key in differing_keys(read_json(stored_path),
                                             run_config_to_dict(config))
               if key != "config.total_env_steps"]
    if changed:
        raise ConfigError(f"cannot resume {out_dir}: config differs from {stored_path} "
                          f"in {', '.join(changed)}")


def train_all_seeds(config: RunConfig, out_dir, resume: bool = False,
                    workers: int = 1) -> dict[int, list[dict]]:
    """Run every configured seed, in processes when workers > 1.

    Resuming refuses a config that differs from the stored config.json in
    anything but total_env_steps, before any file is written.  A worker
    process that dies (killed, out of memory) is an error, not a hang: the
    seeds not yet started are cancelled, and every seed keeps state/ from
    its last test point, so a run with --resume continues.
    """
    out_dir = Path(out_dir)
    stored_path = out_dir / "config.json"
    if resume and stored_path.exists():
        _refuse_changed_config(out_dir, stored_path, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_run_config(config, stored_path)
    seeds = config.seeds
    jobs = ([config] * len(seeds), seeds, [out_dir / f"seed_{seed}" for seed in seeds],
            [resume] * len(seeds))
    if workers > 1 and len(seeds) > 1:
        import multiprocessing as mp
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(min(workers, len(seeds)),
                                     mp_context=mp.get_context("spawn")) as pool:
                runs = list(pool.map(train_one_seed, *jobs))
        except BrokenExecutor as exc:
            raise MarlabError(f"a worker process died while training {out_dir}; "
                              f"rerun with --resume to continue") from exc
    else:
        runs = list(map(train_one_seed, *jobs))
    write_csv(out_dir / "metrics.csv", CSV_FIELDS, [row for rows in runs for row in rows])
    return dict(zip(seeds, runs))
