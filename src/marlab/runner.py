"""Training orchestration for one (config, seed) run.

Episodes are collected greedily-with-noise (epsilon-greedy blended with
top-k Boltzmann when configured), stored whole, and trained on once per
collected episode.  Every test_interval environment steps the greedy policy
is measured on fresh test episodes and one CSV row is emitted; the rows
count the test points, so the next one is due at len(rows) * test_interval.
All randomness is drawn from streams keyed by (seed, purpose, counter), so
a run is a pure function of its seed and resumes bit-exactly from a snapshot.

Acting is one loop over a batch of episodes, each on its own env instance:
a test point plays its episodes in lockstep, at most MAX_TEST_EPISODES at a
time, which bounds the memory of `marlab eval --episodes N`; training plays
a batch of one.  Each time step is one team step over the agents of every
live episode and one action_distribution and sample_from call over all of
them, with each draw still keyed by (episode, step, agent); an episode
leaves the batch when it ends.  Inside the loop the forward products are
formed per block of one episode's rows (nn.tensor.per_block), so each
episode's Q values are bit for bit those of the episode played alone: one
2-D product over the stacked rows lets BLAS pick its kernel, and so the
last bits, by the batch size.  Training's online unroll keeps 2-D products
over a batch's rows, which at their sizes are faster and which the losses
were recorded with; its target values are formed per block of one episode's
rows and cached until the next target sync, and its mixing runs per block of
one step's rows (learner).

Training runs in learner.TRAIN_DTYPE, float32: the online and target
teams, and so the optimizer state, are float32, and acting is too.  The
invariant oracles (checks.py, nn.gradcheck) build float64 models.  Snapshot
files keep float64 records; widening float32 is exact, and a float64-trained
snapshot, which float32 cannot hold, is refused on load.

A finished seed directory holds metrics.csv and state/, its last snapshot,
which `marlab eval` reads the trained team from and a resume continues from,
both in place (last_snapshot).  A snapshot holds config.json (the run
config), params.bin and target.bin (the online and target parameters),
optimizer.bin (the optimizer state), buffer.npz (the replay buffer) and
progress.json (the counters and the rows so far, which CSV_FIELDS, the row
table, types column by column).  SeedRun names the files and writes the
config, the parameters and the counters; the Learner lays out the optimizer
state (Learner.state_arrays, resume_at) and the buffer its own arrays
(ReplayBuffer.state_arrays, from_state_arrays), by learner.EPISODE_ARRAYS,
the episode table.  Every run snapshots at each test point, so resuming
after a crash continues from the last one.  A snapshot is written as a unit,
and only SeedRun.save_state moves snapshot directories: a process that dies
while saving leaves the previous snapshot whole.  A snapshot is its six
files, each required: one that is missing, damaged or at odds with the
others is refused in one line naming the file (SeedRun.load_state).  A
resume may change only total_env_steps and out_dir of the config, so a run
directory that was copied or moved resumes where it is.  Files are not
synced to disk, so a crash of the machine is not covered.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import shutil
import zipfile
from pathlib import Path
from typing import Collection, Optional

import numpy as np

from .agents import TeamModel, build_inputs, make_team
from .config import (RunConfig, check_seed, check_type, differing_keys, read_json,
                     run_config_to_dict, save_run_config)
from .envs import Env, make_env
from .errors import CheckpointError, ConfigError, ContractError, MarlabError
from .exploration import GREEDY, ExplorationConfig, action_distribution, sample_from
from .learner import (EPISODE_ARRAYS, MAX_TEST_EPISODES, TRAIN_DTYPE, EpisodeRecord, Learner,
                      ReplayBuffer, epsilon)
from .nn import load_records, write_records
from .nn import tensor as T
from .rng import stream, unit_uniform

# The row table: each column of metrics.csv, in order, with the type a row
# holds it in, which progress.json's rows are read back as (_read_progress);
# a loss may be NaN or infinite, so strict JSON holds it as _loss_to_json says
CSV_FIELDS = {"seed": int, "env_step": int, "mean_test_return": float,
              "success_rate": float, "loss": float, "epsilon": float}


def build_team_for_env(config: RunConfig, env: Env, seed: int) -> TeamModel:
    """The team a run trains and evaluates, in TRAIN_DTYPE."""
    return make_team(env.obs_dim, env.n_actions, env.n_agents, env.state_dim,
                     config.train.hidden_dim, config.mixer, config.comm, seed,
                     dtype=TRAIN_DTYPE)


def rollout_episode(env: Env, team: TeamModel, explore: ExplorationConfig,
                    eps: float, seed: int, episode_idx: int) -> EpisodeRecord:
    """Collect one episode; action noise streams are keyed per (agent, step)."""
    trace, = _play([env], team, explore, eps, seed, [episode_idx], None)
    return EpisodeRecord(   # np.array stacks a short list faster than np.stack
        **{key: np.array(steps, dtype) for (key, (_, dtype, _)), steps
           in zip(EPISODE_ARRAYS.items(), trace, strict=True)}, terminated=True)


def evaluate(env: Env, team: TeamModel, episodes: int, seed: int,
             test_point: int, comm_mask: Optional[np.ndarray] = None,
             ) -> tuple[float, float, int]:
    """Greedy test protocol; returns (mean return, success rate, env steps).

    The episodes play in lockstep, at most MAX_TEST_EPISODES at a time, each
    on its own copy of env, which is left as it was."""
    if episodes < 1:
        raise ContractError(f"need at least one test episode, got {episodes}")
    returns, successes, steps = [], 0, 0
    for start in range(0, episodes, MAX_TEST_EPISODES):
        keys = [_test_episode_key(test_point, e)
                for e in range(start, min(episodes, start + MAX_TEST_EPISODES))]
        for *_, rewards in _play([copy.copy(env) for _ in keys], team, GREEDY, 0.0,
                                 seed, keys, comm_mask):
            total = float(np.array(rewards, dtype=float).sum())
            returns.append(total)
            successes += int(env.is_success(total))
            steps += len(rewards)
    return float(np.mean(returns)), successes / episodes, steps


def _play(envs: list[Env], team: TeamModel, explore: ExplorationConfig, eps: float,
          seed: int, keys: list[int], comm_mask: Optional[np.ndarray]) -> list[tuple]:
    """Play one episode on each env, keyed by keys, in lockstep.  Returns per
    episode the lists (observations, states, avail masks, actions, rewards)
    of its steps, those of learner.EPISODE_ARRAYS in its order and with its
    steps: the observations, states and masks end with what the env shows
    after the last step, the final state's.  rollout_episode stacks them into
    an EpisodeRecord, and evaluate reads only the rewards.

    Each time step is one team step and one action draw over the agents of
    every live episode.  An episode ends by the env's done, which makes its
    record terminated; its rows then leave the recurrent carry (T.take_rows).
    """
    n, n_actions = envs[0].n_agents, envs[0].n_actions
    traces = []
    for env, key in zip(envs, keys):
        obs, state = env.reset(stream(seed, "env", key))
        traces.append(([obs], [state], [env.avail_actions()], [], []))
    live = list(range(len(envs)))
    h = team.initial_hidden(len(envs) * n)
    last_actions = None
    t = 0
    with T.no_grad(), T.per_block(n):
        while True:
            obs = np.concatenate([traces[e][0][-1] for e in live])
            q, h = team.step(build_inputs(obs, last_actions, n_actions, n), h,
                             comm_mask=comm_mask)
            avail = np.concatenate([traces[e][2][-1] for e in live])
            u = np.array([unit_uniform(seed, "act", keys[e], t, i)
                          for e in live for i in range(n)])
            actions = sample_from(action_distribution(q.data, avail, explore, eps),
                                  u).reshape(len(live), n)
            going = np.zeros(len(live), dtype=bool)
            for row, e in enumerate(live):
                reward, done, obs, state = envs[e].step(actions[row])
                for trace, value in zip(traces[e], (obs, state, envs[e].avail_actions(),
                                                    actions[row], reward)):
                    trace.append(value)
                going[row] = not done
            if not going.any():
                break
            if not going.all():
                h = T.take_rows(h, np.repeat(going, n))
                actions = actions[going]
                live = [e for e, on in zip(live, going) if on]
            last_actions = actions.reshape(-1)
            t += 1
    return traces


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
        self.rows.append(dict(zip(CSV_FIELDS, (
            self.seed, self.env_step, mean_return, success, self.last_loss,
            epsilon(self.env_step, self.config.train)), strict=True)))

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
        is state.old/ during the swap (see last_snapshot); the one code that
        moves snapshot directories.  A stale state.old/ goes only once state/
        exists: until state.new/ is renamed in, it may be the last whole one."""
        new, state, old = (self.out_dir / f"state{s}" for s in (".new", "", ".old"))
        shutil.rmtree(new, ignore_errors=True)
        new.mkdir(parents=True)
        save_run_config(self.config, new / "config.json")
        for name, team in (("params", self.team), ("target", self.learner.target)):
            write_records(new / f"{name}.bin", ((p.name, p.data) for p in team.parameters()))
        write_records(new / "optimizer.bin", self.learner.state_arrays().items())
        np.savez(new / "buffer.npz", **self.buffer.state_arrays())
        (new / "progress.json").write_text(json.dumps({   # strict JSON: see _loss_to_json
            "env_step": self.env_step,
            "episode_idx": self.episode_idx,
            "train_steps": self.learner.train_steps,
            "last_loss": _loss_to_json(self.last_loss),
            "rows": [{**row, "loss": _loss_to_json(row["loss"])} for row in self.rows],
        }, allow_nan=False))
        if state.exists():
            shutil.rmtree(old, ignore_errors=True)
            state.rename(old)
        new.rename(state)
        shutil.rmtree(old, ignore_errors=True)

    def load_state(self):
        """Load out_dir's last snapshot, read in place (last_snapshot).  Each
        of its six files is required; config.json must match the run's config
        but for total_env_steps and out_dir (_refuse_changed_config),
        progress.json's rows must be this run's test points (_read_progress,
        which bounds their number by env_step // I + 1, with I the test
        interval), and progress.json must agree with the buffer:
        episode_idx <= env_step, and the rows number at least one per test
        point due before the newest episode, (env_step - its length) // I + 1.
        Anything else is refused in one line naming the file, as a
        CheckpointError or, for config.json, a ConfigError."""
        state_dir = last_snapshot(self.out_dir)
        _refuse_changed_config(state_dir / "config.json", self.config)
        interval = self.config.train.test_interval
        self.env_step, self.episode_idx, train_steps, self.last_loss, self.rows = \
            _read_progress(state_dir / "progress.json", self.seed, interval)
        self.learner.resume_at(train_steps)
        for name, team in (("params", self.team), ("target", self.learner.target)):
            load_records(state_dir / f"{name}.bin", ((p.name, p.data) for p in team.parameters()))
        self.learner.drop_target_values()
        load_records(state_dir / "optimizer.bin", self.learner.state_arrays().items())
        path = state_dir / "buffer.npz"
        try:   # one lookup per key: each NpzFile lookup reads the whole array again
            with open(path, "rb") as fh, np.load(fh) as data:
                arrays = {key: data[key] for key in data.files}
            sizes = self.env.n_agents, self.env.obs_dim, self.env.state_dim, self.env.n_actions
            self.buffer = ReplayBuffer.from_state_arrays(self.config.train.buffer_capacity, arrays,
                                                         sizes)
        except (OSError, EOFError, ValueError, zipfile.BadZipFile, ContractError) as exc:
            raise CheckpointError(f"{path}: damaged ({type(exc).__name__}: {exc})") from exc
        steps = self.env_step
        least = (steps - self.buffer.episodes[-1].length) // interval + 1 if len(self.buffer) else 0
        if not (self.episode_idx <= steps and least <= len(self.rows)):
            raise CheckpointError(
                f"{state_dir / 'progress.json'}: env_step {steps}, episode_idx "
                f"{self.episode_idx} and {len(self.rows)} rows disagree: with test_interval "
                f"{interval} and this buffer, want episode_idx <= env_step and at least "
                f"{least} rows")


def _loss_to_json(loss: float):
    """A loss as strict JSON holds it: null for NaN, the loss before any train
    step, and "inf" or "-inf" for an infinite one."""
    return loss if math.isfinite(loss) else None if math.isnan(loss) else str(loss)


def _loss_from_json(where: str, loss) -> float:
    """The inverse of _loss_to_json: null is NaN, "inf" and "-inf" are
    infinite, and a number, older snapshots' bare NaN and Infinity included,
    is itself.  Anything else is a ConfigError naming where."""
    if loss is None or loss in ("inf", "-inf"):
        return math.nan if loss is None else float(loss)
    if isinstance(loss, bool) or not isinstance(loss, (int, float)):
        raise ConfigError(f'{where}: expected a number, null, "inf" or "-inf", got {loss!r}')
    return loss


def write_csv(path, fields: Collection[str], rows: list[dict]):
    """The one CSV writer: a header of fields, then each row's values in that order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows([row[k] for k in fields] for row in rows)


def train_one_seed(config: RunConfig, seed: int, out_dir, resume: bool = False) -> list[dict]:
    """Full training for one seed, snapshotting state/ at every test point;
    writes metrics.csv and the final snapshot, which holds the trained team.
    With resume it continues from the last snapshot, if one exists."""
    run = SeedRun(config, seed, out_dir)
    if resume and last_snapshot(run.out_dir).exists():
        run.load_state()
    rows = run.run(snapshot_interval=1)
    write_csv(run.out_dir / "metrics.csv", CSV_FIELDS, rows)
    run.save_state()
    return rows


def _read_progress(path: Path, seed: int, interval: int,
                   ) -> tuple[int, int, int, float, list[dict]]:
    """A snapshot's progress.json as (env_step, episode_idx, train_steps,
    last_loss, rows), each value checked as it is read: the counters are
    integers >= 0 (check_seed), last_loss and each row's loss are losses
    (_loss_from_json), and each row is an object holding every column of the
    row table, CSV_FIELDS, each other one of its type there (check_type, which
    reads a float given as an integer as that float).  Each row is rebuilt
    from the table's keys.  The rows are those _due_test_points writes: each
    carries the run's seed, and row i's env_step is at least test point i's,
    i * interval, and the row before's, and at most env_step.  Other keys, a
    row's or such as older snapshots' next_test, are dropped.  Anything else
    is a CheckpointError naming the file and the field, such as rows[1].loss."""
    try:
        progress = read_json(path)
        if not isinstance(progress, dict):
            raise ConfigError(f"{path}: expected an object, got {type(progress).__name__}")
        for key in ("env_step", "episode_idx", "train_steps", "last_loss", "rows"):
            if key not in progress:
                raise ConfigError(f"{path}: missing {key!r}")
        for key in ("env_step", "episode_idx", "train_steps"):
            check_seed(f"{path}: {key}", progress[key])
        rows = progress["rows"]
        if not isinstance(rows, list) or not all(
                isinstance(row, dict) and row.keys() >= CSV_FIELDS.keys() for row in rows):
            raise ConfigError(f"{path}: rows: expected a list of objects holding each of "
                              f"{', '.join(CSV_FIELDS)}")
        env_step, floor = progress["env_step"], 0
        for i, row in enumerate(rows):
            where = f"{path}: rows[{i}]"
            rows[i] = row = {key: _loss_from_json(f"{where}.{key}", row[key]) if key == "loss"
                             else check_type(f"{where}.{key}", kind, row[key])
                             for key, kind in CSV_FIELDS.items()}
            if row["seed"] != seed:
                raise ConfigError(f"{where}.seed: expected the run's seed {seed}, "
                                  f"got {row['seed']!r}")
            floor = max(floor, i * interval)
            if not floor <= row["env_step"] <= env_step:
                raise ConfigError(f"{where}.env_step: expected {floor} to {env_step}, "
                                  f"got {row['env_step']!r}")
            floor = row["env_step"]
        return (progress["env_step"], progress["episode_idx"], progress["train_steps"],
                _loss_from_json(f"{path}: last_loss", progress["last_loss"]), rows)
    except ConfigError as exc:   # read_json's, check_seed's and check_type's too
        raise CheckpointError(str(exc)) from exc


def last_snapshot(out_dir: Path) -> Path:
    """out_dir's last whole snapshot: state/, or state.old/ if a save stopped
    mid-swap.  Eval and resume read it where it is; the next save_state
    settles the directories."""
    state, old = out_dir / "state", out_dir / "state.old"
    return old if old.exists() and not state.exists() else state


def _refuse_changed_config(stored_path: Path, config: RunConfig):
    """A resumed run may change total_env_steps and out_dir and nothing else
    of the config stored at stored_path, which must be there to read: how
    long a run goes on and where it lives are not part of what it computes,
    so a run directory that was copied or moved resumes where it is now."""
    changed = [key for key in differing_keys(read_json(stored_path),
                                             run_config_to_dict(config))
               if key not in ("config.total_env_steps", "config.out_dir")]
    if changed:
        raise ConfigError(f"cannot resume {stored_path.parent}: config differs from "
                          f"{stored_path} in {', '.join(changed)}")


def train_all_seeds(config: RunConfig, out_dir, resume: bool = False,
                    workers: int = 1) -> dict[int, list[dict]]:
    """Run every configured seed, in processes when workers > 1; workers < 1
    is a ConfigError.

    Resuming refuses a config that differs from the stored config.json in
    anything but total_env_steps and out_dir, before any file is written, and
    rewrites config.json only once every seed has run, so a resume that a
    seed's snapshot refuses leaves it as it was; a run directory that was
    copied or moved resumes at its new out_dir, which the rewrite records.  A
    fresh run writes config.json before it trains, so that a crashed run's
    resume is checked against it.  A worker process that dies (killed, out of
    memory) is an error, not a hang: the seeds not yet started are cancelled,
    and every seed keeps its last snapshot, so a run with --resume continues.
    """
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    stored_path = out_dir / "config.json"
    if resume and stored_path.exists():
        _refuse_changed_config(stored_path, config)
    else:
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
    save_run_config(config, stored_path)   # a resume's total_env_steps
    return dict(zip(seeds, runs))
