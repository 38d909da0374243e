"""Episodic double Q-learning over whole-episode replay.

Episodes are stored whole and replayed in padded batches, which hold only
arrays, in the layout of the ReplayBuffer's snapshot: each episode's length
and whether it terminated, then its arrays padded to the longest episode.
EPISODE_ARRAYS, the episode table, states those arrays once, in snapshot
order, with the steps, dtype and padding value of each; EpisodeRecord,
pad_batch, ReplayBuffer.from_state_arrays and runner.rollout_episode all
read it.  The batch size, t_max, n_agents and n_actions are their shapes.
Hidden states are re-unrolled from zero for both the online and the frozen
target networks.  Targets pick the next action with the online network and
evaluate it with the target network.  Until the next target sync an
episode's target values are a fixed function of the episode, so the Learner
computes them per block of one episode's rows (T.per_block), bit for bit
those of the episode unrolled alone, and caches them until the sync
(Learner.target_values): a train step unrolls the target network only over
the episodes not sampled since, from their rows of the batch it has padded
once.  The target path keeps the batch's own layout: target_values returns
one (batch, steps, n_agents, n_actions) array, pad_steps of the cached
values, and double_q_targets reads it beside the online values in the same
layout (batch_major).  After one shared global-norm clip two
optimizers step side by side, both built by the Learner from the team's
modules: RMSProp on the agent network and the mixer, Adam on the
communication stack.

One horizon per episode, its length L minus terminated (horizons), decides
what a train step computes and what its loss counts.  Both unrolls run up to
their batch's largest horizon: once an episode is past its own, unroll_team
drops its rows from the recurrent carry and leaves exact zeros in their Q
values, and the target unroll returns Q values from step 1 on (step 0 only
advances its carry).  Transition t bootstraps from step t + 1 iff t + 1 <=
horizon: a terminated episode's last transition and every padded one keep
their reward.  td_loss counts the steps t < L.  No value skipped feeds a
counted term, so the loss is that of the full unroll.  A batch whose
episodes have one length and one termination has no row dropped and runs
the full unroll's arithmetic bit for bit; elsewhere the kept rows' values
may move in the last bits, as BLAS picks its kernel by the row count (see
T.per_block).  A non-finite value at a skipped step does not reach the loss,
nor does an inf or NaN in the GRU's Wh* at the zero state (see T.gru_cell).

Each side mixes once per train step.  taken_joint_values stacks the
chosen-action values of every step time-major and calls the online mixer
once; double_q_targets picks the next action of every bootstrapped step at
once and mixes them in one mix_values call through the target mixer.  Both
run under T.per_block(batch size): every mixer product, forward and
backward, is formed per block of one step's rows, and each mixer weight's
gradient adds the steps' parts in step order, so values, gradients and
parameters are bit for bit those of one mixer call per step.

A train step's peak memory is its forward graph, and that graph holds only
what backward reads: each op's node keeps the arrays its own gradient
needs (see nn.tensor), so a value no backward reads, such as a dropout
product, a residual sum or a ReLU pre-activation, is freed once the
forward drops it.  backward() frees each node's gradient and saved arrays
once it has used them, and every dropout layer applies one mask, drawn
once per train step, at all time steps.

A train step computes in the dtype of the team's parameters: TRAIN_DTYPE
(float32) for the teams a run builds (runner.build_team_for_env), float64
for the models checks.py's invariant oracles build.  Batches stay float64
arrays; unroll_team, taken_joint_values, mix_values and td_loss cast what
they feed into the graph to the parameters' dtype.  The TD targets are
formed in float64 from the float32 target-network values and then cast.

Each object here lays out its own part of a run's snapshot: the
ReplayBuffer its episodes as one padded batch, and the Learner both
optimizers' moments; the Learner's train_steps is stored beside them.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .agents import TeamModel, build_inputs
from .errors import ConfigError, ContractError
from .mixers import mix_values
from .nn import Adam, RMSProp, Tensor, TrainContext, clip_grad_norm, no_grad
from .nn import tensor as T
from .rng import stream


# An episode's arrays, in snapshot order, each as (steps past the episode's
# length T, dtype, padding value): obs, states and avail carry one extra,
# post-terminal entry for target bootstrapping, and a padded step is
# all-available so that argmax stays well defined
EPISODE_ARRAYS = {"obs": (1, np.float64, 0), "states": (1, np.float64, 0),
                  "avail": (1, np.bool_, True), "actions": (0, np.intp, 0),
                  "rewards": (0, np.float64, 0)}


@dataclass(eq=False)
class EpisodeRecord:
    """One complete episode: the arrays of EPISODE_ARRAYS, whose table
    states how many steps each holds; a comment gives the shape of a step.
    Episodes compare and hash by identity, as Learner.target_cache keys them."""

    obs: np.ndarray        # (n, obs_dim)
    states: np.ndarray     # (state_dim,)
    avail: np.ndarray      # (n, n_actions)
    actions: np.ndarray    # (n,)
    rewards: np.ndarray    # ()
    terminated: bool = True

    def __post_init__(self):
        t = len(self.rewards)
        if t == 0:   # no step for the loss to count, and a horizon before step 0
            raise ContractError("an episode needs at least one step")
        if any(getattr(self, key).shape[0] != t + extra
               for key, (extra, _, _) in EPISODE_ARRAYS.items()):
            raise ContractError("episode arrays disagree on length")

    @property
    def length(self) -> int:
        return len(self.rewards)


class ReplayBuffer:
    """Fixed-capacity episode store with strict oldest-first eviction."""

    def __init__(self, capacity: int):
        self._store: deque[EpisodeRecord] = deque(maxlen=capacity)

    def add(self, episode: EpisodeRecord):
        self._store.append(episode)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def episodes(self) -> list[EpisodeRecord]:
        return list(self._store)

    def sample(self, count: int, rng: np.random.Generator) -> list[EpisodeRecord]:
        if len(self._store) < count:
            raise ContractError(f"buffer holds {len(self._store)} < {count} episodes")
        idx = rng.choice(len(self._store), size=count, replace=False)
        return [self._store[i] for i in idx]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The snapshot layout: count, then pad_batch of the episodes, oldest
        first; empty is count = 0 alone."""
        eps = self.episodes
        return {"count": np.array(len(eps)), **(pad_batch(eps) if eps else {})}

    @classmethod
    def from_state_arrays(cls, capacity: int, arrays: dict, sizes: tuple) -> "ReplayBuffer":
        """The buffer whose state_arrays() are `arrays`, for an env of these
        sizes: (n_agents, obs_dim, state_dim, n_actions).

        Their padded layout is checked once: count is an integer in
        [0, capacity] and at most the row count; each other array has its
        dtype kind, one row count, its padded steps (EPISODE_ARRAYS) and the
        env's shape of a step, and 1 <= lengths <= the padded steps.  What
        the episodes hold is checked against the env: at each t <= length
        every agent has an available action, and obs and states are finite in
        TRAIN_DTYPE, float32, which training casts them to; at each t < length
        the action taken is in range and available, and the reward is finite
        in float32.
        Anything else is a ContractError naming the array; each episode's own
        length rule is EpisodeRecord's.
        """
        n, obs_dim, state_dim, n_actions = sizes
        # the shape of one step of each array, which the env decides
        step_shape = {"obs": (n, obs_dim), "states": (state_dim,), "avail": (n, n_actions),
                      "actions": (n,), "rewards": ()}
        count = arrays.get("count", np.array(None))   # an object array if missing: refused
        if count.dtype.kind not in "iu" or count.shape or not 0 <= count <= capacity:
            raise ContractError(f"count must be an integer in [0, {capacity}], got {count!r}")
        buffer = cls(capacity)
        if not count:
            return buffer
        # each array's numpy dtype kinds (any integer for an integer dtype),
        # steps past the padded ones (None: one per episode) and shape of a
        # step, checked in this order: those of fewer steps first
        layout = {"lengths": ("iu", None, ()), "terminated": ("b", None, ()),
                  **{key: (np.dtype(dtype).kind.replace("i", "iu"), extra, step_shape[key])
                     for key, (extra, dtype, _) in sorted(EPISODE_ARRAYS.items(),
                                                          key=lambda item: item[1][0])}}
        if missing := [key for key in layout if key not in arrays]:
            raise ContractError(f"no {', '.join(missing)} array beside count {count}")
        rows, steps = arrays["rewards"].shape[:2]
        for key, (kinds, extra, step) in layout.items():
            array, shape = arrays[key], (rows,) if extra is None else (rows, steps + extra, *step)
            if array.dtype.kind not in kinds or array.shape != shape:
                raise ContractError(f"{key}: a {array.dtype} array of shape {array.shape}, not "
                                    f"of dtype kind {kinds!r} and shape {shape}")
        if count > rows:
            raise ContractError(f"count {count} exceeds the {rows} episodes in lengths")
        bad = np.flatnonzero((arrays["lengths"] < 1) | (arrays["lengths"] > steps))
        if bad.size:
            raise ContractError(f"lengths[{bad[0]}] is not in [1, {steps}], the padded steps")
        live = np.arange(steps + 1) <= arrays["lengths"][:, None]   # the steps t <= length
        legal = arrays["avail"][:, :steps] & (arrays["actions"][..., None] == np.arange(n_actions))
        top = np.finfo(TRAIN_DTYPE).max   # NaN and inf are past it too
        for key, ok in (("avail", arrays["avail"].any(-1)), ("actions", legal.any(-1)),
                        *((k, abs(arrays[k]) <= top) for k in ("obs", "states", "rewards"))):
            # an array of steps + 1 steps is read at t <= length, one of steps at t < length
            at = np.argwhere(live[:, -ok.shape[1]:] & ~ok.reshape(*ok.shape[:2], -1).all(-1))
            if at.size:
                raise ContractError(f"{key}[{at[0][0]}, {at[0][1]}]: " + dict(
                    avail="none available", actions="not available").get(
                        key, f"not finite in {np.dtype(TRAIN_DTYPE)}"))
        for i in range(int(count)):
            t = int(arrays["lengths"][i])
            buffer.add(EpisodeRecord(
                **{key: arrays[key][i, : t + extra].copy()
                   for key, (extra, _, _) in EPISODE_ARRAYS.items()},
                terminated=bool(arrays["terminated"][i])))
        return buffer


# test_episodes is at most this, the stride of the test episode keys: a test
# point's episodes never share the env and act streams of the next one's
MAX_TEST_EPISODES = 10_000
TRAIN_DTYPE = np.float32   # the dtype of a run's teams (runner.build_team_for_env)


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    batch_size: int = 32
    lr: float = 0.0005
    comm_lr: float = 0.0005
    rmsprop_decay: float = 0.99
    rmsprop_eps: float = 1e-5
    epsilon_start: float = 1.0
    epsilon_finish: float = 0.05
    anneal_steps: int = 50_000   # 0 starts at epsilon_finish
    target_update_interval: int = 200
    grad_clip: float = 10.0   # the global gradient norm bound; 0 turns clipping off
    test_interval: int = 2000
    test_episodes: int = 32
    buffer_capacity: int = 5000
    hidden_dim: int = 64

    def __post_init__(self):
        for name in ("gamma", "epsilon_start", "epsilon_finish", "rmsprop_decay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.epsilon_finish > self.epsilon_start:
            raise ConfigError(f"epsilon_finish {self.epsilon_finish} exceeds "
                              f"epsilon_start {self.epsilon_start}")
        # lr 0 is allowed: it freezes a group (comm_lr=0 trains the agents alone)
        if self.lr < 0 or self.comm_lr < 0:
            raise ConfigError(f"lr and comm_lr must be >= 0, got {self.lr}, {self.comm_lr}")
        finfo = np.finfo(TRAIN_DTYPE)
        for name in ("lr", "comm_lr", "rmsprop_eps"):   # training casts them to TRAIN_DTYPE
            if getattr(self, name) > float(finfo.max):
                raise ConfigError(f"{name} must be at most {finfo.dtype}'s largest value, "
                                  f"got {getattr(self, name)}")
        if self.grad_clip < 0:   # clip_grad_norm would silently never clip
            raise ConfigError(f"grad_clip must be >= 0 (0 turns clipping off), "
                              f"got {self.grad_clip}")
        # in TRAIN_DTYPE an eps at or below half the smallest subnormal is 0,
        # and a zero gradient entry then steps by 0 / 0
        if not self.rmsprop_eps > float(finfo.smallest_subnormal) / 2:
            raise ConfigError(f"rmsprop_eps must be above 0 in {finfo.dtype}, "
                              f"got {self.rmsprop_eps}")
        if self.anneal_steps < 0:   # epsilon() would silently never anneal
            raise ConfigError(f"anneal_steps must be >= 0 (0 starts at epsilon_finish), "
                              f"got {self.anneal_steps}")
        for name in ("batch_size", "hidden_dim", "target_update_interval",
                     "test_interval", "test_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.test_episodes > MAX_TEST_EPISODES:
            raise ConfigError(f"test_episodes must be <= {MAX_TEST_EPISODES}, "
                              f"got {self.test_episodes}")
        if self.buffer_capacity < self.batch_size:
            raise ConfigError(f"buffer_capacity {self.buffer_capacity} < batch_size "
                              f"{self.batch_size}: no batch could ever be sampled")


def epsilon(env_step: int, config: TrainConfig) -> float:
    """Linear anneal from start to finish, constant afterwards."""
    if env_step >= config.anneal_steps:
        return config.epsilon_finish
    frac = env_step / config.anneal_steps
    return config.epsilon_start + frac * (config.epsilon_finish - config.epsilon_start)


def pad_steps(parts: list[np.ndarray], steps: int, pad, dtype) -> np.ndarray:
    """Stack per-episode step arrays, each of at most `steps` steps of one
    shape, batch-major: (len(parts), steps, *step shape), of this dtype, with
    `pad` past each part's own steps."""
    out = np.full((len(parts), steps, *parts[0].shape[1:]), pad, dtype)
    for b, part in enumerate(parts):
        out[b, : len(part)] = part
    return out


def pad_batch(episodes: list[EpisodeRecord]) -> dict:
    """Stack episodes into the snapshot layout: lengths and terminated, one
    entry per episode, then the arrays of EPISODE_ARRAYS, in its order, dtypes
    and steps, each stacked by pad_steps to the longest episode.

    Sizes are read from the shapes.  Padded steps hold each array's padding
    value; they lie past their episode's horizon, so no loss term reads them.
    A train step pads its batch once: the target unroll of the episodes not
    cached takes their rows of it (Learner.target_values).
    """
    if not episodes:
        raise ContractError("empty batch")
    lengths = np.array([ep.length for ep in episodes])
    t_max = int(lengths.max())
    batch = {"lengths": lengths, "terminated": np.array([ep.terminated for ep in episodes])}
    for key, (extra, dtype, pad) in EPISODE_ARRAYS.items():
        batch[key] = pad_steps([getattr(ep, key) for ep in episodes], t_max + extra, pad, dtype)
    return batch


def horizons(batch: dict) -> np.ndarray:
    """Each episode's horizon, length - terminated: the last step whose value
    a loss term reads (see the module docstring)."""
    return batch["lengths"] - batch["terminated"]


def unroll_team(team: TeamModel, batch: dict,
                ctx: Optional[TrainContext] = None, first: int = 0) -> list[Tensor]:
    """Run the team over a padded batch; return the local Q values of steps
    `first` up to the batch's largest horizon.

    Each episode runs steps 0..its horizon (horizons).  Returns one
    (batch*n, n_actions) tensor per step.  Hidden states start at zero and
    are carried inside; steps before `first` only advance the recurrent carry
    (no communication, no Q head).  Once an episode is past its horizon, its
    rows are dropped from the carry (T.take_rows) and no later step computes
    them: their Q values are exact zeros (T.put_rows).  The online unroll of
    a train step runs over its whole batch with 2-D products; the target
    values come from Learner.target_values, which runs this over the
    episodes it has not cached, per block of one episode's rows, and keeps
    each episode's values until the next target sync.
    """
    bsz, _, n = batch["actions"].shape
    n_actions = batch["avail"].shape[-1]
    horizon = horizons(batch)
    stop = int(horizon.max()) + 1
    if first >= stop:
        return []
    # steps 0..stop-1 in one array, time-major: inputs[t] is step t, whose
    # previous actions are those of step t - 1, and -1 (none) at step 0
    last = np.concatenate([np.full((bsz, 1, n), -1), batch["actions"][:, : stop - 1]], axis=1)
    inputs = build_inputs(batch["obs"][:, :stop].swapaxes(0, 1).reshape(stop * bsz * n, -1),
                          last.swapaxes(0, 1).reshape(-1), n_actions, n)
    inputs = inputs.astype(team.dtype, copy=False).reshape(stop, bsz * n, -1)

    ends = set(horizon.tolist())
    live = None   # the rows h holds, as a mask over all rows; None for all
    h = team.initial_hidden(bsz * n)
    out = []
    for t in range(stop):
        if t - 1 in ends:   # the episodes of horizon t - 1 are past it
            now = np.repeat(horizon >= t, n)
            h = T.take_rows(h, now if live is None else now[live])
            live = now
            ctx = ctx.on_rows(live) if ctx is not None else None
        x = inputs[t] if live is None else inputs[t][live]
        if t < first:
            h = team.agent.encode(Tensor(x), h)
            continue
        q, h = team.step(x, h, ctx=ctx)
        out.append(q if live is None else T.put_rows(q, live))
    return out


def batch_major(values: list[Tensor], batch: dict) -> np.ndarray:
    """unroll_team's local Q values of some steps of `batch`, one (batch*n,
    n_actions) tensor per step, as one (batch, steps, n_agents, n_actions)
    array: the layout double_q_targets reads."""
    bsz, _, n = batch["actions"].shape
    return np.array([q.data for q in values]).reshape(
        len(values), bsz, n, batch["avail"].shape[-1]).swapaxes(0, 1)


def taken_joint_values(team: TeamModel, online_q: list[Tensor], batch: dict) -> Tensor:
    """Mixed value of the actions actually taken, (batch, t_max).

    online_q holds the local Q values of steps 0..t_max-1 (and possibly more).
    The steps are stacked time-major and mixed in one call, under
    T.per_block(batch) so that each step's products, and their gradients, are
    bit for bit those of the step mixed alone.
    """
    bsz, t_max, n = batch["actions"].shape
    picked = T.gather_cols(T.concat_rows(online_q[:t_max]),
                           batch["actions"].swapaxes(0, 1).reshape(-1))
    states = np.ascontiguousarray(batch["states"][:, :t_max].swapaxes(0, 1), dtype=team.dtype)
    with T.per_block(bsz):
        joint = team.mixer(T.reshape(picked, t_max * bsz, n),
                           Tensor(states.reshape(t_max * bsz, -1)))
    return T.transpose(T.reshape(joint, t_max, bsz))


def double_q_targets(batch: dict, online_next: np.ndarray, target_next: np.ndarray,
                     mixer, gamma: float) -> np.ndarray:
    """One-step TD targets with decoupled selection and evaluation, (batch, t_max).

    online_next and target_next are two arrays of one shape, (batch, k,
    n_agents, n_actions): entry [b, t] holds episode b's local Q values of
    step t + 1, the step after transition t, as unroll_team and
    Learner.target_values give them; any other shapes are a ContractError.
    Transition t bootstraps iff t < k and t + 1 is at most its episode's
    horizon (horizons); every other one keeps its reward, so k = 0 returns a
    copy of the rewards.  The next action is the argmax of the ONLINE values
    over the actions available at t + 1; its value comes from the TARGET
    values, mixed by `mixer` at that step's state.  The chosen values are fed
    time-major to one mix_values call, per block of one step's rows
    (T.per_block), so each joint value is that of the step mixed alone.
    """
    if online_next.shape != target_next.shape:
        raise ContractError(f"double_q_targets: online values of shape {online_next.shape} "
                            f"and target values of shape {target_next.shape}")
    y = batch["rewards"].copy()
    bsz, k, n = online_next.shape[:3]
    if not k:
        return y
    masked = np.where(batch["avail"][:, 1 : k + 1], online_next, -np.inf)
    chosen = np.take_along_axis(target_next, masked.argmax(axis=-1)[..., None], axis=-1)
    states = batch["states"][:, 1 : k + 1].swapaxes(0, 1).reshape(k * bsz, -1)
    with T.per_block(bsz):
        joint = mix_values(mixer, chosen.swapaxes(0, 1).reshape(k * bsz, n), states)
    bootstrap = np.arange(1, k + 1) <= horizons(batch)[:, None]
    y[:, :k] += gamma * bootstrap * joint.reshape(k, bsz).T
    return y


def td_loss(q_tot: Tensor, targets: np.ndarray, lengths: np.ndarray) -> Tensor:
    """Mean squared TD error over the steps t < length of each row's episode;
    targets enter as constants, cast to the dtype of q_tot."""
    mask = np.arange(q_tot.cols) < np.asarray(lengths)[:, None]
    total = float(np.count_nonzero(mask))
    if total == 0:
        raise ContractError("batch has no valid steps")
    dtype = q_tot.data.dtype
    diff = T.mul(T.sub(q_tot, Tensor(targets.astype(dtype, copy=False))),
                 Tensor(mask.astype(dtype)))
    return T.scale(T.tsum(T.square(diff)), 1.0 / total)


class Learner:
    """Owns the optimizers, the target networks, and the training counter.
    The target networks are its own deep copy of the team, whose parameters
    they copy again every target_update_interval train steps; their values on
    each episode are cached until then (target_values)."""

    def __init__(self, team: TeamModel, config: TrainConfig, seed: int):
        self.team = team
        self.target = copy.deepcopy(team)
        self.config = config
        self.seed = seed
        self.train_steps = 0
        self.opt_main = RMSProp(team.agent.parameters() + team.mixer.parameters(), lr=config.lr,
                                decay=config.rmsprop_decay, eps=config.rmsprop_eps)
        self.opt_comm = (Adam(team.comm.parameters(), lr=config.comm_lr)
                         if team.comm is not None else None)
        # each episode's target values, and the buffer's episodes at the
        # last target_values call: see target_values
        self.target_cache: dict[EpisodeRecord, np.ndarray] = {}
        self._held: list[EpisodeRecord] = []

    @property
    def optimizers(self) -> list:
        return [opt for opt in (self.opt_main, self.opt_comm) if opt is not None]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Both optimizers' moment arrays, by name; filling them in place restores them."""
        return {name: arr for opt in self.optimizers
                for name, arr in opt.state_arrays().items()}

    def drop_target_values(self):
        """Forget every cached target value: called wherever the target
        parameters are written (the sync in train_step, SeedRun.load_state)."""
        self.target_cache, self._held = {}, []

    def target_values(self, episodes: list[EpisodeRecord], batch: dict,
                      buffer: ReplayBuffer) -> np.ndarray:
        """The target team's local Q values of steps 1 up to the largest
        horizon of `episodes`, whose pad_batch is `batch`: one (batch,
        steps, n_agents, n_actions) array in the layout double_q_targets
        reads, with exact zeros past each episode's horizon.

        Each episode's values of steps 1..its horizon are cached in
        target_cache until the target parameters are next written
        (drop_target_values) or `buffer` evicts the episode, which this call
        finds in O(evicted): the buffer evicts oldest first, so what left it
        since the last call is what it then held before its oldest episode
        now (all of it, for another buffer).  Only the episodes not cached
        are unrolled, from their rows of `batch`, in one unroll_team call
        under T.per_block(n_agents): each product is formed per block of one
        episode's rows, so an episode's values are bit for bit those of the
        episode unrolled alone, whichever episodes share its batch and
        whether or not it was cached.  A batch whose lengths are not those of
        `episodes`, in order, is a ContractError.
        """
        if not np.array_equal([ep.length for ep in episodes], batch["lengths"]):
            raise ContractError("batch is not the pad_batch of episodes")
        held, seen = buffer.episodes, self._held
        self._held = held
        gone = next((i for i, ep in enumerate(seen) if ep is held[0]), len(seen))
        cache = self.target_cache
        for ep in seen[:gone]:
            cache.pop(ep, None)
        if misses := [b for b, ep in enumerate(episodes) if ep not in cache]:
            rows = {key: array[misses] for key, array in batch.items()}
            with no_grad(), T.per_block(batch["actions"].shape[2]):
                values = batch_major(unroll_team(self.target, rows, first=1), rows)
            for j, (b, h) in enumerate(zip(misses, horizons(rows))):
                cache[episodes[b]] = values[j, :h].copy()
        return pad_steps([cache[ep] for ep in episodes], int(horizons(batch).max()), 0,
                         self.target.dtype)

    def resume_at(self, train_steps: int):
        """Continue after train_steps train steps.  Both optimizers step once
        per train step, so train_steps is their step count too."""
        self.train_steps = train_steps
        for opt in self.optimizers:
            opt.step_count = train_steps

    def train_step(self, buffer: ReplayBuffer) -> Optional[dict]:
        """One gradient update from a sampled batch.

        Returns None (a not-ready signal) while the buffer holds fewer than
        batch_size episodes.
        """
        cfg = self.config
        if len(buffer) < cfg.batch_size:
            return None
        episodes = buffer.sample(cfg.batch_size, stream(self.seed, "sample", self.train_steps))
        batch = pad_batch(episodes)

        online_q = unroll_team(self.team, batch, TrainContext(self.seed, self.train_steps))
        target_next = self.target_values(episodes, batch, buffer)

        q_tot = taken_joint_values(self.team, online_q, batch)
        targets = double_q_targets(batch, batch_major(online_q[1:], batch), target_next,
                                   self.target.mixer, cfg.gamma)

        # no zero_grad: both optimizers' step() leave every grad at None
        loss = td_loss(q_tot, targets, batch["lengths"])
        loss.backward()

        grad_norm = clip_grad_norm(self.team.parameters(), cfg.grad_clip)
        for opt in self.optimizers:
            opt.step()

        self.train_steps += 1
        if self.train_steps % cfg.target_update_interval == 0:
            self.target.copy_from(self.team)
            self.drop_target_values()
        return {"loss": loss.item(), "grad_norm": grad_norm,
                "train_steps": self.train_steps}
