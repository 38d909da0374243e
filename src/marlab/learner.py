"""Episodic double Q-learning over whole-episode replay.

Episodes are stored whole and replayed in padded batches, which hold only
arrays: the batch size, t_max, n_agents and n_actions are their shapes.
Hidden states are re-unrolled from zero for both the online and the frozen
target networks.  Targets pick the next action with the online network and
evaluate it with the target network.  After one shared global-norm clip two
optimizers step side by side, both built by the Learner from the team's
modules: RMSProp on the agent network and the mixer, Adam on the
communication stack.

A train step unrolls only the steps its loss reads.  Let k be one past the
last transition t at which some row has mask * (1 - terminated) > 0 (k = 0
if there is none); only transitions before k bootstrap.  The online unroll
runs steps 0..max(t_max - 1, k): every step up to t_max - 1 feeds the
chosen-action values, and step k selects the last bootstrapped action.  The
target unroll returns Q values for steps 1..k only; at step 0 it just
advances the recurrent carry, and nothing after k runs.  Targets at
transitions from k on are the rewards.  This is exact: every skipped step
fed either a term multiplied by (1 - terminated) = 0 or a padded row that
the mask zeroes, and none of them is on the gradient path, so losses,
gradients and parameters are bit-identical to the full unroll.  One
difference shows only on broken networks: a non-finite target value at a
skipped step used to make the loss NaN (0 * inf) and now does not.

A train step's peak memory is its forward graph: backward() frees each
node's gradient and saved arrays once it has used them, and every dropout
layer applies one mask, drawn once per train step, at all time steps.

A train step computes in the dtype of the team's parameters: float32 for
the teams a run builds (runner.build_team_for_env), float64 for the models
the invariant oracles in checks.py build.  Batches stay float64 arrays;
unroll_team, taken_joint_values, mix_values and td_loss cast what they feed
into the graph to the parameters' dtype.  The TD targets are formed in
float64 from the float32 target-network values and then cast.

Each object here lays out its own part of a run's snapshot: the
ReplayBuffer its episodes as padded arrays, and the Learner both
optimizers' moments; the Learner's train_steps is stored beside them.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .agents import TeamModel, build_inputs
from .errors import ConfigError, ContractError
from .mixers import mix_values
from .nn import Adam, RMSProp, Tensor, TrainContext, clip_grad_norm, no_grad
from .nn import tensor as T
from .rng import stream


@dataclass
class EpisodeRecord:
    """One complete episode.

    Per-step arrays cover t = 0..T-1; observation-like arrays carry one
    extra entry (the post-terminal observation) for target bootstrapping.
    """

    obs: np.ndarray        # (T+1, n, obs_dim)
    states: np.ndarray     # (T+1, state_dim)
    avail: np.ndarray      # (T+1, n, n_actions) bool
    actions: np.ndarray    # (T, n) int
    rewards: np.ndarray    # (T,)
    terminated: bool = True

    def __post_init__(self):
        t = len(self.rewards)
        if not (self.actions.shape[0] == t
                and self.obs.shape[0] == t + 1
                and self.states.shape[0] == t + 1
                and self.avail.shape[0] == t + 1):
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
        """The snapshot layout: count, lengths and terminated, then pad_batch's obs,
        states, avail, actions and rewards, oldest first; empty is count = 0 alone."""
        eps = self.episodes
        if not eps:
            return {"count": np.array(0)}
        batch = pad_batch(eps)
        return {"count": np.array(len(eps)),
                "lengths": np.array([ep.length for ep in eps]),
                "terminated": np.array([ep.terminated for ep in eps]),
                **{key: batch[key] for key in ("obs", "states", "avail", "actions", "rewards")}}

    @classmethod
    def from_state_arrays(cls, capacity: int, arrays: dict) -> "ReplayBuffer":
        """The buffer whose state_arrays() are `arrays`."""
        buffer = cls(capacity)
        for i in range(int(arrays["count"])):
            t = int(arrays["lengths"][i])
            buffer.add(EpisodeRecord(
                **{key: arrays[key][i, : t + 1].copy() for key in ("obs", "states", "avail")},
                **{key: arrays[key][i, :t].copy() for key in ("actions", "rewards")},
                terminated=bool(arrays["terminated"][i])))
        return buffer


# test_episodes is at most this, the stride of the test episode keys: a test
# point's episodes never share the env and act streams of the next one's
MAX_TEST_EPISODES = 10_000


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
    anneal_steps: int = 50_000
    target_update_interval: int = 200
    grad_clip: float = 10.0
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
        # training runs in float32, where an eps at or below half the smallest
        # subnormal is 0, and a zero gradient entry then steps by 0 / 0
        if not self.rmsprop_eps > float(np.finfo(np.float32).smallest_subnormal) / 2:
            raise ConfigError(f"rmsprop_eps must be above 0 in float32, got {self.rmsprop_eps}")
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


def pad_batch(episodes: list[EpisodeRecord]) -> dict:
    """Stack episodes into fixed arrays padded to the longest episode.

    The batch holds only its seven arrays; sizes are read from their shapes.
    Padded steps carry a zero validity mask and all-available action masks
    (so argmax stays well defined; they never reach the loss).
    """
    if not episodes:
        raise ContractError("empty batch")
    bsz = len(episodes)
    t_max = max(ep.length for ep in episodes)
    _, n, obs_dim = episodes[0].obs.shape
    n_actions = episodes[0].avail.shape[-1]
    state_dim = episodes[0].states.shape[-1]

    obs = np.zeros((bsz, t_max + 1, n, obs_dim))
    states = np.zeros((bsz, t_max + 1, state_dim))
    avail = np.ones((bsz, t_max + 1, n, n_actions), dtype=bool)
    actions = np.zeros((bsz, t_max, n), dtype=np.intp)
    rewards = np.zeros((bsz, t_max))
    mask = np.zeros((bsz, t_max))
    terminated = np.zeros((bsz, t_max))

    for b, ep in enumerate(episodes):
        t = ep.length
        obs[b, : t + 1] = ep.obs
        states[b, : t + 1] = ep.states
        avail[b, : t + 1] = ep.avail
        actions[b, :t] = ep.actions
        rewards[b, :t] = ep.rewards
        mask[b, :t] = 1.0
        if ep.terminated:
            terminated[b, t - 1] = 1.0

    return {"obs": obs, "states": states, "avail": avail, "actions": actions,
            "rewards": rewards, "mask": mask, "terminated": terminated}


def unroll_team(team: TeamModel, batch: dict,
                ctx: Optional[TrainContext] = None,
                steps: Optional[range] = None) -> list[Tensor]:
    """Run the team over a padded batch; return the local Q values of `steps`.

    Returns one (batch*n, n_actions) tensor per step of the contiguous range
    `steps`, by default every step t = 0..t_max.  Hidden states start at
    zero and are carried inside; steps before steps.start only advance the
    recurrent carry (no communication, no Q head) and steps from steps.stop
    on do not run.
    """
    bsz, t_max, n = batch["actions"].shape
    n_actions = batch["avail"].shape[-1]
    if steps is None:
        steps = range(t_max + 1)
    h = team.initial_hidden(bsz * n)
    out = []
    for t in range(steps.stop if steps else 0):
        flat_obs = batch["obs"][:, t].reshape(bsz * n, -1)
        last = batch["actions"][:, t - 1].reshape(-1) if t > 0 else None
        inputs = build_inputs(flat_obs, last, n_actions, n)
        if t < steps.start:
            h = team.encode(inputs, h)
            continue
        q, h = team.step(inputs, h, ctx=ctx)
        out.append(q)
    return out


def taken_joint_values(team: TeamModel, online_q: list[Tensor], batch: dict) -> Tensor:
    """Mixed value of the actions actually taken: one (batch, 1) column per step.

    online_q holds the local Q values of steps 0..t_max-1 (and possibly more);
    the columns cover t = 0..t_max-1.
    """
    bsz, t_max, n = batch["actions"].shape
    states = batch["states"].astype(team.dtype, copy=False)
    q_taken = []
    for t in range(t_max):
        picked = T.gather_cols(online_q[t], batch["actions"][:, t].reshape(-1))
        q_taken.append(team.mixer(T.reshape(picked, bsz, n), Tensor(states[:, t])))
    return T.concat_cols(q_taken)


def stack_values(q_values: list[Tensor], batch: dict) -> np.ndarray:
    """Per-step local Q tensors as one (batch, steps, n, n_actions) array."""
    bsz, _, n = batch["actions"].shape
    return np.stack([q.data.reshape(bsz, n, -1) for q in q_values], axis=1)


def double_q_targets(rewards: np.ndarray, terminated: np.ndarray,
                     online_next_q: np.ndarray, target_next_q: np.ndarray,
                     avail_next: np.ndarray, states_next: np.ndarray,
                     mix_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     gamma: float) -> np.ndarray:
    """One-step TD targets with decoupled selection and evaluation.

    The next action is the argmax of the ONLINE local values over available
    actions; its value comes from the TARGET network, mixed by mix_fn at the
    next state.  All arrays are (batch, T, ...); returns (batch, T).
    """
    bsz, t_len = rewards.shape
    y = np.empty((bsz, t_len))
    for t in range(t_len):
        masked = np.where(avail_next[:, t], online_next_q[:, t], -np.inf)
        best = masked.argmax(axis=-1)
        chosen = np.take_along_axis(target_next_q[:, t], best[..., None], axis=-1)[..., 0]
        joint = mix_fn(chosen, states_next[:, t])
        y[:, t] = rewards[:, t] + gamma * (1.0 - terminated[:, t]) * joint
    return y


def td_loss(q_tot: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared TD error over valid steps; targets enter as constants,
    cast to the dtype of q_tot."""
    total = float(mask.sum())
    if total == 0:
        raise ContractError("batch has no valid steps")
    dtype = q_tot.data.dtype
    diff = T.mul(T.sub(q_tot, Tensor(targets.astype(dtype, copy=False))),
                 Tensor(mask.astype(dtype, copy=False)))
    return T.scale(T.tsum(T.square(diff)), 1.0 / total)


class Learner:
    """Owns the optimizers, the target networks, and the training counter.
    The target networks are its own deep copy of the team, whose parameters
    they copy again every target_update_interval train steps."""

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

    @property
    def optimizers(self) -> list:
        return [opt for opt in (self.opt_main, self.opt_comm) if opt is not None]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Both optimizers' moment arrays, by name; filling them in place restores them."""
        return {name: arr for opt in self.optimizers
                for name, arr in opt.state_arrays().items()}

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
        t_max = batch["actions"].shape[1]

        # transitions from k on never bootstrap (see the module docstring)
        bootstraps = (batch["mask"] * (1.0 - batch["terminated"]) > 0).any(axis=0)
        k = int(np.flatnonzero(bootstraps)[-1]) + 1 if bootstraps.any() else 0

        ctx = TrainContext(self.seed, self.train_steps)
        online_q = unroll_team(self.team, batch, ctx=ctx, steps=range(max(t_max - 1, k) + 1))
        with no_grad():
            target_q = unroll_team(self.target, batch, steps=range(1, k + 1))

        q_tot = taken_joint_values(self.team, online_q, batch)
        targets = batch["rewards"].copy()
        if k:
            targets[:, :k] = double_q_targets(
                batch["rewards"][:, :k], batch["terminated"][:, :k],
                stack_values(online_q[1 : k + 1], batch), stack_values(target_q, batch),
                batch["avail"][:, 1 : k + 1], batch["states"][:, 1 : k + 1],
                lambda q, s: mix_values(self.target.mixer, q, s), cfg.gamma)

        # no zero_grad: both optimizers' step() leave every grad at None
        loss = td_loss(q_tot, targets, batch["mask"])
        loss.backward()

        grad_norm = clip_grad_norm(self.team.parameters(), cfg.grad_clip)
        for opt in self.optimizers:
            opt.step()

        self.train_steps += 1
        if self.train_steps % cfg.target_update_interval == 0:
            self.target.copy_from(self.team)
        return {"loss": loss.item(), "grad_norm": grad_norm,
                "train_steps": self.train_steps}
