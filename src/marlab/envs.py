"""Cooperative environments and exact planning oracles.

Each environment states its dynamics once, as a model over hashable
states, and the same model drives both the learner and the planner:

  model_initial()            [(start state, probability), ...]
  model_step(state, joint)   (shared reward, next state, or None at the end)
  model_avail(state)         (n_agents, n_actions) bool: each agent's legal
                             actions in state; all True unless overridden

model_joint_actions(state) enumerates the joint actions model_avail(state)
allows, for the planners.  The model alone states the task.  reset() starts
in the model's one start state; only a model with several needs a
_start(rng) that draws one.  step() checks the team action against
model_avail of the current state, advances with model_step and returns the
observations that _observe(state) gives; after the last step those are the
final state's.  avail_actions() is the mask of the state _observe last
described, so after the last step it too is the final state's.
Observations are deterministic functions of the state.
The three built-in tasks are deliberately small enough for exact dynamic
programming, so learned values can be checked against a brute-force
optimum:

  MatrixGame    one-shot payoff table; the default "climbing" table has a
                tempting suboptimal equilibrium.
  CuePassing    each agent privately sees a cue and must announce its left
                neighbour's cue one step later; unsolvable without
                communication beyond a provable ceiling.
  TwoStepCoop   agent 0's first move selects which payoff table the team
                faces on the second step.
"""

from __future__ import annotations

import itertools
import math
from operator import getitem
from typing import Optional

import numpy as np

from .errors import CapacityError, ConfigError, ContractError, EpisodeOverError
from .learner import TRAIN_DTYPE

# Classic climbing payoffs: (0,0) is optimal at 11, but (2,2) at 5 is a
# strict equilibrium that unilateral exploration cannot escape.
CLIMBING_PAYOFF = np.array([
    [11.0, -30.0, 0.0],
    [-30.0, 7.0, 0.0],
    [0.0, 6.0, 5.0],
])

ORACLE_PAIR_LIMIT = 10_000
POLICY_ENUM_LIMIT = 2_000_000


class Env:
    """Behavioral contract shared by all environments.

    Subclasses set n_agents, n_actions, obs_dim, state_dim and best_return
    (the optimal episode return, which is_success asks for) and define
    the model: model_initial/model_step/model_avail are the dynamics the
    planner enumerates and step() runs, and _observe(state) gives the
    (per-agent observations, global state) arrays of a state.  A model with
    several start states also defines _start(rng), which draws one of them.
    """

    n_agents: int
    n_actions: int
    obs_dim: int
    state_dim: int
    best_return: float
    _state = None  # the state _observe last described; None before reset
    _over = True   # whether the episode has ended, as it has before reset

    def reset(self, rng: np.random.Generator):
        """Start an episode; returns (observations (n, obs_dim), global state)."""
        self._state, self._over = self._start(rng), False
        return self._observe(self._state)

    def step(self, actions):
        """Apply one team action; returns (reward, done, observations, global state)."""
        if self._over:
            raise EpisodeOverError("episode already finished")
        reward, nxt = self.model_step(self._state, self._check_actions(actions))
        self._over = nxt is None
        if nxt is not None:   # after the last step, the final state is the one described
            self._state = nxt
        obs, state = self._observe(self._state)
        return reward, self._over, obs, state

    def avail_actions(self) -> np.ndarray:
        """The (n_agents, n_actions) mask of the state _observe last described."""
        return self.model_avail(self._state)

    def is_success(self, episode_return: float) -> bool:
        return episode_return >= self.best_return - 1e-9

    def _check_actions(self, actions) -> tuple[int, ...]:
        """The team action as a tuple of integers, each available to its agent."""
        try:
            shape = np.shape(actions)
        except ValueError:   # numpy gives a ragged sequence such as [[0], 1] no shape
            raise ContractError(f"need {self.n_agents} actions, got a ragged sequence "
                                f"of {len(actions)} entries") from None
        if shape != (self.n_agents,):
            raise ContractError(f"need {self.n_agents} actions, got shape {shape}")
        joint = tuple(actions.tolist() if isinstance(actions, np.ndarray) else actions)
        avail = self.model_avail(self._state)
        for i, a in enumerate(joint):   # 0.5 or True is no action, though numpy casts it to one
            if (not isinstance(a, (int, np.integer)) or isinstance(a, bool)
                    or not 0 <= a < self.n_actions or not avail[i, a]):
                raise ContractError(f"agent {i} took unavailable action {a!r}")
        return joint

    def _start(self, rng: np.random.Generator):
        (start, _), *more = self.model_initial()
        if more:   # a model with several start states draws one in its own _start
            raise ContractError(f"{type(self).__name__} has several start states and no _start")
        return start

    def _observe(self, state) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def model_initial(self) -> list[tuple[object, float]]:
        raise NotImplementedError

    def model_avail(self, state) -> np.ndarray:
        return np.ones((self.n_agents, self.n_actions), dtype=bool)

    def model_joint_actions(self, state) -> list[tuple[int, ...]]:
        """Every joint action model_avail(state) allows."""
        return list(itertools.product(
            *(np.flatnonzero(row).tolist() for row in self.model_avail(state))))

    def model_step(self, state, joint_action) -> tuple[float, Optional[object]]:
        raise NotImplementedError


class MatrixGame(Env):
    """One-shot two-player game defined by a payoff table.

    Both agents observe the same constant dummy value: all information is
    symmetric and the difficulty is purely in coordinating the joint action.
    A rectangular table gives the agents different action counts; the
    shorter side's surplus actions are simply unavailable.
    """

    def __init__(self, payoff=CLIMBING_PAYOFF):
        self.payoff = _payoff_table(payoff)
        self.best_return = float(self.payoff.max())
        self.n_agents = 2
        self.n_actions = max(self.payoff.shape)
        self.obs_dim = 1
        self.state_dim = 1

    def _observe(self, state):
        return np.ones((2, 1)), np.ones(1)

    def model_avail(self, state):
        avail = np.zeros((2, self.n_actions), dtype=bool)
        avail[0, : self.payoff.shape[0]] = True
        avail[1, : self.payoff.shape[1]] = True
        return avail

    def model_initial(self):
        return [("s0", 1.0)]

    def model_step(self, state, joint_action):
        return float(self.payoff[joint_action[0], joint_action[1]]), None


def _payoff_table(payoff) -> np.ndarray:
    """payoff as a float array; it must be a list of equally long, non-empty
    rows of finite numbers that TRAIN_DTYPE, which training casts rewards to,
    holds."""
    rows = payoff.tolist() if isinstance(payoff, np.ndarray) else payoff
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(row, (list, tuple)) and row for row in rows)):
        raise ConfigError("payoff must be a 2-D table: a non-empty list of non-empty rows")
    if len({len(row) for row in rows}) != 1:
        raise ConfigError(f"payoff rows differ in length: {[len(row) for row in rows]}")
    top = float(np.finfo(TRAIN_DTYPE).max)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not abs(value) <= top):   # NaN and inf are past it too
                raise ConfigError(f"payoff entries must be finite numbers "
                                  f"{np.dtype(TRAIN_DTYPE)} holds; payoff[{i}][{j}] is {value!r}")
    return np.array(rows, dtype=float)


class CuePassing(Env):
    """Pass-your-cue-to-the-right: agent i must output agent (i-1)'s cue.

    At the first step each agent privately observes its own cue, uniform
    over m symbols.  At the second step the team is rewarded 1 only if
    every agent announces its left neighbour's cue.  Observations carry
    the agent's own cue and the timestep; the global state carries all
    cues (legal for centralized training, hidden from the agents).  With
    cheat_obs=True every agent sees all cues, removing the need to
    communicate.  A state is (cues, t).
    """

    def __init__(self, n_agents: int = 3, num_cues: int = 3, cheat_obs: bool = False):
        if n_agents < 2 or num_cues < 1:
            raise ConfigError("need at least 2 agents and 1 cue symbol")
        self.n_agents = n_agents
        self.num_cues = num_cues
        self.cheat_obs = cheat_obs
        self.best_return = 1.0
        self.n_actions = num_cues
        self.obs_dim = (n_agents * num_cues if cheat_obs else num_cues) + 2
        self.state_dim = n_agents * num_cues + 2
        self._cue_offsets = np.arange(n_agents) * num_cues   # agent i's cue block starts here

    # perfbench traces envs.CuePassing.step, which it looks up in this class's own namespace
    step = Env.step

    def _start(self, rng):
        return tuple(rng.integers(0, self.num_cues, size=self.n_agents).tolist()), 0

    def _observe(self, state):
        cues, t = state
        onehot = np.zeros(self.state_dim)   # the global state: each agent's cue, then t
        onehot[self._cue_offsets + cues] = 1.0
        onehot[-2 + t] = 1.0
        cue_rows = onehot[:-2] if self.cheat_obs else onehot[:-2].reshape(self.n_agents, -1)
        obs = np.zeros((self.n_agents, self.obs_dim))
        obs[:, :-2], obs[:, -2:] = cue_rows, onehot[-2:]
        return obs, onehot

    def model_initial(self):
        combos = itertools.product(range(self.num_cues), repeat=self.n_agents)
        p = 1.0 / self.num_cues ** self.n_agents
        return [((cues, 0), p) for cues in combos]

    def model_step(self, state, joint_action):
        cues, t = state
        if t == 0:
            return 0.0, (cues, 1)
        # agent i must say the cue of agent i-1 (agent 0 that of the last agent)
        said = all(joint_action[i] == cues[i - 1] for i in range(self.n_agents))
        return (1.0 if said else 0.0), None


class TwoStepCoop(Env):
    """Two agents, two actions, two steps; agent 0's first action selects
    which payoff table the second step uses.

    Branch A pays a flat amount regardless of actions; branch B pays by a
    table whose best entry beats branch A but whose worst entry is zero.
    Fully enumerable, so the learned joint value can be held against the
    planner's optimum.  States are 0 (start), 1 (branch A), 2 (branch B).
    """

    BRANCH_A_PAYOFF = 7.0
    BRANCH_B_TABLE = np.array([[0.0, 1.0], [1.0, 8.0]])
    best_return = float(BRANCH_B_TABLE.max())

    def __init__(self):
        self.n_agents = 2
        self.n_actions = 2
        self.obs_dim = 3
        self.state_dim = 3

    def _observe(self, state):
        onehot = np.eye(3)[state]
        return np.repeat(onehot[None, :], 2, axis=0), onehot

    def model_initial(self):
        return [(0, 1.0)]

    def model_step(self, state, joint_action):
        if state == 0:
            return 0.0, (1 if joint_action[0] == 0 else 2)
        if state == 1:
            return self.BRANCH_A_PAYOFF, None
        return float(self.BRANCH_B_TABLE[joint_action[0], joint_action[1]]), None


ENVS = {"matrix_game": MatrixGame, "cue_passing": CuePassing, "two_step_coop": TwoStepCoop}


def env_class(name: str) -> type:
    if name not in ENVS:
        raise ConfigError(f"unknown environment {name!r}")
    return ENVS[name]


def make_env(name: str, params: Optional[dict] = None) -> Env:
    return env_class(name)(**(params or {}))


def value_iteration(env: Env, gamma: float):
    """Exact optimal value and one optimal joint policy by backward recursion.

    Works on any enumerable environment whose model graph is acyclic (all
    built-in tasks terminate within their horizon).  Refuses instances with
    more than ORACLE_PAIR_LIMIT state-action pairs.

    Returns (optimal start value, policy dict, per-state value dict).
    """
    values: dict = {}
    policy: dict = {}
    pairs = 0

    def best(state) -> float:
        nonlocal pairs
        if state in values:
            return values[state]
        best_v, best_a = -np.inf, None
        for action in env.model_joint_actions(state):
            pairs += 1
            if pairs > ORACLE_PAIR_LIMIT:
                raise CapacityError(
                    f"more than {ORACLE_PAIR_LIMIT} state-action pairs")
            reward, nxt = env.model_step(state, action)
            v = reward if nxt is None else reward + gamma * best(nxt)
            if v > best_v:
                best_v, best_a = v, action
        values[state] = best_v
        policy[state] = best_a
        return best_v

    start_value = sum(p * best(s) for s, p in env.model_initial())
    return start_value, policy, values


def blind_optimum(env: CuePassing) -> float:
    """Best expected return over deterministic policies that see only the
    agent's own cue, found by exhaustive enumeration of env's model.

    Each agent's second-step action is a table own-cue -> action; the first
    step's action changes neither the reward nor the next state.  A joint
    table scores the reward model_step((cues, 1), actions) gives at each
    start (cues, 0) of model_initial, weighted by the start's probability and
    summed exactly (math.fsum), so that a sure win scores 1.0.
    """
    if not isinstance(env, CuePassing):
        raise ContractError("blind_optimum is defined for CuePassing")
    n, m = env.n_agents, env.num_cues
    if (m ** m) ** n > POLICY_ENUM_LIMIT:
        raise CapacityError("policy space too large to enumerate")
    # per start: its cues, its probability and the reward of each joint action at (cues, 1)
    starts = [(cues, p, {a: env.model_step((cues, 1), a)[0]
                         for a in env.model_joint_actions((cues, 1))})
              for (cues, _), p in env.model_initial()]
    tables = list(itertools.product(range(m), repeat=m))
    return max(math.fsum(p * reward[tuple(map(getitem, joint, cues))]
                         for cues, p, reward in starts)
               for joint in itertools.product(tables, repeat=n))
