"""Per-agent network and team-level forward pass.

One parameter set is shared by all agents; identity enters through an id
one-hot appended to the input, alongside the observation and the previous
action one-hot.  The recurrent state that carries to the next timestep is
the GRU output itself: communication refines what feeds the Q head but
never leaks into the recurrent carry, so disabling it recovers the plain
mixer baseline exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .comm import CommSettings, CommStack
from .errors import ShapeError
from .nn import Dense, GRUCell, Module, Tensor, TrainContext, relu
from .nn import tensor as T
from .rng import stream


def build_inputs(obs: np.ndarray, last_actions: Optional[np.ndarray],
                 n_actions: int, n_agents: int) -> np.ndarray:
    """Concatenate [observation | last-action one-hot | agent-id one-hot].

    obs is (rows, obs_dim) with rows = sets * n_agents, agents varying
    fastest.  last_actions is (rows,) or None for the first timestep, where
    the action one-hot is all zeros.
    """
    rows = obs.shape[0]
    if rows % n_agents != 0:
        raise ShapeError(f"{rows} rows do not split into teams of {n_agents}")
    act = np.zeros((rows, n_actions))
    if last_actions is not None:
        act[np.arange(rows), np.asarray(last_actions, dtype=np.intp)] = 1.0
    ids = np.tile(np.eye(n_agents), (rows // n_agents, 1))
    return np.concatenate([obs, act, ids], axis=1)


class AgentNet(Module):
    """Input MLP -> GRU -> output MLP producing per-action local Q values."""

    def __init__(self, obs_dim: int, n_actions: int, n_agents: int,
                 hidden_dim: int, seed: int):
        super().__init__()
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.n_agents = n_agents
        self.hidden_dim = hidden_dim
        self.in_dim = obs_dim + n_actions + n_agents
        rng = stream(seed, "agent-init")
        self.fc_in = self._register(Dense(self.in_dim, hidden_dim, rng, "agent.fc_in"))
        self.gru = self._register(GRUCell(hidden_dim, hidden_dim, rng, "agent.gru"))
        self.fc_out = self._register(Dense(hidden_dim, n_actions, rng, "agent.fc_out"))

    def encode(self, x: Tensor, h_prev: Tensor) -> Tensor:
        return self.gru(relu(self.fc_in(x)), h_prev)

    def q_head(self, h: Tensor) -> Tensor:
        return self.fc_out(h)


class TeamModel(Module):
    """Shared agent net, optional communication stack, and a mixer.

    Parameters come in that order, so a team with a stack never lines up
    with one without: copy_from between them is a ShapeError.
    """

    def __init__(self, agent: AgentNet, comm: Optional[CommStack], mixer: Module):
        super().__init__()
        self.agent = self._register(agent)
        self.comm = self._register(comm) if comm is not None else None
        self.mixer = self._register(mixer)

    def initial_hidden(self, rows: int) -> Tensor:
        return Tensor(np.zeros((rows, self.agent.hidden_dim)))

    def step(self, inputs: np.ndarray, h_prev: Tensor, sets: int = 1,
             ctx: Optional[TrainContext] = None,
             comm_mask: Optional[np.ndarray] = None):
        """One team-forward over sets independent teams stacked row-wise.

        Returns (local Q values (rows, actions), next recurrent state).
        An optional n x n comm_mask restricts which agents hear which; it is
        applied inside every team block.
        """
        n = self.agent.n_agents
        if inputs.shape[0] != sets * n:
            raise ShapeError(f"expected {sets * n} rows, got {inputs.shape[0]}")
        h = self.agent.encode(Tensor(inputs), h_prev)
        if self.comm is not None:
            z = self.comm(h, mask=comm_mask, sets=sets, ctx=ctx)
            h_tilde = T.add(h, z) if self.comm.settings.residual else z
        else:
            h_tilde = h
        return self.agent.q_head(h_tilde), h


def make_team(obs_dim: int, n_actions: int, n_agents: int, state_dim: int,
              hidden_dim: int, mixer_kind: str, comm: CommSettings,
              seed: int) -> TeamModel:
    """Assemble a team model; the stack is as wide as the hidden state."""
    from .mixers import make_mixer

    agent = AgentNet(obs_dim, n_actions, n_agents, hidden_dim, seed)
    stack = CommStack(comm, hidden_dim, seed) if comm.enabled else None
    mixer = make_mixer(mixer_kind, n_agents, state_dim, seed)
    return TeamModel(agent, stack, mixer)
