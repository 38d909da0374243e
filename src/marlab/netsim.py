"""Deployment simulation for the communication step.

Two ways to run the same stack at inference time:

  centralized  every agent ships its hidden state to one aggregation node,
               which runs the full stack and ships each increment back:
               2n vector transfers total, one round, regardless of depth.

  distributed  every agent keeps its own row and exchanges rows with the
               peers that can hear it once per encoder layer: L rounds,
               one directed send per reachable (speaker, listener) pair
               per round.  Out-of-reach pairs get exactly zero attention
               weight, which is the same as the listener never having
               received the row.

Under full connectivity both produce identical increments; the simulator
checks that and counts the traffic.  centralized_traffic and
distributed_traffic are the only home of the per-step traffic formulas:
the rounds below and `marlab eval --deploy` both use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import CommStack
from .config import read_json
from .errors import ConfigError, ShapeError
from .nn import Tensor, no_grad


@dataclass(frozen=True)
class Topology:
    """Directed reachability: reachable[i, j] means agent i hears agent j."""

    reachable: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.reachable, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"reachability must be square, got {arr.shape}")
        if not np.all(np.diag(arr)):
            raise ConfigError("every agent must reach itself")
        object.__setattr__(self, "reachable", arr)

    @property
    def n(self) -> int:
        return self.reachable.shape[0]

    def directed_links(self) -> int:
        """Off-diagonal reachable pairs: one message per pair per round."""
        return int(self.reachable.sum() - self.n)

    @classmethod
    def full(cls, n: int) -> "Topology":
        return cls(np.ones((n, n), dtype=bool))

    @classmethod
    def isolate(cls, n: int, agent: int) -> "Topology":
        reach = np.ones((n, n), dtype=bool)
        reach[agent, :] = False
        reach[:, agent] = False
        reach[agent, agent] = True
        return cls(reach)

    @classmethod
    def from_json(cls, path) -> "Topology":
        """A topology from a JSON object whose "reachable" is a square 0/1 matrix."""
        spec = read_json(path)
        if not isinstance(spec, dict) or "reachable" not in spec:
            raise ConfigError(f"{path}: expected an object with a 'reachable' matrix")
        rows = spec["reachable"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ConfigError(f"{path}: 'reachable' must be a list of rows")
        for v in (v for r in rows for v in r):
            if type(v) not in (int, bool) or v not in (0, 1):
                raise ConfigError(f"{path}: 'reachable' entries must be 0, 1, true "
                                  f"or false, got {v!r}")
        try:
            reach = np.asarray(rows, dtype=bool)
        except ValueError as exc:
            raise ConfigError(f"{path}: 'reachable' has rows of unequal length") from exc
        try:
            return cls(reach)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TrafficStats:
    messages: int
    floats_transferred: int
    rounds: int


def centralized_traffic(n: int, width: int) -> TrafficStats:
    """Per-step traffic of the aggregation node: up n states, back n increments."""
    return TrafficStats(messages=2 * n, floats_transferred=2 * n * width, rounds=1)


def distributed_traffic(topology: Topology, num_layers: int, width: int) -> TrafficStats:
    """Per-step peer-to-peer traffic: one send per reachable link per layer."""
    messages = num_layers * topology.directed_links()
    return TrafficStats(messages=messages, floats_transferred=messages * width,
                        rounds=num_layers)


def centralized_round(comm: CommStack, hidden: np.ndarray) -> tuple[np.ndarray, TrafficStats]:
    """Aggregation-node deployment of one communication step."""
    hidden = np.asarray(hidden, dtype=comm.dtype)
    n, width = hidden.shape
    with no_grad():
        z = comm(Tensor(hidden)).data.copy()
    return z, centralized_traffic(n, width)


def distributed_round(comm: CommStack, hidden: np.ndarray,
                      topology: Topology) -> tuple[np.ndarray, TrafficStats]:
    """Peer-to-peer deployment: one exchange of rows per encoder layer."""
    hidden = np.asarray(hidden, dtype=comm.dtype)
    n, width = hidden.shape
    if topology.n != n:
        raise ShapeError(f"topology is for {topology.n} agents, hidden has {n} rows")
    with no_grad():
        z = comm(Tensor(hidden), mask=topology.reachable).data.copy()
    return z, distributed_traffic(topology, comm.settings.num_layers, width)
