"""Action selection: epsilon-greedy blended with top-k Boltzmann sampling.

With probability epsilon the agent acts uniformly at random over its
available actions; otherwise it samples among its k best available actions
from a temperature-scaled softmax.  k = 1 or temperature 0 collapse the
Boltzmann part to the greedy action, recovering plain epsilon-greedy.  An
action is drawn one way: sample_from(action_distribution(...), uniforms).

Both take one form, row by row: q and the availability mask are (rows,
actions), one row per agent of every episode acting together, and
sample_from takes one uniform per row.  A row's probabilities and its action
are bit for bit those of the same row passed alone, as a one-row array.

ExplorationConfig, the run config's "exploration" section, holds k and the
temperature.  Epsilon anneals with the env step (learner.epsilon), so callers
pass it alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class ExplorationConfig:
    """Top-k Boltzmann settings, validated on construction."""

    k: int = 1
    temperature: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.temperature < 0.0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")


GREEDY = ExplorationConfig()


def action_distribution(q: np.ndarray, avail: np.ndarray, config: ExplorationConfig,
                        epsilon: float) -> np.ndarray:
    """Probabilities over actions, row by row for (rows, actions) q and avail;
    unavailable actions get exactly zero.

    Ties rank by lowest action index, and the cut after the k-th rank is
    deterministic: exactly min(k, #available) actions of a row enter its
    softmax.  Each row's probabilities are bit for bit those of that row alone.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    q = np.asarray(q, dtype=float)
    avail = np.asarray(avail, dtype=bool)
    if q.ndim != 2 or q.shape != avail.shape:
        raise ContractError(f"q of shape {q.shape} needs two dimensions and an action "
                            f"mask of its shape, got mask {avail.shape}")
    n_avail = avail.sum(axis=1)
    if not n_avail.all():
        raise ContractError("no available action")

    # each row's actions by rank: available first, then by value, highest
    # first; the sort is stable, so lower indices come first among equal values
    order = np.lexsort((-q, ~avail), axis=1)
    boltzmann = np.zeros_like(q)
    if config.k == 1 or config.temperature == 0.0:
        boltzmann[np.arange(len(q)), order[:, 0]] = 1.0
    else:
        top_size = np.minimum(config.k, n_avail)
        # rows with m softmax terms together: a row sum over m columns adds in
        # the order of the one-row sum, which zero padding would not keep
        for m in np.unique(top_size):
            rows = np.flatnonzero(top_size == m)
            if m == 1:
                boltzmann[rows, order[rows, 0]] = 1.0
                continue
            top = order[rows, :m]
            values = q[rows[:, None], top]
            # top[:, 0] holds the largest value, so every logit is <= 0; a tiny
            # temperature sends the others to -inf, which weighs 0
            with np.errstate(over="ignore"):
                weights = np.exp((values - values[:, :1]) / config.temperature)
            boltzmann[rows[:, None], top] = weights / weights.sum(axis=1, keepdims=True)

    uniform = avail / n_avail[:, None]
    return epsilon * uniform + (1.0 - epsilon) * boltzmann


def sample_from(probs: np.ndarray, u):
    """Inverse-CDF draw, row by row: for (rows, actions) probs and one uniform
    per row in u, each row's index whose cumulative probability covers its
    uniform, bit for bit as that row alone would draw.
    """
    probs = np.asarray(probs)
    u = np.asarray(u, dtype=float)
    if probs.ndim != 2 or u.shape != probs.shape[:1]:
        raise ContractError(f"probabilities of shape {probs.shape} need two dimensions "
                            f"and one uniform per row, got shape {u.shape}")
    # the count of edges <= u is searchsorted's right side on a sorted row
    edges = np.cumsum(probs, axis=1)
    return np.minimum((edges <= u[:, None]).sum(axis=1), probs.shape[1] - 1)
