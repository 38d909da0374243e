"""Action selection: epsilon-greedy blended with top-k Boltzmann sampling.

With probability epsilon the agent acts uniformly at random over its
available actions; otherwise it samples among its k best available actions
from a temperature-scaled softmax.  k = 1 or temperature 0 collapse the
Boltzmann part to the greedy action, recovering plain epsilon-greedy.  An
action is drawn one way: sample_from(action_distribution(...), uniforms).

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
    """Probability over actions; unavailable actions get exactly zero.

    Ties rank by lowest action index, and the cut after the k-th rank is
    deterministic: exactly min(k, #available) actions enter the softmax.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    q = np.asarray(q, dtype=float).reshape(-1)
    avail = np.asarray(avail, dtype=bool).reshape(-1)
    if q.shape != avail.shape:
        raise ContractError(f"q has {q.size} entries but mask has {avail.size}")
    if not avail.any():
        raise ContractError("no available action")

    avail_idx = np.flatnonzero(avail)
    # stable sort on -q keeps lower indices first among equal values
    order = avail_idx[np.argsort(-q[avail_idx], kind="stable")]
    top = order[: min(config.k, avail_idx.size)]

    boltzmann = np.zeros_like(q)
    if config.temperature == 0.0 or top.size == 1:
        boltzmann[top[0]] = 1.0
    else:
        # top[0] holds the largest value, so every logit is <= 0; a tiny
        # temperature sends the others to -inf, which weighs 0
        with np.errstate(over="ignore"):
            weights = np.exp((q[top] - q[top[0]]) / config.temperature)
        boltzmann[top] = weights / weights.sum()

    uniform = np.zeros_like(q)
    uniform[avail_idx] = 1.0 / avail_idx.size
    return epsilon * uniform + (1.0 - epsilon) * boltzmann


def sample_from(probs: np.ndarray, u):
    """Inverse-CDF draw: the index whose cumulative probability covers u, or
    an array of them, one per entry, when u is an array of uniforms."""
    edges = np.cumsum(probs)
    return np.minimum(np.searchsorted(edges, u, side="right"), probs.size - 1)
