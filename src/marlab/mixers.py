"""Value-decomposition mixers: additive (VDN) and monotonic hypernetwork (QMIX).

Both map the n per-agent Q values of the chosen actions, plus the global
state, to one joint value per batch row.  The monotonic mixer generates its
mixing weights from the state and passes them through an absolute value, so
the joint value can never decrease when a local Q increases.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import Dense, Module, Tensor, no_grad
from .nn import tensor as T
from .rng import stream

MIXERS = ("vdn", "qmix")   # the kinds make_mixer builds
EMBED_DIM = 32      # width of the QMIX mixing layer
HYPER_HIDDEN = 64   # hidden width of its weight hypernetworks


class VdnMixer(Module):
    """Joint value = exact sum of the local values.  Stateless, no parameters."""

    def __init__(self, n_agents: int):
        super().__init__()
        if n_agents < 1:
            raise ConfigError("need at least one agent")
        self.n_agents = n_agents

    def forward(self, q_locals: Tensor, state=None) -> Tensor:
        if q_locals.cols != self.n_agents:
            raise ShapeError(f"expected {self.n_agents} local values, got {q_locals.shape}")
        return T.tsum(q_locals, axis=1)


class QmixMixer(Module):
    """Two-layer monotonic mixing network generated by state hypernetworks.

    Layer weights come from one-hidden-layer hypernets (ELU inside) and are
    made nonnegative; the first-layer bias is a plain linear map of the
    state and the output bias is a two-layer state network.  ELU joins the
    two mixing layers.
    """

    def __init__(self, n_agents: int, state_dim: int, seed: int):
        super().__init__()
        if n_agents < 1:
            raise ConfigError("need at least one agent")
        self.n_agents = n_agents
        rng = stream(seed, "mixer-init")
        self.w1_hidden = self._register(Dense(state_dim, HYPER_HIDDEN, rng, "mixer.w1_hidden"))
        self.w1_out = self._register(Dense(HYPER_HIDDEN, n_agents * EMBED_DIM, rng, "mixer.w1_out"))
        self.b1 = self._register(Dense(state_dim, EMBED_DIM, rng, "mixer.b1"))
        self.w2_hidden = self._register(Dense(state_dim, HYPER_HIDDEN, rng, "mixer.w2_hidden"))
        self.w2_out = self._register(Dense(HYPER_HIDDEN, EMBED_DIM, rng, "mixer.w2_out"))
        self.v_hidden = self._register(Dense(state_dim, EMBED_DIM, rng, "mixer.v_hidden"))
        self.v_out = self._register(Dense(EMBED_DIM, 1, rng, "mixer.v_out"))

    def _positivity(self, t: Tensor) -> Tensor:
        # Hook so diagnostics can probe what breaks without this constraint.
        return T.absolute(t)

    def forward(self, q_locals: Tensor, state: Tensor) -> Tensor:
        if q_locals.cols != self.n_agents:
            raise ShapeError(f"expected {self.n_agents} local values, got {q_locals.shape}")
        hyper = (self.w1_out(T.elu(self.w1_hidden(state))),
                 self.w2_out(T.elu(self.w2_hidden(state))))
        w1, w2 = (self._positivity(w) for w in hyper)
        b1 = self.b1(state)
        hidden = T.elu(T.add(T.block_row_matmul(q_locals, w1), b1))
        v = self.v_out(T.elu(self.v_hidden(state)))
        return T.add(T.tsum(T.mul(hidden, w2), axis=1), v)


def make_mixer(kind: str, n_agents: int, state_dim: int, seed: int):
    if kind == "vdn":
        return VdnMixer(n_agents)
    if kind == "qmix":
        return QmixMixer(n_agents, state_dim, seed)
    raise ConfigError(f"mixer must be one of {MIXERS}, got {kind!r}")


def mix_values(mixer, q_locals: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Graph-free mixing of plain arrays; returns a (rows,) vector.  The
    states are cast to the mixer's dtype; QMIX needs the local values in it too.
    Inside T.per_block(rows) each block of rows is mixed bit for bit as if
    alone, which is how double_q_targets mixes every step of a batch at once."""
    with no_grad():
        out = mixer(Tensor(q_locals), Tensor(states.astype(mixer.dtype, copy=False)))
    return out.data[:, 0].copy()
