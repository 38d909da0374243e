"""Inter-agent communication: a transformer encoder stack over hidden states.

The stack maps the n agents' recurrent states (one row each) to n increment
vectors of the same width.  There are no positional embeddings, so the map
is permutation-equivariant, and the parameter count depends only on the
layer shapes, never on the team size.  The final output projection starts
at exactly zero, so an untrained stack adds nothing: the surrounding
network behaves as if communication were disabled until the projection
learns otherwise.

CommSettings is the one config type for the stack: the run config's "comm"
section and every direct construction of a CommStack use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import Dense, EncoderLayer, Module, Tensor, TrainContext
from .rng import stream


@dataclass(frozen=True)
class CommSettings:
    """The communication stack's shape and switches, validated on construction.

    The stack's width is not a setting: it is the agents' hidden size, passed
    to CommStack alongside.  enabled=False builds no stack; residual=False
    feeds the Q head the increment alone instead of hidden + increment.
    """

    enabled: bool = True
    num_layers: int = 1
    ffn_dim: int = 128
    heads: int = 4
    dropout: float = 0.10
    residual: bool = True

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.ffn_dim < 1 or self.heads < 1:
            raise ConfigError("ffn_dim and heads must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


class CommStack(Module):
    """Stacked encoder layers plus a Dense output projection that it zeroes."""

    def __init__(self, settings: CommSettings, model_dim: int, seed: int):
        super().__init__()
        self.settings = settings
        self.model_dim = model_dim
        rng = stream(seed, "comm-init")
        self.layers = [
            self._register(EncoderLayer(
                model_dim, settings.heads, settings.ffn_dim, settings.dropout,
                rng, f"comm.layer{i}"))
            for i in range(settings.num_layers)
        ]
        # the last draw from comm-init, so zeroing it leaves every other draw
        self.out_proj = self._register(Dense(model_dim, model_dim, rng, "comm.out_proj"))
        for p in self.out_proj.parameters():
            p.data[...] = 0.0

    def forward(self, hidden: Tensor, mask: Optional[np.ndarray] = None,
                sets: int = 1, ctx: Optional[TrainContext] = None) -> Tensor:
        """Produce one increment row per input row.

        mask, when given, is a boolean reachability matrix: entry (i, j)
        allows agent i to attend agent j.  None means every pair
        communicates.  With sets > 1 the rows hold that many independent
        teams back to back; each team communicates only internally.
        """
        if hidden.cols != self.model_dim:
            raise ShapeError(f"expected width {self.model_dim}, got {hidden.shape}")
        x = hidden
        for layer in self.layers:
            x = layer(x, mask=mask, sets=sets, ctx=ctx)
        return self.out_proj(x)
