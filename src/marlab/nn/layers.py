"""Neural building blocks: dense, GRU cell, self-attention, encoder layer.

Layers hold named Parameters and expose forward() on 2-D tensors where each
row is one sample (or one agent).  Weights initialize uniformly in
+-1/sqrt(fan_in) from an explicit generator, so a seed reproduces a model
bit-exactly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigError, ShapeError
from ..rng import stream
from . import tensor as T
from .tensor import Parameter, Tensor


def dropout_mask(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask: 0 with probability rate, else 1/(1 - rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


class TrainContext:
    """Carries what a training-mode forward pass needs for reproducible noise.

    Each dropout layer has one keep mask per train step and input shape,
    drawn from a stream keyed by (seed, layer name, step) and shared by every
    time step of an unroll (locked dropout).  The same step of the same run
    produces the same masks no matter what ran before.  A mask is kept in
    the dtype of the input it scales, so it never promotes a float32 graph.
    """

    def __init__(self, seed: int, step: int):
        self.seed = seed
        self.step = step
        self._masks: dict[tuple, np.ndarray] = {}

    def dropout_mask(self, layer_name: str, shape: tuple, rate: float,
                     dtype) -> np.ndarray:
        key = (layer_name, shape, np.dtype(dtype))
        if key not in self._masks:
            gen = stream(self.seed, "dropout", layer_name, self.step)
            self._masks[key] = dropout_mask(shape, rate, gen).astype(dtype, copy=False)
        return self._masks[key]


class Module:
    """Minimal container: tracks parameters and child modules.

    Calling a module, module(*args), goes through Module.__call__ to the
    subclass's forward(*args); forward is the one name to override and the
    name perfbench traces.
    """

    def __init__(self):
        self._params: list[Parameter] = []
        self._children: list[Module] = []

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _register(self, child: "Module") -> "Module":
        self._children.append(child)
        return child

    def _param(self, data, name: str) -> Parameter:
        p = Parameter(data, name=name)
        self._params.append(p)
        return p

    def parameters(self) -> list[Parameter]:
        out = list(self._params)
        for c in self._children:
            out.extend(c.parameters())
        return out

    @property
    def dtype(self) -> np.dtype:
        """Its first parameter's dtype, to which a forward casts arrays from
        outside; float64 for a module without parameters."""
        stack = [self]
        while stack:   # depth first, in parameters() order, to the first one
            module = stack.pop()
            if module._params:
                return module._params[0].data.dtype
            stack.extend(reversed(module._children))
        return np.dtype(T.DTYPE)

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def copy_from(self, other: "Module"):
        """Hard-copy parameter values from a module of identical structure."""
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ShapeError("copy_from: parameter lists differ in length")
        for p, q in zip(mine, theirs):
            if p.data.shape != q.data.shape:
                raise ShapeError(f"copy_from: {p.name} shape {p.shape} != {q.shape}")
            p.data[...] = q.data


def _uniform_init(rng: np.random.Generator, rows: int, cols: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


class Dense(Module):
    """Affine map y = x W^T + b, W (out, in), uniform init; CommStack zeroes its out_proj."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str):
        super().__init__()
        self.weight = self._param(_uniform_init(rng, out_dim, in_dim, in_dim), f"{name}.weight")
        self.bias = self._param(_uniform_init(rng, 1, out_dim, in_dim), f"{name}.bias")

    def forward(self, x: Tensor) -> Tensor:
        return T.affine(x, self.weight, self.bias)


class GRUCell(Module):
    """Gated recurrent cell; T.gru_cell checks the input and state against its weights.

    z = sigmoid(x Wxz^T + h Whz^T + bz)
    r = sigmoid(x Wxr^T + h Whr^T + br)
    c = tanh(x Wxc^T + r * (h Whc^T) + bc)
    h' = (1 - z) * c + z * h
    """

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator, name: str):
        super().__init__()

        def wx(tag):
            return self._param(_uniform_init(rng, hidden_dim, in_dim, in_dim),
                               f"{name}.wx{tag}")

        def wh(tag):
            return self._param(_uniform_init(rng, hidden_dim, hidden_dim, hidden_dim),
                               f"{name}.wh{tag}")

        def bias(tag):
            return self._param(_uniform_init(rng, 1, hidden_dim, hidden_dim),
                               f"{name}.b{tag}")

        self.wxz, self.whz, self.bz = wx("z"), wh("z"), bias("z")
        self.wxr, self.whr, self.br = wx("r"), wh("r"), bias("r")
        self.wxc, self.whc, self.bc = wx("c"), wh("c"), bias("c")

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return T.gru_cell(x, h, self.wxz, self.whz, self.bz,
                          self.wxr, self.whr, self.br,
                          self.wxc, self.whc, self.bc)


class LayerNorm(Module):
    def __init__(self, dim: int, name: str):
        super().__init__()
        self.gamma = self._param(np.ones((1, dim)), f"{name}.gamma")
        self.beta = self._param(np.zeros((1, dim)), f"{name}.beta")

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm_rows(x, self.gamma, self.beta)


class Dropout(Module):
    """Train-mode-only dropout; its name keys the reproducible noise stream.

    Under one TrainContext the layer applies the same mask at every call of
    a given input shape: one mask per train step, shared by the unroll's
    time steps.
    """

    def __init__(self, rate: float, name: str):
        super().__init__()
        self.rate = rate
        self.name = name

    def forward(self, x: Tensor, ctx: Optional[TrainContext]) -> Tensor:
        if ctx is None or self.rate == 0.0:
            return x
        return T.dropout(x, ctx.dropout_mask(self.name, x.shape, self.rate, x.data.dtype))


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention over the rows of the input.

    An optional boolean mask (True = query row i may attend key j) forces
    exactly zero weight on disallowed pairs.  With sets > 1 the rows split
    into consecutive independent groups that never attend across groups;
    the mask then applies within every group.  A probs_out list gets the
    (sets, heads, n, n) weights appended, n rows per set: [s, h, i, j] is what
    row i of set s puts on its row j in head h, and each [s, h, i] sums to 1.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, name: str):
        super().__init__()
        if dim < 1 or dim % heads != 0:
            raise ConfigError(f"model dim {dim} is not a positive multiple of {heads} heads")
        self.heads = heads
        self.q_proj = self._register(Dense(dim, dim, rng, f"{name}.q"))
        self.k_proj = self._register(Dense(dim, dim, rng, f"{name}.k"))
        self.v_proj = self._register(Dense(dim, dim, rng, f"{name}.v"))
        self.out_proj = self._register(Dense(dim, dim, rng, f"{name}.out"))

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None,
                sets: int = 1, probs_out: Optional[list] = None) -> Tensor:
        q = self.q_proj(x)
        k = self.k_proj(x)
        v = self.v_proj(x)
        ctx = T.set_attention(q, k, v, self.heads, sets, mask=mask,
                              probs_out=probs_out)
        return self.out_proj(ctx)


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, name: str):
        super().__init__()
        self.fc1 = self._register(Dense(dim, hidden, rng, f"{name}.fc1"))
        self.fc2 = self._register(Dense(hidden, dim, rng, f"{name}.fc2"))

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(T.relu(self.fc1(x)))


class EncoderLayer(Module):
    """Pre-normalization transformer encoder layer.

    x + Dropout(Attn(LN(x))), then y + Dropout(FFN(LN(y))).  Dropout fires
    only when a TrainContext is supplied; evaluation is deterministic.
    """

    def __init__(self, dim: int, heads: int, ffn_dim: int, dropout_rate: float,
                 rng: np.random.Generator, name: str):
        super().__init__()
        self.norm1 = self._register(LayerNorm(dim, f"{name}.norm1"))
        self.attn = self._register(MultiHeadSelfAttention(dim, heads, rng, f"{name}.attn"))
        self.drop1 = self._register(Dropout(dropout_rate, f"{name}.drop1"))
        self.norm2 = self._register(LayerNorm(dim, f"{name}.norm2"))
        self.ffn = self._register(FeedForward(dim, ffn_dim, rng, f"{name}.ffn"))
        self.drop2 = self._register(Dropout(dropout_rate, f"{name}.drop2"))

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None,
                sets: int = 1, ctx: Optional[TrainContext] = None) -> Tensor:
        a = T.add(x, self.drop1(self.attn(self.norm1(x), mask, sets=sets), ctx))
        return T.add(a, self.drop2(self.ffn(self.norm2(a)), ctx))


