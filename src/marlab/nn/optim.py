"""Adam and RMSProp over flat state, plus global-norm clipping.

Each optimizer packs its parameters into one array of their common dtype
(mixed dtypes are a ContractError) and rebinds each p.data to its view of
it; each moment is one array too.  A step gathers the gradients into one
array and runs the per-entry float operations of a per-parameter loop over
it.  Fill p.data in place (copy_from and the checkpoint loaders do): step()
refuses a rebound one, which it would not train.  state_arrays() keeps the
checkpoint's names and shapes as views, so filling them in place restores it.

Note the epsilon placement differs between the two rules on purpose:
Adam adds it outside the square root (bias-corrected form), RMSProp adds
it inside.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import ContractError
from .tensor import Parameter


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the norm before clipping.  The squares are summed in the
    gradients' dtype; only if that overflows (a float32 entry above about
    1.8e19) are they summed again in float64, so the clip stays a scaling.
    """
    grads = [p.grad for p in params if p.grad is not None]

    def square_sum(dtype):
        total = 0.0
        for g in grads:
            total += float(np.square(g, dtype=dtype).sum())
        return total

    with np.errstate(over="ignore"):
        total = square_sum(None)
        if math.isinf(total):
            total = square_sum(np.float64)
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


class _OptimizerBase:
    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        dtypes = sorted({p.data.dtype.name for p in self.params})
        if len(dtypes) > 1:
            raise ContractError(f"{type(self).__name__}: parameters mix dtypes {dtypes}")
        self.flat = np.concatenate([p.data.reshape(-1) for p in self.params])
        self._ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self._views = self._split(self.flat)
        for p, view in zip(self.params, self._views):
            p.data = view
        self._grads = np.empty_like(self.flat)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's view of a flat array."""
        return [flat[end - p.data.size : end].reshape(p.shape)
                for p, end in zip(self.params, self._ends)]

    def _take_grads(self) -> np.ndarray:
        """The gradients, gathered flat; each p.grad is then cleared."""
        for p, view in zip(self.params, self._views):
            if p.grad is None:
                raise ContractError(f"parameter {p.name} has no gradient")
            if p.data is not view:
                raise ContractError(f"parameter {p.name}: .data was rebound, so the "
                                    f"optimizer would train a stale copy; fill it in place")
        np.concatenate([p.grad.reshape(-1) for p in self.params], out=self._grads)
        for p in self.params:
            p.grad = None
        return self._grads


class Adam(_OptimizerBase):
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float):
        super().__init__(params, lr)
        self._m, self._v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.m, self.v = self._split(self._m), self._split(self._v)

    def step(self):
        g = self._take_grads()
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        self.flat -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for p, m, v in zip(self.params, self.m, self.v):
            out[f"{p.name}.m"] = m
            out[f"{p.name}.v"] = v
        return out


class RMSProp(_OptimizerBase):
    def __init__(self, params, lr: float, decay: float, eps: float):
        super().__init__(params, lr)
        self.decay = decay
        self.eps = eps
        self._sq = np.zeros_like(self.flat)
        self.sq = self._split(self._sq)

    def step(self):
        g = self._take_grads()
        self.step_count += 1
        s = self._sq
        s *= self.decay
        s += (1.0 - self.decay) * g * g
        self.flat -= self.lr * g / np.sqrt(s + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{p.name}.sq": s for p, s in zip(self.params, self.sq)}
