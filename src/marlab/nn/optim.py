"""Adam and RMSProp with per-parameter state, plus global-norm clipping.

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

    def _require_grads(self):
        for p in self.params:
            if p.grad is None:
                raise ContractError(f"parameter {p.name} has no gradient")

    def _clear_grads(self):
        for p in self.params:
            p.grad = None


class Adam(_OptimizerBase):
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float):
        super().__init__(params, lr)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self._require_grads()
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self._clear_grads()

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
        self.sq = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self._require_grads()
        self.step_count += 1
        for p, s in zip(self.params, self.sq):
            g = p.grad
            s *= self.decay
            s += (1.0 - self.decay) * g * g
            p.data -= self.lr * g / np.sqrt(s + self.eps)
        self._clear_grads()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{p.name}.sq": s for p, s in zip(self.params, self.sq)}
