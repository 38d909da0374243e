"""Central finite differences as an independent oracle for backpropagation.

max_gradient_error probes each parameter along one random unit direction v:
it compares the directional derivative vᵀ∇ that backward gives with the
central difference (f(θ + hv) − f(θ − hv)) / 2h.  That is two loss
evaluations per parameter whatever its size, the trade PyTorch's
gradcheck(fast_mode=True) makes.  A wrong gradient shows unless v is nearly
orthogonal to the error, which a random v almost never is; but a wrong entry
of a large parameter is diluted by its share of v.

finite_difference_gradient stays entrywise: it estimates every entry, so
the op tests, which must see each entry of each gradient, compare against it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Parameter, Tensor, no_grad

# Below this magnitude the comparison becomes absolute rather than relative,
# since finite differences bottom out around 1e-9 in float64.
REL_FLOOR = 1e-4
FD_STEP = 1e-5   # the central-difference step


def finite_difference_gradient(f: Callable[[], float], param: Parameter) -> np.ndarray:
    """Estimate df/dparam entrywise with central differences of step FD_STEP.

    f must be deterministic (evaluation mode).
    """
    flat = param.data.reshape(-1)
    grad = np.empty(flat.shape)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = f()
            flat[i] = orig - FD_STEP
            down = f()
            flat[i] = orig
            grad[i] = (up - down) / (2.0 * FD_STEP)
    return grad.reshape(param.data.shape)


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return np.abs(analytic - numeric) / denom


def max_gradient_error(loss_fn: Callable[[], Tensor], params: Sequence[Parameter],
                       rng: np.random.Generator) -> float:
    """Worst relative disagreement, over params, between the directional
    derivative from backprop and its central difference.

    Runs loss_fn once with autodiff, then draws one unit direction per
    parameter from rng, in the order of params.  loss_fn must be
    deterministic (evaluation mode).
    """
    for p in params:
        p.grad = None
    loss_fn().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    for p in params:
        p.grad = None
    worst = 0.0
    with no_grad():
        for p, grad in zip(params, analytic):
            v = rng.standard_normal(p.data.shape)
            v /= np.linalg.norm(v)
            orig = p.data.copy()
            p.data += FD_STEP * v
            up = loss_fn().item()
            np.subtract(orig, FD_STEP * v, out=p.data)
            down = loss_fn().item()
            p.data[...] = orig
            numeric = (up - down) / (2.0 * FD_STEP)
            worst = max(worst, float(relative_errors(np.vdot(v, grad), numeric)))
    return worst
