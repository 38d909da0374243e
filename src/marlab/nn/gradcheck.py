"""Central finite differences as an independent oracle for backpropagation."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Parameter, Tensor, no_grad

# Below this magnitude the comparison becomes absolute rather than relative,
# since finite differences bottom out around 1e-9 in float64.
REL_FLOOR = 1e-4
FD_STEP = 1e-5   # the central-difference step


def finite_difference_gradient(f: Callable[[], float], param: Parameter,
                               entries: Optional[np.ndarray] = None) -> np.ndarray:
    """Estimate df/dparam entrywise with central differences of step FD_STEP.

    f must be deterministic (evaluation mode).  If entries is given (an array
    of flat indices), only those entries are estimated and the rest are NaN.
    """
    flat = param.data.reshape(-1)
    grad = np.full(flat.shape, np.nan)
    idx = range(flat.size) if entries is None else np.asarray(entries, dtype=np.intp)
    with no_grad():
        for i in idx:
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
                       samples_per_param: Optional[int] = None,
                       rng: Optional[np.random.Generator] = None) -> float:
    """Worst relative disagreement between backprop and finite differences.

    Runs loss_fn once with autodiff, then probes each parameter entry (or a
    random sample of entries when samples_per_param is set) with the
    finite-difference oracle.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {p.name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for p in params}

    def scalar():
        return loss_fn().item()

    worst = 0.0
    for p in params:
        entries = None
        if samples_per_param is not None and p.data.size > samples_per_param:
            gen = rng if rng is not None else np.random.default_rng(0)
            entries = gen.choice(p.data.size, size=samples_per_param, replace=False)
        numeric = finite_difference_gradient(scalar, p, entries=entries)
        mask = ~np.isnan(numeric)
        if mask.any():
            errs = relative_errors(analytic[p.name][mask], numeric[mask])
            worst = max(worst, float(errs.max()))
    for p in params:
        p.grad = None
    return worst
