"""The entrywise gradient oracle the test files share."""

import numpy as np

from marlab.nn.gradcheck import finite_difference_gradient, relative_errors


def check_op(build_loss, params, tol=1e-6):
    """build_loss() -> scalar Tensor; compares backward to central differences
    at every entry of every parameter."""
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_difference_gradient(lambda: build_loss().item(), p)
        err = relative_errors(analytic, numeric).max()
        assert err <= tol, f"{p.name}: worst relative error {err}"
