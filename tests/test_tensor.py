"""Autodiff engine: forward values and gradients against finite differences."""

import inspect

import numpy as np
import pytest

from marlab.errors import MaskError, ShapeError
from marlab.nn import tensor as T
from marlab.nn import Parameter, Tensor, no_grad
from marlab.nn.gradcheck import finite_difference_gradient, relative_errors


def param(rng, rows, cols, name="p"):
    return Parameter(rng.standard_normal((rows, cols)), name=name)


def check_op(build_loss, params, step=1e-5, tol=1e-6):
    """build_loss() -> scalar Tensor; compares backward to central differences."""
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_difference_gradient(lambda: build_loss().item(), p, step=step)
        err = relative_errors(analytic, numeric).max()
        assert err <= tol, f"{p.name}: worst relative error {err}"


def test_shapes_normalized():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))


def test_affine_shape_error_mentions_shapes():
    x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros((1, 4)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        T.affine(x, w, b)


def test_add_broadcast_bias_row():
    rng = np.random.default_rng(0)
    x = param(rng, 4, 3, "x")
    b = param(rng, 1, 3, "b")
    out = T.add(x, b)
    T.tsum(out).backward()
    assert np.allclose(b.grad, np.full((1, 3), 4.0))
    assert np.allclose(x.grad, np.ones((4, 3)))


@pytest.mark.parametrize("op", [T.relu, T.elu, T.absolute, T.square])
def test_unary_gradients(op):
    rng = np.random.default_rng(7)
    x = param(rng, 3, 4, "x")
    x.data += 0.05  # keep entries away from relu/abs kinks
    check_op(lambda: T.tsum(op(x)), [x])


def test_affine_mul_chain_gradients():
    rng = np.random.default_rng(1)
    x = param(rng, 2, 3, "x")
    w = param(rng, 4, 3, "w")
    b = param(rng, 1, 4, "b")
    c = param(rng, 2, 4, "c")
    check_op(lambda: T.tsum(T.mul(T.affine(x, w, b), c)), [x, w, b, c])


def test_softmax_rows_sums_to_one_and_grads():
    rng = np.random.default_rng(2)
    x = param(rng, 3, 5, "x")
    w = rng.standard_normal((3, 5))
    probs = T.softmax_rows(x)
    assert np.allclose(probs.data.sum(axis=1), 1.0)
    check_op(lambda: T.tsum(T.mul(T.softmax_rows(x), w)), [x])


def test_softmax_mask_exact_zero_and_renormalized():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 4)))
    mask = np.array([[True, False, True, True], [True, True, True, True]])
    p = T.softmax_rows(x, mask)
    assert p.data[0, 1] == 0.0
    assert np.allclose(p.data.sum(axis=1), 1.0)


def test_softmax_fully_masked_row_raises():
    x = Tensor(np.zeros((2, 3)))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(MaskError):
        T.softmax_rows(x, mask)


def test_masked_softmax_gradients():
    rng = np.random.default_rng(4)
    x = param(rng, 3, 4, "x")
    w = rng.standard_normal((3, 4))
    mask = np.array([
        [True, True, False, True],
        [True, True, True, True],
        [False, True, True, False],
    ])
    check_op(lambda: T.tsum(T.mul(T.softmax_rows(x, mask), w)), [x])


def test_layer_norm_gradients():
    rng = np.random.default_rng(5)
    x = param(rng, 4, 6, "x")
    gamma = Parameter(rng.uniform(0.5, 1.5, (1, 6)), name="gamma")
    beta = param(rng, 1, 6, "beta")
    w = rng.standard_normal((4, 6))
    check_op(lambda: T.tsum(T.mul(T.layer_norm_rows(x, gamma, beta), w)),
             [x, gamma, beta], tol=1e-5)


def test_slice_concat_gather_gradients():
    rng = np.random.default_rng(6)
    left = param(rng, 3, 3, "left")
    right = param(rng, 3, 3, "right")
    idx = np.array([0, 3, 5])

    def loss():
        # concat's backward slices the gradient back into its parts
        joined = T.concat_cols([T.elu(left), right])
        return T.tsum(T.square(T.gather_cols(joined, idx)))

    check_op(loss, [left, right])


def test_block_row_matmul_matches_loop():
    rng = np.random.default_rng(8)
    q = param(rng, 5, 3, "q")
    w = param(rng, 5, 12, "w")
    out = T.block_row_matmul(q, w, n=3, k=4)
    expect = np.stack([q.data[b] @ w.data[b].reshape(3, 4) for b in range(5)])
    assert np.allclose(out.data, expect)
    check_op(lambda: T.tsum(T.square(T.block_row_matmul(q, w, 3, 4))), [q, w])


def test_dropout_statistics_and_scaling():
    rng = np.random.default_rng(9)
    x = Tensor(np.ones((100, 1000)))
    out = T.dropout(x, 0.25, rng)
    dropped = float((out.data == 0.0).mean())
    assert abs(dropped - 0.25) < 0.01
    kept = out.data[out.data != 0.0]
    assert np.allclose(kept, 1.0 / 0.75)


# one call of every op; leaf(rows, cols) makes each input
OP_CALLS = {
    "add": lambda leaf: T.add(leaf(2, 3), leaf(1, 3)),
    "sub": lambda leaf: T.sub(leaf(2, 3), leaf(2, 1)),
    "mul": lambda leaf: T.mul(leaf(2, 3), leaf(2, 3)),
    "scale": lambda leaf: T.scale(leaf(2, 3), 0.5),
    "tsum": lambda leaf: T.tsum(leaf(2, 3)),
    "relu": lambda leaf: T.relu(leaf(2, 3)),
    "elu": lambda leaf: T.elu(leaf(2, 3)),
    "absolute": lambda leaf: T.absolute(leaf(2, 3)),
    "square": lambda leaf: T.square(leaf(2, 3)),
    "concat_cols": lambda leaf: T.concat_cols([leaf(2, 3), leaf(2, 1)]),
    "gather_cols": lambda leaf: T.gather_cols(leaf(2, 3), np.array([0, 2])),
    "softmax_rows": lambda leaf: T.softmax_rows(leaf(2, 3)),
    "layer_norm_rows": lambda leaf: T.layer_norm_rows(leaf(2, 3), leaf(1, 3), leaf(1, 3)),
    "dropout": lambda leaf: T.dropout(leaf(2, 3), 0.5, np.random.default_rng(0)),
    "affine": lambda leaf: T.affine(leaf(2, 3), leaf(4, 3), leaf(1, 4)),
    "gru_cell": lambda leaf: T.gru_cell(leaf(2, 3), leaf(2, 4),
                                        *[leaf(4, 3), leaf(4, 4), leaf(1, 4)] * 3),
    "set_attention": lambda leaf: T.set_attention(leaf(4, 4), leaf(4, 4), leaf(4, 4),
                                                  heads=2, sets=2),
    "reshape": lambda leaf: T.reshape(leaf(2, 3), 3, 2),
    "block_row_matmul": lambda leaf: T.block_row_matmul(leaf(2, 3), leaf(2, 6), n=3, k=2),
}


def test_op_table_covers_every_op():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and name != "grad_enabled"}
    assert ops == set(OP_CALLS)


@pytest.mark.parametrize("op", sorted(OP_CALLS))
def test_no_grad_builds_no_graph(op):
    rng = np.random.default_rng(0)

    def trainable(rows, cols):
        return Parameter(rng.standard_normal((rows, cols)), name="x")

    def fixed(rows, cols):
        return Tensor(rng.standard_normal((rows, cols)))

    with no_grad():
        off = OP_CALLS[op](trainable)
    for y in (off, OP_CALLS[op](fixed)):
        assert y._backward is None and y._parents == () and not y.requires_grad
    on = OP_CALLS[op](trainable)
    assert on._backward is not None and on._parents and on.requires_grad


def test_grad_accumulates_across_uses():
    x = Parameter(np.array([[2.0]]), name="x")
    y = T.add(T.square(x), T.scale(x, 3.0))  # x^2 + 3x
    y.backward()
    assert np.allclose(x.grad, [[7.0]])
