"""Autodiff engine: forward values and gradients against finite differences."""

import gc
import inspect
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlab.errors import ContractError, MaskError, ShapeError
from marlab.nn import tensor as T
from marlab.nn import Parameter, Tensor, dropout_mask, no_grad
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
    assert Tensor([[1.0, 2.0]]).shape == (1, 2)
    for data in (3.0, [1.0, 2.0], np.zeros((2, 2, 2))):   # only 2-D enters
        with pytest.raises(ShapeError, match="2-D"):
            Tensor(data)


def test_affine_shape_error_mentions_shapes():
    x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros((1, 4)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        T.affine(x, w, b)


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
@pytest.mark.parametrize("other", [(1, 3), (4, 1), (3, 4)])
def test_elementwise_ops_take_equal_shapes(op, other):
    with pytest.raises(ShapeError, match=re.escape(f"(4, 3) and {other}")):
        op(Tensor(np.zeros((4, 3))), Tensor(np.zeros(other)))


@pytest.mark.parametrize("op", [T.relu, T.elu, T.absolute, T.square])
def test_unary_gradients(op):
    rng = np.random.default_rng(7)
    x = param(rng, 3, 4, "x")
    x.data += 0.05  # keep entries away from relu/abs kinks
    check_op(lambda: T.tsum(op(x)), [x])


def test_elu_of_a_large_float32_input_warns_nothing():
    x = Parameter(np.array([[100.0, -1.0]], dtype=np.float32), name="x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T.elu(x)
        T.tsum(y).backward()
    assert y.data.dtype == np.float32
    assert np.array_equal(y.data, np.array([[100.0, np.expm1(-1.0)]], dtype=np.float32))
    assert np.array_equal(x.grad, np.array([[1.0, np.exp(-1.0)]], dtype=np.float32))


def test_saturated_gru_gates_warn_nothing():
    # float32 exp overflows beyond 88.7: the z and r gates are exactly 0
    def leaf(value, rows, cols):
        return Parameter(np.full((rows, cols), value, dtype=np.float32), name="p")

    x, h = leaf(1.0, 2, 3), leaf(0.5, 2, 4)
    gates = [leaf(0.0, 4, 3), leaf(0.0, 4, 4), leaf(-200.0, 1, 4),   # z
             leaf(0.0, 4, 3), leaf(0.0, 4, 4), leaf(-200.0, 1, 4),   # r
             leaf(0.1, 4, 3), leaf(0.1, 4, 4), leaf(0.0, 1, 4)]      # candidate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.gru_cell(x, h, *gates)
        T.tsum(out).backward()
    # z = r = 0: the output is the candidate tanh(x Wxc^T + bc) alone
    assert np.array_equal(out.data, np.tanh(np.full((2, 4), 0.3, dtype=np.float32)))
    assert all(np.isfinite(p.grad).all() for p in [x, h, *gates])


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


@settings(max_examples=100, deadline=None)
@given(sets=st.integers(1, 3), n=st.integers(1, 4), heads=st.integers(1, 3),
       dk=st.integers(1, 4), density=st.sampled_from([None, 0.0, 0.3, 0.7, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_attention_weights_are_softmax_rows_of_the_scores(sets, n, heads, dk, density, seed):
    gen = np.random.default_rng(seed)
    q, k, v = (Tensor(gen.standard_normal((sets * n, heads * dk))) for _ in range(3))
    mask = None if density is None else gen.random((n, n)) < density
    # the scores exactly as set_attention forms them: (sets, heads, n, n)
    qh, kh = (t.data.reshape(sets, n, heads, dk).transpose(0, 2, 1, 3) for t in (q, k))
    scores = ((qh @ kh.swapaxes(-1, -2)) * (1.0 / math.sqrt(dk))).reshape(-1, n)
    rows_mask = None if mask is None else np.broadcast_to(mask, (sets, heads, n, n)).reshape(-1, n)
    if mask is not None and not mask.any(axis=1).all():
        with pytest.raises(MaskError):
            T.set_attention(q, k, v, heads, sets, mask=mask)
        with pytest.raises(MaskError):
            T.softmax_rows(Tensor(scores), rows_mask)
        return
    probs = []
    T.set_attention(q, k, v, heads, sets, mask=mask, probs_out=probs)
    expected = T.softmax_rows(Tensor(scores), rows_mask).data
    assert probs[0].reshape(-1, n).tobytes() == expected.tobytes()


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
    out = T.block_row_matmul(q, w)
    expect = np.stack([q.data[b] @ w.data[b].reshape(3, 4) for b in range(5)])
    assert np.allclose(out.data, expect)
    check_op(lambda: T.tsum(T.square(T.block_row_matmul(q, w))), [q, w])


@pytest.mark.parametrize("q_shape, w_shape", [
    ((5, 3), (5, 10)),   # 10 columns are no whole number of 3-row matrices
    ((5, 3), (4, 12)),   # one weight row short
    ((5, 0), (5, 0)),    # no agents
])
def test_block_row_matmul_rejects_operands_that_do_not_fit(q_shape, w_shape):
    with pytest.raises(ShapeError, match="block_row_matmul"):
        T.block_row_matmul(Tensor(np.zeros(q_shape)), Tensor(np.zeros(w_shape)))


def test_dropout_statistics_and_scaling():
    rng = np.random.default_rng(9)
    x = Tensor(np.ones((100, 1000)))
    out = T.dropout(x, dropout_mask(x.shape, 0.25, rng))
    dropped = float((out.data == 0.0).mean())
    assert abs(dropped - 0.25) < 0.01
    kept = out.data[out.data != 0.0]
    assert np.allclose(kept, 1.0 / 0.75)


def _gru(leaf, r, c):
    gates = [t for _ in range(3) for t in (leaf(c + 1, c), leaf(c + 1, c + 1), leaf(1, c + 1))]
    return T.gru_cell(leaf(r, c), leaf(r, c + 1), *gates)


# one call of every op at size (r, c); leaf(rows, cols) makes each input
OP_CALLS = {
    "add": lambda leaf, r, c: T.add(leaf(r, c), leaf(r, c)),
    "sub": lambda leaf, r, c: T.sub(leaf(r, c), leaf(r, c)),
    "mul": lambda leaf, r, c: T.mul(leaf(r, c), leaf(r, c)),
    "scale": lambda leaf, r, c: T.scale(leaf(r, c), 0.5),
    "tsum": lambda leaf, r, c: T.tsum(leaf(r, c)),
    "relu": lambda leaf, r, c: T.relu(leaf(r, c)),
    "elu": lambda leaf, r, c: T.elu(leaf(r, c)),
    "absolute": lambda leaf, r, c: T.absolute(leaf(r, c)),
    "square": lambda leaf, r, c: T.square(leaf(r, c)),
    "concat_cols": lambda leaf, r, c: T.concat_cols([leaf(r, c), leaf(r, 1)]),
    "gather_cols": lambda leaf, r, c: T.gather_cols(leaf(r, c), np.arange(r) % c),
    "softmax_rows": lambda leaf, r, c: T.softmax_rows(leaf(r, c)),
    "layer_norm_rows": lambda leaf, r, c: T.layer_norm_rows(leaf(r, c), leaf(1, c), leaf(1, c)),
    "dropout": lambda leaf, r, c: T.dropout(
        leaf(r, c), dropout_mask((r, c), 0.5, np.random.default_rng(0))),
    "affine": lambda leaf, r, c: T.affine(leaf(r, c), leaf(c + 1, c), leaf(1, c + 1)),
    "gru_cell": _gru,
    "set_attention": lambda leaf, r, c: T.set_attention(
        leaf(2 * r, 2 * c), leaf(2 * r, 2 * c), leaf(2 * r, 2 * c), heads=2, sets=2),
    "reshape": lambda leaf, r, c: T.reshape(leaf(r, c), c, r),
    "block_row_matmul": lambda leaf, r, c: T.block_row_matmul(leaf(r, c), leaf(r, 2 * c)),
}
MAX_LEAVES = 11  # gru_cell's


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
        off = OP_CALLS[op](trainable, 2, 3)
    for y in (off, OP_CALLS[op](fixed, 2, 3)):
        assert y._backward is None and y._parents == () and not y.requires_grad
    on = OP_CALLS[op](trainable, 2, 3)
    assert on._backward is not None and on._parents and on.requires_grad


def test_grad_accumulates_across_uses():
    x = Parameter(np.array([[2.0]]), name="x")
    y = T.add(T.square(x), T.scale(x, 3.0))  # x^2 + 3x
    y.backward()
    assert np.allclose(x.grad, [[7.0]])


def reference_backward(root):
    """Tensor.backward before it freed the graph: the same traversal, with
    every node, gradient and closure kept."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from(sorted(OP_CALLS)), rows=st.integers(1, 4), cols=st.integers(1, 4),
       needs_grad=st.lists(st.booleans(), min_size=MAX_LEAVES, max_size=MAX_LEAVES),
       seed=st.integers(0, 2**32 - 1))
def test_every_op_gradient_matches_finite_differences(op, rows, cols, needs_grad, seed):
    gen = np.random.default_rng(seed)
    leaves, calls = [], [0]

    def leaf(r, c):
        # the first call makes the leaves; later calls reuse them in order
        if calls[0] == len(leaves):
            data = gen.standard_normal((r, c))
            data += 0.1 * np.sign(data)  # keep entries off relu/abs kinks
            needs = needs_grad[len(leaves)]
            leaves.append(Parameter(data, name=f"leaf{len(leaves)}") if needs
                          else Tensor(data))
        calls[0] += 1
        return leaves[calls[0] - 1]

    out_shape = OP_CALLS[op](leaf, rows, cols).shape
    weights = gen.standard_normal(out_shape)

    def loss():
        calls[0] = 0
        return T.tsum(T.mul(OP_CALLS[op](leaf, rows, cols), weights))

    reference_backward(loss())
    kept = [None if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    loss().backward()
    for t, ref in zip(leaves, kept):
        if not t.requires_grad:
            assert t.grad is None and ref is None
            continue
        assert ref is not None and np.array_equal(t.grad, ref)
        numeric = finite_difference_gradient(lambda: loss().item(), t)
        err = relative_errors(t.grad, numeric).max()
        assert err <= 1e-4, f"{op} {t.name}: worst relative error {err}"


def test_backward_frees_intermediates_and_keeps_leaf_grads():
    x = Parameter(np.array([[1.0, -2.0, 3.0]]), name="x")
    hidden = T.relu(T.scale(x, 2.0))   # only the graph will reference it
    alive = weakref.ref(hidden)
    loss = T.tsum(T.square(hidden))
    del hidden
    gc.collect()
    assert alive() is not None
    loss.backward()
    assert alive() is None
    assert np.array_equal(x.grad, [[8.0, 0.0, 24.0]])
    assert loss._parents == () and loss.grad is None


def test_second_backward_raises_and_leaves_grads_untouched():
    x = Parameter(np.array([[2.0]]), name="x")
    y = T.square(x)
    loss = T.scale(y, 3.0)
    loss.backward()
    assert np.array_equal(x.grad, [[12.0]])
    with pytest.raises(ContractError, match="freed"):
        loss.backward()
    with pytest.raises(ContractError, match="freed"):
        T.add(y, np.ones((1, 1))).backward()   # a new graph over a freed node
    assert np.array_equal(x.grad, [[12.0]])
