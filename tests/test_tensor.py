"""Autodiff engine: forward values and gradients against finite differences."""

import contextlib
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
from marlab.nn import EncoderLayer, Parameter, Tensor, TrainContext, dropout_mask, no_grad
from marlab.nn.gradcheck import finite_difference_gradient, relative_errors


def param(rng, rows, cols, name="p"):
    return Parameter(rng.standard_normal((rows, cols)), name=name)


def check_op(build_loss, params, tol=1e-6):
    """build_loss() -> scalar Tensor; compares backward to central differences."""
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_difference_gradient(lambda: build_loss().item(), p)
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


def test_put_rows_undoes_take_rows_with_zero_rows_between():
    rng = np.random.default_rng(10)
    a = param(rng, 5, 3, "a")
    keep = np.array([True, False, True, True, False])
    taken = T.take_rows(a, keep)
    assert np.array_equal(taken.data, a.data[[0, 2, 3]])
    back = T.put_rows(taken, keep)
    assert np.array_equal(back.data[keep], a.data[keep]) and not back.data[~keep].any()
    check_op(lambda: T.tsum(T.square(T.put_rows(T.take_rows(a, keep), keep))), [a])


@pytest.mark.parametrize("op, rows, keep", [
    ("take_rows", 3, np.array([0, 2])),              # indices, not a mask
    ("take_rows", 3, np.array([True, False])),       # a row short
    ("put_rows", 2, np.array([True, False, False])),  # too few True entries
    ("put_rows", 2, np.array([[True], [True]])),     # not 1-D
    ("put_rows", 2, np.array([1, 1, 0])),            # ints, not a mask
])
def test_row_ops_refuse_a_keep_that_is_no_fitting_boolean_mask(op, rows, keep):
    with pytest.raises(ShapeError, match=op):
        getattr(T, op)(Tensor(np.ones((rows, 2))), keep)


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


def _dropout(leaf, r, c):
    x = leaf(r, c)   # the keep mask in x's dtype, as TrainContext keeps it
    return T.dropout(x, dropout_mask((r, c), 0.5, np.random.default_rng(0)).astype(x.data.dtype))


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
    "concat_rows": lambda leaf, r, c: T.concat_rows([leaf(r, c), leaf(1, c)]),
    "transpose": lambda leaf, r, c: T.transpose(leaf(r, c)),
    "gather_cols": lambda leaf, r, c: T.gather_cols(leaf(r, c), np.arange(r) % c),
    "softmax_rows": lambda leaf, r, c: T.softmax_rows(leaf(r, c)),
    "layer_norm_rows": lambda leaf, r, c: T.layer_norm_rows(leaf(r, c), leaf(1, c), leaf(1, c)),
    "dropout": _dropout,
    "affine": lambda leaf, r, c: T.affine(leaf(r, c), leaf(c + 1, c), leaf(1, c + 1)),
    "gru_cell": _gru,
    "set_attention": lambda leaf, r, c: T.set_attention(
        leaf(2 * r, 2 * c), leaf(2 * r, 2 * c), leaf(2 * r, 2 * c), heads=2, sets=2),
    "reshape": lambda leaf, r, c: T.reshape(leaf(r, c), c, r),
    "block_row_matmul": lambda leaf, r, c: T.block_row_matmul(leaf(r, c), leaf(r, 2 * c)),
    "take_rows": lambda leaf, r, c: T.take_rows(leaf(r, c), np.arange(r) % 2 == 0),
    "put_rows": lambda leaf, r, c: T.put_rows(leaf(r, c), np.arange(r + 1) != 1),
}
MAX_LEAVES = 11  # gru_cell's


def test_op_table_covers_every_op():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_") and name not in ("grad_enabled", "no_grad", "per_block")}
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
        assert y._node is None and not y.requires_grad
    on = OP_CALLS[op](trainable, 2, 3)
    assert on._node._backward is not None and on._node._parents and on.requires_grad


def call_in_dtypes(op, dtypes):
    """OP_CALLS[op] at size (2, 3) whose i-th tensor operand has dtypes[i];
    returns the result and the operands."""
    gen, leaves = np.random.default_rng(0), []

    def leaf(rows, cols):
        data = gen.standard_normal((rows, cols)).astype(dtypes[len(leaves)])
        leaves.append(Parameter(data, name=f"leaf{len(leaves)}"))
        return leaves[-1]

    return OP_CALLS[op](leaf, 2, 3), leaves


MIXABLE_OPS = sorted(op for op in OP_CALLS
                     if len(call_in_dtypes(op, [np.float64] * MAX_LEAVES)[1]) > 1)


@pytest.mark.parametrize("op", MIXABLE_OPS)
def test_an_op_runs_in_one_dtype_and_refuses_operands_of_two(op):
    for dtype, other in ((np.float32, np.float64), (np.float64, np.float32)):
        out, leaves = call_in_dtypes(op, [dtype] * MAX_LEAVES)
        assert out.data.dtype == dtype
        T.tsum(out).backward()
        assert {leaf.grad.dtype for leaf in leaves} == {np.dtype(dtype)}
        for odd in range(len(leaves)):
            dtypes = [dtype] * MAX_LEAVES
            dtypes[odd] = other
            with pytest.raises(ContractError, match="one dtype"):
                call_in_dtypes(op, dtypes)


def test_dropout_refuses_a_keep_mask_of_another_dtype():
    x = Tensor(np.ones((2, 3), np.float32))
    with pytest.raises(ContractError, match="one dtype"):
        T.dropout(x, np.full((2, 3), 2.0))
    assert T.dropout(x, np.full((2, 3), 2.0, np.float32)).data.dtype == np.float32


def test_grad_accumulates_across_uses():
    x = Parameter(np.array([[2.0]]), name="x")
    y = T.add(T.square(x), T.scale(x, 3.0))  # x^2 + 3x
    y.backward()
    assert np.allclose(x.grad, [[7.0]])


def reference_backward(root):
    """Tensor.backward before it freed the graph: the same traversal, with
    every node, gradient and closure kept."""
    if root._node is None:   # no graph
        return
    topo, visited, stack = [], set(), [(root._node, False)]
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
    root._node.grad = np.ones_like(root.data)
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
    hidden = T.relu(T.scale(x, 2.0))   # only the graph will reference its node
    alive = weakref.ref(hidden._node)
    loss = T.tsum(T.square(hidden))
    del hidden
    gc.collect()
    assert alive() is not None
    loss.backward()
    assert alive() is None
    assert np.array_equal(x.grad, [[8.0, 0.0, 24.0]])
    assert loss._node._parents == () and loss.grad is None


def test_an_encoder_layer_graph_frees_what_no_backward_reads_before_backward(monkeypatch):
    layer = EncoderLayer(8, 2, 16, 0.3, np.random.default_rng(0), "comm.layer0")
    x = Parameter(np.random.default_rng(1).standard_normal((6, 8)), name="hidden")
    weights = np.random.default_rng(2).standard_normal((6, 8))
    leaves = [x, *layer.parameters()]

    def loss():   # dropout on: the same masks at every call
        out = layer(x, sets=2, ctx=TrainContext(seed=0, step=0))
        return T.tsum(T.mul(out, weights))

    reference_backward(loss())
    expected = [leaf.grad.copy() for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    watched = {}

    def watching(name, op, array):
        def call(*args):
            out = op(*args)
            watched.setdefault(name, []).append(weakref.ref(array(args, out)))
            return out
        return call

    monkeypatch.setattr(T, "relu", watching("relu pre-activation", T.relu,
                                            lambda args, out: args[0].data))
    monkeypatch.setattr(T, "dropout", watching("dropout product", T.dropout,
                                               lambda args, out: out.data))
    monkeypatch.setattr(T, "add", watching("residual sum", T.add, lambda args, out: out.data))
    graph = loss()
    assert {name: len(refs) for name, refs in watched.items()} == {
        "relu pre-activation": 1, "dropout product": 2, "residual sum": 2}
    for name, refs in watched.items():
        assert all(ref() is None for ref in refs), name
    graph.backward()
    for leaf, want in zip(leaves, expected):
        assert leaf.grad.tobytes() == want.tobytes(), leaf.name


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


# The formulas of the out-of-place kernels, as references for the in-place
# ones: forward value and every gradient must match bit for bit.  Each takes
# the operands' arrays and the output gradient g.

def ref_affine(g, x, w, b):
    data = x @ w.T + b
    return data, [g @ w, g.T @ x, g.sum(axis=0, keepdims=True)]


def ref_gru(g, x, h, wxz, whz, bz, wxr, whr, br, wxc, whc, bc):
    z = 1.0 / (1.0 + np.exp(-(x @ wxz.T + h @ whz.T + bz)))
    r = 1.0 / (1.0 + np.exp(-(x @ wxr.T + h @ whr.T + br)))
    u = h @ whc.T
    c = np.tanh(x @ wxc.T + r * u + bc)
    data = (1.0 - z) * c + z * h
    dc = g * (1.0 - z)
    dz = g * (h - c)
    dac = dc * (1.0 - c * c)
    daz = dz * z * (1.0 - z)
    dr = dac * u
    dar = dr * r * (1.0 - r)
    du = dac * r
    return data, [daz @ wxz + dar @ wxr + dac @ wxc,
                  g * z + daz @ whz + dar @ whr + du @ whc,
                  daz.T @ x, daz.T @ h, daz.sum(axis=0, keepdims=True),
                  dar.T @ x, dar.T @ h, dar.sum(axis=0, keepdims=True),
                  dac.T @ x, du.T @ h, dac.sum(axis=0, keepdims=True)]


def ref_layer_norm(g, a, gamma, beta):
    d = a.shape[1]
    centered = a - a.sum(axis=1, keepdims=True) / d
    var = (centered * centered).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv
    data = xhat * gamma + beta
    dxhat = g * gamma
    row_mean = dxhat.sum(axis=1, keepdims=True) / d
    proj = (dxhat * xhat).sum(axis=1, keepdims=True) / d
    return data, [inv * (dxhat - row_mean - xhat * proj),
                  (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)]


def ref_attention(g, q, k, v, heads, sets, mask):
    rows, dim = q.shape
    n, dk = rows // sets, dim // heads

    def split(t):
        return t.reshape(sets, n, heads, dk).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(rows, dim)

    qh, kh, vh = split(q), split(k), split(v)
    scale_ = 1.0 / math.sqrt(dk)
    x = (qh @ kh.swapaxes(-1, -2)) * scale_
    if mask is not None:
        x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    data = merge(probs @ vh)
    gh = split(g)
    dp = gh @ vh.swapaxes(-1, -2)
    ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
    return data, [merge((ds @ kh) * scale_), merge((ds.swapaxes(-1, -2) @ qh) * scale_),
                  merge(probs.swapaxes(-1, -2) @ gh)]


def assert_matches_reference(op, ref, shapes, dtype, seed, needs_grad=None, zero=(), **kw):
    """Run op on leaves of the given shapes (those in `zero` all zero) and
    compare its value and every gradient with ref's, bit for bit, a zero's
    sign included.  The first four entries of each operand are 0.0 and -0.0,
    in every pairing of the first two operands' signs."""
    gen = np.random.default_rng(seed)
    arrays = [np.zeros(s, dtype) if i in zero else gen.standard_normal(s).astype(dtype)
              for i, s in enumerate(shapes)]
    for i, a in enumerate(arrays):
        a.flat[:4] = [-0.0 if (j >> i) & 1 else 0.0 for j in range(4)]
    needs_grad = needs_grad or [True] * len(shapes)
    leaves = [Parameter(a, name=f"leaf{i}") if need else Tensor(a)
              for i, (a, need) in enumerate(zip(arrays, needs_grad))]
    out = op(*leaves, **kw)
    g = gen.standard_normal(out.shape).astype(dtype)
    data, grads = ref(g, *arrays, **kw)
    assert out.data.dtype == dtype and same_bits(out.data, data)
    T.tsum(T.mul(out, Tensor(g))).backward()
    for leaf, need, expected in zip(leaves, needs_grad, grads):
        if need:
            assert leaf.grad.dtype == dtype and same_bits(leaf.grad, expected), leaf.name
        else:
            assert leaf.grad is None


KERNEL_DTYPES = [np.float32, np.float64]
KERNEL_ROWS = [3, 24, 96, 160]


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("rows", KERNEL_ROWS)
def test_affine_is_bit_identical_to_its_out_of_place_form(dtype, rows):
    assert_matches_reference(T.affine, ref_affine, [(rows, 25), (64, 25), (1, 64)], dtype, rows)


def gru_shapes(rows, d_in=25, hidden=64):
    return [(rows, d_in), (rows, hidden)] + [(hidden, d_in), (hidden, hidden), (1, hidden)] * 3


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("rows", KERNEL_ROWS)
@pytest.mark.parametrize("state", ["nonzero", "zero"])
@pytest.mark.parametrize("h_needs_grad", [True, False])
def test_gru_cell_is_bit_identical_to_its_out_of_place_form(dtype, rows, state, h_needs_grad):
    # a zero h that needs no grad takes the zero-state path
    needs = [True, h_needs_grad] + [True] * 9
    assert_matches_reference(T.gru_cell, ref_gru, gru_shapes(rows), dtype, rows,
                             needs_grad=needs, zero=(1,) if state == "zero" else ())


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("rows", KERNEL_ROWS)
def test_layer_norm_rows_is_bit_identical_to_its_out_of_place_form(dtype, rows):
    assert_matches_reference(T.layer_norm_rows, ref_layer_norm, [(rows, 64), (1, 64), (1, 64)],
                             dtype, rows)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("sets", [1, 32])
@pytest.mark.parametrize("masked", [False, True])
def test_set_attention_is_bit_identical_to_its_out_of_place_form(dtype, n, sets, masked):
    # the comm mask of a ring where each agent hears itself and its left neighbour
    mask = (np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)) if masked else None
    assert_matches_reference(T.set_attention, ref_attention, [(sets * n, 64)] * 3, dtype,
                             n * sets, heads=4, sets=sets, mask=mask)


# The closed forms of the ops that are compositions of other ops.

def ref_sub(g, a, b):
    return a - b, [g, -g]


def ref_square(g, a):
    return a * a, [2.0 * g * a]


def ref_dropout(g, a, keep):
    return a * keep, [g * keep]


def ref_concat_cols(g, *parts):
    ends = np.cumsum([p.shape[1] for p in parts])
    return np.concatenate(parts, axis=1), np.split(g, ends[:-1], axis=1)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("rows", KERNEL_ROWS)
@pytest.mark.parametrize("op", ["sub", "square", "dropout", "concat_cols"])
def test_a_composed_op_is_bit_identical_to_its_closed_form(dtype, rows, op):
    keep = dropout_mask((rows, 64), 0.5, np.random.default_rng(rows)).astype(dtype)
    op, ref, shapes, kw = {
        "sub": (T.sub, ref_sub, [(rows, 64)] * 2, {}),
        "square": (T.square, ref_square, [(rows, 64)], {}),
        "dropout": (T.dropout, ref_dropout, [(rows, 64)], {"keep": keep}),
        "concat_cols": (lambda *parts: T.concat_cols(parts), ref_concat_cols,
                        [(rows, 25), (rows, 64), (rows, 1)], {}),
    }[op]
    assert_matches_reference(op, ref, shapes, dtype, rows, **kw)


def ref_elu(g, x):
    """The out-of-place ELU: np.where over expm1 of every entry."""
    pos = x > 0
    with np.errstate(over="ignore"):
        data = np.where(pos, x, np.expm1(x))
    return data, [g * np.where(pos, 1.0, data + 1.0)]


def same_bits(a, b) -> bool:
    """Equal dtype, shape and raw bits: -0.0 differs from 0.0 and NaN matches NaN."""
    uint = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}[a.dtype]
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(uint), b.view(uint))


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_elu_is_bit_identical_to_its_out_of_place_form(dtype):
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.max, -info.max,
               info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
               1e-30, -1e-30, 50.0, 88.8, 100.0, 709.8, 710.0, 1e30, -50.0, -1e30]
    gen = np.random.default_rng(5)
    values = np.concatenate([np.array(special, dtype=dtype),
                             (gen.standard_normal(106) * 10.0 ** gen.integers(-3, 4, 106)
                              ).astype(dtype)])
    gen.shuffle(values)
    x = values.reshape(8, 16)
    g = gen.standard_normal(x.shape).astype(dtype)
    g[0, :2] = [0.0, -0.0]
    leaf = Parameter(x.copy(), name="x")
    out = T.elu(leaf)
    T.tsum(T.mul(out, Tensor(g))).backward()
    data, (grad,) = ref_elu(g, x)
    assert same_bits(out.data, data)
    assert same_bits(leaf.grad, grad)


def per_block_forward(op, n, blocks, dtype, seed, row_cols, weight_shapes, zero_state=False):
    """op over `blocks` stacked n-row blocks inside per_block(n), and op on each
    block alone.  row_cols are the widths of the per-row operands (x, and h for
    gru_cell, which is zero with zero_state); weight_shapes those of the rest."""
    gen = np.random.default_rng(seed)
    rows = [gen.standard_normal((blocks * n, c)).astype(dtype) for c in row_cols]
    if zero_state:
        rows[-1][:] = 0.0
    weights = [Tensor(gen.standard_normal(s).astype(dtype)) for s in weight_shapes]
    with no_grad():
        alone = [op(*[Tensor(r[b * n:(b + 1) * n]) for r in rows], *weights).data
                 for b in range(blocks)]
        with T.per_block(n):
            stacked = op(*[Tensor(r) for r in rows], *weights).data
    return stacked, np.concatenate(alone)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("blocks", [1, 4, 7, 40, 64])
def test_per_block_affine_is_each_block_alone_bit_for_bit(dtype, n, blocks):
    for d_in, d_out in [(17, 64), (64, 64), (64, 192), (64, 3)]:
        stacked, alone = per_block_forward(T.affine, n, blocks, dtype, blocks + d_out,
                                           [d_in], [(d_out, d_in), (1, d_out)])
        assert same_bits(stacked, alone), (d_in, d_out)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("blocks", [1, 4, 7, 40, 64])
@pytest.mark.parametrize("zero_state", [False, True])
def test_per_block_gru_cell_is_each_block_alone_bit_for_bit(dtype, n, blocks, zero_state):
    stacked, alone = per_block_forward(T.gru_cell, n, blocks, dtype, n + blocks, [25, 64],
                                       gru_shapes(1)[2:], zero_state=zero_state)
    assert same_bits(stacked, alone)


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("n", [1, 3, 32])
@pytest.mark.parametrize("blocks", [2, 5, 20])
@pytest.mark.parametrize("prior_grad", [False, True])
def test_per_block_affine_with_grad_is_each_block_alone_bit_for_bit(dtype, n, blocks,
                                                                     prior_grad):
    # the forward and x's gradient are each block's own; w's and b's are the
    # blocks' own products and row sums, added in block order
    for d_in, d_out in [(4, 64), (64, 160), (64, 32), (32, 1)]:
        gen = np.random.default_rng(blocks * n + d_out)
        x, w, b, g = (gen.standard_normal(s).astype(dtype) for s in
                      [(blocks * n, d_in), (d_out, d_in), (1, d_out), (blocks * n, d_out)])
        prior = [gen.standard_normal(a.shape).astype(dtype) for a in (w, b)]
        leaves = [Parameter(a.copy(), name=name) for a, name in ((x, "x"), (w, "w"), (b, "b"))]
        if prior_grad:
            leaves[1].grad, leaves[2].grad = (p.copy() for p in prior)
        with T.per_block(n):
            out = T.affine(*leaves)
            T.tsum(T.mul(out, Tensor(g))).backward()
        assert T._BLOCK_ROWS is None
        ref_out, ref_dx = [], []
        ref_dw, ref_db = (p.copy() for p in prior) if prior_grad else (None, None)
        for i in range(blocks):
            xi, gi = x[i * n:(i + 1) * n], g[i * n:(i + 1) * n]
            ref_out.append(xi @ w.T + b)
            ref_dx.append(gi @ w)
            dw, db = gi.T @ xi, gi.sum(axis=0, keepdims=True)
            ref_dw = dw if ref_dw is None else ref_dw + dw
            ref_db = db if ref_db is None else ref_db + db
        for got, ref in zip((out.data, *(t.grad for t in leaves)),
                            (np.concatenate(ref_out), np.concatenate(ref_dx), ref_dw, ref_db)):
            assert got.dtype == dtype and same_bits(got, ref), (d_in, d_out)


@pytest.mark.parametrize("op", ["gru_cell", "layer_norm_rows"])
def test_ops_without_a_per_block_backward_refuse_per_block_with_grad(op):
    leaves = []

    def leaf(rows, cols):
        leaves.append(Tensor(np.ones((rows, cols))))
        return leaves[-1]

    with T.per_block(2):
        with pytest.raises(ContractError, match=f"{op} has no per-block backward"):
            OP_CALLS[op](leaf, 4, 3)
        with no_grad():   # the acting loop's use
            assert OP_CALLS[op](leaf, 4, 3).shape[0] == 4
    assert T._BLOCK_ROWS is None


def test_per_block_refuses_rows_that_are_not_whole_blocks():
    gen = np.random.default_rng(3)
    x = Parameter(gen.standard_normal((5, 3)), name="x")
    w, b = Parameter(gen.standard_normal((4, 3)), name="w"), Parameter(np.zeros((1, 4)), name="b")
    gru = [Tensor(gen.standard_normal(s)) for s in gru_shapes(5, 3, 4)[2:]]
    match = re.escape("per_block(2): 5 rows are not whole blocks of 2")
    with T.per_block(2):
        with pytest.raises(ShapeError, match=match):
            T.affine(x, w, b)
        with no_grad():
            with pytest.raises(ShapeError, match=match):
                T.affine(x, w, b)
            with pytest.raises(ShapeError, match=match):
                T.gru_cell(x, Tensor(gen.standard_normal((5, 4))), *gru)


def test_no_grad_and_per_block_restore_the_enclosing_mode():
    x = Parameter(np.ones((2, 2)), name="x")

    def mode():
        return T.scale(x, 2.0).requires_grad, T._BLOCK_ROWS

    assert mode() == (True, None)
    with no_grad():
        assert mode() == (False, None)
        with T.per_block(3):
            assert mode() == (False, 3)
            with no_grad(), T.per_block(2):
                assert mode() == (False, 2)
            assert mode() == (False, 3)
        assert mode() == (False, None)
    assert mode() == (True, None)
    for outer in (False, True):
        with contextlib.ExitStack() as enclosing:
            if outer:
                enclosing.enter_context(no_grad())
            enclosing.enter_context(T.per_block(4))
            for scope, inside in ((no_grad, (False, 4)), (lambda: T.per_block(7), (not outer, 7))):
                with pytest.raises(KeyError, match="body"):
                    with scope():
                        assert mode() == inside
                        raise KeyError("body")
                assert mode() == (not outer, 4)
        assert mode() == (True, None)


def test_gru_zero_state_path_leaves_other_steps_gradients_alone():
    # the zero state gives Wh*, Wxr and br zero gradients only where none exist
    gen = np.random.default_rng(11)
    x, x2 = (Tensor(gen.standard_normal((4, 3))) for _ in range(2))
    weights = [Parameter(gen.standard_normal(s), name=f"w{i}")
               for i, s in enumerate(gru_shapes(4, 3, 5)[2:])]
    h1 = T.gru_cell(x, Tensor(np.zeros((4, 5))), *weights)
    h2 = T.gru_cell(x2, h1, *weights)
    T.tsum(h2).backward()
    assert all(np.any(w.grad != 0.0) for w in weights)
    for w in weights:
        w.grad = None
    T.tsum(T.gru_cell(x, Tensor(np.zeros((4, 5))), *weights)).backward()
    for i, w in enumerate(weights):
        assert w.grad is not None and (np.any(w.grad != 0.0) == (i in (0, 2, 6, 8)))


def test_gru_cell_gradients_at_the_zero_state():
    rng = np.random.default_rng(12)
    x = param(rng, 3, 4, "x")
    h = Tensor(np.zeros((3, 5)))
    weights = [param(rng, *s, name=f"w{i}") for i, s in enumerate(gru_shapes(3, 4, 5)[2:])]
    check_op(lambda: T.tsum(T.mul(T.gru_cell(x, h, *weights), Tensor(np.arange(15.0).reshape(3, 5)))),
             [x, *weights])
