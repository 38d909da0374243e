"""Reverse-mode automatic differentiation over 2-D float32 or float64 arrays.

A Tensor wraps a numpy matrix, its `data`; calling backward() on a scalar
result accumulates exact gradients into every reachable tensor with
requires_grad set.  Only the operations the Q-learning architecture needs
are provided.  Operands are 2-D, a vector being a 1 x d row, and add, sub
and mul take operands of equal shape.

The graph is made of nodes, not of tensors.  A tensor that requires grad
points to its node (_node), which holds its gradient, the closure that
passes that gradient on to its parents (None for a leaf) and the parents'
nodes; a tensor that needs no grad has none.  Every op follows one
protocol: compute the result array `data`, define a closure `backward(g)`
that `_accum`s the gradient of each parent from the output gradient g, and
return `_result(data, parents, backward)`.  `_result` records a node only
when grad is enabled and some parent requires grad; otherwise the result
needs no grad.  A closure holds its parents' nodes and exactly the arrays
its backward reads: affine its input and weight, mul the other operand (so
dropout keeps its mask), relu its own output (x > 0 exactly where
relu(x) > 0), tsum, take_rows and gather_cols a shape, and add, scale,
concat_rows, put_rows, reshape and transpose none.  A value no backward
reads is then freed as soon as the forward drops its tensor.  A closure
computes a parent's gradient only when that parent has a node.  An op that
is a composition of other ops has no closure of its own: sub is add and
scale, square and dropout are mul, and concat_cols is transpose and
concat_rows.

Ops write in place only into arrays they have just made (backward, which
runs once, may reuse what its op saved), keeping every float operation and
its order.  `_accum` takes a node and copies a gradient that is a view or
shared (add, tsum, concat_rows and reshape pass g on); `_accum_new` takes a
node and keeps a fresh gradient.

backward() frees the graph as it goes: once a node's closure has run, the
node drops its gradient, its closure (and with it the arrays the op saved)
and its parents, so a train step's peak memory is the arrays its backward
reads, not every value the forward computed, nor those plus every
intermediate gradient.  Leaves keep their gradients: Parameters and
requires_grad tensors built by the caller, whose `grad` is their node's.
A second backward() through a freed node raises ContractError.

A Tensor keeps a float32 array as float32 and stores anything else as
float64 (DTYPE).  A graph has one dtype, its parameters': training runs in
float32 and casts what enters its graph from outside, while the gradient
oracles build float64 models.  An op whose operands mix the two dtypes,
dropout's keep mask included, raises ContractError (see _result).

Importing this module, and so importing marlab, sets two malloc tunables for
the whole process where the C library has mallopt (glibc): a trim threshold
of 256 MiB and an mmap threshold of 32 MiB.  See _keep_freed_heap.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ContractError, MaskError, ShapeError

DTYPE = np.float64

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap():
    """Keep the heap pages a train step's autograd graph frees for the next step.

    By default glibc returns a freed heap top above 128 KiB to the OS, so each
    step would page-fault the same megabytes in again.  Setting the trim
    threshold also switches off glibc's dynamic mmap threshold, which would
    then give every array of 128 KiB or more fresh mmap pages on each
    allocation; so the mmap threshold is raised too, to glibc's dynamic maximum.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_heap()

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disables graph construction inside its body."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


_BLOCK_ROWS: Optional[int] = None


@contextmanager
def per_block(rows: int):
    """A scope under which affine and gru_cell form each product per block
    of `rows` consecutive rows, as one 3-D matmul.

    x.reshape(blocks, rows, d) @ W^T gives each block bit for bit the product of
    that block alone, while one 2-D product over the stacked blocks need not:
    BLAS picks its kernel, and with it the order of the sums, by the size of
    the whole product.  The acting loop (runner) enters it under no_grad to
    step many episodes together with each one's Q values unchanged.  Training
    enters it, with grad, to mix every step of a batch in one pass (learner),
    each step's values and gradients unchanged.

    With grad, affine's backward is per block too: the input gradient is one
    3-D product, and the weight and bias gradients are each block's own
    product and row sum, added into the parameter's gradient one block after
    another in ascending order.  That is the sum that one affine per block
    builds when backward runs the blocks' closures in that order.  gru_cell
    and layer_norm_rows have no per-block backward and refuse to run here
    with grad (ContractError).  Every other op is per row or per set.
    """
    global _BLOCK_ROWS
    prev, _BLOCK_ROWS = _BLOCK_ROWS, rows
    try:
        yield
    finally:
        _BLOCK_ROWS = prev


def _times_t(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T, or per block of rows inside per_block."""
    n = _BLOCK_ROWS
    if n is None or x.shape[0] == n:
        return x @ w.T
    if x.shape[0] % n:
        raise ShapeError(f"per_block({n}): {x.shape[0]} rows are not whole blocks of {n}")
    return (x.reshape(-1, n, x.shape[1]) @ w.T).reshape(x.shape[0], -1)


def _no_block_backward(op: str):
    """A ContractError for an op whose parameter gradients sum over every row,
    called inside per_block with grad."""
    if _BLOCK_ROWS is not None and _GRAD_ENABLED:
        raise ContractError(f"{op} has no per-block backward: run it under no_grad "
                            f"inside per_block")


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype != np.float32:
        arr = arr.astype(DTYPE, copy=False)
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D; got array of ndim {arr.ndim}")
    return arr


class _Node:
    """One tensor's place in the graph: its gradient, the closure that passes
    it on to the parents (None for a leaf) and the parents' nodes."""

    __slots__ = ("grad", "_backward", "_parents", "__weakref__")

    def __init__(self, backward: Optional[Callable[[np.ndarray], None]] = None,
                 parents: tuple = ()):
        self.grad: Optional[np.ndarray] = None
        self._backward = backward
        self._parents = parents


class Tensor:
    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self._node: Optional[_Node] = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ContractError("a tensor that needs no grad holds no gradient")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def backward(self):
        """Accumulate gradients of this (scalar) tensor into the graph's leaves,
        freeing every other node of the graph once its closure has run."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a 1x1 tensor, got {self.shape}")
        root = self._node
        if root is None:   # no graph to pass a gradient through
            return
        topo: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _freed:   # raise before any gradient moves
                _freed(None)
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:   # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _freed, ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _freed(g):
    """Stands in for the closure of a node that backward() has freed."""
    raise ContractError("backward() through a graph that an earlier backward() freed")


class Parameter(Tensor):
    """A trainable tensor named by its checkpoint key.  Which optimizer trains
    it is up to the learner, which hands each module's parameters to one."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _const(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """The op's result, with a node recording backward and the parents' nodes
    when grad is enabled and some parent has a node; a ContractError if its
    dtype is not every parent's."""
    dtype = data.dtype
    for p in parents:
        if p.data.dtype != dtype:
            raise ContractError(f"an op mixes {p.data.dtype} and {dtype}: a graph has one dtype")
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if _GRAD_ENABLED:
        nodes = tuple(p._node for p in parents if p._node is not None)
        if nodes:
            out._node = _Node(backward, nodes)
    return out


def _accum(t: Optional[_Node], g: np.ndarray):
    """Add g to the gradient of the node t; None takes none."""
    if t is None:
        return
    if t.grad is None:
        # Own the buffer: g may be a view of another tensor's gradient.
        t.grad = np.array(g)
    else:
        t.grad += g


def _accum_new(t: Optional[_Node], g: np.ndarray):
    """_accum into a node (or None) of an array the op has just made and keeps
    no other reference to."""
    if t is not None:
        if t.grad is None:
            t.grad = g
        else:
            t.grad += g


def _fold(ufunc, first: np.ndarray, *rest) -> np.ndarray:
    """ufunc(ufunc(first, rest[0]), rest[1]) ..., into first, which the op has just made."""
    for x in rest:
        ufunc(first, x, out=first)
    return first


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b) -> Tensor:
    a, b = _const(a), _const(b)
    _check_same_shape(a, b, "add")
    data = a.data + b.data
    na, nb = a._node, b._node

    def backward(g):
        _accum(na, g)
        _accum(nb, g)

    return _result(data, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    """a + (-1.0 * b): exactly a - b, with gradients g and -g."""
    return add(a, scale(_const(b), -1.0))


def mul(a: Tensor, b) -> Tensor:
    a, b = _const(a), _const(b)
    _check_same_shape(a, b, "mul")
    data = a.data * b.data
    na, nb = a._node, b._node
    # each operand's gradient reads the other: keep only what one will read
    ad = None if nb is None else a.data
    bd = None if na is None else b.data

    def backward(g):
        if na is not None:
            _accum_new(na, g * bd)
        if nb is not None:   # such as the TD mask
            _accum_new(nb, g * ad)

    return _result(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c
    na = a._node

    def backward(g):
        _accum_new(na, g * c)

    return _result(data, (a,), backward)


def tsum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    if axis is None:
        data = a.data.sum().reshape(1, 1)
    else:
        data = a.data.sum(axis=axis, keepdims=True)
    na, shape = a._node, a.shape

    def backward(g):
        _accum(na, np.broadcast_to(g, shape))

    return _result(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    na = a._node

    def backward(g):   # x > 0 exactly where max(x, 0) > 0, NaN included
        _accum_new(na, g * (data > 0))

    return _result(data, (a,), backward)


def elu(a: Tensor) -> Tensor:
    """ELU with alpha 1: x for x > 0, exp(x) - 1 otherwise."""
    # e = exp(min(x, 0)) - 1, and the output e + max(x, 0).  0 comes first: at
    # x = -0.0 minimum and maximum return x, which keeps the sign of zero.  No
    # x > 0 reaches expm1, which cannot overflow, and e + 1 is the slope.
    e = np.minimum(0, a.data)
    np.expm1(e, out=e)
    data = np.maximum(0, a.data)
    np.add(e, data, out=data)
    na = a._node

    def backward(g):
        slope = np.add(e, 1.0, out=e)
        _accum_new(na, np.multiply(g, slope, out=slope))

    return _result(data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    ad = a.data
    data = np.abs(ad)
    na = a._node

    def backward(g):
        _accum_new(na, g * np.sign(ad))

    return _result(data, (a,), backward)


def square(a: Tensor) -> Tensor:
    """a * a, whose gradient g * a + g * a is (2 g) * a outside the subnormals."""
    return mul(a, a)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """The parts' columns, one part after another."""
    return transpose(concat_rows([transpose(p) for p in parts]))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """The parts' rows, one part after another."""
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ShapeError("concat_rows: column counts differ")
    data = np.concatenate([p.data for p in parts])
    nodes = [(p._node, p.rows) for p in parts]

    def backward(g):
        i = 0
        for node, rows in nodes:
            _accum(node, g[i : i + rows])
            i += rows

    return _result(data, tuple(parts), backward)


def transpose(a: Tensor) -> Tensor:
    """a^T, laid out row by row, as is its gradient."""
    data = a.data.T.copy()
    na = a._node

    def backward(g):
        _accum_new(na, g.T.copy())

    return _result(data, (a,), backward)


def gather_cols(a: Tensor, index: np.ndarray) -> Tensor:
    """Pick one column per row: out[i, 0] = a[i, index[i]]."""
    index = np.asarray(index, dtype=np.intp)
    if index.shape != (a.rows,):
        raise ShapeError(f"gather_cols: index shape {index.shape} != ({a.rows},)")
    rows = np.arange(a.rows)
    data = a.data[rows, index].reshape(-1, 1)
    na, shape, dtype = a._node, a.shape, a.data.dtype

    def backward(g):
        if na is not None:
            if na.grad is None:
                na.grad = np.zeros(shape, dtype)
            np.add.at(na.grad, (rows, index), g[:, 0])

    return _result(data, (a,), backward)


def take_rows(a: Tensor, keep: np.ndarray) -> Tensor:
    """The rows of a where the boolean keep (one entry per row) is True, in order."""
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != (a.rows,):
        raise ShapeError(f"take_rows: need a boolean mask of shape ({a.rows},), "
                         f"got {keep.dtype} {keep.shape}")
    data = a.data[keep]
    na, shape, dtype = a._node, a.shape, a.data.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        full[keep] = g
        _accum_new(na, full)

    return _result(data, (a,), backward)


def put_rows(a: Tensor, keep: np.ndarray) -> Tensor:
    """The inverse of take_rows: a's rows, in order, at the True entries of the
    1-D boolean keep, and zero rows at the False ones."""
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.ndim != 1 or np.count_nonzero(keep) != a.rows:
        raise ShapeError(f"put_rows: need a boolean mask with {a.rows} True entries, "
                         f"got {keep.dtype} {keep.shape}")
    data = np.zeros((keep.size, a.cols), a.data.dtype)
    data[keep] = a.data
    na = a._node

    def backward(g):
        _accum_new(na, g[keep])

    return _result(data, (a,), backward)


def _masked_softmax(x: np.ndarray, mask: Optional[np.ndarray], what: str):
    """Softmax over the last axis, and its backward map from the output
    gradient to the gradient of x.  Where mask (broadcast against x) is False
    the weight is exactly zero; a row with no allowed entry raises MaskError."""
    if mask is not None:
        if not mask.any(axis=-1).all():
            raise MaskError(f"{what} with every entry masked out")
        x = np.where(mask, x, -np.inf)   # exp gives these exactly 0
    top = x[..., :1]   # the row maximum, column by column: exact and fewer passes
    for j in range(1, x.shape[-1]):
        top = np.maximum(top, x[..., j : j + 1])
    probs = x - top
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def grad(g):   # (g - sum(g * probs)) * probs, in one array
        out = g * probs
        return _fold(np.multiply, np.subtract(g, out.sum(axis=-1, keepdims=True), out=out), probs)

    return probs, grad


def softmax_rows(a: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Row-wise softmax; entries where the boolean mask is False get exactly
    zero weight, and a row with none allowed raises MaskError."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise ShapeError(f"softmax mask shape {mask.shape} != input {a.shape}")
    data, grad = _masked_softmax(a.data, mask, "softmax row")
    na = a._node

    def backward(g):
        _accum_new(na, grad(g))

    return _result(data, (a,), backward)


def layer_norm_rows(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization with learned scale and shift (both 1 x d); 1e-5 is
    added to the variance."""
    _no_block_backward("layer_norm_rows")
    d = a.cols
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ShapeError(f"layer_norm: input {a.shape}, gamma {gamma.shape}, beta {beta.shape}")
    ad, gd = a.data, gamma.data
    # the arithmetic of np.mean and np.var, with the mean subtracted once
    xhat = ad - ad.sum(axis=1, keepdims=True) / d
    scratch = xhat * xhat   # then the output
    inv = 1.0 / np.sqrt(scratch.sum(axis=1, keepdims=True) / d + 1e-5)
    xhat *= inv
    data = _fold(np.add, np.multiply(xhat, gd, out=scratch), beta.data)
    na, ngamma, nbeta = a._node, gamma._node, beta._node

    def backward(g):
        _accum_new(nbeta, g.sum(axis=0, keepdims=True))
        prod = g * xhat
        _accum_new(ngamma, prod.sum(axis=0, keepdims=True))
        dxhat = g * gd
        row_mean = dxhat.sum(axis=1, keepdims=True) / d
        proj = np.multiply(dxhat, xhat, out=prod).sum(axis=1, keepdims=True) / d
        dxhat = _fold(np.subtract, dxhat, row_mean, np.multiply(xhat, proj, out=prod))
        _accum_new(na, _fold(np.multiply, dxhat, inv))

    return _result(data, (a, gamma, beta), backward)


def dropout(a: Tensor, keep: np.ndarray) -> Tensor:
    """Inverted dropout by a given keep mask, 0 for a dropped entry and
    1/(1 - rate) for a survivor (see layers.dropout_mask)."""
    if keep.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {keep.shape} != input {a.shape}")
    return mul(a, Tensor(keep))


def _accum_blocks(t: _Node, blocks: np.ndarray):
    """_accum_new of each block of a 3-D array in turn, in ascending order."""
    for block in blocks:
        _accum_new(t, block.copy() if t.grad is None else block)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused dense map y = x W^T + b with W of shape (out, in), b (1, out).
    Inside per_block both directions run per block (see per_block)."""
    if x.cols != w.cols:
        raise ShapeError(f"affine: input {x.shape} does not match weight {w.shape}")
    xd, wd = x.data, w.data
    data = _fold(np.add, _times_t(xd, wd), b.data)
    n = _BLOCK_ROWS   # the forward's blocks: backward runs after per_block has exited
    nx, nw, nb = x._node, w._node, b._node

    def backward(g):
        if n is None or len(xd) == n:
            if nx is not None:   # inputs such as observations need no g @ W
                _accum_new(nx, g @ wd)
            _accum_new(nw, g.T @ xd)
            _accum_new(nb, g.sum(axis=0, keepdims=True))
            return
        g3 = g.reshape(-1, n, g.shape[1])
        if nx is not None:
            _accum_new(nx, (g3 @ wd).reshape(xd.shape))
        if nw is not None:
            _accum_blocks(nw, g3.transpose(0, 2, 1) @ xd.reshape(len(g3), n, -1))
        if nb is not None:
            _accum_blocks(nb, g3.sum(axis=1, keepdims=True))

    return _result(data, (x, w, b), backward)


def _sigmoid_(a: np.ndarray) -> np.ndarray:
    """a := 1 / (1 + exp(-a)) in place; where exp overflows to inf it is exactly 0."""
    np.negative(a, out=a)
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def gru_cell(x: Tensor, h: Tensor,
             wxz: Tensor, whz: Tensor, bz: Tensor,
             wxr: Tensor, whr: Tensor, br: Tensor,
             wxc: Tensor, whc: Tensor, bc: Tensor) -> Tensor:
    """Fused gated recurrent cell.

    z = sigmoid(x Wxz^T + h Whz^T + bz)
    r = sigmoid(x Wxr^T + h Whr^T + br)
    c = tanh(x Wxc^T + r * (h Whc^T) + bc)
    out = (1 - z) * c + z * h

    x (rows, in) and h (rows, hidden) must fit Wx* (hidden, in) and Wh* (hidden, hidden).

    At the zero state (h all zero and needing no grad, as at the start of
    every unroll and episode) every h Wh* product is zero: z and c come from
    x alone and r is not formed, and Wh*, Wxr and br get a zero gradient if
    no other step gave them one.  That is bit for bit the full form for
    finite weights; an inf or NaN in Wh* no longer makes the output NaN there.
    """
    _no_block_backward("gru_cell")
    if x.cols != wxz.cols or h.shape != (x.rows, whz.rows):
        raise ShapeError(f"gru_cell: input {x.shape} and state {h.shape} do not match "
                         f"weights {wxz.shape} and {whz.shape}")
    xd, hd = x.data, h.data
    wxzd, whzd, wxrd, whrd, wxcd, whcd = (w.data for w in (wxz, whz, wxr, whr, wxc, whc))
    zero = not h.requires_grad and not hd.any()
    z = _times_t(xd, wxzd)
    c = _times_t(xd, wxcd)
    if not zero:
        z += _times_t(hd, whzd)
        r = _sigmoid_(_fold(np.add, _times_t(xd, wxrd), _times_t(hd, whrd), br.data))
        u = _times_t(hd, whcd)
        c += r * u
    _sigmoid_(_fold(np.add, z, bz.data))
    np.tanh(_fold(np.add, c, bc.data), out=c)
    data = _fold(np.multiply, 1.0 - z, c)
    data += hd if zero else z * hd   # z * h is h itself at the zero state
    nx, nh, nwxz, nwhz, nbz, nwxr, nwhr, nbr, nwxc, nwhc, nbc = (
        t._node for t in (x, h, wxz, whz, bz, wxr, whr, br, wxc, whc, bc))
    # what gets a zero gradient at the zero state
    unreached = [(t._node, t.shape) for t in (whz, wxr, whr, br, whc)] if zero else []

    def backward(g):
        omz = 1.0 - z
        dac = _fold(np.multiply, 1.0 - c * c, g * omz)   # (1 - c^2) dc, dc = g (1 - z)
        daz = _fold(np.multiply, hd - c, g, z, omz)
        if not zero:
            dar = _fold(np.multiply, dac * u, r, np.subtract(1.0, r, out=u))   # u is spent
            du = np.multiply(dac, r, out=r)
        if nx is not None:
            dx = daz @ wxzd
            if not zero:
                dx += dar @ wxrd
            _accum_new(nx, _fold(np.add, dx, dac @ wxcd))
        if nh is not None:   # never at the zero state
            _accum_new(nh, _fold(np.add, g * z, daz @ whzd, dar @ whrd, du @ whcd))
        _accum_new(nwxz, daz.T @ xd)
        _accum_new(nbz, daz.sum(axis=0, keepdims=True))
        _accum_new(nwxc, dac.T @ xd)
        _accum_new(nbc, dac.sum(axis=0, keepdims=True))
        if zero:
            for t, shape in unreached:
                if t is not None and t.grad is None:
                    t.grad = np.zeros(shape, z.dtype)
            return
        _accum_new(nwhz, daz.T @ hd)
        _accum_new(nwxr, dar.T @ xd)
        _accum_new(nwhr, dar.T @ hd)
        _accum_new(nbr, dar.sum(axis=0, keepdims=True))
        _accum_new(nwhc, du.T @ hd)

    return _result(data, (x, h, wxz, whz, bz, wxr, whr, br, wxc, whc, bc), backward)


def set_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, sets: int,
                  mask: Optional[np.ndarray] = None,
                  probs_out: Optional[list] = None) -> Tensor:
    """Fused scaled dot-product attention over `sets` independent row groups.

    The first dimension splits into `sets` consecutive groups; attention runs
    within each group, never across.  mask is one boolean (n, n) matrix
    (True = query row may attend key row) applied inside every group.  If
    probs_out is a list, the (sets, heads, n, n) weight array is appended.
    """
    rows, dim = q.shape
    if rows % sets != 0:
        raise ShapeError(f"{rows} rows do not split into {sets} sets")
    n = rows // sets
    dk = dim // heads

    def split(t: np.ndarray) -> np.ndarray:
        return t.reshape(sets, n, heads, dk).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # a Python float, which keeps float32 scores float32 (a numpy float64
    # scalar would promote them)
    scale_ = 1.0 / math.sqrt(dk)
    scores = _fold(np.multiply, qh @ kh.swapaxes(-1, -2), scale_)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, n):
            raise ShapeError(f"attention mask must be {n}x{n}, got {mask.shape}")
    probs, softmax_grad = _masked_softmax(scores, mask, "attention query row")
    if probs_out is not None:
        probs_out.append(probs.copy())
    ctx = probs @ vh
    data = ctx.transpose(0, 2, 1, 3).reshape(rows, dim)
    nq, nk, nv = q._node, k._node, v._node

    def backward(g):
        gh = split(g)
        dv = probs.swapaxes(-1, -2) @ gh
        dp = gh @ vh.swapaxes(-1, -2)
        ds = softmax_grad(dp)
        dq = _fold(np.multiply, ds @ kh, scale_)
        dk_ = _fold(np.multiply, ds.swapaxes(-1, -2) @ qh, scale_)

        def merge(t):
            return t.transpose(0, 2, 1, 3).reshape(rows, dim)

        _accum_new(nq, merge(dq))
        _accum_new(nk, merge(dk_))
        _accum_new(nv, merge(dv))

    return _result(data, (q, k, v), backward)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    data = a.data.reshape(rows, cols).copy()
    na, shape = a._node, a.shape

    def backward(g):
        _accum(na, g.reshape(shape))

    return _result(data, (a,), backward)


def block_row_matmul(q: Tensor, w: Tensor) -> Tensor:
    """Per-row matrix product: out[b] = q[b] @ w[b].reshape(n, k).

    q is (B, n); w is (B, n*k) holding a per-row mixing matrix.  Used by the
    state-conditioned mixer, where every sample gets its own weights.
    """
    bsz, n = q.shape
    if not n or w.rows != bsz or w.cols % n:
        raise ShapeError(f"block_row_matmul: got q {q.shape}, w {w.shape}")
    qd, w3 = q.data, w.data.reshape(bsz, n, -1)
    data = (qd[:, None, :] @ w3)[:, 0, :]
    nq, nw, shape = q._node, w._node, w.shape

    def backward(g):
        _accum_new(nq, (w3 @ g[:, :, None])[:, :, 0])
        _accum_new(nw, np.einsum("bi,bk->bik", qd, g).reshape(shape))

    return _result(data, (q, w), backward)
