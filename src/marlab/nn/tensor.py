"""Reverse-mode automatic differentiation over 2-D float32 or float64 arrays.

A Tensor wraps a numpy matrix and remembers how it was produced; calling
backward() on a scalar result accumulates exact gradients into every
reachable tensor with requires_grad set.  Only the operations the Q-learning
architecture needs are provided.  Operands are 2-D, a vector being a 1 x d
row, and add, sub and mul take operands of equal shape.

Every op follows one protocol: compute the result array `data`, define a
closure `backward(g)` that `_accum`s the gradient of each parent from the
output gradient g, and return `_result(data, parents, backward)`.  `_result`
keeps the closure and the parents only when grad is enabled and some parent
requires grad; otherwise the result is a leaf.  A closure computes a
parent's gradient only when that parent requires grad.

backward() frees the graph as it goes: once a node's closure has run, the
node drops its gradient, its closure (and with it the arrays the op saved)
and its parents, so a train step's peak memory is its forward graph, not
the graph plus every intermediate gradient.  Leaves keep their gradients:
Parameters and requires_grad tensors built by the caller.  A second
backward() through a freed node raises ContractError.

A Tensor keeps a float32 array as float32 and stores anything else as
float64 (DTYPE).  Every op computes in its inputs' dtype, so a model whose
parameters are float32 runs in float32 as long as what enters its graph from
outside is cast to that dtype too: training casts there and runs in float32,
while the gradient oracles build float64 models.  An op that mixes the two
dtypes computes in float64 (numpy's promotion).

Importing this module, and so importing marlab, sets two malloc tunables for
the whole process where the C library has mallopt (glibc): a trim threshold
of 256 MiB and an mmap threshold of 32 MiB.  See _keep_freed_heap.
"""

from __future__ import annotations

import ctypes
import math
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


class no_grad:
    """Context manager that disables graph construction inside its body."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled() -> bool:
    return _GRAD_ENABLED


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype != np.float32:
        arr = arr.astype(DTYPE, copy=False)
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D; got array of ndim {arr.ndim}")
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

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
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
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
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = needs
    out._parents = tuple(parents) if needs else ()
    out._backward = backward if needs else None
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # Own the buffer: g may be a view of another tensor's gradient.
        t.grad = np.array(g)
    else:
        t.grad += g


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b) -> Tensor:
    a, b = _const(a), _const(b)
    _check_same_shape(a, b, "add")
    data = a.data + b.data

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _result(data, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    a, b = _const(a), _const(b)
    _check_same_shape(a, b, "sub")
    data = a.data - b.data

    def backward(g):
        _accum(a, g)
        if b.requires_grad:   # such as the TD targets
            _accum(b, -g)

    return _result(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a, b = _const(a), _const(b)
    _check_same_shape(a, b, "mul")
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:   # such as the TD mask
            _accum(b, g * a.data)

    return _result(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _result(data, (a,), backward)


def tsum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    if axis is None:
        data = a.data.sum().reshape(1, 1)
    else:
        data = a.data.sum(axis=axis, keepdims=True)

    def backward(g):
        _accum(a, np.broadcast_to(g, a.shape))

    return _result(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0))

    return _result(data, (a,), backward)


def elu(a: Tensor) -> Tensor:
    """ELU with alpha 1: x for x > 0, exp(x) - 1 otherwise."""
    pos = a.data > 0
    with np.errstate(over="ignore"):   # expm1 of a large x > 0 is discarded
        data = np.where(pos, a.data, np.expm1(a.data))

    def backward(g):
        _accum(a, g * np.where(pos, 1.0, data + 1.0))

    return _result(data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def backward(g):
        _accum(a, g * np.sign(a.data))

    return _result(data, (a,), backward)


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def backward(g):
        _accum(a, 2.0 * g * a.data)

    return _result(data, (a,), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise ShapeError("concat_cols: row counts differ")
    data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g):
        j = 0
        for p in parts:
            _accum(p, g[:, j : j + p.cols])
            j += p.cols

    return _result(data, tuple(parts), backward)


def gather_cols(a: Tensor, index: np.ndarray) -> Tensor:
    """Pick one column per row: out[i, 0] = a[i, index[i]]."""
    index = np.asarray(index, dtype=np.intp)
    if index.shape != (a.rows,):
        raise ShapeError(f"gather_cols: index shape {index.shape} != ({a.rows},)")
    rows = np.arange(a.rows)
    data = a.data[rows, index].reshape(-1, 1)

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, (rows, index), g[:, 0])

    return _result(data, (a,), backward)


def _masked_softmax(x: np.ndarray, mask: Optional[np.ndarray], what: str):
    """Softmax over the last axis, and its backward map from the output
    gradient to the gradient of x.  Where mask (broadcast against x) is False
    the weight is exactly zero; a row with no allowed entry raises MaskError."""
    if mask is not None:
        if not mask.any(axis=-1).all():
            raise MaskError(f"{what} with every entry masked out")
        x = np.where(mask, x, -np.inf)   # exp gives these exactly 0
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return probs, lambda g: probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def softmax_rows(a: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Row-wise softmax; entries where the boolean mask is False get exactly
    zero weight, and a row with none allowed raises MaskError."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise ShapeError(f"softmax mask shape {mask.shape} != input {a.shape}")
    data, grad = _masked_softmax(a.data, mask, "softmax row")

    def backward(g):
        _accum(a, grad(g))

    return _result(data, (a,), backward)


def layer_norm_rows(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization with learned scale and shift (both 1 x d); 1e-5 is
    added to the variance."""
    d = a.cols
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ShapeError(f"layer_norm: input {a.shape}, gamma {gamma.shape}, beta {beta.shape}")
    # the arithmetic of np.mean and np.var, with the mean subtracted once
    centered = a.data - a.data.sum(axis=1, keepdims=True) / d
    var = (centered * centered).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        _accum(beta, g.sum(axis=0, keepdims=True))
        _accum(gamma, (g * xhat).sum(axis=0, keepdims=True))
        dxhat = g * gamma.data
        row_mean = dxhat.sum(axis=1, keepdims=True) / d
        proj = (dxhat * xhat).sum(axis=1, keepdims=True) / d
        _accum(a, inv * (dxhat - row_mean - xhat * proj))

    return _result(data, (a, gamma, beta), backward)


def dropout(a: Tensor, keep: np.ndarray) -> Tensor:
    """Inverted dropout by a given keep mask, 0 for a dropped entry and
    1/(1 - rate) for a survivor (see layers.dropout_mask)."""
    if keep.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {keep.shape} != input {a.shape}")
    data = a.data * keep

    def backward(g):
        _accum(a, g * keep)

    return _result(data, (a,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused dense map y = x W^T + b with W of shape (out, in), b (1, out)."""
    if x.cols != w.cols:
        raise ShapeError(f"affine: input {x.shape} does not match weight {w.shape}")
    data = x.data @ w.data.T + b.data

    def backward(g):
        if x.requires_grad:   # inputs such as observations need no g @ W
            _accum(x, g @ w.data)
        _accum(w, g.T @ x.data)
        _accum(b, g.sum(axis=0, keepdims=True))

    return _result(data, (x, w, b), backward)


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
    """
    if x.cols != wxz.cols or h.shape != (x.rows, whz.rows):
        raise ShapeError(f"gru_cell: input {x.shape} and state {h.shape} do not match "
                         f"weights {wxz.shape} and {whz.shape}")
    xd, hd = x.data, h.data
    with np.errstate(over="ignore"):   # exp overflows to inf: the gate is exactly 0
        z = 1.0 / (1.0 + np.exp(-(xd @ wxz.data.T + hd @ whz.data.T + bz.data)))
        r = 1.0 / (1.0 + np.exp(-(xd @ wxr.data.T + hd @ whr.data.T + br.data)))
    u = hd @ whc.data.T
    c = np.tanh(xd @ wxc.data.T + r * u + bc.data)
    data = (1.0 - z) * c + z * hd

    def backward(g):
        dc = g * (1.0 - z)
        dz = g * (hd - c)
        dac = dc * (1.0 - c * c)
        daz = dz * z * (1.0 - z)
        dr = dac * u
        dar = dr * r * (1.0 - r)
        du = dac * r
        if x.requires_grad:
            _accum(x, daz @ wxz.data + dar @ wxr.data + dac @ wxc.data)
        if h.requires_grad:   # the zero initial state needs none
            _accum(h, g * z + daz @ whz.data + dar @ whr.data + du @ whc.data)
        _accum(wxz, daz.T @ xd)
        _accum(whz, daz.T @ hd)
        _accum(bz, daz.sum(axis=0, keepdims=True))
        _accum(wxr, dar.T @ xd)
        _accum(whr, dar.T @ hd)
        _accum(br, dar.sum(axis=0, keepdims=True))
        _accum(wxc, dac.T @ xd)
        _accum(whc, du.T @ hd)
        _accum(bc, dac.sum(axis=0, keepdims=True))

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
    scores = (qh @ kh.swapaxes(-1, -2)) * scale_
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, n):
            raise ShapeError(f"attention mask must be {n}x{n}, got {mask.shape}")
    probs, softmax_grad = _masked_softmax(scores, mask, "attention query row")
    if probs_out is not None:
        probs_out.append(probs.copy())
    ctx = probs @ vh
    data = ctx.transpose(0, 2, 1, 3).reshape(rows, dim)

    def backward(g):
        gh = split(g)
        dv = probs.swapaxes(-1, -2) @ gh
        dp = gh @ vh.swapaxes(-1, -2)
        ds = softmax_grad(dp)
        dq = (ds @ kh) * scale_
        dk_ = (ds.swapaxes(-1, -2) @ qh) * scale_

        def merge(t):
            return t.transpose(0, 2, 1, 3).reshape(rows, dim)

        _accum(q, merge(dq))
        _accum(k, merge(dk_))
        _accum(v, merge(dv))

    return _result(data, (q, k, v), backward)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    data = a.data.reshape(rows, cols).copy()

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _result(data, (a,), backward)


def block_row_matmul(q: Tensor, w: Tensor) -> Tensor:
    """Per-row matrix product: out[b] = q[b] @ w[b].reshape(n, k).

    q is (B, n); w is (B, n*k) holding a per-row mixing matrix.  Used by the
    state-conditioned mixer, where every sample gets its own weights.
    """
    bsz, n = q.shape
    if not n or w.rows != bsz or w.cols % n:
        raise ShapeError(f"block_row_matmul: got q {q.shape}, w {w.shape}")
    w3 = w.data.reshape(bsz, n, -1)
    data = (q.data[:, None, :] @ w3)[:, 0, :]

    def backward(g):
        _accum(q, (w3 @ g[:, :, None])[:, :, 0])
        _accum(w, np.einsum("bi,bk->bik", q.data, g).reshape(w.shape))

    return _result(data, (q, w), backward)
