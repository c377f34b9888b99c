"""Minimal reverse-mode autodiff on float64 numpy arrays.

A Tensor records its parents and a backward closure; calling backward() on a
scalar loss walks the graph in reverse topological order and accumulates
gradients into every reachable leaf. Everything is 64-bit for reproducibility.
"""
from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, ParameterError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    return _grad_enabled


class Tensor:
    __slots__ = ("value", "grad", "parents", "bwd")

    def __init__(self, value, parents=(), bwd=None):
        v = np.asarray(value, dtype=np.float64)
        self.value = v
        self.grad = None
        if _grad_enabled:
            self.parents = parents
            self.bwd = bwd
        else:
            self.parents = ()
            self.bwd = None

    @property
    def shape(self):
        return self.value.shape

    def detach(self):
        return Tensor(self.value)

    def grad_or_zero(self):
        if self.grad is None:
            return np.zeros_like(self.value)
        return self.grad

    # arithmetic sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise NotImplementedError("tensor/tensor division not supported")
        return mul(self, 1.0 / other)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


class Parameter(Tensor):
    """Learnable leaf tensor; rejects non-finite values on write."""

    __slots__ = ("name",)

    def __init__(self, value, name=""):
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise ParameterError(f"non-finite values in parameter {name!r}")
        super().__init__(value)
        self.name = name

    def assign(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.value.shape:
            raise DimensionError(
                f"parameter {self.name!r}: shape {value.shape} != {self.value.shape}"
            )
        if not np.isfinite(value).all():
            raise ParameterError(f"non-finite values written to parameter {self.name!r}")
        self.value = value


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(value, parents, bwd):
    if not _grad_enabled:
        return Tensor(value)
    return Tensor(value, parents, bwd)


def _multi_node(values, parents, bwd):
    """One node with several outputs: returns a Tensor per value.

    Each output is a node whose only parent is a joint node over `parents`.
    An output's backward hands its gradient to the joint node, which the
    walk reaches after every output, so bwd(grads) runs once, after all
    consumers of all outputs, with grads[i] the gradient of output i or None
    if nothing consumed it."""
    grads = [None] * len(values)
    joint = _node(np.zeros(0), parents, lambda _: bwd(grads))

    def handoff(i):
        def out_bwd(g):
            grads[i] = g
            joint.grad = grads      # any non-None grad schedules the joint bwd
        return out_bwd

    return [_node(v, (joint,), handoff(i)) for i, v in enumerate(values)]


def _acc(t, g):
    # first write keeps the reference; later writes allocate a fresh sum
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss):
    """Accumulate d(loss)/d(leaf) into .grad over the recorded graph."""
    if loss.value.size != 1:
        raise DimensionError("backward requires a scalar loss")
    # iterative topo sort
    order = []
    seen = {id(loss): loss}
    stack = [(loss, iter(loss.parents))]
    on_stack = {id(loss)}
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if id(p) not in seen:
                seen[id(p)] = p
                on_stack.add(id(p))
                stack.append((p, iter(p.parents)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(node)
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_v = a.value + b.value

    def bwd(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(g, b.value.shape))

    return _node(out_v, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_v = a.value * b.value

    def bwd(g):
        _acc(a, _unbroadcast(g * b.value, a.value.shape))
        _acc(b, _unbroadcast(g * a.value, b.value.shape))

    return _node(out_v, (a, b), bwd)


def scale(x, s):
    """x * python-scalar s; safe for inputs containing -inf entries."""
    x = _as_tensor(x)
    out_v = x.value * s

    def bwd(g):
        _acc(x, g * s)

    return _node(out_v, (x,), bwd)


def matmul(a, w):
    """a: (..., k) tensor, w: (k, n). Supports 1-3d `a`."""
    a, w = _as_tensor(a), _as_tensor(w)
    if a.value.shape[-1] != w.value.shape[0]:
        raise DimensionError(
            f"matmul: inner dims {a.value.shape[-1]} vs {w.value.shape[0]}"
        )
    out_v = a.value @ w.value

    def bwd(g):
        _acc(a, g @ w.value.T)
        av = a.value.reshape(-1, a.value.shape[-1])
        gv = g.reshape(-1, g.shape[-1])
        _acc(w, av.T @ gv)

    return _node(out_v, (a, w), bwd)


def relu(x):
    x = _as_tensor(x)
    mask = x.value > 0
    out_v = x.value * mask

    def bwd(g):
        _acc(x, g * mask)

    return _node(out_v, (x,), bwd)


def sigmoid(x):
    x = _as_tensor(x)
    e = np.exp(-np.abs(x.value))
    out_v = np.where(x.value >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bwd(g):
        _acc(x, g * out_v * (1.0 - out_v))

    return _node(out_v, (x,), bwd)


def tanh(x):
    x = _as_tensor(x)
    out_v = np.tanh(x.value)

    def bwd(g):
        _acc(x, g * (1.0 - out_v * out_v))

    return _node(out_v, (x,), bwd)


def softmax(x, axis=-1):
    """Softmax along `axis`; tolerates -inf entries (they map to exactly 0)."""
    x = _as_tensor(x)
    shifted = x.value - np.max(x.value, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_v = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_v).sum(axis=axis, keepdims=True)
        _acc(x, out_v * (g - dot))

    return _node(out_v, (x,), bwd)


def log(x):
    x = _as_tensor(x)
    out_v = np.log(x.value)

    def bwd(g):
        _acc(x, g / x.value)

    return _node(out_v, (x,), bwd)


def clamp_min(x, lo):
    """max(x, lo); gradient passes only where x > lo."""
    x = _as_tensor(x)
    mask = x.value > lo
    out_v = np.maximum(x.value, lo)

    def bwd(g):
        _acc(x, g * mask)

    return _node(out_v, (x,), bwd)


def mean(x, axis=None):
    x = _as_tensor(x)
    out_v = x.value.mean(axis=axis)
    n = x.value.size if axis is None else x.value.shape[axis]

    def bwd(g):
        if axis is None:
            _acc(x, np.full_like(x.value, 1.0 / n) * g)
        else:
            _acc(x, np.expand_dims(g, axis) * np.ones_like(x.value) / n)

    return _node(out_v, (x,), bwd)


def total(x):
    x = _as_tensor(x)
    out_v = np.asarray(x.value.sum())

    def bwd(g):
        _acc(x, np.broadcast_to(g, x.value.shape))

    return _node(out_v, (x,), bwd)


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    out_v = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]

    def bwd(g):
        splits = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for t, gs in zip(tensors, splits):
            _acc(t, gs)

    return _node(out_v, tuple(tensors), bwd)


def mask_logits(x, keep):
    """Set entries where keep is False to -inf; gradient flows only where kept."""
    x = _as_tensor(x)
    keep = np.asarray(keep, dtype=bool)
    out_v = np.where(keep, x.value, -np.inf)

    def bwd(g):
        _acc(x, g * keep)

    return _node(out_v, (x,), bwd)


def straight_through(soft, hard_value):
    """Forward the hard value, route gradients to the soft sample unchanged."""
    soft = _as_tensor(soft)
    hard_value = np.asarray(hard_value, dtype=np.float64)
    if hard_value.shape != soft.value.shape:
        raise DimensionError("straight_through: shape mismatch")

    def bwd(g):
        _acc(soft, g)

    return _node(hard_value, (soft,), bwd)


def reshape(x, shape):
    x = _as_tensor(x)
    out_v = x.value.reshape(shape)

    def bwd(g):
        _acc(x, g.reshape(x.value.shape))

    return _node(out_v, (x,), bwd)


def conv1d(x, w, b, stride=1, padding="same"):
    """1-d cross-correlation over time.

    x: (B, L, Cin), w: (K, Cin, Cout), b: (Cout,). `same` zero-pads so the
    output length is ceil(L / stride); `valid` requires L >= K.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.value.ndim != 3:
        raise DimensionError("conv1d input must be (batch, length, channels)")
    B, L, cin = x.value.shape
    K, wcin, cout = w.value.shape
    if K % 2 == 0:
        raise DimensionError("conv1d kernel width must be odd")
    if cin != wcin:
        raise DimensionError(f"conv1d channels {cin} vs kernel {wcin}")
    if padding == "same":
        lout = -(-L // stride)
        pad_total = max((lout - 1) * stride + K - L, 0)
        left = pad_total // 2
        right = pad_total - left
    elif padding == "valid":
        if L < K:
            raise DimensionError(f"conv1d valid padding needs length >= {K}, got {L}")
        lout = (L - K) // stride + 1
        left = right = 0
    else:
        raise ValueError(f"unknown padding {padding!r}")
    xp = np.zeros((B, left + L + right, cin))
    xp[:, left:left + L, :] = x.value
    span = (lout - 1) * stride + 1
    # im2col: one matmul instead of K small ones
    cols = np.empty((B, lout, K * cin))
    for k in range(K):
        cols[:, :, k * cin:(k + 1) * cin] = xp[:, k:k + span:stride, :]
    cols2 = cols.reshape(B * lout, K * cin)
    w2 = w.value.reshape(K * cin, cout)
    out_v = (cols2 @ w2 + b.value).reshape(B, lout, cout)

    def bwd(g):
        _acc(b, g.sum(axis=(0, 1)))
        gflat = np.ascontiguousarray(g).reshape(B * lout, cout)
        _acc(w, (cols2.T @ gflat).reshape(K, cin, cout))
        dcols = (gflat @ w2.T).reshape(B, lout, K * cin)
        dxp = np.zeros_like(xp)
        for k in range(K):
            dxp[:, k:k + span:stride, :] += dcols[:, :, k * cin:(k + 1) * cin]
        _acc(x, dxp[:, left:left + L, :])

    return _node(out_v, (x, w, b), bwd)
