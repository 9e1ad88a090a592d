"""Minimal reverse-mode autodiff over float64 numpy arrays.

Only the operations that the detection networks use are provided. Every
primitive records a closure that maps the output gradient to parent
gradients; ``node`` records one for a layer or loss computed outside this
module (the convolutions, batch norm + ReLU and the three losses), which
keeps only what its backward needs. ``Tensor.backward`` runs a
topological sweep from a scalar loss.
Only leaf tensors (no parents, e.g. parameters) keep a ``.grad``; it
accumulates across backward calls until ``zero_grad``.

A graph is single-use: ``backward`` drops each node's parents and closure
once its gradient has been passed on, so intermediates are freed during
the sweep, and a second backward through the same graph raises
``GraphConsumed``. Inside ``with no_grad():`` no graph is recorded at all:
outputs have no parents, and backward-only state (such as ``relu``'s mask)
is never computed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class NotScalar(ValueError):
    """backward() was called on a non-scalar tensor."""


class GraphConsumed(RuntimeError):
    """backward() reached a node whose graph an earlier backward freed."""


def _consumed(_g):
    """Stands in for the closure of a node that a backward has consumed."""
    raise GraphConsumed("backward() through a graph that an earlier backward() freed")


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no graph inside the scope; the previous mode returns on exit."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    # leading axes added by broadcasting
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # keep numpy from absorbing Tensor operands; reflected dunders run instead
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = None   # each op sets its closure after construction

    # ------------------------------------------------------------------ util
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -------------------------------------------------------------- backward
    def backward(self):
        """Accumulate the gradient of this scalar into every leaf's .grad,
        consuming the graph: each node's parents and closure are dropped
        once its gradient has been passed on."""
        if self.data.size != 1:
            raise NotScalar(f"backward requires a scalar, got shape {self.data.shape}")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)     # raises before any leaf's .grad is touched
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads = {id(self): np.ones_like(self.data)}
        # popped in reverse topological order, so once a node is done nothing
        # but outside references keep it alive; every key of grads is a node
        # still in topo, so ids of freed nodes are never looked up
        while topo:
            node = topo.pop()
            parents, bwd = node._parents, node._backward
            if parents:
                node._parents, node._backward = (), _consumed
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not parents:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if bwd is None:
                continue
            for parent, pg in zip(parents, bwd(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = as_tensor(other)
        out = _make((self, other), self.data + other.data)
        if out._parents:
            a_shape, b_shape = self.data.shape, other.data.shape
            out._backward = lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out = _make((self, other), self.data * other.data)
        if out._parents:
            a, b = self, other
            out._backward = lambda g: (
                _unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape),
            )
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        out = _make((self, other), self.data @ other.data)
        if out._parents:
            a, b = self, other
            # batched operands: transpose the matrix axes, then sum the
            # gradient over the batch axes an operand was broadcast along
            out._backward = lambda g: (
                _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape),
            )
        return out

    # ------------------------------------------------------------ reductions
    def sum(self):
        out = _make((self,), self.data.sum())
        if out._parents:
            shape = self.data.shape
            out._backward = lambda g: (np.broadcast_to(g, shape).copy(),)
        return out

    def max(self, axis: int):
        """Max along one axis; gradient routes to the first argmax."""
        out = _make((self,), self.data.max(axis=axis))
        if out._parents:
            x = self.data

            def bwd(g):
                # the argmax is taken here, so a forward without backward skips it
                idx = np.expand_dims(np.argmax(x, axis=axis), axis)
                gx = np.zeros(x.shape)
                np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis)
                return (gx,)

            out._backward = bwd
        return out

    # ------------------------------------------------------- shape/structure
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make((self,), self.data.reshape(shape))
        if out._parents:
            orig = self.data.shape
            out._backward = lambda g: (g.reshape(orig),)
        return out

    def transpose(self, axes):
        out = _make((self,), self.data.transpose(axes))
        if out._parents:
            inv = np.argsort(axes)
            out._backward = lambda g: (g.transpose(inv),)
        return out


def recording(*tensors) -> bool:
    """Whether an op on these tensors records a graph node: grad mode is on
    and one of them requires grad."""
    return _grad_mode.enabled and any(t.requires_grad for t in tensors)


def _make(parents, data):
    if recording(*parents):
        return Tensor(data, requires_grad=True, _parents=parents)
    return Tensor(data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(parents, data, backward) -> Tensor:
    """A tensor that a caller computed from parents. When a graph is
    recorded, backward maps its gradient to one gradient (or None) per
    parent; otherwise backward, with all that it holds, is dropped here."""
    out = _make(tuple(parents), data)
    if out._parents:
        out._backward = backward
    return out


# ---------------------------------------------------------------- functions
def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = _make((x,), y)
    if out._parents:
        out._backward = lambda g: (g * y * (1.0 - y),)
    return out


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = _make((x,), np.maximum(x.data, 0.0))
    if out._parents:
        mask = x.data > 0
        out._backward = lambda g: (g * mask,)
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = _make(tuple(tensors), np.concatenate([t.data for t in tensors], axis=axis))
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        out._backward = lambda g: tuple(np.split(g, splits, axis=axis))
    return out


def _add_rows(rows: np.ndarray, indices: np.ndarray, size: int, row: tuple) -> np.ndarray:
    """A zero (size, *row) array into whose row indices[i] the block rows[i]
    is added; rows is shaped indices.shape + row. Repeated indices add in
    index order, as np.add.at would, but faster."""
    width = int(np.prod(row))
    flat = np.ravel(indices)
    if row:
        # row i covers the flat cells indices[i] * width + (0 .. width - 1)
        flat = (flat[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=size * width).reshape((size,) + row)


def take(x: Tensor, indices: np.ndarray) -> Tensor:
    """Rows indices of x, shaped indices.shape + x.shape[1:] (elements, when
    x is 1-D). Backward adds each gradient row back into the row it came
    from."""
    x = as_tensor(x)
    out = _make((x,), x.data[indices])
    if out._parents:
        size, row = x.data.shape[0], x.data.shape[1:]
        out._backward = lambda g: (_add_rows(g, indices, size, row),)
    return out


def add_planes(x: np.ndarray, table: np.ndarray, size: int) -> np.ndarray:
    """A zero (C, size) array into whose cell table[i] of row c the entry
    x[c, i] is added; x is shaped (C, *table.shape). Repeated cells add in
    table order, one np.bincount per row."""
    flat = np.ravel(table)
    out = np.empty((len(x), size))
    for c, plane in enumerate(x):
        out[c] = np.bincount(flat, weights=plane.ravel(), minlength=size)
    return out
