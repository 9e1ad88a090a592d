"""Minimal reverse-mode autodiff over float64 numpy arrays.

Only the operations needed by the detection networks are provided. Every
primitive records a closure that maps the output gradient to parent
gradients; ``Tensor.backward`` runs a topological sweep from a scalar loss.
Only leaf tensors (no parents, e.g. parameters) keep a ``.grad``; it
accumulates across backward calls until ``zero_grad``.
"""

from __future__ import annotations

import numpy as np


class NotScalar(ValueError):
    """backward() was called on a non-scalar tensor."""


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

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------ util
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -------------------------------------------------------------- backward
    def backward(self):
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
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

    def __neg__(self):
        out = _make((self,), -self.data)
        if out._parents:
            out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

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

    def __truediv__(self, other):
        other = as_tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other):
        return as_tensor(other) * self ** -1.0

    def __pow__(self, p):
        assert np.isscalar(p)
        out = _make((self,), self.data ** p)
        if out._parents:
            a = self
            out._backward = lambda g: (g * p * a.data ** (p - 1),)
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        out = _make((self, other), self.data @ other.data)
        if out._parents:
            a, b = self, other
            out._backward = lambda g: (g @ b.data.T, a.data.T @ g)
        return out

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims=False):
        out = _make((self,), self.data.sum(axis=axis, keepdims=keepdims))
        if out._parents:
            shape = self.data.shape

            def bwd(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                return (np.broadcast_to(g, shape).copy(),)

            out._backward = bwd
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis: int):
        """Max along one axis; gradient routes to the first argmax."""
        out = _make((self,), self.data.max(axis=axis))
        if out._parents:
            idx = np.argmax(self.data, axis=axis)
            shape = self.data.shape

            def bwd(g):
                gx = np.zeros(shape)
                np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
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

    def flip(self, axes):
        out = _make((self,), np.flip(self.data, axes))
        if out._parents:
            out._backward = lambda g: (np.flip(g, axes),)
        return out

    def clip(self, lo, hi):
        """Clamp values; gradient is zero outside [lo, hi]."""
        out = _make((self,), np.clip(self.data, lo, hi))
        if out._parents:
            mask = (self.data >= lo) & (self.data <= hi)
            out._backward = lambda g: (g * mask,)
        return out


def _make(parents, data):
    req = any(p.requires_grad for p in parents)
    if req:
        return Tensor(data, requires_grad=True, _parents=parents)
    return Tensor(data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------- functions
def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = _make((x,), np.log(x.data))
    if out._parents:
        out._backward = lambda g: (g / x.data,)
    return out


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = _make((x,), np.exp(x.data))
    if out._parents:
        y = out.data
        out._backward = lambda g: (g * y,)
    return out


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


def absolute(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = _make((x,), np.abs(x.data))
    if out._parents:
        s = np.sign(x.data)
        out._backward = lambda g: (g * s,)
    return out


def sqrt(x: Tensor) -> Tensor:
    return as_tensor(x) ** 0.5


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = _make(tuple(tensors), np.concatenate([t.data for t in tensors], axis=axis))
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        out._backward = lambda g: tuple(np.split(g, splits, axis=axis))
    return out


def pad(x: Tensor, pad_width) -> Tensor:
    """Zero padding; pad_width as for np.pad."""
    x = as_tensor(x)
    out = _make((x,), np.pad(x.data, pad_width))
    if out._parents:
        slices = tuple(slice(p[0], p[0] + s) for p, s in zip(pad_width, x.data.shape))
        out._backward = lambda g: (g[slices],)
    return out


def take(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather from the flattened tensor; backward scatter-adds."""
    x = as_tensor(x)
    out = _make((x,), x.data.ravel()[indices])
    if out._parents:
        shape = x.data.shape

        def bwd(g):
            gx = np.zeros(int(np.prod(shape)))
            np.add.at(gx, indices.ravel(), g.ravel())
            return (gx.reshape(shape),)

        out._backward = bwd
    return out


def scatter(x: Tensor, indices: np.ndarray, size: int) -> Tensor:
    """Place row i of x at row indices[i] of a zero (size, ...) tensor.

    The indices must be distinct; backward gathers the rows back.
    """
    x = as_tensor(x)
    data = np.zeros((size,) + x.data.shape[1:])
    data[indices] = x.data
    out = _make((x,), data)
    if out._parents:
        out._backward = lambda g: (g[indices],)
    return out


def dilate(x: Tensor, factors) -> Tensor:
    """Insert (factor-1) zeros between elements along each axis (transposed-conv helper)."""
    x = as_tensor(x)
    shape = tuple((s - 1) * f + 1 if s > 0 else 0 for s, f in zip(x.data.shape, factors))
    data = np.zeros(shape)
    sl = tuple(slice(None, None, f) for f in factors)
    data[sl] = x.data
    out = _make((x,), data)
    if out._parents:
        out._backward = lambda g: (g[sl],)
    return out


def where_mask(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select a where mask else b. The mask is constant (non-differentiable)."""
    a, b = as_tensor(a), as_tensor(b)
    out = _make((a, b), np.where(mask, a.data, b.data))
    if out._parents:
        a_shape, b_shape = a.data.shape, b.data.shape
        out._backward = lambda g: (
            _unbroadcast(g * mask, a_shape),
            _unbroadcast(g * ~mask, b_shape),
        )
    return out
