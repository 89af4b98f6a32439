"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; the implicit
DAG of parent links doubles as the computation graph. Calling backward()
on a scalar loss topologically sorts that graph and runs each node's
local gradient closure, accumulating into the ``grad`` buffer of every
reachable tensor that has ``requires_grad`` set.

Each closure receives its output's gradient as its argument and holds
only the parents and the arrays it needs, never the output tensor, so a
graph has no reference cycle: it is freed by refcount as soon as its
last tensor is dropped, not whenever the cyclic collector next runs.
Closures compute a parent's gradient only when that parent has
``requires_grad`` set; gradients nobody asked for are never formed.

The probability-facing ops (softmax, cross entropy, KL divergence) are
fused primitives with hand-derived gradients so the numerically stable
forms (max-shifted exponentials, log-sum-exp) are used throughout.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

# Probabilities below this are clamped before entering a logarithm.
PROB_FLOOR = 1e-12


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        # asarray(order="C"), not ascontiguousarray: the latter promotes
        # 0-d scalars to shape (1,), breaking the scalar-loss contract.
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        out = cls(data, requires_grad=any(p.requires_grad for p in parents))
        out._parents = tuple(parents)
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned`` says the caller just allocated ``grad`` and hands it to no
        one else, so a first gradient of the right shape is adopted rather
        than copied. Gradients that alias another tensor's (a passthrough or
        a reshaped view) must be passed with owned=False.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            # grad + 0.0 is bitwise 0.0 + grad: a -0.0 entry is stored as
            # +0.0, as if the gradient had been added to a zero buffer.
            if owned and isinstance(grad, np.ndarray) and grad.shape == self.data.shape:
                np.add(grad, 0.0, out=grad)
                self.grad = grad
            else:
                self.grad = np.empty_like(self.data)
                np.add(grad, 0.0, out=self.grad)
        else:
            self.grad += grad

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other))

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        out = Tensor._from_op(self.data + other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor._from_op(-self.data, (self,))

        def backward(g):
            self._accumulate(-g, owned=True)

        out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out = Tensor._from_op(self.data * other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape), owned=True)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError("matmul expects 2-D operands")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul shapes {self.data.shape} and {other.data.shape} do not align"
            )
        out = Tensor._from_op(self.data @ other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T, owned=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ g, owned=True)

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor._from_op(np.maximum(self.data, 0.0), (self,))

        def backward(g):
            self._accumulate(g * (self.data > 0.0), owned=True)

        out._backward = backward
        return out

    def sum(self, axis: int | None = None) -> "Tensor":
        out = Tensor._from_op(self.data.sum(axis=axis), (self,))

        def backward(g):
            if axis is None:
                self._accumulate(np.full_like(self.data, g), owned=True)
            else:
                self._accumulate(np.expand_dims(g, axis) * np.ones_like(self.data),
                                 owned=True)

        out._backward = backward
        return out

    def mean(self) -> "Tensor":
        n = self.data.size
        out = Tensor._from_op(self.data.mean(), (self,))

        def backward(g):
            self._accumulate(np.full_like(self.data, g / n), owned=True)

        out._backward = backward
        return out

    def max(self, axis: int) -> "Tensor":
        """Reduce along ``axis``; gradient flows to the first maximal entry."""
        idx = np.argmax(self.data, axis=axis)
        out = Tensor._from_op(np.max(self.data, axis=axis), (self,))

        def backward(g):
            full = np.zeros_like(self.data)
            np.put_along_axis(
                full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis
            )
            self._accumulate(full, owned=True)

        out._backward = backward
        return out

    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor._from_op(self.data.reshape(*shape), (self,))

        def backward(g):
            self._accumulate(g.reshape(self.data.shape))

        out._backward = backward
        return out

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` for every requires_grad tensor reachable from here.

        Only defined on scalars: the seed gradient is d(self)/d(self) = 1.
        """
        if self.data.shape != ():
            raise ShapeError("backward() requires a scalar; reduce the loss first")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# -- fused probability ops ----------------------------------------------------


def _check_logits(logits: Tensor) -> np.ndarray:
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"expected [batch, classes] logits, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("logits contain non-finite values")
    return z


def _softmax_values(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax, computed with the max-shift trick."""
    z = _check_logits(logits)
    p = _softmax_values(z)
    out = Tensor._from_op(p, (logits,))

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        logits._accumulate(p * (g - dot), owned=True)

    out._backward = backward
    return out


def _check_labels(z: np.ndarray, labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != z.shape[0]:
        raise ShapeError(f"labels shape {y.shape} does not match batch of {z.shape[0]}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if y.min(initial=0) < 0 or y.max(initial=0) >= z.shape[1]:
        raise IndexError(f"label out of range for {z.shape[1]} classes")
    return y


def cross_entropy_rows(logits: Tensor, labels) -> Tensor:
    """Per-sample -log softmax(logits)[y], via log-sum-exp."""
    z = _check_logits(logits)
    y = _check_labels(z, labels)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    rows = lse - z[np.arange(z.shape[0]), y]
    out = Tensor._from_op(rows, (logits,))

    def backward(g):
        d = _softmax_values(z)
        d[np.arange(z.shape[0]), y] -= 1.0
        logits._accumulate(d * g[:, None], owned=True)

    out._backward = backward
    return out


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy over the batch."""
    return cross_entropy_rows(logits, labels).mean()


def _check_stochastic(name: str, t: Tensor) -> np.ndarray:
    v = t.data
    if v.ndim != 2:
        raise ShapeError(f"{name} must be [batch, classes], got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"{name} contains non-finite values")
    if v.min() < -1e-12:
        raise ValueError(f"{name} contains negative entries")
    if np.abs(v.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError(f"rows of {name} do not sum to 1 within 1e-9")
    return v


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Row-wise KL(p || q) in nats.

    Zero entries of p contribute nothing (the 0*log 0 convention) and q is
    clamped at PROB_FLOOR inside the logarithm, so one-hot rows are legal.
    """
    pv = _check_stochastic("p", p)
    qv = _check_stochastic("q", q)
    if pv.shape != qv.shape:
        raise ShapeError(f"p shape {pv.shape} != q shape {qv.shape}")
    qc = np.maximum(qv, PROB_FLOOR)
    pc = np.maximum(pv, PROB_FLOOR)
    terms = np.where(pv > 0.0, pv * (np.log(pc) - np.log(qc)), 0.0)
    out = Tensor._from_op(terms.sum(axis=1), (p, q))

    def backward(g):
        g = g[:, None]
        if p.requires_grad:
            p._accumulate(g * np.where(pv > 0.0, np.log(pc) - np.log(qc) + 1.0, 0.0),
                          owned=True)
        if q.requires_grad:
            q._accumulate(g * np.where(qv >= PROB_FLOOR, -pv / qc, 0.0), owned=True)

    out._backward = backward
    return out


def sliding_patches(x: Tensor, height: int, width: int, kernel_size: int) -> Tensor:
    """Extract every kernel_size x kernel_size patch of each [height, width] image.

    Input rows are flattened images; the result has one row per (image, patch)
    pair, laid out [batch * out_h * out_w, kernel_size**2], with patches in
    row-major scan order. Stride is 1 and there is no padding.
    """
    v = x.data
    if v.ndim != 2 or v.shape[1] != height * width:
        raise ShapeError(f"expected [batch, {height * width}] input, got {v.shape}")
    if kernel_size < 1 or kernel_size > min(height, width):
        raise ShapeError(f"kernel_size {kernel_size} does not fit {height}x{width}")
    out_h = height - kernel_size + 1
    out_w = width - kernel_size + 1
    imgs = v.reshape(v.shape[0], height, width)
    windows = np.lib.stride_tricks.sliding_window_view(imgs, (kernel_size, kernel_size), axis=(1, 2))
    patches = windows.reshape(v.shape[0] * out_h * out_w, kernel_size * kernel_size)
    out = Tensor._from_op(np.ascontiguousarray(patches), (x,))

    def backward(g):
        # Scatter-add each kernel offset's slab back onto its shifted window.
        # Offsets run in reverse so every pixel sums its contributions in
        # increasing patch order, the order an np.add.at scatter over the
        # row-major patch layout uses: the result is bitwise the same.
        per_offset = g.reshape(v.shape[0], out_h, out_w, kernel_size, kernel_size)
        full = np.zeros_like(imgs)
        for ki in reversed(range(kernel_size)):
            for kj in reversed(range(kernel_size)):
                full[:, ki:ki + out_h, kj:kj + out_w] += per_offset[:, :, :, ki, kj]
        x._accumulate(full.reshape(v.shape), owned=True)

    out._backward = backward
    return out


def finite_diff_grad(f: Callable[[Tensor], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, the autodiff oracle.

    ``f`` receives a plain (non-grad) Tensor and must return a float or a
    scalar Tensor. Cost is two evaluations per coordinate of x.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)

    def evaluate(values: np.ndarray) -> float:
        r = f(Tensor(values.reshape(x.shape)))
        return r.item() if isinstance(r, Tensor) else float(r)

    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        hi = evaluate(bumped)
        bumped[i] = flat[i] - h
        lo = evaluate(bumped)
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad
