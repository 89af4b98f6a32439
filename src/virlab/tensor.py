"""Reverse-mode automatic differentiation on numpy arrays: float64, or
float32 for the parameters of a float32 network.

A Tensor wraps an ndarray and remembers how it was produced; the implicit
DAG of parent links doubles as the computation graph. Calling backward()
on a scalar loss topologically sorts that graph and runs each node's
local gradient closure, accumulating into the ``grad`` buffer of every
reachable tensor that has ``requires_grad`` set.

Each closure receives its output's gradient as its argument and holds
only the parents and the arrays it needs, never the output tensor, so a
graph has no reference cycle: it is freed by refcount as soon as its
last tensor is dropped, not whenever the cyclic collector next runs.
The op closures compute a parent's gradient only when that parent has
``requires_grad`` set; the network node forms every parameter's, and
``_accumulate`` drops a frozen parameter's.

The probability-facing ops (softmax, cross entropy, KL divergence) are
fused primitives with hand-derived gradients so the numerically stable
forms (max-shifted exponentials, log-sum-exp) are used throughout. Their
values and gradients are plain functions of arrays (``_ce_rows``,
``_kl_rows``, ``_ce_dlogits``, ``_kl_dq``, ``_softmax_dlogits``) that the
ops call; the attacks and the weight scores call them (and the attacks
``_kl_softmax_dlogits`` and ``_cw_margin_dlogits``) with no graph at all.

The network is one node over its parameters (``Classifier.forward``)
whose backward is the model's own layer backward, sharing the patch
helpers below with ``sliding_patches``: ``_patch_windows`` views the
patches offset-major and ``_patch_slabs`` copies them into one
contiguous slab per kernel offset (for every forward), ``_patch_rows``
gathers them row-major (for the stem's weight gradient, in the
backward), and ``_patch_scatter`` adds a patch gradient back from the
zero-bordered layout, where each image keeps its full height x width
grid of positions (zero outside the valid out_h x out_w corner) so every
kernel offset's row lands on the images shifted by a constant; its
``_patch_fold`` sums all the shifted rows in one reduction. The layer ops
(``@``, ``+``, ``relu``, ``reshape``, ``sliding_patches``) remain for
the benchmark's op cases and the tests' layered oracle.
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
        # float32 data stays float32; anything else becomes float64.
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        self.data = np.asarray(data, dtype=dtype, order="C")
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


def _check_logits(z: np.ndarray) -> np.ndarray:
    if z.ndim != 2:
        raise ShapeError(f"expected [batch, classes] logits, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("logits contain non-finite values")
    return z


def _softmax_values(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_dlogits(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the logits from ``g``, the gradient of p = softmax(logits)."""
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax, computed with the max-shift trick."""
    p = _softmax_values(_check_logits(logits.data))
    out = Tensor._from_op(p, (logits,))

    def backward(g):
        logits._accumulate(_softmax_dlogits(p, g), owned=True)

    out._backward = backward
    return out


def _check_labels(labels, batch: int, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (batch,):
        raise ShapeError(f"labels shape {y.shape} does not match batch of {batch}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if y.min(initial=0) < 0 or y.max(initial=0) >= num_classes:
        raise IndexError(f"label out of range for {num_classes} classes")
    return y


def _ce_rows(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row -log softmax(z)[y], via log-sum-exp."""
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return lse - z[np.arange(z.shape[0]), y]


def _ce_dlogits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the summed _ce_rows: softmax(z) - onehot(y)."""
    d = _softmax_values(z)
    d[np.arange(z.shape[0]), y] -= 1.0
    return d


def cross_entropy_rows(logits: Tensor, labels) -> Tensor:
    """Per-sample -log softmax(logits)[y], via log-sum-exp."""
    z = _check_logits(logits.data)
    y = _check_labels(labels, *z.shape)
    out = Tensor._from_op(_ce_rows(z, y), (logits,))

    def backward(g):
        logits._accumulate(_ce_dlogits(z, y) * g[:, None], owned=True)

    out._backward = backward
    return out


def _check_kl_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, q), once both are matrices of finite probability rows, one shape."""
    for name, v in (("p", p), ("q", q)):
        if v.ndim != 2:
            raise ShapeError(f"{name} must be [batch, classes], got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError(f"{name} contains non-finite values")
        if v.min() < -1e-12:
            raise ValueError(f"{name} contains negative entries")
        if np.abs(v.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError(f"rows of {name} do not sum to 1 within 1e-9")
    if p.shape != q.shape:
        raise ShapeError(f"p shape {p.shape} != q shape {q.shape}")
    return p, q


def _kl_dq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gradient in q of the summed rows of KL(p || q); 0 where q is clamped."""
    return np.where(q >= PROB_FLOOR, -p / np.maximum(q, PROB_FLOOR), 0.0)


def _kl_softmax_dlogits(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gradient in z of the summed rows of KL(p || softmax(z)), p a constant."""
    q = _softmax_values(z)
    return _softmax_dlogits(q, _kl_dq(p, q))


def _kl_log_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log p - log q, each clamped at PROB_FLOOR."""
    return np.log(np.maximum(p, PROB_FLOOR)) - np.log(np.maximum(q, PROB_FLOOR))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-row KL(p || q) in nats, taking 0 log 0 = 0 and clamping q at
    PROB_FLOOR, so one-hot rows are legal."""
    return np.where(p > 0.0, p * _kl_log_ratio(p, q), 0.0).sum(axis=1)


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Row-wise KL(p || q) in nats (``_kl_rows``) of two stochastic matrices."""
    pv, qv = _check_kl_pair(p.data, q.data)
    out = Tensor._from_op(_kl_rows(pv, qv), (p, q))

    def backward(g):
        g = g[:, None]
        if p.requires_grad:
            p._accumulate(g * np.where(pv > 0.0, _kl_log_ratio(pv, qv) + 1.0, 0.0),
                          owned=True)
        if q.requires_grad:
            q._accumulate(g * _kl_dq(pv, qv), owned=True)

    out._backward = backward
    return out


def _cw_margin_dlogits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the summed margins max_{j != y} z_j - z_y: +1 at the
    first largest other logit, -1 at the label (exact ties resolve toward
    the lowest class index)."""
    rows = np.arange(z.shape[0])
    masked = z.copy()
    masked[rows, y] += -1e30
    d = np.zeros(z.shape)
    d[rows, np.argmax(masked, axis=1)] += 1.0
    d[rows, y] -= 1.0
    return d


def _patch_rows(v: np.ndarray, height: int, width: int, kernel_size: int) -> np.ndarray:
    """Every kernel_size x kernel_size patch of each flattened [height, width]
    image in ``v``: [batch * out_h * out_w, kernel_size**2], row-major scan."""
    out_h = height - kernel_size + 1
    out_w = width - kernel_size + 1
    imgs = v.reshape(v.shape[0], height, width)
    windows = np.lib.stride_tricks.sliding_window_view(imgs, (kernel_size, kernel_size), axis=(1, 2))
    patches = windows.reshape(v.shape[0] * out_h * out_w, kernel_size * kernel_size)
    return np.ascontiguousarray(patches)


def _patch_windows(v: np.ndarray, height: int, width: int,
                   kernel_size: int) -> np.ndarray:
    """The patches of _patch_rows offset-major, as a view of ``v`` that
    copies nothing: [kernel_size, kernel_size, batch, out_h, out_w], element
    (ki, kj, b, i, j) pixel (i + ki, j + kj) of image b."""
    imgs = v.reshape(v.shape[0], height, width)
    windows = np.lib.stride_tricks.sliding_window_view(imgs, (kernel_size, kernel_size), axis=(1, 2))
    return windows.transpose(3, 4, 0, 1, 2)


def _patch_slabs(v: np.ndarray, height: int, width: int, kernel_size: int) -> np.ndarray:
    """The patches of _patch_rows offset-major: a C-contiguous
    [kernel_size**2, batch * out_h * out_w] array whose transpose is
    _patch_rows's, element for element, in v's dtype.

    One ``np.copyto`` of the window view (``_patch_windows``) fills every
    kernel offset's slab; a copy is exact. ``slabs.T @ W`` is the stem's
    product without a row-major patch array.
    """
    windows = _patch_windows(v, height, width, kernel_size)
    slabs = np.empty(windows.shape, dtype=v.dtype)
    np.copyto(slabs, windows)
    return slabs.reshape(kernel_size * kernel_size, -1)


def _scatter_tail(width: int, kernel_size: int) -> int:
    """Zeros after each row of a ``_patch_fold`` buffer: the largest shift,
    (kernel_size - 1) * (width + 1)."""
    return (kernel_size - 1) * (width + 1)


def _patch_fold(rows: np.ndarray, width: int, kernel_size: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sum the kernel offsets' rows of the zero-bordered layout onto the
    flat pixels they land on, as one reduction: the core of
    ``_patch_scatter``.

    ``rows`` is a C-contiguous [kernel_size**2, m + tail] buffer, tail =
    ``_scatter_tail(width, kernel_size)``: row o holds offset o's gradient
    in its first m columns (m = batch * height * width) and zeros, +0.0,
    after. Offset (ki, kj) lands on pixel column + ki * width + kj, so
    pixel p takes row o's entry p - (ki * width + kj). Viewed with strides
    (kernel_size * (m + tail) - width, m + tail - 1, 1) elements, entry
    (ki, kj, p) of a [kernel_size, kernel_size, m] view is that entry, and
    where p falls short of the shift it reads the previous row's tail of
    zeros. The reduction over the reversed offsets runs every pixel's sum
    in increasing patch order from an accumulator that starts at +0.0
    (``initial``: numpy does not promise where a reduction without one
    starts, and a start at a -0.0 term would keep it), the order an
    np.add.at scatter over the row-major patch layout uses. Zeros, of
    either sign, added to an accumulator that never holds -0.0 keep its
    value, so the result is bitwise that scatter's. Returns [m] in the
    rows' dtype, in ``out`` if given.
    """
    span = rows.shape[1]
    m = span - _scatter_tail(width, kernel_size)
    step = rows.itemsize
    view = np.ndarray((kernel_size, kernel_size, m), rows.dtype, rows,
                      strides=((kernel_size * span - width) * step, (span - 1) * step, step))
    return np.add.reduce(view[::-1, ::-1], axis=(0, 1), initial=0.0, out=out)


def _patch_scatter(slabs: np.ndarray, batch: int, height: int, width: int,
                   kernel_size: int) -> np.ndarray:
    """Gradient of the flattened images from the gradient of their patches
    in the zero-bordered layout: the reverse of _patch_rows and of
    _patch_slabs, as [batch, height * width] in the slabs' dtype.

    ``slabs`` is [kernel_size**2, batch * height * width], in any strides:
    row o is kernel offset o's gradient and column b * height * width + i *
    width + j the patch at (i, j) of image b, zero (of either sign) where i
    >= out_h or j >= out_w. It is copied into a buffer whose rows end in
    zeros and summed by ``_patch_fold``, one reduction over the offsets,
    bitwise an np.add.at scatter over the row-major patch layout.
    """
    n = batch * height * width
    rows = np.zeros((kernel_size * kernel_size, n + _scatter_tail(width, kernel_size)),
                    dtype=slabs.dtype)
    rows[:, :n] = slabs
    return _patch_fold(rows, width, kernel_size).reshape(batch, height * width)


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
    out = Tensor._from_op(_patch_rows(v, height, width, kernel_size), (x,))

    def backward(g):
        # The patch rows' gradient goes in the top-left out_h x out_w corner
        # of a zero-bordered [batch, height, width, k**2] grid.
        batch, k2 = v.shape[0], kernel_size * kernel_size
        out_h, out_w = height - kernel_size + 1, width - kernel_size + 1
        grid = np.zeros((batch, height, width, k2), dtype=g.dtype)
        grid[:, :out_h, :out_w] = g.reshape(batch, out_h, out_w, k2)
        x._accumulate(_patch_scatter(grid.reshape(-1, k2).T, batch, height,
                                     width, kernel_size), owned=True)

    out._backward = backward
    return out
