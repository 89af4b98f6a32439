"""Feed-forward classifiers: an MLP and an optional single-conv-block net.

The network is plain numpy: ``_forward`` computes the logits and
``_backward`` backpropagates by hand (relu masks, the dense layers in
reverse, then the conv stem), bitwise what a graph of the tensor
module's layer ops gives on OpenBLAS 0.3.31's SkylakeX kernel. The stem's
input gradient (``_stem_input_gradient``) walks the batch in fixed
blocks of images from image 0; each block's gradient sits in a
zero-bordered image grid, is multiplied out offset-major and summed back
onto the pixels by the tensor module's ``_patch_fold``, one reduction
over the kernel offsets, so a chunk of a multiple of 64 rows makes the
whole split's calls. Every forward (training loss, attack step, SPSA
score and prediction) runs the stem (``_stem_output``) over the same
blocks of images: each block gathers its patches offset-major, one copy
from a window view, and takes ``slabs.T @ W`` into its rows of one
output, so no forward holds a whole chunk's patches. Neither loops over
the kernel offsets in Python: a block is a handful of numpy calls, each
of which releases the GIL for its whole length, so attack parts on
several threads run side by side rather than taking turns (25 small
calls per block handed the GIL back and forth, and ran slower on two
threads than on one). The stem's weight gradient gathers the whole
batch's patches row-major in the backward, from the input the forward
kept, for its one product ``patches.T @ g``. The network
computes in its arch's ``dtype`` (float64 or float32) and its boundary is
float64: ``_forward`` casts its input in and returns float64 logits, and
``_backward`` casts the logits' gradient in and returns float64 (an exact
upcast). At float64 every cast is a no-op.
``_forward``'s one mode, ``grad``, fixes what it keeps and what
``_backward`` does: None keeps nothing, "input" gives the attacks the
input's gradient, "params" every parameter's, which ``forward`` wraps as
one autodiff node for the training losses (the only graph built). Every
forward raises NonFiniteError on a non-finite logit. Predictions, like the
attacks, walk a split (an array or a Dataset) through ``_chunks``: runs of
``_chunk_rows`` rows, which the architecture sets, each read as it is
reached, so their memory does not grow with the split.

Checkpoints use a small self-describing binary format (magic "VIRCKPT1"):
a length-prefixed canonical-JSON metadata document (architecture, epoch,
rng seed), then each parameter as length-prefixed name, 8-byte little-endian
rank, dims, and raw little-endian float64 payload, then a trailing 4-byte
little-endian CRC32 of everything prior. All integer prefixes are 8-byte
little-endian unsigned. A float32 parameter is stored upcast, which is
exact; loading casts it back and rejects a value float32 cannot hold.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .codec import atomic_open, canonical_json, from_obj, to_obj
from .data import Dataset
from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import (Tensor, _check_logits, _patch_fold, _patch_rows,
                     _patch_windows, _scatter_tail, _softmax_values)

MAGIC = b"VIRCKPT1"
_U64 = struct.Struct("<Q")
# The dtypes a network may compute in (``model.dtype``).
DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class ConvStem:
    """One valid-padding conv block (stride 1, single input channel) + ReLU."""

    height: int
    width: int
    filters: int
    kernel_size: int

    def __post_init__(self):
        if min(self.height, self.width, self.filters, self.kernel_size) < 1:
            raise ConfigError(f"conv stem dimensions must be positive: {self}")
        if self.kernel_size > min(self.height, self.width):
            raise ConfigError(
                f"kernel {self.kernel_size} exceeds input {self.height}x{self.width}"
            )

    @property
    def out_height(self) -> int:
        return self.height - self.kernel_size + 1

    @property
    def out_width(self) -> int:
        return self.width - self.kernel_size + 1

    @property
    def out_dim(self) -> int:
        return self.out_height * self.out_width * self.filters


@dataclass(frozen=True)
class Arch:
    """Network shape: dense layer widths, with an optional conv stem in front.

    ``layers`` runs from the dense input width through the class count; with a
    conv stem, layers[0] must equal the stem's flattened output size.
    ``dtype`` is the one the parameters and activations are held in.
    """

    layers: tuple[int, ...]
    conv: ConvStem | None = None
    dtype: str = "float64"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(int(w) for w in self.layers))
        if len(self.layers) < 2:
            raise ConfigError("need at least an input width and a class count")
        if any(w < 1 for w in self.layers):
            raise ConfigError(f"layer widths must be positive, got {self.layers}")
        if self.conv is not None and self.layers[0] != self.conv.out_dim:
            raise ConfigError(
                f"dense input {self.layers[0]} != conv output {self.conv.out_dim}"
            )
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {list(DTYPES)}, got {self.dtype!r}")

    def to_obj(self) -> dict:
        """The wire form; a float64 arch omits its dtype, so it serialises
        (and its checkpoints hash) as before the field existed."""
        obj = {"layers": list(self.layers), "conv": to_obj(self.conv)}
        if self.dtype != "float64":
            obj["dtype"] = self.dtype
        return obj

    @property
    def input_dim(self) -> int:
        if self.conv is not None:
            return self.conv.height * self.conv.width
        return self.layers[0]

    @property
    def num_classes(self) -> int:
        return self.layers[-1]


def _param_shapes(arch: Arch) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in the order the parameters are drawn and
    stored: the stem's weight and bias, then each dense layer's. A weight's
    first dimension is its fan-in."""
    shapes = {}
    if arch.conv is not None:
        k = arch.conv.kernel_size
        shapes["conv.weight"] = (k * k, arch.conv.filters)
        shapes["conv.bias"] = (arch.conv.filters,)
    for i, (fan_in, fan_out) in enumerate(zip(arch.layers, arch.layers[1:])):
        shapes[f"dense{i}.weight"] = (fan_in, fan_out)
        shapes[f"dense{i}.bias"] = (fan_out,)
    return shapes


# The row budget: ``_chunk_rows`` divides it by a width per row to give
# rows per forward.
_CHUNK_ELEMENTS = 1 << 21


def _chunk_rows(arch: Arch) -> int:
    """Rows per forward of an ``arch`` network outside training: the largest
    multiple of 64, at least 64, for which out_height * out_width *
    kernel_size**2 elements per row (or else the widest dense layer) fit
    in _CHUNK_ELEMENTS. 128 rows for the paper's 28x28 k5 stem, 32,768 for
    the desk MLP. That width was the stem's patch row, which no forward
    holds any more (it gathers patches one block of images at a time);
    the rule is kept so the chunk boundaries, and every artifact they
    shape, stay where they were. A multiple of 64 keeps the batch-chunk
    rule (see ``Classifier._forward``): the chunks give bitwise the whole
    batch's output."""
    widest = max(arch.layers)
    if arch.conv is not None:
        c = arch.conv
        widest = max(widest, c.out_height * c.out_width * c.kernel_size ** 2)
    return max(64, _CHUNK_ELEMENTS // widest // 64 * 64)


# Images per block of the stem's forward and of its input gradient. A
# divisor of 64, so a chunk that starts at a multiple of 64 rows makes the
# same calls as the whole split.
_STEM_BLOCK = 8


def _stem_input_gradient(conv: ConvStem, weight: np.ndarray, fmap: np.ndarray,
                         g: np.ndarray) -> np.ndarray:
    """The stem's input gradient as float64 [batch, height * width], from
    ``g``, the gradient of its flattened output [batch, out_dim], and
    ``fmap``, its output [batch * positions, filters] (after the relu,
    which keeps the mask ``fmap > 0``).

    The batch is walked in blocks of _STEM_BLOCK images from image 0. Each
    block's relu-masked gradient is written into the top-left out_h x out_w
    corner of a zero-bordered [block, height, width, filters] grid, taken
    offset-major as ``weight @ grid.T`` ([kernel_size**2, block * height *
    width], one dot product over the filters per element) into the rows of
    a buffer that end in zeros, and summed onto the pixels by
    ``_patch_fold``, one reduction over the offsets. The grid, the rows
    and one scratch buffer (the masked gradient, then the sum) are
    allocated once per call and reused by every block, and no call in the
    loop buffers a cast or a strided operand: attack parts run this loop
    on several threads at once, and per-block temporaries made their joint
    memory peak depend on which blocks lined up.
    """
    k, oh, ow, f = conv.kernel_size, conv.out_height, conv.out_width, conv.filters
    hw = conv.height * conv.width
    tail = _scatter_tail(conv.width, k)
    batch = g.shape[0]
    block = min(batch, _STEM_BLOCK)
    g = g.reshape(batch, oh, ow, f)
    fmap = fmap.reshape(batch, oh, ow, f)
    # dx outlives the call, so it is allocated before the scratch buffers:
    # freed, they leave no hole in the heap below it, which kept the
    # process's peak RSS higher.
    dx = np.empty((batch, hw))
    grid = np.zeros((block, conv.height, conv.width, f), dtype=g.dtype)
    slabs = np.zeros(k * k * (block * hw + tail), dtype=g.dtype)
    scratch = np.empty(block * max(oh * ow * f, hw), dtype=g.dtype)
    for s in range(0, batch, _STEM_BLOCK):
        n = min(_STEM_BLOCK, batch - s)
        m = n * hw
        rows = slabs[:k * k * (m + tail)].reshape(k * k, m + tail)
        if n < block:  # a short last block lays the rows out anew
            rows[:, m:] = 0.0
        # The relu mask is written as 1.0 and 0.0, so the masked product is
        # one contiguous multiply (a bool mask is cast through a buffer).
        masked = scratch[:n * oh * ow * f].reshape(n, oh, ow, f)
        np.greater(fmap[s:s + n], 0.0, out=masked)
        np.multiply(g[s:s + n], masked, out=masked)
        np.copyto(grid[:n, :oh, :ow], masked)
        np.matmul(weight, grid[:n].reshape(m, f).T, out=rows[:, :m])
        dx[s:s + n] = _patch_fold(rows, conv.width, k, out=scratch[:m]).reshape(n, hw)
    return dx


def _stem_output(conv: ConvStem, weight: np.ndarray, bias: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """The stem's output after its bias and relu, [batch, out_dim] in x's
    dtype.

    The batch is walked in blocks of _STEM_BLOCK images from image 0, as
    ``_stem_input_gradient`` walks it. Each block copies its patches
    offset-major into one slab buffer, one ``np.copyto`` from the window
    view (``_patch_windows``, built once per call), takes ``slabs.T @
    weight`` straight into its rows of the output, and adds the tiled bias
    and applies the relu while those rows are in cache; no whole-batch
    patch array exists. The slabs are ``_patch_slabs``'s for the block.
    The bias add and the relu are elementwise, so only the product's
    rounding can depend on the blocks. It is bitwise the whole batch's
    ``slabs.T @ weight`` (tested on the SkylakeX, Haswell and Katmai
    kernels) except where a block's product has one row: a stem with one
    output position and a last block of one image, which numpy hands to a
    matrix-vector BLAS call.
    """
    k = conv.kernel_size
    batch, positions = x.shape[0], conv.out_height * conv.out_width
    windows = _patch_windows(x, conv.height, conv.width, k)
    out = np.empty((batch, conv.out_dim), dtype=x.dtype)
    slabs = np.empty(k * k * min(batch, _STEM_BLOCK) * positions, dtype=x.dtype)
    # Tiled over a whole image row, the bias is one add loop out_dim wide,
    # not one filters wide per position; each element still gets the one
    # addition, so no bit moves.
    tiled = np.tile(bias, positions)
    for s in range(0, batch, _STEM_BLOCK):
        patches = windows[:, :, s:s + _STEM_BLOCK]
        n = patches.shape[2]
        gathered = slabs[:k * k * n * positions].reshape(patches.shape)
        np.copyto(gathered, patches)
        rows = out[s:s + n]
        np.matmul(gathered.reshape(k * k, n * positions).T, weight,
                  out=rows.reshape(-1, conv.filters))
        rows += tiled
        np.maximum(rows, 0.0, out=rows)
    return out


def _check_input(arch: Arch, x) -> None:
    """ShapeError unless x is a [batch, input_dim] array (or Dataset) for
    ``arch``."""
    if len(x.shape) != 2 or x.shape[1] != arch.input_dim:
        raise ShapeError(f"expected [batch, {arch.input_dim}] input, got {x.shape}")


class Classifier:
    """MLP (optionally behind a conv stem) producing raw logits.

    Weights start uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases at
    zero, drawn from a PCG64 stream so a seed pins every parameter; a
    float32 model rounds the same float64 draws.
    """

    def __init__(self, arch: Arch, seed: int = 0):
        rng = np.random.default_rng(np.random.PCG64(seed))
        values = {}
        for name, shape in _param_shapes(arch).items():
            if name.endswith("bias"):
                values[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                values[name] = rng.uniform(-bound, bound, size=shape)
        self._hold(arch, values)

    def _hold(self, arch: Arch, values: dict[str, np.ndarray]) -> None:
        """Take ``values`` (name -> array, in ``_param_shapes`` order) as the
        parameters of an ``arch`` network, cast to its dtype."""
        self.arch = arch
        self.dtype = np.dtype(arch.dtype)
        self.params: dict[str, Tensor] = {
            name: Tensor(v.astype(self.dtype, copy=False), requires_grad=True)
            for name, v in values.items()}

    def _forward(self, x: np.ndarray, grad: str | None = None) -> tuple:
        """Float64 logits for a [batch, input_dim] array, computed in the
        model's dtype, and the cache ``_backward`` needs for the gradient
        ``grad`` names: None keeps nothing; "input" and "params" keep the
        model-dtype input, the stem's output and each dense layer's input.
        NonFiniteError if a logit is not finite.

        Every mode runs the stem in blocks of _STEM_BLOCK images
        (``_stem_output``), each gathering its own patches offset-major and
        dropping them after its ``slabs.T @ W``, so no cache holds patches.

        A row's logits depend on that row alone only up to rounding: the
        BLAS kernel may round a row by where the batch puts it. Consecutive
        chunks of 64 rows give bitwise the whole batch's logits (tested, in
        both dtypes); on OpenBLAS 0.3.31 chunks of 1 and 3 differ by up to
        2e-16 in float64."""
        if grad not in (None, "input", "params"):
            raise ValueError(f"grad must be None, 'input' or 'params', got {grad!r}")
        x = np.asarray(x, dtype=self.dtype, order="C")
        _check_input(self.arch, x)
        # A NaN is _check_logits's to report, whichever FP flags the BLAS
        # kernel raises; overflow stays loud, as a relu can hide an -inf.
        with np.errstate(invalid="ignore"):
            conv, p = self.arch.conv, self.params
            fmap = None
            h = x
            if conv:
                h = _stem_output(conv, p["conv.weight"].data, p["conv.bias"].data, h)
                fmap = h.reshape(-1, conv.filters)  # [batch * positions, filters]
            n_dense = len(self.arch.layers) - 1
            inputs = []  # each dense layer's input
            for i in range(n_dense):
                inputs.append(h)
                h = h @ p[f"dense{i}.weight"].data
                h += p[f"dense{i}.bias"].data
                if i < n_dense - 1:
                    np.maximum(h, 0.0, out=h)
            logits = _check_logits(h.astype(np.float64, copy=False))
        return logits, ((grad, x, fmap, inputs) if grad else None)

    def _backward(self, cache: tuple, g: np.ndarray) -> np.ndarray | None:
        """Backpropagate ``g``, the gradient of the logits of the forward that
        kept ``cache``, in the model's dtype. A "params" cache: every
        parameter accumulates its gradient (a frozen one drops it) and None
        is returned. An "input" cache: the input's gradient is returned as
        float64 and no parameter is touched.

        The stem's input gradient is ``_stem_input_gradient``: blocks of
        _STEM_BLOCK images, each masked into a zero-bordered grid, taken as
        ``W @ grid.T`` (offset-major [kernel_size**2, block * height *
        width]) rather than the patch rows' ``g @ W.T``, and summed back by
        ``_patch_fold`` in one reduction over the offsets. Every element is
        the same dot product over the filters and every pixel sums them in
        the same order; on OpenBLAS 0.3.31's SkylakeX kernel dx is bitwise
        the row-major layout's, tested against the layered graph at the
        paper's shape. The stem's weight gradient gathers the whole batch's
        patch rows (``_patch_rows``) from the kept input, so no forward
        keeps them, and takes ``patches.T @ g`` as one product.
        """
        grad, x, fmap, inputs = cache
        params = grad == "params"
        conv = self.arch.conv
        g = g.astype(self.dtype, copy=False)
        for i in reversed(range(len(inputs))):
            w, b = self.params[f"dense{i}.weight"], self.params[f"dense{i}.bias"]
            if params:
                w._accumulate(inputs[i].T @ g, owned=True)
                b._accumulate(g.sum(axis=0), owned=True)
                if i == 0 and not conv:
                    return None
            g = g @ w.data.T
            if i > 0:
                g *= inputs[i] > 0.0  # the relu mask of the layer in front
        if not conv:
            return g.astype(np.float64, copy=False)
        w, b = self.params["conv.weight"], self.params["conv.bias"]
        if not params:
            return _stem_input_gradient(conv, w.data, fmap, g)
        g = g.reshape(fmap.shape)
        g *= fmap > 0.0
        patches = _patch_rows(x, conv.height, conv.width, conv.kernel_size)
        w._accumulate(patches.T @ g, owned=True)
        b._accumulate(g.sum(axis=0), owned=True)
        return None

    def forward(self, x) -> Tensor:
        """Logits as one graph node whose parents are the parameters,
        backpropagated by ``_backward``. The input is a constant: one that
        requires a gradient is a ValueError (attacks take input gradients
        with ``_forward(x, "input")``)."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.requires_grad:
            raise ValueError("Classifier.forward takes no input gradient; "
                             "use _forward(x, 'input')")
        logits, cache = self._forward(x.data, "params")
        out = Tensor._from_op(logits, tuple(self.params.values()))
        out._backward = lambda g: self._backward(cache, g)
        return out

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def _chunks(arch: Arch, x) -> tuple[int, Iterator[tuple[int, np.ndarray]]]:
    """(rows, chunks) of a split x: an array, or a Dataset read through
    ``Dataset.rows``. The chunks are (first row, rows) of consecutive runs
    of ``_chunk_rows`` rows, each read only as it is reached, so no
    split-sized copy of x is made. ShapeError unless x's rows are
    input_dim wide, raised here, before any chunk."""
    if isinstance(x, Dataset):
        read = x.rows
    else:
        x = np.asarray(x)
        read = x.__getitem__
    _check_input(arch, x)
    step = _chunk_rows(arch)
    return len(x), ((s, read(slice(s, s + step))) for s in range(0, len(x), step))


def _logits(model: Classifier, x) -> np.ndarray:
    """Float64 logits of the rows of x (an array or a Dataset), one forward
    per chunk of ``_chunks``, so the forward's intermediates stay bounded
    whatever the split's size; the chunks' logits fill one preallocated
    [rows, classes] array."""
    n, chunks = _chunks(model.arch, x)
    out = np.empty((n, model.arch.num_classes))
    for s, part in chunks:
        out[s:s + len(part)] = model._forward(part)[0]
    return out


def predict_probs(model: Classifier, x) -> np.ndarray:
    """Softmax outputs of x's rows (an array or a Dataset) as a plain array;
    no gradients are retained. The forwards run in chunks of
    ``_chunk_rows`` rows, bitwise the whole split's."""
    return _softmax_values(_logits(model, x))


def predict_labels(model: Classifier, x) -> np.ndarray:
    """The predicted class of each row of x (an array or a Dataset), the
    argmax of its logits, from forwards of ``_chunk_rows`` rows."""
    return np.argmax(_logits(model, x), axis=1)


# -- checkpoint I/O ------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointMeta:
    arch: Arch
    epoch: int
    rng_seed: int | None


def save_checkpoint(model: Classifier, path, epoch: int = 0, rng_seed: int | None = None) -> None:
    blob = canonical_json(to_obj(CheckpointMeta(model.arch, epoch, rng_seed))).encode()
    parts = [MAGIC, _U64.pack(len(blob)), blob]
    for name, p in model.params.items():
        encoded = name.encode("utf-8")
        parts.append(_U64.pack(len(encoded)))
        parts.append(encoded)
        parts.append(_U64.pack(p.data.ndim))
        for dim in p.data.shape:
            parts.append(_U64.pack(dim))
        parts.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    body = b"".join(parts)
    with atomic_open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


class _Reader:
    """Reads a checkpoint body through a memoryview: a parameter payload is
    not copied before numpy views it."""

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointError("checkpoint truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.pos


def load_checkpoint(path) -> tuple[Classifier, int, int | None]:
    """Rebuild a model from disk, in the dtype its arch names, holding the
    payload's values (no initial parameters are drawn); returns (model,
    epoch, rng_seed). CheckpointError if a stored value would round in that
    dtype."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4:
        raise CheckpointError("checkpoint truncated")
    if raw[: len(MAGIC)] != MAGIC:
        if raw[: len(MAGIC) - 1] == MAGIC[:-1]:
            raise CheckpointError(
                f"unsupported checkpoint version {raw[len(MAGIC) - 1:len(MAGIC)]!r}"
            )
        raise CheckpointError("not a checkpoint file (bad magic)")
    (stored_crc,) = struct.unpack("<I", raw[-4:])
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) != stored_crc:
        raise CheckpointError("checkpoint CRC mismatch")

    r = _Reader(body)
    r.take(len(MAGIC))
    try:
        meta = from_obj(CheckpointMeta,
                        json.loads(bytes(r.take(r.u64())).decode("utf-8")), "metadata")
    except ValueError as e:  # a ConfigError, JSONDecodeError or UnicodeDecodeError
        raise CheckpointError(f"bad checkpoint architecture or metadata: {e}") from e

    params: dict[str, np.ndarray] = {}
    while r.remaining > 0:
        try:
            name = bytes(r.take(r.u64())).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"parameter name is not UTF-8: {e}") from e
        rank = r.u64()
        if rank > 8:
            raise CheckpointError(f"implausible parameter rank {rank}")
        shape = tuple(r.u64() for _ in range(rank))
        count = math.prod(shape)  # exact: an int64 product could wrap
        data = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape)
        if name in params:
            raise CheckpointError(f"duplicate parameter {name!r}")
        params[name] = data

    shapes = _param_shapes(meta.arch)
    if set(params) != set(shapes):
        raise CheckpointError(
            f"parameters {sorted(params)} do not match architecture {sorted(shapes)}"
        )
    dtype = np.dtype(meta.arch.dtype)
    values = {}
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {params[name].shape}, "
                f"expected {shape}"
            )
        with np.errstate(over="ignore"):  # an overflow is caught just below
            values[name] = params[name].astype(dtype)
        off = values[name] != params[name]  # NaN too, which the cast keeps
        if off.any() and not np.isnan(params[name][off]).all():
            raise CheckpointError(
                f"parameter {name!r} holds a value {dtype} cannot represent "
                "exactly")
    model = Classifier.__new__(Classifier)
    model._hold(meta.arch, values)
    return model, meta.epoch, meta.rng_seed
