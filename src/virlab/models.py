"""Feed-forward classifiers: an MLP and an optional single-conv-block net.

A forward pass is one autodiff node whose parents are the input and every
parameter. It computes the logits with plain numpy and backpropagates by
hand (relu masks, the dense layers in reverse, then the conv stem through
the tensor module's reversed slice-add), bitwise what a graph of the
tensor module's layer ops gives, with no per-layer nodes or copies.

Checkpoints use a small self-describing binary format (magic "VIRCKPT1"):
a length-prefixed canonical-JSON metadata document (architecture, epoch,
rng seed), then each parameter as length-prefixed name, 8-byte little-endian
rank, dims, and raw little-endian float64 payload, then a trailing 4-byte
little-endian CRC32 of everything prior. All integer prefixes are 8-byte
little-endian unsigned.
"""

from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .codec import atomic_open, canonical_json, from_obj, to_obj
from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import Tensor, _patch_grad, _patch_rows, _softmax_values

MAGIC = b"VIRCKPT1"
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class ConvStem:
    """One valid-padding conv block (stride 1, single input channel) + ReLU."""

    height: int
    width: int
    filters: int
    kernel_size: int

    def __post_init__(self):
        if min(self.height, self.width, self.filters, self.kernel_size) < 1:
            raise ConfigError("conv stem dimensions must be positive")
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
    """

    layers: tuple[int, ...]
    conv: ConvStem | None = None

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

    @property
    def input_dim(self) -> int:
        if self.conv is not None:
            return self.conv.height * self.conv.width
        return self.layers[0]

    @property
    def num_classes(self) -> int:
        return self.layers[-1]


class Classifier:
    """MLP (optionally behind a conv stem) producing raw logits.

    Weights start uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases at
    zero, drawn from a PCG64 stream so a seed pins every parameter.
    """

    def __init__(self, arch: Arch, seed: int = 0):
        self.arch = arch
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(np.random.PCG64(seed))
        if arch.conv is not None:
            k = arch.conv.kernel_size
            bound = 1.0 / np.sqrt(k * k)
            self.params["conv.weight"] = Tensor(
                rng.uniform(-bound, bound, size=(k * k, arch.conv.filters)),
                requires_grad=True,
            )
            self.params["conv.bias"] = Tensor(
                np.zeros(arch.conv.filters), requires_grad=True
            )
        for i, (fan_in, fan_out) in enumerate(zip(arch.layers, arch.layers[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            self.params[f"dense{i}.weight"] = Tensor(
                rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True
            )
            self.params[f"dense{i}.bias"] = Tensor(np.zeros(fan_out), requires_grad=True)

    def forward(self, x) -> Tensor:
        """Logits for a [batch, input_dim] batch (rows are independent).

        The network is one graph node whose parents are the input and every
        parameter. Its backward is written out layer by layer and forms only
        the gradients some parent asks for; when none does, the node has no
        backward and keeps no activations.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.arch.input_dim:
            raise ShapeError(
                f"expected [batch, {self.arch.input_dim}] input, got {x.data.shape}"
            )
        batch = x.data.shape[0]
        conv = self.arch.conv
        stem = (self.params["conv.weight"], self.params["conv.bias"]) if conv else ()
        dense = [(self.params[f"dense{i}.weight"], self.params[f"dense{i}.bias"])
                 for i in range(len(self.arch.layers) - 1)]
        # wants[i]: whether the input of dense layer i needs a gradient, i.e.
        # whether x or a parameter in front of that layer requires one.
        wants = [x.requires_grad or any(p.requires_grad for p in stem)]
        for w, b in dense:
            wants.append(wants[-1] or w.requires_grad or b.requires_grad)
        h = x.data
        if conv:
            patches = _patch_rows(h, conv.height, conv.width, conv.kernel_size)
            h = patches @ stem[0].data
            h += stem[1].data
            np.maximum(h, 0.0, out=h)
            fmap = h  # [batch * positions, filters]
            h = h.reshape(batch, conv.out_dim)
        inputs = []  # each dense layer's input
        for i, (w, b) in enumerate(dense):
            inputs.append(h)
            h = h @ w.data
            h += b.data
            if i < len(dense) - 1:
                np.maximum(h, 0.0, out=h)
        out = Tensor._from_op(h, (x, *self.params.values()))
        if not wants[-1]:
            return out

        def backward(g):
            for i in reversed(range(len(dense))):
                w, b = dense[i]
                if w.requires_grad:
                    w._accumulate(inputs[i].T @ g, owned=True)
                if b.requires_grad:
                    b._accumulate(g.sum(axis=0), owned=True)
                if not wants[i]:
                    return
                g = g @ w.data.T
                if i > 0:
                    g *= inputs[i] > 0.0  # the relu mask of the layer in front
            if not conv:
                x._accumulate(g, owned=True)
                return
            g = g.reshape(fmap.shape)
            g *= fmap > 0.0
            if stem[0].requires_grad:
                stem[0]._accumulate(patches.T @ g, owned=True)
            if stem[1].requires_grad:
                stem[1]._accumulate(g.sum(axis=0), owned=True)
            if x.requires_grad:
                x._accumulate(_patch_grad(g @ stem[0].data.T, batch, conv.height,
                                          conv.width, conv.kernel_size),
                              owned=True)

        out._backward = backward
        return out

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    @contextmanager
    def frozen(self):
        """Treat every parameter as a constant inside the block.

        Graphs built here need no parameter gradients, so backward neither
        computes nor accumulates them; each ``requires_grad`` flag is
        restored on exit, also when the block raises.
        """
        flags = [(p, p.requires_grad) for p in self.params.values()]
        for p, _ in flags:
            p.requires_grad = False
        try:
            yield self
        finally:
            for p, flag in flags:
                p.requires_grad = flag


def predict_probs(model: Classifier, x) -> np.ndarray:
    """Softmax outputs as a plain array; no gradients are retained."""
    x = np.asarray(x, dtype=np.float64)
    return _softmax_values(model.forward(Tensor(x)).data)


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
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
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
    """Rebuild a model from disk; returns (model, epoch, rng_seed)."""
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
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise CheckpointError("checkpoint CRC mismatch")

    r = _Reader(raw[:-4])
    r.take(len(MAGIC))
    try:
        meta = from_obj(CheckpointMeta, json.loads(r.take(r.u64()).decode("utf-8")),
                        "metadata")
    except ValueError as e:  # a ConfigError, JSONDecodeError or UnicodeDecodeError
        raise CheckpointError(f"bad checkpoint architecture or metadata: {e}") from e

    params: dict[str, np.ndarray] = {}
    while r.remaining > 0:
        name = r.take(r.u64()).decode("utf-8")
        rank = r.u64()
        if rank > 8:
            raise CheckpointError(f"implausible parameter rank {rank}")
        shape = tuple(r.u64() for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape)
        if name in params:
            raise CheckpointError(f"duplicate parameter {name!r}")
        params[name] = data.astype(np.float64)

    model = Classifier(meta.arch, seed=0)
    if set(params) != set(model.params):
        raise CheckpointError(
            f"parameters {sorted(params)} do not match architecture {sorted(model.params)}"
        )
    for name, tensor in model.params.items():
        if params[name].shape != tensor.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {params[name].shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = np.ascontiguousarray(params[name])
    return model, meta.epoch, meta.rng_seed
