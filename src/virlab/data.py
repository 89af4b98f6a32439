"""Dataset loading, synthesis, and seeded batching.

Sources: IDX image files (big-endian, the classic handwritten-digit
layout; the pixels are held as bytes and read as float64 rows), CSV
tables with a "label" column, the two-class theory mixture
(labels remapped -1/+1 -> 0/1 at this boundary), and a C-class synthetic
mixture whose means sit on a scaled regular simplex so class geometry is
symmetric and difficulty is governed purely by the variance vector.
"""

from __future__ import annotations

import math
import os
import struct
import numpy as np

from .codec import atomic_open, read_csv, write_csv
from .errors import ConfigError, DataFormatError
from .gmm import GmmSpec, sample_gmm

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class Dataset:
    """One split: int64 labels and float64 rows, read through ``rows``.

    Rows are held as float64, except IDX pixels, which ``from_pixels``
    holds as uint8 and ``rows`` scales by 1/255 as it reads them: a 60k
    28x28 split takes 47 MB where its float64 values would take 376 MB.
    x / 255.0 rounds each element alike whatever the slice, so a row reads
    bitwise the same either way.
    """

    def __init__(self, features, labels):
        self._hold(np.ascontiguousarray(features, dtype=np.float64), labels)

    @classmethod
    def from_pixels(cls, pixels, labels) -> "Dataset":
        """A split of uint8 pixels, read as pixel / 255."""
        dataset = cls.__new__(cls)
        dataset._hold(np.ascontiguousarray(pixels, dtype=np.uint8), labels)
        return dataset

    def _hold(self, held: np.ndarray, labels) -> None:
        self._held = held
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        if held.ndim != 2 or self.labels.shape != (held.shape[0],):
            raise ConfigError(
                f"features {held.shape} and labels {self.labels.shape} "
                "do not describe one label per row"
            )
        if len(self.labels) and self.labels.min() < 0:
            raise ConfigError("labels must be non-negative class indices")

    def rows(self, idx) -> np.ndarray:
        """Float64 rows for an index, an index array or a slice (a view of
        float64 rows for a slice)."""
        x = self._held[idx]
        return x / 255.0 if x.dtype == np.uint8 else x

    @property
    def features(self) -> np.ndarray:
        """The whole split as one float64 array. Read once, it replaces
        held pixels with their float64 values, so a later read builds
        nothing; the program's own paths read ``rows`` instead."""
        if self._held.dtype == np.uint8:
            self._held = self._held / 255.0
        return self._held

    def __len__(self) -> int:
        return self._held.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, dim), as the split's float64 array would have it."""
        return self._held.shape

    @property
    def dim(self) -> int:
        return self._held.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _read_idx(path, magic: int, ndim: int, what: str) -> tuple[list[int], bytes]:
    """(dims, body) of an IDX file of ndim big-endian u32 dims: the body's
    byte count is checked against the file's size before it is read."""
    with open(path, "rb") as fh:
        header = fh.read(4 + 4 * ndim)
        if len(header) != 4 + 4 * ndim:
            raise DataFormatError(f"{path}: truncated while reading header")
        got, *dims = struct.unpack(f">{1 + ndim}I", header)
        if got != magic:
            raise DataFormatError(f"{path}: magic {got:#010x}, expected {magic:#010x}")
        count, left = math.prod(dims), os.fstat(fh.fileno()).st_size - len(header)
        if count > left:
            raise DataFormatError(f"{path}: truncated: header declares {dims[0]} "
                                  f"{what} ({count} bytes), {left} follow it")
        if count < left:
            raise DataFormatError(f"{path}: trailing bytes after {dims[0]} {what}")
        return dims, fh.read(count)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a flat dataset whose rows
    read [0,1]-scaled, holding the pixels as bytes."""
    (n, rows, cols), raw = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "images")
    if n == 0:
        raise DataFormatError(f"{images_path}: no images")
    (n_labels,), label_raw = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "labels")
    if n != n_labels:
        raise DataFormatError(
            f"count mismatch: {images_path} has {n} images but "
            f"{labels_path} has {n_labels} labels"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return Dataset.from_pixels(pixels, labels)


def save_idx(dataset: Dataset, images_path, labels_path, rows: int, cols: int) -> None:
    """Inverse of load_idx for [0,1]-scaled data (used to build fixtures):
    held pixels are written as they are."""
    if rows * cols != dataset.dim:
        raise ConfigError(f"{rows}x{cols} does not match dim {dataset.dim}")
    pixels = dataset._held
    if pixels.dtype != np.uint8:
        pixels = np.round(pixels * 255.0).astype(np.uint8)
    with atomic_open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(dataset), rows, cols))
        fh.write(pixels.tobytes())
    with atomic_open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(dataset)))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def load_csv(path) -> Dataset:
    """Read a CSV with a header, a "label" column, and numeric features; a
    negative label or a non-finite feature is a DataFormatError at its
    path:line."""
    def parser(header):
        if "label" not in header:
            raise ValueError(f"no 'label' column in header {header}")
        col = header.index("label")
        def row(cells):
            label = int(cells[col])
            feats = [float(v) for i, v in enumerate(cells) if i != col]
            if label < 0:
                raise ValueError(f"negative label {label}")
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"non-finite feature in {cells}")
            return label, feats
        return row

    _, rows = read_csv(path, parser)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    labels, feats = zip(*rows)
    return Dataset(np.asarray(feats), np.asarray(labels))


def save_csv(dataset: Dataset, path) -> None:
    """Write the load_csv format: label first, then feature columns x0..x{d-1}."""
    def rows():
        yield ["label"] + [f"x{i}" for i in range(dataset.dim)]
        for i, label in enumerate(dataset.labels.tolist()):
            yield [label, *dataset.rows(i).tolist()]
    write_csv(path, rows())


def simplex_means(num_classes: int, d: int, separation: float) -> np.ndarray:
    """Centered regular-simplex vertices in R^d, pairwise distance = separation.

    Built in R^{C-1} (basis vectors plus one closing vertex) then zero-padded,
    so C <= d+1 is required.
    """
    if num_classes > d + 1:
        raise ConfigError(
            f"cannot place {num_classes} equidistant means in {d} dimensions"
        )
    c = num_classes
    verts = np.zeros((c, max(c - 1, 1)))
    for i in range(c - 1):
        verts[i, i] = 1.0
    if c >= 2:
        verts[c - 1, :] = (1.0 - np.sqrt(c)) / (c - 1)
    verts -= verts.mean(axis=0, keepdims=True)
    verts *= separation / np.sqrt(2.0)
    means = np.zeros((c, d))
    means[:, : verts.shape[1]] = verts
    return means


def synth_multiclass(num_classes: int, per_class_n, variance_vector,
                     separation: float, d: int, seed: int = 0) -> Dataset:
    """C-class isotropic Gaussian mixture with simplex-vertex means.

    per_class_n may be one int for all classes or a per-class list.
    variance_vector holds per-class isotropic variances (not stds).
    """
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    variances = np.asarray(variance_vector, dtype=np.float64)
    if variances.shape != (num_classes,):
        raise ConfigError(
            f"variance_vector length {variances.shape} != {num_classes} classes"
        )
    if variances.min() <= 0:
        raise ConfigError("variances must be positive")
    if separation <= 0:
        raise ConfigError(f"separation must be positive, got {separation}")
    counts = ([int(per_class_n)] * num_classes if np.isscalar(per_class_n)
              else [int(k) for k in per_class_n])
    if len(counts) != num_classes or min(counts) < 1:
        raise ConfigError(f"bad per-class counts {counts}")

    means = simplex_means(num_classes, d, separation)
    rng = np.random.default_rng(np.random.PCG64(seed))
    feats, labels = [], []
    for cls in range(num_classes):
        x = rng.standard_normal((counts[cls], d)) * np.sqrt(variances[cls])
        feats.append(x + means[cls][None, :])
        labels.append(np.full(counts[cls], cls, dtype=np.int64))
    return Dataset(np.vstack(feats), np.concatenate(labels))


def from_gmm(spec: GmmSpec, n: int, seed: int = 0) -> Dataset:
    """Theory mixture as a trainable dataset: labels -1/+1 become 0/1."""
    x, labels = sample_gmm(spec, n, seed)
    return Dataset(x, (labels + 1) // 2)


def batch_indices(n: int, batch_size: int, seed: int, epoch: int):
    """Index arrays partitioning a seeded permutation of range(n).

    The permutation is a pure function of (seed, epoch); the final short
    batch is kept.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(np.random.PCG64(
        np.random.SeedSequence([int(seed), int(epoch)])
    ))
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]

