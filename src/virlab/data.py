"""Dataset loading, synthesis, and seeded batching.

Sources: IDX image files (big-endian, the classic handwritten-digit
layout), CSV tables with a "label" column, the two-class theory mixture
(labels remapped -1/+1 -> 0/1 at this boundary), and a C-class synthetic
mixture whose means sit on a scaled regular simplex so class geometry is
symmetric and difficulty is governed purely by the variance vector.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .codec import atomic_open, write_csv
from .errors import ConfigError, DataFormatError
from .gmm import GmmSpec, sample_gmm

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ConfigError(
                f"features {self.features.shape} and labels {self.labels.shape} "
                "do not describe one label per row"
            )
        if len(self.labels) and self.labels.min() < 0:
            raise ConfigError("labels must be non-negative class indices")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _read_exact(fh, count: int, path, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise DataFormatError(f"{path}: truncated while reading {what}")
    return buf


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a [0,1]-scaled flat dataset."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}"
            )
        raw = _read_exact(fh, n * rows * cols, images_path, f"{n} images")
        if fh.read(1):
            raise DataFormatError(f"{images_path}: trailing bytes after {n} images")
    with open(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: magic {magic:#010x}, expected {IDX_LABELS_MAGIC:#010x}"
            )
        label_raw = _read_exact(fh, n_labels, labels_path, f"{n_labels} labels")
        if fh.read(1):
            raise DataFormatError(f"{labels_path}: trailing bytes after {n_labels} labels")
    if n != n_labels:
        raise DataFormatError(
            f"count mismatch: {images_path} has {n} images but "
            f"{labels_path} has {n_labels} labels"
        )
    features = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels)


def save_idx(dataset: Dataset, images_path, labels_path, rows: int, cols: int) -> None:
    """Inverse of load_idx for [0,1]-scaled data (used to build fixtures)."""
    if rows * cols != dataset.dim:
        raise ConfigError(f"{rows}x{cols} does not match dim {dataset.dim}")
    pixels = np.round(dataset.features * 255.0).astype(np.uint8)
    with atomic_open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(dataset), rows, cols))
        fh.write(pixels.tobytes())
    with atomic_open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(dataset)))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def load_csv(path) -> Dataset:
    """Read a CSV with a header, a "label" column, and numeric features."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if "label" not in header:
            raise DataFormatError(f"{path}: no 'label' column in header {header}")
        label_col = header.index("label")
        feats, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{line_no}: {len(row)} fields, header has {len(header)}"
                )
            try:
                labels.append(int(row[label_col]))
                feats.append([float(v) for i, v in enumerate(row) if i != label_col])
            except ValueError as e:
                raise DataFormatError(f"{path}:{line_no}: {e}") from None
    if not feats:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(np.asarray(feats), np.asarray(labels))


def save_csv(dataset: Dataset, path) -> None:
    """Write the load_csv format: label first, then feature columns x0..x{d-1}."""
    def rows():
        yield ["label"] + [f"x{i}" for i in range(dataset.dim)]
        for label, row in zip(dataset.labels.tolist(), dataset.features):
            yield [label, *row.tolist()]
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

