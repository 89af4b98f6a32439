"""Seeded synthetic 28x28 IDX fixtures with learnable class structure.

Each of the ten classes is a fixed pair of Gaussian blobs: one on an outer
ring at angle 2*pi*k/10 and a smaller one on an inner ring at angle
2*pi*(3k mod 10)/10, so no two classes share a layout. A sample shifts its
class template by up to MAX_SHIFT pixels each way, scales its brightness
and adds pixel noise; all of that comes from the seed, the templates do not. The
files are written with ``virlab.data.save_idx``, so they round-trip through
``load_idx`` exactly like real IDX data.
"""

from __future__ import annotations

import os

import numpy as np

SIDE = 28
NUM_CLASSES = 10
MAX_SHIFT = 1
NOISE_STD = 0.05
MIN_GAIN = 0.9


def _blob(cy: float, cx: float, sigma: float) -> np.ndarray:
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    return np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))


def class_templates() -> np.ndarray:
    """[10, 28, 28] noise-free templates with peak brightness 1."""
    centre = (SIDE - 1) / 2.0
    out = np.empty((NUM_CLASSES, SIDE, SIDE))
    for k in range(NUM_CLASSES):
        a = 2.0 * np.pi * k / NUM_CLASSES
        b = 2.0 * np.pi * ((3 * k) % NUM_CLASSES) / NUM_CLASSES
        img = (_blob(centre + 9.0 * np.sin(a), centre + 9.0 * np.cos(a), 2.5)
               + 0.8 * _blob(centre + 4.0 * np.sin(b), centre + 4.0 * np.cos(b), 1.8))
        out[k] = img / img.max()
    return out


def make_images(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n flattened [0,1] images with balanced, shuffled labels."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    labels = rng.permutation(np.arange(n) % NUM_CLASSES)
    templates = class_templates()
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(n, 2))
    gains = rng.uniform(MIN_GAIN, 1.0, size=n)
    noise = rng.normal(0.0, NOISE_STD, size=(n, SIDE, SIDE))
    images = np.empty((n, SIDE, SIDE))
    for i in range(n):
        shifted = np.roll(templates[labels[i]], tuple(shifts[i]), axis=(0, 1))
        images[i] = gains[i] * shifted + noise[i]
    return np.clip(images, 0.0, 1.0).reshape(n, SIDE * SIDE), labels


def write_fixture(out_dir: str, n_train: int, n_eval: int, seed: int) -> dict:
    """Write train and eval IDX pairs from independent streams; return paths
    in the shape of an ``idx`` dataset config."""
    from virlab.data import Dataset, save_idx

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for split, n, split_seed in (("train", n_train, seed),
                                 ("eval", n_eval, seed + 1)):
        x, y = make_images(n, split_seed)
        images = os.path.join(out_dir, f"{split}-images-idx3-ubyte")
        labels = os.path.join(out_dir, f"{split}-labels-idx1-ubyte")
        save_idx(Dataset(x, y), images, labels, SIDE, SIDE)
        prefix = "" if split == "train" else "eval_"
        paths[prefix + "images"] = images
        paths[prefix + "labels"] = labels
    return paths
