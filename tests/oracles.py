"""Test-only oracles that the package itself never calls."""

import copy
import ctypes
import glob
import math
import os
from typing import Callable

import numpy as np

from virlab.attacks import LossMode
from virlab.errors import ConfigError
from virlab.gmm import GmmSpec, LinearClassifier, std_normal_cdf
from virlab.tensor import (Tensor, _check_logits, cross_entropy_rows,
                           kl_divergence, sliding_patches, softmax)


def openblas_core() -> str | None:
    """The core whose kernels numpy's OpenBLAS runs, as the library reports
    it ("SkylakeX", "Haswell", "Katmai", ...; ``OPENBLAS_CORETYPE`` may
    force one), or None where numpy's BLAS offers no such call (a build
    other than the scipy-openblas wheel's)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)  # the handle numpy already holds
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


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


def cw_margin_rows(logits: Tensor, y) -> Tensor:
    """Per-sample margin max_{j != y} Z_j - Z_y as a graph of Tensor ops:
    the CW-PGD loss the attacks used to differentiate through the graph,
    kept as the oracle of their plain gradient."""
    _check_logits(logits.data)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(y)), y] = 1.0
    z_true = (logits * onehot).sum(axis=1)
    z_other = (logits + Tensor(-1e30 * onehot)).max(axis=1)
    return z_other - z_true


def layered_forward(model, x) -> Tensor:
    """The network as a graph of Tensor layer ops, one node per op: the
    forward the fused node replaced, kept as its bitwise oracle."""
    p = model.params
    h = x if isinstance(x, Tensor) else Tensor(x)
    conv = model.arch.conv
    if conv is not None:
        patches = sliding_patches(h, conv.height, conv.width, conv.kernel_size)
        h = (patches @ p["conv.weight"] + p["conv.bias"]).relu()
        h = h.reshape(x.shape[0], conv.out_dim)
    n_dense = len(model.arch.layers) - 1
    for i in range(n_dense):
        h = h @ p[f"dense{i}.weight"] + p[f"dense{i}.bias"]
        if i < n_dense - 1:
            h = h.relu()
    return h


def unpadded_stem_input_gradient(conv, weight, fmap, g) -> np.ndarray:
    """The stem's input gradient taken for the whole batch without a border,
    upcast to float64: the relu-masked output gradient as offset-major
    slabs ``weight @ masked.T``, [k * k, batch * out_h * out_w], each added
    back onto its shifted window, offsets in reverse. The formulation the
    blocked, zero-bordered one replaced, kept as its reference. ``g`` is
    [batch, out_dim], ``fmap`` [batch * positions, filters]."""
    k, out_h, out_w = conv.kernel_size, conv.out_height, conv.out_width
    batch = g.shape[0]
    masked = g.reshape(fmap.shape) * (fmap > 0.0)
    per_offset = (weight @ masked.T).reshape(k, k, batch, out_h, out_w)
    full = np.zeros((batch, conv.height, conv.width), dtype=per_offset.dtype)
    for ki in reversed(range(k)):
        for kj in reversed(range(k)):
            full[:, ki:ki + out_h, kj:kj + out_w] += per_offset[ki, kj]
    return full.reshape(batch, -1).astype(np.float64)


def offset_loop_scatter(slabs, batch, height, width, kernel_size) -> np.ndarray:
    """The patch scatter of the zero-bordered layout as k * k contiguous
    slice adds, one per kernel offset in reverse, onto a flat accumulator
    that starts at +0.0 and runs (k - 1) * (width + 1) past the images:
    the loop ``tensor._patch_fold``'s one reduction replaced, kept as its
    bitwise reference. ``slabs`` is [k * k, batch * height * width];
    returns [batch, height * width] in its dtype."""
    n = batch * height * width
    acc = np.zeros(n + (kernel_size - 1) * (width + 1), dtype=slabs.dtype)
    for ki in reversed(range(kernel_size)):
        for kj in reversed(range(kernel_size)):
            at = ki * width + kj
            acc[at:at + n] += slabs[ki * kernel_size + kj]
    return acc[:n].reshape(batch, height * width)


def project_linf(x_adv, x_nat, epsilon: float, bounds=None) -> np.ndarray:
    """Clip x_adv into the epsilon-ball of x_nat, then into bounds: the
    attack engine's projection, written out for the loops that replay it."""
    out = np.clip(x_adv, x_nat - epsilon, x_nat + epsilon)
    return out if bounds is None else np.clip(out, bounds[0], bounds[1])


def looped_spsa_estimate(point_losses, x, num_samples: int, perturb: float,
                         rng, dtype=np.float64) -> np.ndarray:
    """``attacks._spsa_estimate`` with its sum over directions as a loop,
    ``estimate += delta * r`` from zeros in direction order: the way the
    estimate was summed before one reduction took it, kept as its bitwise
    oracle."""
    directions = rng.integers(0, 2, size=(num_samples, x.size)) * 2.0 - 1.0
    steps = perturb * directions.reshape((num_samples,) + x.shape)
    points = np.empty((num_samples, 2) + x.shape, dtype=dtype)
    np.add(x, steps, out=points[:, 0])
    np.subtract(x, steps, out=points[:, 1])
    losses = point_losses(points.reshape((2 * num_samples,) + x.shape))
    deltas = (losses[0::2] - losses[1::2]) / (2.0 * perturb)
    estimate = np.zeros_like(x, dtype=np.float64)
    for delta, r in zip(deltas, directions):
        estimate += delta * r.reshape(x.shape)
    return estimate / num_samples


def graph_input_gradient(model, x, y, mode: LossMode, reference=None):
    """(logits gradient, input gradient) of an attack loss summed over the
    batch, taken through the layered Tensor graph with the parameters as
    constants: the way the attacks took it before they went to plain numpy,
    kept as their bitwise oracle. KL mode's reference is a constant
    distribution."""
    constant = copy.copy(model)
    constant.params = {name: Tensor(p.data) for name, p in model.params.items()}
    x_t = Tensor(x, requires_grad=True)
    logits = layered_forward(constant, x_t)
    if mode is LossMode.CE:
        loss = cross_entropy_rows(logits, y)
    elif mode is LossMode.KL:
        loss = kl_divergence(Tensor(reference), softmax(logits))
    else:
        loss = cw_margin_rows(logits, y)
    loss.sum().backward()
    return logits.grad, x_t.grad


def linear_risk(classifier: LinearClassifier, spec: GmmSpec) -> tuple[float, float]:
    """Closed-form (R-, R+) of an arbitrary linear classifier on the mixture.

    The projection <omega, x> + b is Gaussian under each class, so both
    risks are single Phi evaluations.
    """
    omega = np.asarray(classifier.omega, dtype=np.float64)
    norm = float(np.linalg.norm(omega))
    if norm == 0.0:
        raise ConfigError("omega must be nonzero")
    proj_mu = float(omega @ spec.mu)
    r_minus = std_normal_cdf((classifier.b - proj_mu) / (spec.sigma * norm))
    r_plus = std_normal_cdf(-(proj_mu + classifier.b) / (spec.k_var * spec.sigma * norm))
    return r_minus, r_plus


def true_class_posterior(spec: GmmSpec, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """P(y = label_i | x_i) under the balanced mixture, via class
    log-densities (the equal priors cancel)."""
    x = np.asarray(x, dtype=np.float64)

    def log_density(mean_sign: float, std: float) -> np.ndarray:
        sq = ((x - mean_sign * spec.mu[None, :]) ** 2).sum(axis=1)
        return -0.5 * spec.d * math.log(2.0 * math.pi * std * std) - sq / (2.0 * std * std)

    log_minus = log_density(-1.0, spec.sigma)
    log_plus = log_density(1.0, spec.k_var * spec.sigma)
    top = np.maximum(log_minus, log_plus)
    denom = top + np.log(np.exp(log_minus - top) + np.exp(log_plus - top))
    log_true = np.where(labels == 1, log_plus, log_minus)
    return np.exp(log_true - denom)
