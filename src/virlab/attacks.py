"""Adversarial example generation under an l-infinity budget.

Four attack families share one spec: single-step FGSM, PGD with a small
Gaussian random start, PGD on the CW margin loss, and black-box SPSA.
Also provides the least-steps probe that GAIRAT weighting consumes.

Every attack is a pure function of (model, x, y, spec): the same inputs
give bit-identical outputs, and per-sample randomness is drawn from
seed XOR i, where i is the sample's row in the x handed to the attack.
In evaluation that row is the dataset index. In training it is the
position within the minibatch, not a dataset index, so a sample's noise
depends on where its batch puts it.

Attacks need only the input gradient, so each runs with the model's
parameters frozen (``Classifier.frozen``, entered once per attack): no
parameter gradient is computed, prediction forwards keep no activations,
and every parameter's ``.grad`` and ``requires_grad`` are left as the
attack found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ShapeError
from .models import Classifier
from .tensor import (Tensor, _check_logits, cross_entropy_rows, kl_divergence,
                     softmax)


class AttackFamily(Enum):
    FGSM = "FGSM"
    PGD = "PGD"
    CW_PGD = "CW_PGD"
    SPSA = "SPSA"


class LossMode(Enum):
    CE = "CE"
    KL = "KL"
    CW_MARGIN = "CW_MARGIN"


@dataclass(frozen=True)
class AttackSpec:
    """Threat model and optimizer knobs for one attack condition.

    epsilon = 0 is allowed as a degenerate budget: every attack then
    returns its input unchanged. start_noise_scale = 0 disables the
    Gaussian random start.
    """

    family: AttackFamily
    epsilon: float
    step_size: float = 0.0
    iterations: int = 1
    loss_mode: LossMode = LossMode.CE
    bounds: tuple[float, float] | None = None
    seed: int = 0
    start_noise_scale: float = 0.001
    spsa_samples: int = 256
    spsa_perturb: float = 0.001
    spsa_lr: float = 0.01

    def __post_init__(self):
        if isinstance(self.family, str):
            object.__setattr__(self, "family", AttackFamily(self.family))
        if isinstance(self.loss_mode, str):
            object.__setattr__(self, "loss_mode", LossMode(self.loss_mode))
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.family in (AttackFamily.PGD, AttackFamily.CW_PGD) and self.step_size <= 0:
            raise ConfigError(f"{self.family.value} needs step_size > 0")
        if self.family is AttackFamily.FGSM and self.loss_mode is not LossMode.CE:
            raise ConfigError("FGSM ascends the CE loss only")
        if self.family is AttackFamily.SPSA:
            if self.spsa_samples < 2:
                raise ConfigError(f"spsa_samples must be >= 2, got {self.spsa_samples}")
            if self.spsa_perturb <= 0 or self.spsa_lr <= 0:
                raise ConfigError("spsa_perturb and spsa_lr must be positive")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not lo < hi:
                raise ConfigError(f"bounds must satisfy lo < hi, got {self.bounds}")
        if self.start_noise_scale < 0:
            raise ConfigError("start_noise_scale must be >= 0")


def project_linf(x_adv, x_nat, epsilon: float, bounds=None) -> np.ndarray:
    """Clamp x_adv into the epsilon-ball of x_nat, then into bounds. Idempotent."""
    x_adv = np.asarray(x_adv, dtype=np.float64)
    x_nat = np.asarray(x_nat, dtype=np.float64)
    if x_adv.shape != x_nat.shape:
        raise ShapeError(f"shapes {x_adv.shape} and {x_nat.shape} differ")
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    out = np.clip(x_adv, x_nat - epsilon, x_nat + epsilon)
    if bounds is not None:
        out = np.clip(out, bounds[0], bounds[1])
    return out


def _as_batch(x, y, model: Classifier) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected [batch, dim] inputs, got shape {x.shape}")
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match batch {x.shape[0]}")
    if y.min(initial=0) < 0 or y.max(initial=0) >= model.arch.num_classes:
        raise IndexError(f"label out of range for {model.arch.num_classes} classes")
    return x, y


def _attack_loss(model: Classifier, x_t: Tensor, y, mode: LossMode, reference_probs):
    """Scalar loss whose x-gradient drives the ascent. Summed over the batch
    so each sample's gradient is independent of its batchmates."""
    logits = model.forward(x_t)
    if mode is LossMode.CE:
        return cross_entropy_rows(logits, y).sum()
    if mode is LossMode.KL:
        ref = Tensor(reference_probs)
        return kl_divergence(ref, softmax(logits)).sum()
    return _cw_margin_rows(logits, y).sum()


def _cw_margin_rows(logits: Tensor, y) -> Tensor:
    """Per-sample margin max_{j != y} Z_j - Z_y (positive iff misclassified,
    up to exact ties, which resolve toward the lowest class index)."""
    _check_logits(logits)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(y)), y] = 1.0
    z_true = (logits * onehot).sum(axis=1)
    z_other = (logits + Tensor(-1e30 * onehot)).max(axis=1)
    return z_other - z_true


def _input_gradient(model, x_np, y, mode, reference_probs) -> np.ndarray:
    """Gradient of the attack loss at x_np; callers freeze the model."""
    x_t = Tensor(x_np, requires_grad=True)
    _attack_loss(model, x_t, y, mode, reference_probs).backward()
    return x_t.grad


def _start_noise(shape: tuple[int, ...], spec: AttackSpec) -> np.ndarray:
    """Gaussian start, one PCG64 stream per sample keyed by seed XOR index."""
    noise = np.empty(shape)
    for i in range(shape[0]):
        rng = np.random.default_rng(np.random.PCG64(spec.seed ^ i))
        noise[i] = spec.start_noise_scale * rng.standard_normal(shape[1])
    return noise


def fgsm(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Single signed-gradient step of size epsilon on the CE loss.

    Coordinates with exactly zero gradient stay put (sign(0) = 0), so an
    all-zero gradient returns x unchanged rather than erroring.
    """
    if spec.family is not AttackFamily.FGSM:
        raise ConfigError(f"spec is for {spec.family.value}, not FGSM")
    x, y = _as_batch(x, y, model)
    if spec.epsilon == 0.0:
        return x.copy()
    with model.frozen():
        grad = _input_gradient(model, x, y, LossMode.CE, None)
    out = x + spec.epsilon * np.sign(grad)
    if spec.bounds is not None:
        out = np.clip(out, spec.bounds[0], spec.bounds[1])
    return out


def _iterative_ascent(model, x, y, spec, mode, reference_probs,
                      record_first_miss: bool = False):
    """Shared PGD loop. Optionally tracks the first iteration at which each
    sample is misclassified (the GAIRAT least-steps probe)."""
    cur = x + _start_noise(x.shape, spec) if spec.start_noise_scale > 0 else x.copy()
    first_miss = None
    with model.frozen():
        if record_first_miss:
            first_miss = np.full(x.shape[0], spec.iterations, dtype=np.int64)
            pred = np.argmax(model.forward(Tensor(x)).data, axis=1)
            first_miss[pred != y] = 0
        for k in range(1, spec.iterations + 1):
            grad = _input_gradient(model, cur, y, mode, reference_probs)
            cur = project_linf(cur + spec.step_size * np.sign(grad), x,
                               spec.epsilon, spec.bounds)
            if record_first_miss:
                pred = np.argmax(model.forward(Tensor(cur)).data, axis=1)
                undecided = first_miss == spec.iterations
                first_miss[undecided & (pred != y)] = k
    return (cur, first_miss) if record_first_miss else cur


def pgd(model: Classifier, x, y, spec: AttackSpec, reference_probs=None) -> np.ndarray:
    """Projected gradient ascent: Gaussian start, then iterations of
    x' <- project(x' + step_size * sign(grad)).

    loss_mode CE maximizes cross entropy; KL maximizes divergence from
    ``reference_probs`` (detached natural predictions), the TRADES inner
    maximization.
    """
    if spec.family is not AttackFamily.PGD:
        raise ConfigError(f"spec is for {spec.family.value}, not PGD")
    if spec.loss_mode is LossMode.KL and reference_probs is None:
        raise ConfigError("KL loss_mode requires reference_probs")
    if spec.loss_mode is LossMode.CW_MARGIN:
        raise ConfigError("use cw_pgd for the margin loss")
    x, y = _as_batch(x, y, model)
    if spec.epsilon == 0.0:
        return x.copy()
    return _iterative_ascent(model, x, y, spec, spec.loss_mode, reference_probs)


def min_pgd_steps(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Least PGD iteration at which each sample first misclassifies.

    0 means already misclassified at x; samples the trajectory never breaks
    get the full budget spec.iterations, which hands them the smallest
    GAIRAT weight.
    """
    if spec.family is not AttackFamily.PGD or spec.loss_mode is not LossMode.CE:
        raise ConfigError("least-steps probe requires a CE-mode PGD spec")
    x, y = _as_batch(x, y, model)
    if spec.epsilon == 0.0:
        pred = np.argmax(model.forward(Tensor(x)).data, axis=1)
        return np.where(pred != y, 0, spec.iterations).astype(np.int64)
    _, first_miss = _iterative_ascent(model, x, y, spec, LossMode.CE, None,
                                      record_first_miss=True)
    return first_miss


def cw_pgd(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """PGD on the margin loss max_{j != y} Z_j - Z_y (confidence offset 0)."""
    if spec.family is not AttackFamily.CW_PGD:
        raise ConfigError(f"spec is for {spec.family.value}, not CW_PGD")
    x, y = _as_batch(x, y, model)
    if spec.epsilon == 0.0:
        return x.copy()
    return _iterative_ascent(model, x, y, spec, LossMode.CW_MARGIN, None)


# Rows per SPSA forward. One sample's perturbed points are scored in chunks
# of this many rows: 64 was the fastest of 64/128/512 on the paper model,
# and it bounds the forward's working set whatever spsa_samples is.
_SPSA_ROWS = 64


def _spsa_estimate(point_losses, x: np.ndarray, num_samples: int,
                   perturb: float, rng: np.random.Generator) -> np.ndarray:
    """Two-point simultaneous-perturbation gradient estimate at x.

    Draws num_samples Rademacher +-1 directions r from rng and hands
    ``point_losses`` every x + d*r, x - d*r pair stacked along a new leading
    axis (plus point first, pairs in direction order); it returns one loss
    per point. The estimate averages (f(x + d*r) - f(x - d*r)) / (2d) * r,
    summed in direction order.
    """
    directions = rng.integers(0, 2, size=(num_samples, x.size)) * 2.0 - 1.0
    steps = perturb * directions.reshape((num_samples,) + x.shape)
    points = np.stack([x + steps, x - steps], axis=1)
    losses = point_losses(points.reshape((2 * num_samples,) + x.shape))
    deltas = (losses[0::2] - losses[1::2]) / (2.0 * perturb)
    estimate = np.zeros_like(x, dtype=np.float64)
    for delta, r in zip(deltas, directions):
        estimate += delta * r.reshape(x.shape)
    return estimate / num_samples


def spsa_gradient_estimate(f, x: np.ndarray, num_samples: int, perturb: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Two-point simultaneous-perturbation gradient estimate of scalar f.

    Averages (f(x + d*r) - f(x - d*r)) / (2d) * r over num_samples
    Rademacher +-1 direction vectors r. f is called once per point, plus
    before minus, in direction order.
    """
    return _spsa_estimate(
        lambda points: np.array([f(p) for p in points], dtype=np.float64),
        x, num_samples, perturb, rng)


def _spsa_ce_estimate(model: Classifier, cur: np.ndarray, label, spec: AttackSpec,
                      rng: np.random.Generator) -> np.ndarray:
    """SPSA estimate of the CE gradient of one sample at ``cur``: its
    2 * spsa_samples points are scored in forwards of at most _SPSA_ROWS rows."""
    def ce_of_points(points: np.ndarray) -> np.ndarray:
        labels = np.full(len(points), label)
        return np.concatenate([
            cross_entropy_rows(model.forward(Tensor(points[s:s + _SPSA_ROWS])),
                               labels[s:s + _SPSA_ROWS]).data
            for s in range(0, len(points), _SPSA_ROWS)])

    return _spsa_estimate(ce_of_points, cur, spec.spsa_samples,
                          spec.spsa_perturb, rng)


def spsa(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Black-box ascent on the CE loss using SPSA gradient estimates.

    Only forward evaluations of the model are used, with its parameters
    frozen, so parameter gradients are never touched. Each sample runs its
    own PCG64 stream (seed XOR index). Every iteration draws spsa_samples
    directions, scores all 2 * spsa_samples perturbed points in batched
    forwards of at most 64 rows (not one forward per point), and moves the
    iterate by spsa_lr * sign(estimate), then projects.
    """
    if spec.family is not AttackFamily.SPSA:
        raise ConfigError(f"spec is for {spec.family.value}, not SPSA")
    x, y = _as_batch(x, y, model)
    if spec.epsilon == 0.0:
        return x.copy()
    out = np.empty_like(x)
    with model.frozen():
        for i in range(x.shape[0]):
            rng = np.random.default_rng(np.random.PCG64(spec.seed ^ i))
            cur = x[i].copy()
            for _ in range(spec.iterations):
                g = _spsa_ce_estimate(model, cur, y[i], spec, rng)
                cur = project_linf(cur + spec.spsa_lr * np.sign(g), x[i],
                                   spec.epsilon, spec.bounds)
            out[i] = cur
    return out


def run_attack(model: Classifier, x, y, spec: AttackSpec,
               reference_probs=None) -> np.ndarray:
    """Dispatch on spec.family."""
    if spec.family is AttackFamily.FGSM:
        return fgsm(model, x, y, spec)
    if spec.family is AttackFamily.PGD:
        return pgd(model, x, y, spec, reference_probs)
    if spec.family is AttackFamily.CW_PGD:
        return cw_pgd(model, x, y, spec)
    return spsa(model, x, y, spec)
