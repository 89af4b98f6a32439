"""Adversarial example generation under an l-infinity budget.

Four attack families share one spec and one engine (``_attack``):
single-step FGSM, PGD with a small Gaussian random start, PGD on the CW
margin loss, and black-box SPSA. Each runs the same projected sign-ascent
loop and differs only in data: the step, whether it starts from noise, and
the gradient it ascends (the CE, KL or margin input gradient, or per-sample
SPSA estimates). KL mode, the TRADES inner maximization, takes its
reference from the model itself: the prediction at the natural input,
computed inside the attack. The engine also provides the least-steps probe
that GAIRAT weighting consumes.

Every attack is a pure function of (model, x, y, spec): the same inputs
give bit-identical outputs, and per-sample randomness is drawn from one
PCG64 stream keyed by seed XOR i (``_row_rng``), where i is the sample's
row in the x handed to the attack. In evaluation that row is the dataset
index. In training it is the position within the minibatch, not a dataset
index, so a sample's noise depends on where its batch puts it.

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
from .models import Classifier, predict_probs
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
    Gaussian random start. loss_mode is the loss the family ascends:
    CW_MARGIN for CW_PGD, CE for the others (None picks it); PGD may
    ascend KL instead.
    """

    family: AttackFamily
    epsilon: float
    step_size: float = 0.0
    iterations: int = 1
    loss_mode: LossMode | None = None
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
        own = (LossMode.CW_MARGIN if self.family is AttackFamily.CW_PGD
               else LossMode.CE)
        if self.loss_mode is None:
            object.__setattr__(self, "loss_mode", own)
        allowed = [own] + ([LossMode.KL] if self.family is AttackFamily.PGD else [])
        if self.loss_mode not in allowed:
            raise ConfigError(
                f"{self.family.value} cannot ascend {self.loss_mode.value}: FGSM "
                "and SPSA ascend CE, PGD CE or KL, CW_PGD CW_MARGIN")
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


def _cw_margin_rows(logits: Tensor, y) -> Tensor:
    """Per-sample margin max_{j != y} Z_j - Z_y (positive iff misclassified,
    up to exact ties, which resolve toward the lowest class index)."""
    _check_logits(logits)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(y)), y] = 1.0
    z_true = (logits * onehot).sum(axis=1)
    z_other = (logits + Tensor(-1e30 * onehot)).max(axis=1)
    return z_other - z_true


def _input_gradient(model: Classifier, y, mode: LossMode, reference: Tensor | None):
    """x -> gradient at x of the attack loss, summed over the batch so each
    sample's gradient is independent of its batchmates."""
    def grad(x_np: np.ndarray) -> np.ndarray:
        x_t = Tensor(x_np, requires_grad=True)
        logits = model.forward(x_t)
        if mode is LossMode.CE:
            loss = cross_entropy_rows(logits, y)
        elif mode is LossMode.KL:
            loss = kl_divergence(reference, softmax(logits))
        else:
            loss = _cw_margin_rows(logits, y)
        loss.sum().backward()
        return x_t.grad
    return grad


def _row_rng(spec: AttackSpec, i: int) -> np.random.Generator:
    """Row i's random stream, PCG64 keyed by seed XOR i: the only place a
    row's stream is keyed. The start noise and SPSA's directions draw
    from it."""
    return np.random.default_rng(np.random.PCG64(spec.seed ^ i))


def _predict(model: Classifier, x: np.ndarray) -> np.ndarray:
    return np.argmax(model.forward(Tensor(x)).data, axis=1)


def _attack(model: Classifier, x, y, spec: AttackSpec, family: AttackFamily,
            record_first_miss: bool = False) -> np.ndarray:
    """The one attack engine: every family runs the projected sign ascent

        cur <- project_linf(cur + step * sign(grad(cur)), x, epsilon, bounds)

    with the parameters frozen. FGSM takes one step of epsilon on the CE
    gradient. PGD and CW-PGD start from per-sample Gaussian noise and take
    ``iterations`` steps of step_size on the CE or KL loss (PGD) or the
    margin loss (CW-PGD). SPSA takes ``iterations`` steps of spsa_lr on
    per-sample SPSA estimates of the CE gradient. KL mode's reference is
    the model's own prediction at x.

    With record_first_miss (a CE-mode PGD spec) it returns, instead of the
    adversarial batch, the first iteration at which each sample is
    misclassified: 0 if it already is at x, the full budget if never.
    """
    if spec.family is not family:
        raise ConfigError(f"spec is for {spec.family.value}, not {family.value}")
    if record_first_miss and spec.loss_mode is not LossMode.CE:
        raise ConfigError("least-steps probe requires a CE-mode PGD spec")
    x, y = _as_batch(x, y, model)
    with model.frozen():
        first_miss = None
        if record_first_miss:
            first_miss = np.where(_predict(model, x) != y, 0, spec.iterations)
        if spec.epsilon == 0.0:
            return x.copy() if first_miss is None else first_miss
        cur = x.copy()
        if family is AttackFamily.FGSM:
            step, iterations = spec.epsilon, 1
            grad = _input_gradient(model, y, LossMode.CE, None)
        elif family is AttackFamily.SPSA:
            step, iterations = spec.spsa_lr, spec.iterations
            grad = _spsa_gradient(model, y, spec)
        else:
            step, iterations = spec.step_size, spec.iterations
            reference = (Tensor(predict_probs(model, x))
                         if spec.loss_mode is LossMode.KL else None)
            grad = _input_gradient(model, y, spec.loss_mode, reference)
            if spec.start_noise_scale > 0:
                for i in range(x.shape[0]):
                    cur[i] += (spec.start_noise_scale
                               * _row_rng(spec, i).standard_normal(x.shape[1]))
        for k in range(1, iterations + 1):
            cur = project_linf(cur + step * np.sign(grad(cur)), x,
                               spec.epsilon, spec.bounds)
            if first_miss is not None:
                undecided = first_miss == spec.iterations
                first_miss[undecided & (_predict(model, cur) != y)] = k
    return cur if first_miss is None else first_miss


def fgsm(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Single signed-gradient step of size epsilon on the CE loss; a
    coordinate with exactly zero gradient stays put (sign(0) = 0)."""
    return _attack(model, x, y, spec, AttackFamily.FGSM)


def pgd(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Projected gradient ascent from a Gaussian start on the CE loss, or
    in KL mode (the TRADES inner maximization) on the divergence from the
    model's own prediction at x."""
    return _attack(model, x, y, spec, AttackFamily.PGD)


def min_pgd_steps(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Least CE-mode PGD iteration at which each sample first misclassifies
    (0 if already misclassified; the full budget, hence the smallest GAIRAT
    weight, if the trajectory never breaks it)."""
    return _attack(model, x, y, spec, AttackFamily.PGD, record_first_miss=True)


def cw_pgd(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """PGD on the margin loss max_{j != y} Z_j - Z_y (confidence offset 0)."""
    return _attack(model, x, y, spec, AttackFamily.CW_PGD)


def spsa(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Black-box ascent on SPSA estimates of the CE gradient: forward
    evaluations only, each sample's 2 * spsa_samples perturbed points
    scored in forwards of at most _SPSA_ROWS rows."""
    return _attack(model, x, y, spec, AttackFamily.SPSA)


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


def _spsa_gradient(model: Classifier, y, spec: AttackSpec):
    """cur -> per-sample SPSA estimates at cur. Each row keeps its own
    stream across iterations, so its draws come in the same order whatever
    order the rows are visited in."""
    rngs = [_row_rng(spec, i) for i in range(len(y))]

    def grad(cur: np.ndarray) -> np.ndarray:
        out = np.empty_like(cur)
        for i, rng in enumerate(rngs):
            out[i] = _spsa_ce_estimate(model, cur[i], y[i], spec, rng)
        return out
    return grad


def run_attack(model: Classifier, x, y, spec: AttackSpec) -> np.ndarray:
    """Dispatch on spec.family."""
    if spec.family is AttackFamily.FGSM:
        return fgsm(model, x, y, spec)
    if spec.family is AttackFamily.PGD:
        return pgd(model, x, y, spec)
    if spec.family is AttackFamily.CW_PGD:
        return cw_pgd(model, x, y, spec)
    return spsa(model, x, y, spec)
