"""Adversarial example generation under an l-infinity budget.

Four attack families share one spec and one engine (``_attack``):
single-step FGSM, PGD with a small Gaussian random start, PGD on the CW
margin loss, and black-box SPSA. Each runs the same projected sign-ascent
loop and differs only in data: the step (epsilon, once, for FGSM;
step_size for the rest), whether it starts from noise, and the gradient it
ascends (the CE, KL or margin input gradient, or per-sample SPSA
estimates). KL mode, the TRADES inner maximization, takes its
reference from the model itself: the prediction at the natural input,
computed inside the attack. GAIRAT's least-steps probe is a CE-mode PGD
walk that reads each sample's first-miss iteration off its own forwards.

Every attack is a pure function of (model, x, y, spec): the same inputs
give bit-identical outputs. ``_rng`` keys its streams from spec.seed with
numpy's SeedSequence: the start noise is one draw of the attack's stream,
row i taking the i-th block, and SPSA row i draws from its own stream
(spawn key (i,)). Row i is the sample's row in the x handed to the attack:
the dataset index in evaluation, the position in the minibatch in training.
A split (an array, or a Dataset read through its rows accessor) larger
than the model's rows per forward (``models._chunk_rows``) is walked in
chunks of that many rows, each row keeping its global index, so an
attack's memory is bounded intermediates plus its split-sized x_adv; a
caller that passes a sink (``evaluate``) takes each chunk's x_adv as it
finishes, and no split-sized array is built.
SPSA scores a row's 2 * spsa_samples perturbed points through
``models._logits``, under the same rows-per-forward rule.

Attacks need only the input gradient, so they build no autodiff graph:
each gradient is one input-mode forward (``Classifier._forward(x,
"input")``, which keeps no stem patches), the loss's gradient of the
logits from the tensor module's ``_*_dlogits`` helpers, and one layer
backward (``Classifier._backward``) that forms no parameter gradient.
The KL reference, predictions and SPSA scoring keep nothing. The model's
parameters, their ``.grad`` and ``requires_grad`` included, are never
touched. Inputs and labels are checked once per attack;
``Classifier._forward`` checks the logits, so a non-finite model raises
NonFiniteError at its first forward.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .codec import to_obj
from .errors import ConfigError
from .models import Classifier, _chunks, _logits, predict_labels, predict_probs
from .tensor import (_ce_dlogits, _ce_rows, _check_labels, _cw_margin_dlogits,
                     _kl_softmax_dlogits)


class AttackFamily(Enum):
    FGSM = "FGSM"
    PGD = "PGD"
    CW_PGD = "CW_PGD"
    SPSA = "SPSA"


class LossMode(Enum):
    CE = "CE"
    KL = "KL"
    CW_MARGIN = "CW_MARGIN"


# knob -> the families that read it; every family reads the fields not listed.
_READ_BY = {"step_size": (AttackFamily.PGD, AttackFamily.CW_PGD, AttackFamily.SPSA),
            "iterations": (AttackFamily.PGD, AttackFamily.CW_PGD, AttackFamily.SPSA),
            "start_noise_scale": (AttackFamily.PGD, AttackFamily.CW_PGD),
            "spsa_samples": (AttackFamily.SPSA,), "spsa_perturb": (AttackFamily.SPSA,)}


@dataclass(frozen=True)
class AttackSpec:
    """Threat model and optimizer knobs for one attack condition.

    A knob the family does not read (``_READ_BY``) must keep its default, and
    ``to_obj`` records only the knobs it reads, so a config states none that
    did not run. epsilon = 0 is allowed as a degenerate budget: every attack
    then returns its input unchanged. step_size, which must be positive, is the
    step of every family but FGSM, whose one step is epsilon.
    start_noise_scale = 0 disables the Gaussian random start. loss_mode is
    the loss the family ascends: CW_MARGIN for CW_PGD, CE for the others
    (None picks it); PGD may ascend KL instead.
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

    def __post_init__(self):
        if isinstance(self.family, str):
            object.__setattr__(self, "family", AttackFamily(self.family))
        if isinstance(self.loss_mode, str):
            object.__setattr__(self, "loss_mode", LossMode(self.loss_mode))
        for f in fields(self):
            if (self.family not in _READ_BY.get(f.name, AttackFamily)
                    and getattr(self, f.name) != f.default):
                raise ConfigError(f"{self.family.value} does not read {f.name}, "
                                  f"got {getattr(self, f.name)}")
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.family in _READ_BY["step_size"] and self.step_size <= 0:
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
        if self.spsa_samples < 2:
            raise ConfigError(f"spsa_samples must be >= 2, got {self.spsa_samples}")
        if self.spsa_perturb <= 0:
            raise ConfigError(f"spsa_perturb must be > 0, got {self.spsa_perturb}")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not lo < hi:
                raise ConfigError(f"bounds must satisfy lo < hi, got {self.bounds}")
        if self.start_noise_scale < 0:
            raise ConfigError("start_noise_scale must be >= 0")

    def to_obj(self) -> dict:
        return {f.name: to_obj(getattr(self, f.name)) for f in fields(self)
                if self.family in _READ_BY.get(f.name, AttackFamily)}


def _input_gradient(model: Classifier, y, mode: LossMode,
                    reference: np.ndarray | None):
    """x -> (gradient at x of the attack loss summed over the batch, so each
    sample's gradient is its own loss's; the logits at x): one input-mode
    forward, the loss's gradient of the logits, and one layer backward,
    with no parameter gradient. It follows the forward's rounding rule:
    consecutive chunks of 64 rows give bitwise the whole batch's gradient,
    smaller chunks may not, and where the gradient is near zero (KL mode
    from a noise-free start) a sign step turns that into a whole step."""
    def dlogits(z: np.ndarray) -> np.ndarray:
        if mode is LossMode.CE:
            return _ce_dlogits(z, y)
        if mode is LossMode.KL:
            return _kl_softmax_dlogits(reference, z)
        return _cw_margin_dlogits(z, y)

    def grad(x_np: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        logits, cache = model._forward(x_np, "input")
        g = dlogits(logits)
        # x + 0.0 stores a -0.0 entry as +0.0, as the graph stores the first
        # gradient a tensor receives: the gradients stay bitwise the graph's.
        np.add(g, 0.0, out=g)
        dx = model._backward(cache, g)
        return np.add(dx, 0.0, out=dx), logits
    return grad


def _rng(spec: AttackSpec, *row: int) -> np.random.Generator:
    """The attack's stream, or row i's own for ``_rng(spec, i)``: PCG64 from
    ``SeedSequence(spec.seed, spawn_key=row)``. A spawn key never equals a
    bare seed, so no two (seed, row) pairs share a stream."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(spec.seed, spawn_key=row)))


# A sink takes each chunk's x_adv as it finishes: sink(first row, rows).
Sink = Callable[[int, np.ndarray], None]


def _attack(model: Classifier, x, y, spec: AttackSpec, family: AttackFamily,
            record_first_miss: bool = False, sink: Sink | None = None,
            ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The one attack engine: every family runs the projected sign ascent

        cur <- clip(cur + step * sign(grad(cur)), x - epsilon, x + epsilon)
        cur <- clip(cur, *bounds)

    (one clip per step, into the box already clipped to the bounds).

    FGSM takes one step of epsilon on the CE gradient. PGD and CW-PGD start
    from per-sample Gaussian noise and take ``iterations`` steps of
    step_size on the CE or KL loss (PGD) or the margin loss (CW-PGD). SPSA
    takes ``iterations`` steps of step_size on per-sample SPSA estimates of
    the CE gradient. KL mode's reference is the model's own prediction at x.

    x is an array or a Dataset. The split runs in the consecutive chunks of
    ``models._chunks``, each read as float64, walked to the end and handed
    on before the next is read, so the network's intermediates stay
    bounded whatever the split's size. x_adv (and first_miss), preallocated
    once, are the only split-sized outputs, and with a ``sink`` x_adv is
    not built: each chunk's goes to the sink instead. Each row keeps its
    global index: the start noise is drawn chunk after chunk from one
    stream (numpy's normals are sequential, so the chunks' draws are the
    whole split's), and SPSA row i draws from ``_rng(spec, i)``. Chunks of
    a multiple of 64 rows are bitwise the whole split's walk (the
    batch-chunk rule).

    Returns (x_adv, first_miss), x_adv None with a sink. With
    record_first_miss (a CE-mode PGD spec) first_miss holds the iteration
    of the walk that first misclassifies each sample, 0 if x already is,
    the full budget if none (so the last iterate needs no forward: step
    k + 1's gives iterate k's logits); otherwise it is None.
    """
    if spec.family is not family:
        raise ConfigError(f"spec is for {spec.family.value}, not {family.value}")
    if record_first_miss and spec.loss_mode is not LossMode.CE:
        raise ConfigError("least-steps probe requires a CE-mode PGD spec")
    n, chunks = _chunks(model.arch, x)
    y = _check_labels(y, n, model.arch.num_classes)
    noise = (_rng(spec) if family in (AttackFamily.PGD, AttackFamily.CW_PGD)
             and spec.start_noise_scale > 0 else None)
    x_adv = np.empty((n, model.arch.input_dim)) if sink is None else None
    first_miss = np.empty(n, dtype=int) if record_first_miss else None
    for s, part in chunks:
        rows = slice(s, s + len(part))
        adv, miss = _walk(model, np.asarray(part, dtype=np.float64), y[rows],
                          spec, record_first_miss, noise, s)
        if sink is None:
            x_adv[rows] = adv
        else:
            sink(s, adv)
        if first_miss is not None:
            first_miss[rows] = miss
    return x_adv, first_miss


def _walk(model: Classifier, x: np.ndarray, y: np.ndarray, spec: AttackSpec,
          record_first_miss: bool, noise: np.random.Generator | None,
          first_row: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``_attack`` on one chunk, x and y, whose first row is row first_row
    of the split: it draws its start noise from ``noise`` and keys SPSA
    rows from first_row, and its KL reference is the chunk's."""
    first_miss = None
    if record_first_miss:
        first_miss = np.where(predict_labels(model, x) != y, 0, spec.iterations)
    if spec.epsilon == 0.0:
        return x.copy(), first_miss
    step = spec.epsilon if spec.family is AttackFamily.FGSM else spec.step_size
    cur = x.copy()
    if spec.family is AttackFamily.SPSA:
        grad = _spsa_gradient(model, y, spec, first_row)
    else:
        reference = (predict_probs(model, x)
                     if spec.loss_mode is LossMode.KL else None)
        grad = _input_gradient(model, y, spec.loss_mode, reference)
        if noise is not None:
            cur += spec.start_noise_scale * noise.standard_normal(x.shape)
    # The projection box, clipped to the bounds once: clip(clip(g, lo, hi),
    # *bounds) is clip(g, clip(lo, *bounds), clip(hi, *bounds)), as a
    # nondecreasing map commutes with the median, even where the box lies
    # wholly outside the bounds. It is bit for bit because the iterate g is
    # never -0.0 (numpy's clip loops break a -0.0/+0.0 tie differently).
    lo, hi = x - spec.epsilon, x + spec.epsilon
    if spec.bounds is not None:
        np.clip(lo, *spec.bounds, out=lo)
        np.clip(hi, *spec.bounds, out=hi)
    for k in range(spec.iterations):
        g, logits = grad(cur)
        if first_miss is not None and k > 0:  # the logits of iterate k
            undecided = first_miss == spec.iterations
            first_miss[undecided & (logits.argmax(axis=1) != y)] = k
        # Sign into a new array, not in place: numpy's in-place sign is a
        # branchy scalar loop, about 7x slower on random signs. The rest of
        # the step is taken in that array, which becomes the next iterate.
        g = np.sign(g)
        g *= step
        g += cur
        cur = np.clip(g, lo, hi, out=g)
    return cur, first_miss


def fgsm(model: Classifier, x, y, spec: AttackSpec,
         sink: Sink | None = None) -> np.ndarray | None:
    """Single signed-gradient step of size epsilon on the CE loss; a
    coordinate with exactly zero gradient stays put (sign(0) = 0)."""
    return _attack(model, x, y, spec, AttackFamily.FGSM, sink=sink)[0]


def pgd(model: Classifier, x, y, spec: AttackSpec,
        sink: Sink | None = None) -> np.ndarray | None:
    """Projected gradient ascent from a Gaussian start on the CE loss, or
    in KL mode (the TRADES inner maximization) on the divergence from the
    model's own prediction at x."""
    return _attack(model, x, y, spec, AttackFamily.PGD, sink=sink)[0]


def min_pgd_steps(model: Classifier, x, y, spec: AttackSpec,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(x_adv, kappa) of one CE-mode PGD walk: x_adv is bitwise pgd's, and
    kappa each sample's first-miss iteration along it (0 if x already is
    misclassified; the full budget, the smallest GAIRAT weight, if never)."""
    return _attack(model, x, y, spec, AttackFamily.PGD, record_first_miss=True)


def cw_pgd(model: Classifier, x, y, spec: AttackSpec,
           sink: Sink | None = None) -> np.ndarray | None:
    """PGD on the margin loss max_{j != y} Z_j - Z_y (confidence offset 0)."""
    return _attack(model, x, y, spec, AttackFamily.CW_PGD, sink=sink)[0]


def spsa(model: Classifier, x, y, spec: AttackSpec,
         sink: Sink | None = None) -> np.ndarray | None:
    """Black-box ascent on SPSA estimates of the CE gradient: forward
    evaluations only, each sample's 2 * spsa_samples perturbed points
    scored as predictions are, in forwards of ``_chunk_rows`` rows."""
    return _attack(model, x, y, spec, AttackFamily.SPSA, sink=sink)[0]


def _spsa_estimate(point_losses, x: np.ndarray, num_samples: int,
                   perturb: float, rng: np.random.Generator,
                   dtype=np.float64) -> np.ndarray:
    """Two-point simultaneous-perturbation gradient estimate at x.

    Draws num_samples Rademacher +-1 directions r from rng and hands
    ``point_losses`` every x + d*r, x - d*r pair stacked along a new leading
    axis (plus point first, pairs in direction order), in ``dtype``; it
    returns one loss per point. The points fill one preallocated array:
    each sum is taken in float64 and rounded once to dtype, as a cast of
    the float64 points would round it. The estimate averages
    (f(x + d*r) - f(x - d*r)) / (2d) * r, summed in direction order.
    """
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


def _spsa_gradient(model: Classifier, y, spec: AttackSpec, first_row: int):
    """cur -> (per-sample SPSA estimates at cur, None), for rows first_row
    onward of the split. Each row keeps its own stream across iterations, so
    its draws come in the same order whatever order the rows are visited in.
    A row's points are built in the model's dtype, which the forward takes
    without a copy, and scored by ``_logits``, whose chunks of a multiple
    of 64 rows are bitwise one forward's."""
    rngs = [_rng(spec, first_row + i) for i in range(len(y))]

    def grad(cur: np.ndarray) -> tuple[np.ndarray, None]:
        out = np.empty_like(cur)
        for i, rng in enumerate(rngs):
            labels = np.full(2 * spec.spsa_samples, y[i])
            out[i] = _spsa_estimate(
                lambda points: _ce_rows(_logits(model, points), labels),
                cur[i], spec.spsa_samples, spec.spsa_perturb, rng, model.dtype)
        return out, None
    return grad


def run_attack(model: Classifier, x, y, spec: AttackSpec,
               sink: Sink | None = None) -> np.ndarray | None:
    """The float64 x_adv of x's rows (an array or a Dataset) under spec,
    dispatched on spec.family. With a sink, each chunk's x_adv goes to
    sink(first row, rows) as it finishes, and None is returned."""
    if spec.family is AttackFamily.FGSM:
        return fgsm(model, x, y, spec, sink)
    if spec.family is AttackFamily.PGD:
        return pgd(model, x, y, spec, sink)
    if spec.family is AttackFamily.CW_PGD:
        return cw_pgd(model, x, y, spec, sink)
    return spsa(model, x, y, spec, sink)
