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
finishes, and no split-sized array is built. A conv-stem model's chunk is
walked as consecutive parts of 64 rows from its first row, up to one part
per usable CPU at a time (``_WORKERS``: the first on the calling thread,
the rest on one process-wide thread pool); the parts depend on the arch
alone and 64-row parts are bitwise the chunk's walk, so every byte is the
same whatever the CPU count. An MLP walks whole chunks on the calling
thread.
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

import os
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import reads, settle
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

    _READ_BY = {
        "step_size": (AttackFamily.PGD, AttackFamily.CW_PGD, AttackFamily.SPSA),
        "iterations": (AttackFamily.PGD, AttackFamily.CW_PGD, AttackFamily.SPSA),
        "start_noise_scale": (AttackFamily.PGD, AttackFamily.CW_PGD),
        "spsa_samples": (AttackFamily.SPSA,), "spsa_perturb": (AttackFamily.SPSA,)}

    def __post_init__(self):
        settle(self)
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if reads(self, self.family, "step_size") and self.step_size <= 0:
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it), else ``os.cpu_count()``, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Rows per part of a conv-stem chunk: the batch-chunk rule's 64, so the
# parts' walks are bitwise the chunk's.
_PART_ROWS = 64
# Parts walked at a time: one on the calling thread, the rest on _pool.
_WORKERS = _usable_cpus()
_pool = None  # the ThreadPoolExecutor _executor builds
_M_MMAP_THRESHOLD, _M_ARENA_MAX = -3, -8  # glibc's <malloc.h>


def _executor():
    """The process-wide thread pool that walks all but the first part of a
    window, built on first use: importing virlab loads no executor, which
    would add milliseconds to every start.

    Just before, glibc's malloc is set for the whole process (skipped
    where the C library has no mallopt); no byte changes. It keeps one
    arena (``M_ARENA_MAX`` 1): a worker thread's own arena would keep the
    memory the worker frees, which the calling thread could not reuse. And
    it maps every block of 4 MB or more on its own (``M_MMAP_THRESHOLD``,
    fixed): the training backward's patch array (7.4 MB at the paper
    shape) then needs no hole that size in the heap the two threads share,
    where it found none in some runs and grew the heap by its size."""
    global _pool
    if _pool is None:
        import ctypes
        from concurrent.futures import ThreadPoolExecutor
        libc = ctypes.CDLL(None) if os.name == "posix" else None
        mallopt = getattr(libc, "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
            mallopt(_M_ARENA_MAX, 1)
            mallopt(_M_MMAP_THRESHOLD, 4 << 20)
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="virlab-attack")
    return _pool


def _drop_pool() -> None:
    """Forget the pool in a forked child, whose copy of it has no threads:
    a part submitted to it would wait forever."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


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

    A conv-stem model's chunk is walked as consecutive 64-row parts
    (``_walk_parts``), _WORKERS at a time. The calling thread draws the
    chunk's start noise before its parts run, and each part takes its rows
    of it; SPSA rows and kappa stay keyed by global row; the sink gets
    whole chunks, in row order, on the calling thread. The parts depend on
    the arch alone, so x_adv, first_miss and the sink's calls do not
    depend on the worker count.

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
    for s, chunk in chunks:
        rows = slice(s, s + len(chunk))
        chunk = np.asarray(chunk, dtype=np.float64)
        start = (None if noise is None
                 else spec.start_noise_scale * noise.standard_normal(chunk.shape))
        adv, miss = _walk_parts(model, chunk, y[rows], spec, record_first_miss,
                                start, s)
        if sink is None:
            x_adv[rows] = adv
        else:
            sink(s, adv)
        if first_miss is not None:
            first_miss[rows] = miss
        del adv  # not held through the next chunk's walk
    return x_adv, first_miss


def _walk_parts(model: Classifier, x: np.ndarray, y: np.ndarray,
                spec: AttackSpec, record_first_miss: bool,
                start: np.ndarray | None, first_row: int,
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """``_walk`` over one chunk. A conv-stem model's chunk is cut into
    consecutive parts of _PART_ROWS rows from its first row, walked up to
    _WORKERS at a time: the window's first part on the calling thread, the
    rest on the pool. Every part of a window has finished before its
    results, or its first error in row order, are taken, so no part
    outlives the call. An MLP walks the whole chunk on the calling thread:
    its steps are a few microseconds of BLAS each, held up by the GIL."""
    if model.arch.conv is None or len(x) <= _PART_ROWS:
        return _walk(model, x, y, spec, record_first_miss, start, first_row)

    def walk(a: int):
        p = slice(a, a + _PART_ROWS)
        return _walk(model, x[p], y[p], spec, record_first_miss,
                     None if start is None else start[p], first_row + a)
    firsts = range(0, len(x), _PART_ROWS)
    walked = []
    for w in range(0, len(firsts), _WORKERS):
        window = firsts[w:w + _WORKERS]
        futures = [_executor().submit(walk, a) for a in window[1:]]
        try:
            walked.append(walk(window[0]))
        finally:
            for f in futures:
                f.exception()  # waits for the part, raising nothing
        walked += [f.result() for f in futures]
    advs, misses = zip(*walked)
    return (np.concatenate(advs),
            np.concatenate(misses) if record_first_miss else None)


def _walk(model: Classifier, x: np.ndarray, y: np.ndarray, spec: AttackSpec,
          record_first_miss: bool, start: np.ndarray | None,
          first_row: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``_attack`` on rows x and y, whose first row is row first_row of the
    split: ``start`` is their start noise, already scaled (None for none),
    SPSA rows are keyed from first_row, and the KL reference is x's own."""
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
        if start is not None:
            cur += start
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
    (f(x + d*r) - f(x - d*r)) / (2d) * r, summed in direction order from
    +0.0 by one reduction over the directions: bitwise a per-direction
    ``estimate += delta * r`` loop from zeros, -0.0 terms included.
    """
    directions = rng.integers(0, 2, size=(num_samples, x.size)) * 2.0 - 1.0
    steps = perturb * directions.reshape((num_samples,) + x.shape)
    points = np.empty((num_samples, 2) + x.shape, dtype=dtype)
    np.add(x, steps, out=points[:, 0])
    np.subtract(x, steps, out=points[:, 1])
    losses = point_losses(points.reshape((2 * num_samples,) + x.shape))
    deltas = (losses[0::2] - losses[1::2]) / (2.0 * perturb)
    terms = np.multiply(deltas[:, None], directions, out=directions)
    estimate = np.add.reduce(terms, axis=0, initial=0.0).reshape(x.shape)
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
