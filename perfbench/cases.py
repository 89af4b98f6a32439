"""Fixed-size layer cases at the desk and paper shapes (traced runs only).

desk:  batch 64 of dim 8, MLP 8-64-64-3 (the desk profile).
paper: batch 128 of 28x28, conv stem 8x5x5 -> dense 4608-128-64-10.

Op cases time each Tensor op's forward, then ``.sum().backward()`` on a fresh
graph, and report milliseconds per call. Layer cases time one call of a
public function of the other layers. Each figure is the median over several
groups of calls. Cases run with tracing off and do not depend on the
workload, so every traced run reports all of them.
"""

from __future__ import annotations

import io
import os
from dataclasses import replace
from statistics import median
from time import perf_counter

import numpy as np
from virlab import (attacks, config, data, models, objectives, reweight,
                    tensor, training)
from virlab.tensor import Tensor

import fixture

DESK_BATCH = 64
PAPER_BATCH = 128
SPSA_DIRECTIONS = 256


def _op_case(op, make_args, groups: int, per_group: int) -> tuple[float, float]:
    """Median ms per forward call, and per backward of its ``.sum()``."""
    fwd, bwd = [], []
    for _ in range(groups):
        args = [make_args() for _ in range(per_group)]
        t0 = perf_counter()
        outs = [op(*a) for a in args]
        t1 = perf_counter()
        sums = [o.sum() for o in outs]
        t2 = perf_counter()
        for s in sums:
            s.backward()
        t3 = perf_counter()
        fwd.append((t1 - t0) * 1e3 / per_group)
        bwd.append((t3 - t2) * 1e3 / per_group)
    return median(fwd), median(bwd)


def _ms(fn, groups: int, per_group: int = 1) -> float:
    """Median ms per call of fn() over ``groups`` groups of calls."""
    times = []
    for _ in range(groups):
        t0 = perf_counter()
        for _ in range(per_group):
            fn()
        times.append((perf_counter() - t0) * 1e3 / per_group)
    return median(times)


def op_cases(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(np.random.PCG64(seed))
    h = rng.standard_normal((DESK_BATCH, 64))
    w = rng.standard_normal((64, 64)) * 0.1
    b = rng.standard_normal(64)
    z = rng.standard_normal((DESK_BATCH, 3))
    labels = rng.integers(0, 3, DESK_BATCH)
    p = tensor._softmax_values(rng.standard_normal((DESK_BATCH, 3)))
    q = tensor._softmax_values(rng.standard_normal((DESK_BATCH, 3)))
    a_paper = rng.standard_normal((PAPER_BATCH, 4608))
    w_paper = rng.standard_normal((4608, 128)) * 0.01
    x_paper, _ = fixture.make_images(PAPER_BATCH, seed)

    def leaves(*arrays):
        return lambda: [Tensor(v, requires_grad=True) for v in arrays]

    cases = {
        "matmul.desk": (lambda u, v: u @ v, leaves(h, w), 7, 200),
        "add.desk": (lambda u, v: u + v, leaves(h, b), 7, 200),
        "relu.desk": (lambda u: u.relu(), leaves(h), 7, 200),
        "softmax.desk": (tensor.softmax, leaves(z), 7, 200),
        "cross_entropy_rows.desk": (
            lambda u: tensor.cross_entropy_rows(u, labels), leaves(z), 7, 200),
        "kl_divergence.desk": (tensor.kl_divergence, leaves(p, q), 7, 200),
        "matmul.paper": (lambda u, v: u @ v, leaves(a_paper, w_paper), 5, 2),
        "sliding_patches.paper": (
            lambda u: tensor.sliding_patches(u, 28, 28, 5), leaves(x_paper), 5, 1),
    }
    out = {}
    for key, (op, make_args, groups, per_group) in cases.items():
        name, shape = key.split(".")
        fwd, bwd = _op_case(op, make_args, groups, per_group)
        out[f"tensor.{name}.fwd_ms.{shape}"] = fwd
        out[f"tensor.{name}.bwd_ms.{shape}"] = bwd
    return out


def _ce_of_row(model, label):
    def f(row):
        zrow = model.forward(Tensor(row[None, :])).data
        m = zrow.max()
        return float(m + np.log(np.exp(zrow - m).sum()) - zrow[0, label])
    return f


def _shape_cases(shape: str, x, y, num_classes: int, seed: int,
                 groups: int, per_group: int):
    """Cases of one shape; also returns the model, scheme and epoch used."""
    cfg = config.resolve_config(shape)
    model = models.Classifier(cfg.model.arch(x.shape[1], num_classes), seed=seed)
    pgd_iter = replace(cfg.attack_train, iterations=1, seed=seed)
    fgsm_spec = next(s for s in cfg.attack_eval
                     if s.family is attacks.AttackFamily.FGSM)
    x_adv = attacks.pgd(model, x, y, pgd_iter)
    scheme = cfg.objective.weight_scheme
    epoch = scheme.burn_in_epoch + 1  # past burn-in: the VIR branch
    idx = np.arange(len(y))
    weights, _ = reweight.batch_weights(scheme, epoch, model, x, x_adv, y,
                                        indices=idx)
    objectives.vir_at_loss(model, x, x_adv, y, weights).backward()
    velocity: dict = {}
    ce_row = _ce_of_row(model, int(y[0]))

    def spsa_estimate():
        rng = np.random.default_rng(np.random.PCG64(seed))
        attacks.spsa_gradient_estimate(ce_row, x[0], SPSA_DIRECTIONS,
                                       pgd_iter.spsa_perturb, rng)

    cases = {
        "models.forward.ms": (lambda: model.forward(Tensor(x)), per_group),
        "attacks.pgd_iter.ms": (lambda: attacks.pgd(model, x, y, pgd_iter), 1),
        "attacks.fgsm.ms": (lambda: attacks.fgsm(model, x, y, fgsm_spec), 1),
        "attacks.spsa_gradient_estimate.ms": (spsa_estimate, 1),
        "reweight.batch_weights.ms": (
            lambda: reweight.batch_weights(scheme, epoch, model, x, x_adv, y,
                                           indices=idx), per_group),
        "objectives.vir_at_loss.ms": (
            lambda: objectives.vir_at_loss(model, x, x_adv, y, weights), per_group),
        "training.sgd_step.ms": (
            lambda: training.sgd_step(model.params, 1e-6, 0.9, 5e-4, velocity),
            per_group),
    }
    if shape == "paper":
        cw_iter = next(s for s in cfg.attack_eval
                       if s.family is attacks.AttackFamily.CW_PGD)
        cw_iter = replace(cw_iter, iterations=1)
        cases["attacks.cw_pgd_iter.ms"] = (
            lambda: attacks.cw_pgd(model, x, y, cw_iter), 1)
    return {f"{name}.{shape}": _ms(fn, groups, n)
            for name, (fn, n) in cases.items()}, model, scheme, epoch


def layer_cases(work_dir: str, seed: int) -> dict[str, float]:
    desk_set, _ = config.resolve_config("desk").dataset.load()
    desk_batches = list(data.batch_indices(len(desk_set), DESK_BATCH, seed, 1))
    first = desk_batches[0]
    out, desk_model, scheme, epoch = _shape_cases(
        "desk", desk_set.features[first], desk_set.labels[first],
        desk_set.num_classes, seed, groups=7, per_group=20)

    # One desk epoch of weight records (600 samples), formatted in memory.
    records = []
    for idx in desk_batches:
        xb, yb = desk_set.features[idx], desk_set.labels[idx]
        records += reweight.batch_weights(scheme, epoch, desk_model, xb,
                                          xb + 0.01, yb, indices=idx)[1]
    out["reweight.write_weight_records.ms.desk"] = _ms(
        lambda: reweight.write_weight_records(records, io.StringIO()), 7)

    x_paper, y_paper = fixture.make_images(PAPER_BATCH, seed)
    paper, paper_model, _, _ = _shape_cases(
        "paper", x_paper, y_paper, fixture.NUM_CLASSES, seed, groups=3,
        per_group=2)
    out.update(paper)
    ckpt = os.path.join(work_dir, "case.ckpt")
    out["models.save_checkpoint.ms.paper"] = _ms(
        lambda: models.save_checkpoint(paper_model, ckpt), 5)
    out["models.load_checkpoint.ms.paper"] = _ms(
        lambda: models.load_checkpoint(ckpt), 5)
    out["models.checkpoint_bytes.paper"] = os.path.getsize(ckpt)
    out["data.batch_indices.ms.paper"] = _ms(
        lambda: list(data.batch_indices(60000, PAPER_BATCH, seed, 1)), 5)
    return out
