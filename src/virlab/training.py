"""Training loop, evaluation harness, and hyperparameter sweeps.

One train() call runs the whole recipe: per batch, attack the natural
inputs, score the instance weights (all 1.0 until the burn-in epoch has
passed), take one SGD-with-momentum step on the configured objective, and
log. Everything emitted (config.json, metrics.csv, weights.csv, confusion
CSVs, checkpoint) is a pure function of the config, byte for byte, and
written atomically (``codec.atomic_open``).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import (AttackFamily, AttackSpec, LossMode, min_pgd_steps,
                      run_attack)
from .codec import atomic_open, canonical_json, write_csv
from .config import OptimConfig, TrainConfig, config_to_obj
from .data import Dataset, batch_indices
from .errors import ConfigError, NonFiniteError, NumericAbort
from .models import Classifier, save_checkpoint
from .objectives import (ObjectiveFamily, at_loss, trades_loss, vir_at_loss,
                         vir_trades_loss)
from .reweight import (WeightFamily, WeightRecord, batch_weights,
                       write_weight_records)

_MASK64 = (1 << 64) - 1


def mix_seed(*parts: int) -> int:
    """Fold integers into one well-spread 64-bit seed (splitmix64 chain)."""
    state = 0x9E3779B97F4A7C15
    for p in parts:
        state = (state + int(p)) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


# -- optimizer -----------------------------------------------------------------


def sgd_step(params: dict, lr: float, momentum: float, weight_decay: float,
             velocity: dict) -> None:
    """One momentum-SGD update, in place.

    v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v.
    Weight decay folds into the gradient before the momentum buffer.
    """
    for name, p in params.items():
        if p.grad is None:
            raise RuntimeError(f"parameter {name!r} has no gradient")
        g = p.grad + weight_decay * p.data
        v = velocity.get(name)
        v = g if v is None or momentum == 0.0 else momentum * v + g
        velocity[name] = v
        p.data = p.data - lr * v


def lr_at(epoch: int, optim: OptimConfig) -> float:
    """base_lr / decay_factor^(#milestones <= epoch); epochs are 1-indexed,
    so the decay lands at the start of each milestone epoch.
    """
    if epoch < 1:
        raise ConfigError(f"epochs are 1-indexed, got {epoch}")
    drops = sum(1 for m in optim.milestones if m <= epoch)
    return optim.base_lr / optim.decay_factor**drops


# -- evaluation ----------------------------------------------------------------


def condition_names(specs: list[AttackSpec]) -> list[str]:
    """Stable printable name per attack condition: family, deduped _2, _3..."""
    names, seen = [], {}
    for spec in specs:
        base = spec.family.value.lower()
        seen[base] = seen.get(base, 0) + 1
        names.append(base if seen[base] == 1 else f"{base}_{seen[base]}")
    return names


@dataclass
class EvalReport:
    clean_accuracy: float
    robust_accuracy: dict[str, float]
    confusions: dict[str, np.ndarray]
    per_class_accuracy: np.ndarray

    @property
    def mean_robust_accuracy(self) -> float | None:
        if not self.robust_accuracy:
            return None
        return float(np.mean(list(self.robust_accuracy.values())))


def _confusion(y_true: np.ndarray, y_pred: np.ndarray, c: int) -> np.ndarray:
    m = np.zeros((c, c), dtype=np.int64)
    np.add.at(m, (y_true, y_pred), 1)
    return m


def evaluate(model: Classifier, dataset: Dataset,
             attack_specs: list[AttackSpec]) -> EvalReport:
    """Clean and per-attack accuracy with one confusion matrix per condition.

    Confusion rows are true classes, columns predictions; per-class accuracy
    is the clean diagonal over row sums (0 for absent classes). Each attack
    runs over the whole dataset in one call so its per-sample seeds key off
    global sample indices.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    c = model.arch.num_classes
    if dataset.num_classes > c:
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes, model only {c}"
        )
    x, y = dataset.features, dataset.labels
    pred = np.argmax(model.forward(x).data, axis=1)
    confusions = {"clean": _confusion(y, pred, c)}
    clean_acc = float((pred == y).mean())

    robust: dict[str, float] = {}
    for name, spec in zip(condition_names(attack_specs), attack_specs):
        x_adv = run_attack(model, x, y, spec)
        pred_adv = np.argmax(model.forward(x_adv).data, axis=1)
        confusions[name] = _confusion(y, pred_adv, c)
        robust[name] = float((pred_adv == y).mean())

    row_sums = confusions["clean"].sum(axis=1)
    diag = np.diag(confusions["clean"])
    per_class = np.where(row_sums > 0, diag / np.maximum(row_sums, 1), 0.0)
    return EvalReport(clean_acc, robust, confusions, per_class)


# -- metrics log ---------------------------------------------------------------


@dataclass
class MetricsRow:
    epoch: int
    lr: float
    train_loss: float
    clean_accuracy: float
    robust_accuracy: dict[str, float | None]
    per_class_accuracy: list[float]
    weight_sums: list[float]


@dataclass
class MetricsLog:
    attack_names: list[str]
    num_classes: int
    rows: list[MetricsRow] = field(default_factory=list)
    final_epoch: int | None = None
    best_epoch: int | None = None

    def csv_rows(self):
        """metrics.csv: the header, one row per epoch, then the final and
        best epochs' rows again under their own row_kind."""
        yield (["row_kind", "epoch", "lr", "train_loss", "clean_acc"]
               + [f"robust_acc_{n}" for n in self.attack_names]
               + [f"acc_class_{i}" for i in range(self.num_classes)]
               + [f"weight_sum_class_{i}" for i in range(self.num_classes)])
        by_epoch = {r.epoch: r for r in self.rows}
        kinds = [("epoch", r.epoch) for r in self.rows]
        for kind, epoch in kinds + [("final", self.final_epoch),
                                    ("best", self.best_epoch)]:
            if epoch in by_epoch:
                r = by_epoch[epoch]
                yield [kind, r.epoch, r.lr, r.train_loss, r.clean_accuracy,
                       *(r.robust_accuracy.get(n) for n in self.attack_names),
                       *r.per_class_accuracy, *r.weight_sums]


# -- training loop -------------------------------------------------------------


def _train_attack_spec(config: TrainConfig, epoch: int, batch_idx: int) -> AttackSpec:
    """Fresh per-batch randomness, still a pure function of the config seed."""
    return replace(config.attack_train,
                   seed=mix_seed(config.seed, epoch, batch_idx))


def _batch_loss(model, objective, x_nat, x_adv, y, weights):
    fam = objective.family
    if fam is ObjectiveFamily.AT:
        return at_loss(model, x_adv, y)
    if fam is ObjectiveFamily.VIR_AT:
        return vir_at_loss(model, x_nat, x_adv, y, weights)
    if fam is ObjectiveFamily.TRADES:
        return trades_loss(model, x_nat, x_adv, y, objective.trade_off)
    return vir_trades_loss(model, x_nat, x_adv, y, objective.trade_off, weights)


def train(config: TrainConfig, out_dir: str | None = None,
          ) -> tuple[Classifier, MetricsLog]:
    """Run the full training recipe; optionally write every artifact to out_dir.

    out_dir gets config.json first; a run that raises writes no other
    artifact (weights.csv is streamed to a temporary file until the end).

    Per batch: attack, weight, step. GAIRAT runs its least-steps probe
    only after burn-in (weights are 1.0 before it, so the probe would be
    wasted work).
    """
    train_set, eval_set = config.dataset.load()
    eval_on = eval_set if eval_set is not None else train_set
    model = Classifier(config.arch(train_set), seed=config.seed)
    scheme = config.objective.weight_scheme
    attack_names = condition_names(config.attack_eval)
    log = MetricsLog(attack_names, model.arch.num_classes)
    velocity: dict[str, np.ndarray] = {}

    weights_file = nullcontext()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_open(os.path.join(out_dir, "config.json")) as fh:
            fh.write(canonical_json(config_to_obj(config)) + "\n")
        weights_file = atomic_open(os.path.join(out_dir, "weights.csv"))

    with weights_file as weights_fh:
        best_score = -np.inf
        for epoch in range(1, config.epochs + 1):
            lr = lr_at(epoch, config.optimizer)
            loss_total, seen = 0.0, 0
            epoch_records: list[WeightRecord] = []
            for batch_idx, idx in enumerate(
                batch_indices(len(train_set), config.batch_size,
                              config.seed, epoch)
            ):
                xb = train_set.features[idx]
                yb = train_set.labels[idx]
                spec = _train_attack_spec(config, epoch, batch_idx)
                try:
                    x_adv = run_attack(model, xb, yb, spec)

                    k_values = None
                    if (scheme.family is WeightFamily.GAIRAT
                            and epoch > scheme.burn_in_epoch):
                        probe = replace(spec, family=AttackFamily.PGD,
                                        loss_mode=LossMode.CE,
                                        iterations=scheme.k_pgd)
                        k_values = min_pgd_steps(model, xb, yb, probe)
                    w, records = batch_weights(
                        scheme, epoch, model, xb, x_adv, yb, k_values=k_values,
                        ablation=config.objective.ablation, indices=idx,
                    )
                    epoch_records.extend(records)

                    loss = _batch_loss(model, config.objective, xb, x_adv, yb, w)
                except NonFiniteError as e:
                    # Overflowing parameters surface as non-finite-logit
                    # errors inside the attack or loss; label them with the
                    # position.
                    raise NumericAbort(
                        f"numeric failure at epoch {epoch}, batch {batch_idx}: {e}"
                    ) from e
                if not np.isfinite(loss.data):
                    raise NumericAbort(
                        f"non-finite loss at epoch {epoch}, batch {batch_idx}"
                    )
                model.zero_grad()
                loss.backward()
                sgd_step(model.params, lr, config.optimizer.momentum,
                         config.optimizer.weight_decay, velocity)
                loss_total += loss.item() * len(idx)
                seen += len(idx)

            weight_sums = [0.0] * model.arch.num_classes
            for r in epoch_records:
                weight_sums[r.class_label] += r.weight
            if weights_fh is not None and (
                epoch % config.log_weights_every == 0 or epoch == config.epochs
            ):
                write_weight_records(epoch_records, weights_fh)

            run_robust = (epoch % config.eval_every == 0
                          or epoch == config.epochs)
            try:
                report = evaluate(model, eval_on,
                                  config.attack_eval if run_robust else [])
            except NonFiniteError as e:
                # A step can push parameters non-finite after the last
                # batch loss was checked; the divergence then surfaces in
                # the eval forward instead.
                raise NumericAbort(
                    f"numeric failure during evaluation at epoch {epoch}: {e}"
                ) from e
            robust: dict[str, float | None] = {
                n: report.robust_accuracy.get(n) for n in attack_names
            }
            log.rows.append(MetricsRow(
                epoch=epoch, lr=lr,
                train_loss=loss_total / max(seen, 1),
                clean_accuracy=report.clean_accuracy,
                robust_accuracy=robust,
                per_class_accuracy=[float(v) for v in report.per_class_accuracy],
                weight_sums=weight_sums,
            ))
            if run_robust:
                score = (report.mean_robust_accuracy
                         if report.mean_robust_accuracy is not None
                         else report.clean_accuracy)
                if score > best_score:
                    best_score = score
                    log.best_epoch = epoch
        log.final_epoch = config.epochs

    if out_dir is not None:
        write_csv(os.path.join(out_dir, "metrics.csv"), log.csv_rows())
        save_checkpoint(model, os.path.join(out_dir, "checkpoint.ckpt"),
                        epoch=config.epochs, rng_seed=config.seed)
        # The final epoch always runs the full robust eval on the final model.
        write_confusions(report, out_dir)
    return model, log


def write_confusions(report: EvalReport, out_dir: str) -> None:
    """confusion_<condition>.csv: C rows of C integer counts, no header."""
    for name, matrix in report.confusions.items():
        write_csv(os.path.join(out_dir, f"confusion_{name}.csv"), matrix.tolist())


# -- sweeps --------------------------------------------------------------------


def sweep(config: TrainConfig, alphas=None, gammas=None, betas=None,
          out_dir: str | None = None) -> list[dict]:
    """Train+evaluate once per (alpha, gamma, beta) grid point.

    Missing axes default to the config's current value. Failures are
    recorded in the row and the sweep continues.
    """
    scheme = config.objective.weight_scheme
    alphas = [scheme.alpha] if alphas is None else list(alphas)
    gammas = [scheme.gamma] if gammas is None else list(gammas)
    betas = [scheme.beta] if betas is None else list(betas)
    attack_names = condition_names(config.attack_eval)
    header = (["alpha", "gamma", "beta", "status", "error", "clean_acc"]
              + [f"robust_acc_{n}" for n in attack_names])

    rows = []
    for a in alphas:
        for g in gammas:
            for b in betas:
                row = dict.fromkeys(header)
                row.update(alpha=a, gamma=g, beta=b, status="ok", error="")
                try:
                    # Inside the try: an invalid grid value should fail its
                    # own row, not kill the sweep.
                    point = replace(
                        config,
                        objective=replace(
                            config.objective,
                            weight_scheme=replace(scheme, alpha=a, gamma=g,
                                                  beta=b),
                        ),
                    )
                    run_dir = None
                    if out_dir is not None:
                        run_dir = os.path.join(
                            out_dir, f"run_a{a}_g{g}_b{b}".replace(".", "p")
                        )
                    _, log = train(point, out_dir=run_dir)
                    final = log.rows[-1]
                    row["clean_acc"] = final.clean_accuracy
                    for n in attack_names:
                        row[f"robust_acc_{n}"] = final.robust_accuracy[n]
                except Exception as e:  # noqa: BLE001 - record and continue
                    row["status"] = "failed"
                    row["error"] = f"{type(e).__name__}: {e}"
                rows.append(row)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "sweep.csv"),
                  [header] + [list(row.values()) for row in rows])
    return rows
