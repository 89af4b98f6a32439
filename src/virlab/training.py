"""Training loop, evaluation harness, and hyperparameter sweeps.

One train() call runs the whole recipe: per batch, attack the natural
inputs (batch b of epoch e seeds its attack from the config seed's
SeedSequence spawned at (e, b)), score the instance weights (all 1.0 until
the burn-in epoch has passed), take one SGD-with-momentum step on the
configured objective, and log. Everything emitted (config.json,
metrics.csv, weights.csv, confusion CSVs, checkpoint) is a pure function
of the config, byte for byte, and written atomically
(``codec.atomic_open``). A non-finite logit or loss ends the run in one
NonFiniteError naming the batch or evaluation it hit.
Only the training loss builds an autodiff graph.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .attacks import (AttackFamily, AttackSpec, LossMode, min_pgd_steps,
                      run_attack)
from .codec import atomic_open, canonical_json, to_obj, write_csv
from .config import (OptimConfig, TrainConfig, config_from_obj, config_to_obj,
                     set_dotted)
from .data import Dataset, batch_indices
from .errors import ConfigError, NonFiniteError
from .models import Classifier, predict_labels, save_checkpoint
from .objectives import ObjectiveFamily, vir_at_loss, vir_trades_loss
from .reweight import (WEIGHT_CSV_HEADER, WeightFamily, batch_weights,
                       write_weight_records)

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


def check_fits(model: Classifier, dataset: Dataset) -> None:
    """ConfigError naming the mismatch unless the dataset's rows and labels
    fit the model's input width and class count."""
    arch = model.arch
    if dataset.dim != arch.input_dim:
        raise ConfigError(f"dataset has {dataset.dim} features, model takes {arch.input_dim}")
    if dataset.num_classes > arch.num_classes:
        raise ConfigError(f"dataset has {dataset.num_classes} classes, model only {arch.num_classes}")


def evaluate(model: Classifier, dataset: Dataset,
             attack_specs: list[AttackSpec]) -> EvalReport:
    """Clean and per-attack accuracy with one confusion matrix per condition.

    Confusion rows are true classes, columns predictions; per-class accuracy
    is the clean diagonal over row sums (0 for absent classes). Each attack
    runs over the whole dataset in one call, so a row's randomness is keyed
    by its dataset index.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    check_fits(model, dataset)
    c = model.arch.num_classes
    x, y = dataset.features, dataset.labels
    pred = predict_labels(model, x)
    confusions = {"clean": _confusion(y, pred, c)}
    clean_acc = float((pred == y).mean())

    robust: dict[str, float] = {}
    for name, spec in zip(condition_names(attack_specs), attack_specs):
        pred_adv = predict_labels(model, run_attack(model, x, y, spec))
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
    best_epoch: int | None = None

    def csv_rows(self):
        """metrics.csv: the header, one row per epoch, then the final (last)
        and best epochs' rows again under their own row_kind."""
        yield (["row_kind", "epoch", "lr", "train_loss", "clean_acc"]
               + [f"robust_acc_{n}" for n in self.attack_names]
               + [f"acc_class_{i}" for i in range(self.num_classes)]
               + [f"weight_sum_class_{i}" for i in range(self.num_classes)])
        best = [r for r in self.rows if r.epoch == self.best_epoch]
        for kind, rows in (("epoch", self.rows), ("final", self.rows[-1:]),
                           ("best", best)):
            for r in rows:
                yield [kind, r.epoch, r.lr, r.train_loss, r.clean_accuracy,
                       *(r.robust_accuracy.get(n) for n in self.attack_names),
                       *r.per_class_accuracy, *r.weight_sums]


# -- training loop -------------------------------------------------------------


def _train_attack_spec(config: TrainConfig, epoch: int, batch_idx: int) -> AttackSpec:
    """attack_train seeded from the config seed's SeedSequence spawned at
    (epoch, batch); its own seed is always 0 (TrainConfig rejects any other)."""
    seq = np.random.SeedSequence(config.seed, spawn_key=(epoch, batch_idx))
    return replace(config.attack_train, seed=int(seq.generate_state(1, np.uint64)[0]))


def _batch_loss(model, objective, x_nat, x_adv, y, weights):
    if objective.family is ObjectiveFamily.AT:
        return vir_at_loss(model, x_nat, x_adv, y, weights)
    return vir_trades_loss(model, x_nat, x_adv, y, objective.trade_off, weights)


def train(config: TrainConfig, out_dir: str | None = None,
          ) -> tuple[Classifier, MetricsLog]:
    """Run the full training recipe; optionally write every artifact to out_dir.

    out_dir gets config.json first; a run that raises writes no other
    artifact (weights.csv is streamed to a temporary file until the end).

    Per batch: attack, weight, step. After burn-in (weights are 1.0 before
    it) GAIRAT counts kappa on a CE-mode PGD walk of attack_train out of
    K = its iterations; a CE PGD training attack is that walk, run once.
    """
    train_set, eval_on = config.dataset.load()
    model = Classifier(config.arch(train_set), seed=config.seed)
    check_fits(model, eval_on)
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
        if weights_fh is not None:
            weights_fh.write(",".join(WEIGHT_CSV_HEADER) + "\n")
        best_score = -np.inf
        where = ""  # the batch or evaluation running, for the error message
        try:
            for epoch in range(1, config.epochs + 1):
                lr = lr_at(epoch, config.optimizer)
                loss_total, seen = 0.0, 0
                weight_sums = np.zeros(model.arch.num_classes)
                log_weights = weights_fh is not None and (
                    epoch % config.log_weights_every == 0 or epoch == config.epochs)
                for batch_idx, idx in enumerate(
                    batch_indices(len(train_set), config.batch_size,
                                  config.seed, epoch)
                ):
                    where = f"at epoch {epoch}, batch {batch_idx}"
                    xb = train_set.features[idx]
                    yb = train_set.labels[idx]
                    spec = _train_attack_spec(config, epoch, batch_idx)
                    probe = k_values = None
                    if (scheme.family is WeightFamily.GAIRAT
                            and epoch > scheme.burn_in_epoch):
                        probe = replace(spec, family=AttackFamily.PGD,
                                        loss_mode=LossMode.CE)
                        x_adv, k_values = min_pgd_steps(model, xb, yb, probe)
                    if probe != spec:  # the probe's walk is not the attack's
                        x_adv = run_attack(model, xb, yb, spec)
                    w, records = batch_weights(
                        scheme, epoch, model, xb, x_adv, yb, k_values=k_values,
                        k_budget=spec.iterations, indices=idx,
                    )
                    np.add.at(weight_sums, yb, w)
                    if log_weights:
                        write_weight_records(records, weights_fh)

                    loss = _batch_loss(model, config.objective, xb, x_adv, yb, w)
                    if not np.isfinite(loss.data):
                        raise NonFiniteError("non-finite loss")
                    model.zero_grad()
                    loss.backward()
                    sgd_step(model.params, lr, config.optimizer.momentum,
                             config.optimizer.weight_decay, velocity)
                    loss_total += loss.item() * len(idx)
                    seen += len(idx)

                run_robust = (epoch % config.eval_every == 0
                              or epoch == config.epochs)
                # The last step can push parameters non-finite after every
                # batch loss was checked; the eval forward then meets it.
                where = f"during evaluation at epoch {epoch}"
                report = evaluate(model, eval_on,
                                  config.attack_eval if run_robust else [])
                robust: dict[str, float | None] = {
                    n: report.robust_accuracy.get(n) for n in attack_names
                }
                log.rows.append(MetricsRow(
                    epoch=epoch, lr=lr,
                    train_loss=loss_total / max(seen, 1),
                    clean_accuracy=report.clean_accuracy,
                    robust_accuracy=robust,
                    per_class_accuracy=report.per_class_accuracy.tolist(),
                    weight_sums=weight_sums.tolist(),
                ))
                if run_robust:
                    score = (report.mean_robust_accuracy
                             if report.mean_robust_accuracy is not None
                             else report.clean_accuracy)
                    if score > best_score:
                        best_score = score
                        log.best_epoch = epoch
        except NonFiniteError as e:  # a non-finite logit or loss, wherever met
            raise NonFiniteError(f"numeric failure {where}: {e}") from e

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


def sweep(config: TrainConfig, grid: dict[str, list] | None = None,
          out_dir: str | None = None) -> list[dict]:
    """Train+evaluate once per point of the product of the grid's values.

    grid maps dotted config paths (the paths ``--set`` takes) to the values
    to try, in ``itertools.product`` order; no grid is one point. A point is
    built as a ``--set`` run is: ``config_to_obj``, ``set_dotted`` per path,
    ``config_from_obj``. Point i (row i of sweep.csv) writes to
    out_dir/run_<i>. sweep.csv's columns are the grid paths, then status,
    error, clean_acc and a robust_acc_<cond> for every condition any point
    evaluated; a grid cell holds its value as JSON, as ``--set`` takes
    it. An empty axis is a ConfigError before anything is written.
    A ConfigError or NonFiniteError fails only its own row, unless every row
    fails: then sweep.csv is still written and the first point's error is
    raised.
    """
    grid = {path: [to_obj(v) for v in values]
            for path, values in (grid or {}).items()}
    for path, values in grid.items():
        if not values:
            raise ConfigError(f"sweep grid axis {path} is empty")

    rows, failures = [], []
    for i, values in enumerate(product(*grid.values())):
        row = dict(zip(grid, values), status="ok", error="", clean_acc=None)
        try:
            # Inside the try: a grid value the config rejects fails its own
            # row, not the sweep.
            obj = config_to_obj(config)
            for path, value in zip(grid, values):
                set_dotted(obj, path, value)
            run_dir = None if out_dir is None else os.path.join(out_dir, f"run_{i}")
            _, log = train(config_from_obj(obj), out_dir=run_dir)
            final = log.rows[-1]
            row["clean_acc"] = final.clean_accuracy
            for n, acc in final.robust_accuracy.items():
                row[f"robust_acc_{n}"] = acc
        except (ConfigError, NonFiniteError) as e:
            row.update(status="failed", error=f"{type(e).__name__}: {e}")
            failures.append(e)
        rows.append(row)
    # A grid over attack_eval gives points different eval conditions.
    header = list(dict.fromkeys(key for row in rows for key in row))
    rows = [{**dict.fromkeys(header), **row} for row in rows]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "sweep.csv"), [header] + [
            [v if k not in grid or isinstance(v, str) else canonical_json(v)
             for k, v in row.items()] for row in rows])
    if failures and len(failures) == len(rows):
        raise failures[0]
    return rows
