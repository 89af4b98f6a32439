"""Instance-weight assignment: VIR, GAIRAT, MAIL, and uniform.

This module alone decides each example's weight; the objective (AT or
TRADES) only applies it, and uniform weights give the plain objective.
VIR scores each sample by how vulnerable it is (low true-class probability
on the natural input) times how far the attack moved its prediction
(KL between natural and adversarial output rows), plus a floor beta.
All scores are computed on plain predictions, with no autodiff graph;
weights enter the loss as constants.

Weight records serialize to CSV as
``epoch,sample_index,class,prob_true,s_v,s_d,weight`` with empty cells for
scores a family does not compute.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .codec import read_csv
from .errors import ConfigError, ShapeError
from .models import Classifier, predict_probs
from .tensor import _check_kl_pair, _check_labels, _kl_rows


class WeightFamily(Enum):
    VIR = "VIR"
    GAIRAT = "GAIRAT"
    MAIL = "MAIL"
    UNIFORM = "UNIFORM"


class Ablation(Enum):
    FULL = "FULL"
    SV_ONLY = "SV_ONLY"
    SD_ONLY = "SD_ONLY"


@dataclass(frozen=True)
class WeightScheme:
    """Family plus hyperparameters. gamma and beta are the VIR exponent and
    floor, or (for MAIL) the logistic slope and center. Only VIR takes an
    ablation other than FULL."""

    family: WeightFamily
    alpha: float = 7.0
    gamma: float = 10.0
    beta: float = 0.007
    lambda_g: float = -1.0
    burn_in_epoch: int = 75
    ablation: Ablation = Ablation.FULL

    def __post_init__(self):
        if isinstance(self.family, str):
            object.__setattr__(self, "family", WeightFamily(self.family))
        if isinstance(self.ablation, str):
            object.__setattr__(self, "ablation", Ablation(self.ablation))
        if self.ablation is not Ablation.FULL and self.family is not WeightFamily.VIR:
            raise ConfigError(f"ablation {self.ablation.value} needs family VIR, "
                              f"got {self.family.value}")
        if self.family is WeightFamily.VIR:
            if self.alpha <= 0:
                raise ConfigError(f"alpha must be positive, got {self.alpha}")
            if self.gamma < 1:
                raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
            if self.beta < 0:
                raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.burn_in_epoch < 0:
            raise ConfigError(f"burn_in_epoch must be >= 0, got {self.burn_in_epoch}")


class WeightRecord(NamedTuple):
    epoch: int
    sample_index: int
    class_label: int
    prob_true: float
    s_v: float | None
    s_d: float | None
    weight: float


def vulnerability_score(prob_true, alpha: float, gamma: float):
    """alpha * exp(-gamma * prob_true): large when the true class is unlikely.

    Strictly decreasing in prob_true, with range [alpha*e^-gamma, alpha].
    Accepts scalars or arrays of probabilities.
    """
    p = np.asarray(prob_true, dtype=np.float64)
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both
        raise ValueError(f"prob_true must lie in [0, 1], got range "
                         f"[{p.min()}, {p.max()}]")
    out = alpha * np.exp(-gamma * p)
    return float(out) if np.isscalar(prob_true) or p.ndim == 0 else out


def discrepancy_score(p_nat, p_adv):
    """KL(p_nat || p_adv) of checked probability rows, with no graph.

    1-D inputs give a float, matrices a per-row array.
    """
    p = np.asarray(p_nat, dtype=np.float64)
    q = np.asarray(p_adv, dtype=np.float64)
    single = p.ndim == 1
    if single:
        p, q = p[None, :], q[None, :]
    rows = _kl_rows(*_check_kl_pair(p, q))
    return float(rows[0]) if single else rows


def vir_weight(s_v, s_d, beta: float):
    """The combined weight s_v * s_d + beta; beta is an exact lower bound."""
    return s_v * s_d + beta


def gairat_weight(k, k_budget: int, lambda_g: float = -1.0):
    """(1 + tanh(lambda + 5*(1 - 2k/K))) / 2: fewer steps to break, more weight."""
    karr = np.asarray(k, dtype=np.float64)
    if not (karr.min() >= 0 and karr.max() <= k_budget):  # NaN fails both
        raise ValueError(f"k must lie in [0, {k_budget}]")
    out = (1.0 + np.tanh(lambda_g + 5.0 * (1.0 - 2.0 * karr / k_budget))) / 2.0
    return float(out) if karr.ndim == 0 else out


def probability_margin(p_adv, y) -> np.ndarray:
    """Per row, p_adv[i, y_i] minus the best non-true probability, in [-1, 1]."""
    p = np.asarray(p_adv, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ConfigError("probability margin needs rows over >= 2 classes")
    y = _check_labels(y, *p.shape)
    rows = np.arange(p.shape[0])
    others = p.copy()
    others[rows, y] = -np.inf
    return p[rows, y] - others.max(axis=1)


def mail_weight(pm, gamma_m: float = 10.0, beta_m: float = 0.0):
    """sigmoid(-gamma * (pm - beta)): strictly decreasing in the margin."""
    t = np.atleast_1d(-gamma_m * (np.asarray(pm, dtype=np.float64) - beta_m))
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    grown = np.exp(t[~pos])
    out[~pos] = grown / (1.0 + grown)
    return float(out[0]) if np.isscalar(pm) or np.asarray(pm).ndim == 0 else out


def batch_weights(scheme: WeightScheme, epoch: int, model: Classifier,
                  x_nat, x_adv, y, k_values=None, k_budget: int | None = None,
                  indices=None,
                  ) -> tuple[np.ndarray, list[WeightRecord]]:
    """Per-sample weights for one batch, plus the log records.

    Any epoch <= burn_in_epoch emits exactly 1.0 everywhere; afterwards the
    scheme's family decides. GAIRAT needs the least-steps probe's k_values
    and their budget k_budget. No gradient reaches the weights.

    ``indices`` supplies dataset-level sample indices for the records
    (defaults to batch positions).
    """
    x_nat = np.asarray(x_nat, dtype=np.float64)
    x_adv = np.asarray(x_adv, dtype=np.float64)
    if x_nat.shape != x_adv.shape:
        raise ShapeError("x_nat and x_adv are not batch-aligned")
    n = x_nat.shape[0]
    y = _check_labels(y, n, model.arch.num_classes)
    idx = np.arange(n) if indices is None else np.asarray(indices)
    if idx.shape != (n,):
        raise ShapeError("indices are not batch-aligned")

    p_nat = predict_probs(model, x_nat)
    prob_true = p_nat[np.arange(n), y]

    scores = ([None] * n,) * 2  # s_v and s_d, which only VIR computes
    if epoch <= scheme.burn_in_epoch or scheme.family is WeightFamily.UNIFORM:
        w = np.ones(n)
    elif scheme.family is WeightFamily.VIR:
        p_adv = predict_probs(model, x_adv)
        s_v = vulnerability_score(prob_true, scheme.alpha, scheme.gamma)
        s_d = discrepancy_score(p_nat, p_adv)
        scores = (s_v.tolist(), s_d.tolist())
        if scheme.ablation is Ablation.FULL:
            w = vir_weight(s_v, s_d, scheme.beta)
        elif scheme.ablation is Ablation.SV_ONLY:
            w = s_v
        else:
            w = s_d
    elif scheme.family is WeightFamily.GAIRAT:
        if k_values is None or k_budget is None:
            raise ConfigError("GAIRAT needs k_values and k_budget from the probe")
        k_values = np.asarray(k_values)
        if k_values.shape != (n,):
            raise ShapeError("k_values are not batch-aligned")
        w = gairat_weight(k_values, k_budget, scheme.lambda_g)
    else:  # MAIL
        p_adv = predict_probs(model, x_adv)
        w = mail_weight(probability_margin(p_adv, y), scheme.gamma, scheme.beta)

    records = list(map(WeightRecord, [epoch] * n, idx.tolist(), y.tolist(),
                       prob_true.tolist(), *scores, w.tolist()))
    return w, records


WEIGHT_CSV_HEADER = ["epoch", "sample_index", "class", "prob_true", "s_v", "s_d", "weight"]


def write_weight_records(records: list[WeightRecord], fh) -> None:
    """Append records to fh as weights.csv rows under WEIGHT_CSV_HEADER,
    which the caller writes once (a score the family does not compute is an
    empty cell)."""
    csv.writer(fh, lineterminator="\n").writerows(records)


def read_weight_records(path) -> list[WeightRecord]:
    """Parse a weights.csv; a foreign header or a bad row is a DataFormatError."""
    def parser(header):
        if header != WEIGHT_CSV_HEADER:
            raise ValueError(f"unexpected weight CSV header {header}")
        return lambda row: WeightRecord(
            int(row[0]), int(row[1]), int(row[2]), float(row[3]),
            *(float(v) if v else None for v in row[4:6]), float(row[6]))
    return read_csv(path, parser)[1]
