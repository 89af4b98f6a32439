"""Instance-weight assignment: VIR, GAIRAT, MAIL, and uniform.

VIR scores each sample by how vulnerable it is (low true-class probability
on the natural input) times how far the attack moved its prediction
(KL between natural and adversarial output rows), plus a floor beta.
All scores are computed on detached predictions; weights enter the loss
as constants.

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

from .errors import ConfigError, DataFormatError, ShapeError
from .models import Classifier, predict_probs
from .tensor import Tensor, kl_divergence


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
    floor, or (for MAIL) the logistic slope and center."""

    family: WeightFamily
    alpha: float = 7.0
    gamma: float = 10.0
    beta: float = 0.007
    lambda_g: float = -1.0
    k_pgd: int = 10
    burn_in_epoch: int = 75

    def __post_init__(self):
        if isinstance(self.family, str):
            object.__setattr__(self, "family", WeightFamily(self.family))
        if self.family is WeightFamily.VIR:
            if self.alpha <= 0:
                raise ConfigError(f"alpha must be positive, got {self.alpha}")
            if self.gamma < 1:
                raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
            if self.beta < 0:
                raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.k_pgd < 1:
            raise ConfigError(f"k_pgd must be >= 1, got {self.k_pgd}")
        if self.burn_in_epoch < 0:
            raise ConfigError(f"burn_in_epoch must be >= 0, got {self.burn_in_epoch}")

    @classmethod
    def vir_at(cls, burn_in_epoch: int = 75) -> "WeightScheme":
        return cls(WeightFamily.VIR, alpha=7.0, gamma=10.0, beta=0.007,
                   burn_in_epoch=burn_in_epoch)


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
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError(f"prob_true must lie in [0, 1], got range "
                         f"[{p.min()}, {p.max()}]")
    out = alpha * np.exp(-gamma * p)
    return float(out) if np.isscalar(prob_true) or p.ndim == 0 else out


def discrepancy_score(p_nat, p_adv):
    """KL(p_nat || p_adv) on detached probability rows.

    1-D inputs give a float, matrices a per-row array.
    """
    p = np.asarray(p_nat, dtype=np.float64)
    q = np.asarray(p_adv, dtype=np.float64)
    single = p.ndim == 1
    if single:
        p, q = p[None, :], q[None, :]
    rows = kl_divergence(Tensor(p), Tensor(q)).data
    return float(rows[0]) if single else rows


def vir_weight(s_v, s_d, beta: float):
    """The combined weight s_v * s_d + beta; beta is an exact lower bound."""
    return s_v * s_d + beta


def gairat_weight(k, k_pgd: int, lambda_g: float = -1.0):
    """(1 + tanh(lambda + 5*(1 - 2k/K))) / 2: fewer steps to break, more weight."""
    karr = np.asarray(k, dtype=np.float64)
    if karr.min() < 0 or karr.max() > k_pgd:
        raise ValueError(f"k must lie in [0, {k_pgd}]")
    out = (1.0 + np.tanh(lambda_g + 5.0 * (1.0 - 2.0 * karr / k_pgd))) / 2.0
    return float(out) if karr.ndim == 0 else out


def probability_margin(p_adv, y) -> np.ndarray:
    """Per row, p_adv[i, y_i] minus the best non-true probability, in [-1, 1]."""
    p = np.asarray(p_adv, dtype=np.float64)
    y = np.asarray(y)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ConfigError("probability margin needs rows over >= 2 classes")
    if y.shape != (p.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match {p.shape[0]} rows")
    if y.min(initial=0) < 0 or y.max(initial=0) >= p.shape[1]:
        raise IndexError(f"label out of range for {p.shape[1]} classes")
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
                  x_nat, x_adv, y, k_values=None,
                  ablation: Ablation = Ablation.FULL,
                  indices=None,
                  ) -> tuple[np.ndarray, list[WeightRecord]]:
    """Per-sample weights for one batch, plus the log records.

    Any epoch <= burn_in_epoch emits exactly 1.0 everywhere; afterwards the
    scheme's family decides. GAIRAT needs k_values from the least-steps
    probe. All predictions are detached: no gradient reaches the weights.

    ``indices`` supplies dataset-level sample indices for the records
    (defaults to batch positions).
    """
    x_nat = np.asarray(x_nat, dtype=np.float64)
    x_adv = np.asarray(x_adv, dtype=np.float64)
    y = np.asarray(y)
    if x_nat.shape != x_adv.shape or y.shape != (x_nat.shape[0],):
        raise ShapeError("x_nat, x_adv, y are not batch-aligned")
    n = x_nat.shape[0]
    idx = np.arange(n) if indices is None else np.asarray(indices)
    if idx.shape != (n,):
        raise ShapeError("indices are not batch-aligned")

    p_nat = predict_probs(model, x_nat)
    prob_true = p_nat[np.arange(n), y]

    s_v = np.full(n, np.nan)
    s_d = np.full(n, np.nan)
    have_scores = False
    if epoch <= scheme.burn_in_epoch or scheme.family is WeightFamily.UNIFORM:
        w = np.ones(n)
    elif scheme.family is WeightFamily.VIR:
        p_adv = predict_probs(model, x_adv)
        s_v = vulnerability_score(prob_true, scheme.alpha, scheme.gamma)
        s_d = discrepancy_score(p_nat, p_adv)
        have_scores = True
        if ablation is Ablation.FULL:
            w = vir_weight(s_v, s_d, scheme.beta)
        elif ablation is Ablation.SV_ONLY:
            w = s_v.copy()
        else:
            w = s_d.copy()
    elif scheme.family is WeightFamily.GAIRAT:
        if k_values is None:
            raise ConfigError("GAIRAT weighting requires k_values from the probe")
        k_values = np.asarray(k_values)
        if k_values.shape != (n,):
            raise ShapeError("k_values are not batch-aligned")
        w = gairat_weight(k_values, scheme.k_pgd, scheme.lambda_g)
    else:  # MAIL
        p_adv = predict_probs(model, x_adv)
        w = mail_weight(probability_margin(p_adv, y), scheme.gamma, scheme.beta)

    scores = (s_v.tolist(), s_d.tolist()) if have_scores else ([None] * n,) * 2
    records = list(map(WeightRecord, [epoch] * n, idx.tolist(), y.tolist(),
                       prob_true.tolist(), *scores, w.tolist()))
    return w, records


WEIGHT_CSV_HEADER = ["epoch", "sample_index", "class", "prob_true", "s_v", "s_d", "weight"]


def write_weight_records(records: list[WeightRecord], fh) -> None:
    """Append records as CSV rows (a score the family does not compute is
    an empty cell); writes the header if fh is at offset 0."""
    writer = csv.writer(fh, lineterminator="\n")
    if fh.tell() == 0:
        writer.writerow(WEIGHT_CSV_HEADER)
    writer.writerows(records)


def read_weight_records(path) -> list[WeightRecord]:
    """Parse a weights.csv; a foreign header or a bad row is a DataFormatError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != WEIGHT_CSV_HEADER:
            raise DataFormatError(f"{path}:1: unexpected weight CSV header {header}")
        out = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(WEIGHT_CSV_HEADER):
                raise DataFormatError(f"{path}:{line_no}: {len(row)} fields, "
                                      f"expected {len(WEIGHT_CSV_HEADER)}")
            try:
                out.append(WeightRecord(
                    epoch=int(row[0]), sample_index=int(row[1]),
                    class_label=int(row[2]), prob_true=float(row[3]),
                    s_v=float(row[4]) if row[4] else None,
                    s_d=float(row[5]) if row[5] else None,
                    weight=float(row[6]),
                ))
            except ValueError as e:
                raise DataFormatError(f"{path}:{line_no}: {e}") from None
        return out
