"""Training losses: AT and TRADES, each weighted per example.

The objective names the loss; ``reweight`` decides every weight (uniform
gives plain AT and TRADES, VIR gives VIR-AT and VIR-TRADES). Weights
multiply only the term their formulation targets: the adversarial CE for
AT, the KL regularizer for TRADES (whose natural CE term stays
unweighted). They enter as plain arrays, i.e. constants in the graph, and
every objective reduces by batch mean.

at_loss and trades_loss are the unit-weight forms: multiplying by 1.0 is
exact, so values and gradients are bitwise the unweighted formulas'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .codec import settle
from .errors import ConfigError, ShapeError
from .models import Classifier
from .reweight import WeightFamily, WeightScheme
from .tensor import Tensor, cross_entropy_rows, kl_divergence, softmax


class ObjectiveFamily(Enum):
    AT = "AT"
    TRADES = "TRADES"


@dataclass(frozen=True)
class ObjectiveSpec:
    family: ObjectiveFamily
    trade_off: float = 5.0
    weight_scheme: WeightScheme = field(
        default_factory=lambda: WeightScheme(WeightFamily.VIR))

    _READ_BY = {"trade_off": (ObjectiveFamily.TRADES,)}

    def __post_init__(self):
        settle(self)
        if self.family is ObjectiveFamily.TRADES and self.trade_off <= 0:
            raise ConfigError(f"trade_off must be positive, got {self.trade_off}")


def _check_weights(weights, batch: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (batch,):
        raise ShapeError(f"weights shape {w.shape} does not match batch {batch}")
    return w


def vir_at_loss(model: Classifier, x_nat, x_adv, y, weights) -> Tensor:
    """AT: mean over the batch of w_i * CE(f(x_adv_i), y_i); x_nat is unused."""
    x_adv = np.asarray(x_adv, dtype=np.float64)
    w = _check_weights(weights, x_adv.shape[0])
    rows = cross_entropy_rows(model.forward(Tensor(x_adv)), y)
    return (Tensor(w) * rows).mean()


def at_loss(model: Classifier, x_adv, y) -> Tensor:
    """AT with unit weights: mean CE on attacked inputs."""
    return vir_at_loss(model, x_adv, x_adv, y, np.ones(len(y)))


def trades_loss(model: Classifier, x_nat, x_adv, y, trade_off: float) -> Tensor:
    """TRADES with unit weights."""
    return vir_trades_loss(model, x_nat, x_adv, y, trade_off, np.ones(len(y)))


def vir_trades_loss(model: Classifier, x_nat, x_adv, y, trade_off: float,
                    weights) -> Tensor:
    """TRADES: mean of CE(f(x_i), y_i) + trade_off * w_i * KL(f(x_i) || f(x_adv_i)).

    trade_off is the 1/lambda factor; gradient flows through both the
    natural and adversarial logits of the KL term. The natural CE term
    stays unweighted.
    """
    if trade_off <= 0:
        raise ConfigError(f"trade_off must be positive, got {trade_off}")
    x_nat = np.asarray(x_nat, dtype=np.float64)
    x_adv = np.asarray(x_adv, dtype=np.float64)
    if x_nat.shape != x_adv.shape:
        raise ShapeError(f"x_nat {x_nat.shape} and x_adv {x_adv.shape} differ")
    w = _check_weights(weights, x_nat.shape[0])
    z_nat = model.forward(Tensor(x_nat))
    z_adv = model.forward(Tensor(x_adv))
    ce = cross_entropy_rows(z_nat, y)
    kl = kl_divergence(softmax(z_nat), softmax(z_adv))
    return (ce + trade_off * (Tensor(w) * kl)).mean()

