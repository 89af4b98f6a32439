"""Desk-scale adversarial training with vulnerability-aware instance reweighting.

The pieces compose bottom-up: a small reverse-mode tensor engine, MLP/conv
classifiers on top of it, white- and black-box attacks, per-sample weight
schemes (VIR, GAIRAT, MAIL), the weighted training objectives, a Gaussian-
mixture theory module with closed-form class risks, and a deterministic
training/evaluation harness with CSV artifacts.
"""

from .attacks import (AttackFamily, AttackSpec, LossMode, cw_pgd, fgsm,
                      min_pgd_steps, pgd, run_attack, spsa,
                      spsa_gradient_estimate)
from .config import (DataSource, ModelConfig, OptimConfig, TrainConfig,
                     desk_profile, paper_profile, resolve_config)
from .data import (Dataset, batch_indices, from_gmm, load_csv, load_idx,
                   save_csv, save_idx, simplex_means, synth_multiclass)
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     NumericAbort, ShapeError)
from .gmm import (CorollaryReport, GmmSpec, LinearClassifier, RiskReport,
                  corollary_check, margin_true_class_prob, monte_carlo_risks,
                  optimal_linear, risk_report, sample_gmm, std_normal_cdf,
                  theorem1_risks)
from .models import (Arch, Classifier, ConvStem, load_checkpoint,
                     predict_labels, predict_probs, save_checkpoint)
from .objectives import (ObjectiveFamily, ObjectiveSpec, at_loss, trades_loss,
                         vir_at_loss, vir_trades_loss)
from .reweight import (Ablation, WeightFamily, WeightRecord, WeightScheme,
                       batch_weights, discrepancy_score, gairat_weight,
                       mail_weight, probability_margin, read_weight_records,
                       vir_weight, vulnerability_score, write_weight_records)
from .tensor import Tensor, cross_entropy_rows, kl_divergence, softmax
from .training import (EvalReport, MetricsLog, MetricsRow, evaluate, lr_at,
                       sgd_step, sweep, train)

__version__ = "0.1.0"
