"""Desk-scale adversarial training with vulnerability-aware instance reweighting.

The pieces compose bottom-up: a small reverse-mode tensor engine, MLP/conv
classifiers on top of it, white- and black-box attacks, per-sample weight
schemes (VIR, GAIRAT, MAIL), the weighted training objectives, a Gaussian-
mixture theory module with closed-form class risks, and a deterministic
training/evaluation harness with CSV artifacts.
"""

__version__ = "0.1.0"
