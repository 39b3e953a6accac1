"""Gradient-free constrained optimization for black-box adversarial attacks.

ADMM operator splitting with zeroth-order random gradient estimation
(ZO-ADMM) or Gaussian-process Bayesian optimization (BO-ADMM) delta-steps,
closed-form proximal z-steps for l0/l1/l2/elastic-net distortions, and
bundled victim classifiers for end-to-end evaluation.

The package root exports what a library user calls (README, "Library");
everything else is imported from its module, as ``admmattack.prox.zstep``.
"""

from .admm import (
    AdmmConfig,
    DeltaBackend,
    InfeasibleInitializer,
    RunReport,
    run_attack,
)
from .bo import BoConfig
from .core import AttackMode, Distortion, ProblemSpec, RngStream
from .grad_est import RgeConfig
from .losses import FeedbackMode, LossConfig, ModelOracle, QueryOracle
from .victim import (
    Dataset,
    MlpModel,
    SoftmaxModel,
    digits8x8,
    load_weights,
    save_weights,
    train,
)

__all__ = [
    "AdmmConfig",
    "AttackMode",
    "BoConfig",
    "Dataset",
    "DeltaBackend",
    "Distortion",
    "FeedbackMode",
    "InfeasibleInitializer",
    "LossConfig",
    "MlpModel",
    "ModelOracle",
    "ProblemSpec",
    "QueryOracle",
    "RgeConfig",
    "RngStream",
    "RunReport",
    "SoftmaxModel",
    "digits8x8",
    "load_weights",
    "run_attack",
    "save_weights",
    "train",
]

__version__ = "0.1.0"
