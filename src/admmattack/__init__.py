"""Gradient-free constrained optimization for black-box adversarial attacks.

ADMM operator splitting with zeroth-order random gradient estimation
(ZO-ADMM) or Gaussian-process Bayesian optimization (BO-ADMM) delta-steps,
closed-form proximal z-steps for l0/l1/l2/elastic-net distortions, and
bundled victim classifiers for end-to-end evaluation.
"""

from .admm import (
    AdmmConfig,
    DeltaBackend,
    InfeasibleInitializer,
    RunReport,
    run_attack,
)
from .bo import BoConfig, BoDeltaSolver, ei_gradient, expected_improvement
from .core import (
    AttackMode,
    Distortion,
    ProblemSpec,
    RngStream,
    box_feasible,
    distortion_value,
    lp_norms,
    project_box_linf,
)
from .gp import GpHyper, GpModel
from .grad_est import RgeConfig, rge_with_base
from .losses import (
    FeedbackMode,
    LossConfig,
    ModelOracle,
    ProcessOracle,
    QueryOracle,
    decision_loss,
    is_success,
    score_loss,
    smoothed_decision_loss,
)
from .prox import ZStepInput, zstep, zstep_elastic, zstep_l0, zstep_l1, zstep_l2
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
    "BoDeltaSolver",
    "Dataset",
    "DeltaBackend",
    "Distortion",
    "FeedbackMode",
    "GpHyper",
    "GpModel",
    "InfeasibleInitializer",
    "LossConfig",
    "MlpModel",
    "ModelOracle",
    "ProblemSpec",
    "ProcessOracle",
    "QueryOracle",
    "RgeConfig",
    "RngStream",
    "RunReport",
    "SoftmaxModel",
    "ZStepInput",
    "box_feasible",
    "decision_loss",
    "digits8x8",
    "distortion_value",
    "ei_gradient",
    "expected_improvement",
    "is_success",
    "load_weights",
    "lp_norms",
    "project_box_linf",
    "rge_with_base",
    "run_attack",
    "save_weights",
    "score_loss",
    "smoothed_decision_loss",
    "train",
    "zstep",
    "zstep_elastic",
    "zstep_l0",
    "zstep_l1",
    "zstep_l2",
]

__version__ = "0.1.0"
