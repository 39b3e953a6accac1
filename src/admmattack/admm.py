"""Outer ADMM loop with linearized zeroth-order or BO delta-steps.

Each iteration performs, in order: the proximal z-step (a = delta - u/rho),
the delta-step (RGE closed form or one BO round), the dual update
u += rho (z - delta), and a one-query success probe on the feasible
perturbation candidate. The delta-step sends that probe with its last loss
evaluations (see make_delta_step), so it is the iteration's last query.

The success probe and best-iterate bookkeeping use z, which is feasible by
construction and carries the configured distortion structure (e.g. the
sparsity induced by the l0 z-step); delta itself is the unconstrained
splitting variable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import prox
from .bo import BoConfig, BoDeltaSolver
from .core import (
    ProblemSpec,
    RngStream,
    check_fields,
    distortion_value,
    lp_norms,
    project_box_linf,
)
from .grad_est import DirectionSource, RgeConfig, rge_with_base
from .losses import (
    FeedbackMode,
    LossConfig,
    QueryOracle,
    is_success,
    score_loss,
    smoothed_decision_loss,
)


class DeltaBackend(enum.Enum):
    ZO = "zo"
    BO = "bo"


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 10.0
    alpha: float = 1.0  # step-size schedule eta_k = alpha * sqrt(k)
    max_queries: int = 20000
    success_then_refine: bool = True
    delta_backend: DeltaBackend = DeltaBackend.ZO

    def __post_init__(self):
        check_fields(self, positive=("rho", "alpha"), counts={"max_queries": 0})


@dataclass
class BestIterate:
    perturbation: np.ndarray | None = None
    dist_value: float = math.inf
    queries_at_success: int | None = None  # None until the first success
    norms: tuple = (0, 0.0, 0.0, 0.0)  # lp_norms(perturbation), taken when it is set


@dataclass
class AttackState:
    delta: np.ndarray
    z: np.ndarray
    u: np.ndarray
    k: int = 0
    best: BestIterate = field(default_factory=BestIterate)
    # the run's z-step problem, built by its first iteration; only its a changes
    zstep_input: prox.ZStepInput | None = None


@dataclass
class IterationRecord:
    k: int
    loss: float
    dist_value: float
    l0: int
    l1: float
    l2: float
    linf: float
    cumulative_queries: int
    success: bool


@dataclass
class RunReport:
    """Per-run trace plus first-success statistics."""

    config: dict
    records: list[IterationRecord] = field(default_factory=list)
    success: bool = False
    queries_first_success: int | None = None
    final_perturbation: np.ndarray | None = None
    final_norms: tuple = (0, 0.0, 0.0, 0.0)
    total_queries: int = 0


class InfeasibleInitializer(ValueError):
    """Decision-mode initializer does not meet the attack goal."""


def delta_zo_step(
    state: AttackState,
    cfg: AdmmConfig,
    rge_cfg: RgeConfig,
    loss,
    rng: RngStream,
) -> tuple[np.ndarray, float]:
    """Linearized closed-form delta update; consumes Q+1 loss evaluations.

    With b = z + u/rho and eta_k = alpha*sqrt(k):
        delta' = (eta_k * delta + rho * b - g_hat) / (eta_k + rho)
    Returns (delta', loss(delta)) reusing the RGE base evaluation.
    """
    if state.k < 1:
        raise ValueError("iteration index must start at 1")
    b = state.z + state.u / cfg.rho
    eta = cfg.alpha * math.sqrt(state.k)
    g_hat, base = rge_with_base(loss, state.delta, rge_cfg, rng)
    if not np.isfinite(g_hat).all():
        raise ValueError("non-finite gradient estimate")
    delta = eta * state.delta  # the update above, formed in place
    b *= cfg.rho
    delta += b
    delta -= g_hat
    delta /= eta + cfg.rho
    return delta, base


def make_loss(
    spec: ProblemSpec,
    loss_cfg: LossConfig,
    oracle: QueryOracle,
    rng: RngStream,
):
    """Attack loss over a stack of perturbations (n, d), n values, clamping
    query points to [0,1]^d.

    loss(delta, probe) also sends x0 + probe, for a perturbation probe (d,),
    as the last row of the same oracle call and returns (the n values,
    whether the attack goal is met there).
    """
    def loss(delta, probe=None):
        probed = probe is not None
        n = len(delta)
        x = np.empty((n + 1 if probed else n, spec.dim))
        np.add(spec.x0, delta, out=x[:n])
        if probed:
            np.add(spec.x0, probe, out=x[n])
        x.clip(0.0, 1.0, out=x)
        if loss_cfg.mode is FeedbackMode.SCORE:
            return score_loss(oracle, x, spec, probed)
        return smoothed_decision_loss(oracle, x, spec, loss_cfg, rng, probed)

    return loss


def make_delta_step(
    spec: ProblemSpec,
    cfg: AdmmConfig,
    rge_cfg: RgeConfig | None = None,
    bo_cfg: BoConfig | None = None,
):
    """(step, loss evaluations per step) for cfg.delta_backend.

    step(state after the z-step, loss, rng) returns (delta, loss value,
    success). The loss call whose points bring the step's count to evals
    sends loss(points, state.z), with the success probe at z as its last
    row, and success is that probe's answer. Every earlier call sends
    loss(points); a step that sends more or fewer points raises ValueError.
    """
    zo = cfg.delta_backend is DeltaBackend.ZO
    if zo:
        rge_cfg = rge_cfg or RgeConfig()
        evals = rge_cfg.q + 1
    else:
        solver = BoDeltaSolver(spec.x0, spec.epsilon, bo_cfg or BoConfig())
        evals = solver.cfg.init_samples + solver.cfg.max_bo_iters

    def step(state, loss, rng):
        sent, answers = 0, []

        def f_loss(points):
            nonlocal sent
            sent += len(points)
            if sent < evals:
                return loss(points)
            if sent > evals:
                raise ValueError(f"the delta-step sent more than its {evals} loss evaluations")
            values, success = loss(points, state.z)
            answers.append(success)
            return values

        if zo:
            delta, loss_val = delta_zo_step(state, cfg, rge_cfg, f_loss, rng)
        else:
            delta = solver.step(state.z + state.u / cfg.rho, cfg.rho, f_loss, rng)
            loss_val = solver.best_f
        (success,) = answers  # exactly one probe
        return delta, loss_val, success

    return step, evals


def _keep_best(best: BestIterate, v: np.ndarray, spec: ProblemSpec, success: bool,
               queries: int):
    """(D(v), best), where best takes v on a first success, reached at the
    ledger count ``queries``, or on a success of lower distortion."""
    dval = distortion_value(v, spec.distortion, spec.beta)
    first = best.queries_at_success
    if success and (first is None or dval < best.dist_value):
        best = BestIterate(np.array(v), dval, queries if first is None else first, lp_norms(v))
    return dval, best


def admm_iterate(
    state: AttackState,
    spec: ProblemSpec,
    cfg: AdmmConfig,
    oracle: QueryOracle,
    rng: RngStream,
    loss,
    delta_step,
):
    """One full ADMM iteration; returns (new state, iteration record).

    delta_step is the first element of make_delta_step's result.
    """
    zin = state.zstep_input
    if zin is None:
        zin = prox.ZStepInput(a=np.empty(spec.dim), x0=spec.x0, epsilon=spec.epsilon,
                              gamma=spec.gamma, rho=cfg.rho, distortion=spec.distortion,
                              beta=spec.beta)
    np.subtract(state.delta, state.u / cfg.rho, out=zin.a)
    z = prox.zstep(zin)

    # the state after the z-step; the rest of the iteration completes it
    new = AttackState(delta=state.delta, z=z, u=state.u, k=state.k + 1, best=state.best,
                      zstep_input=zin)
    new.delta, loss_val, success = delta_step(new, loss, rng)
    # u + rho (z - delta), on the new array
    new.u = z - new.delta
    new.u *= cfg.rho
    new.u += state.u

    # The success probe is z, feasible by construction of the z-step.
    dval, new.best = _keep_best(state.best, z, spec, success, oracle.queries_used)
    # l0, l1, l2 and linf of the best success so far, or of z before the first
    norms = new.best.norms if new.best.perturbation is not None else lp_norms(z)
    record = IterationRecord(new.k, loss_val, dval, *norms,
                             cumulative_queries=oracle.queries_used, success=success)
    return new, record


def run_attack(
    spec: ProblemSpec,
    cfg: AdmmConfig,
    loss_cfg: LossConfig,
    oracle: QueryOracle,
    rng: RngStream,
    rge_cfg: RgeConfig | None = None,
    bo_cfg: BoConfig | None = None,
    init_delta: np.ndarray | None = None,
) -> RunReport:
    """Drive a full attack run and return its report.

    Score mode starts from delta = z = u = 0 and refuses an ``init_delta``.
    Decision mode requires an initializer perturbation that meets the attack
    goal (typically x_target - x0, or untargeted, any x of another class
    minus x0); it is projected and verified with one label query. A
    ``spec.num_classes`` other than the oracle's known class count is
    refused before any query.
    """
    if oracle.num_classes not in (None, spec.num_classes):
        raise ValueError(f"the spec has {spec.num_classes} classes, "
                         f"the oracle's victim {oracle.num_classes}")
    delta0, best, rows_per_eval = np.zeros(spec.dim), BestIterate(), 1
    if loss_cfg.mode is FeedbackMode.DECISION:
        rows_per_eval = loss_cfg.smoothing_samples
        if init_delta is None:
            raise ValueError("decision mode requires an initial perturbation")
        delta0 = project_box_linf(spec.x0, init_delta, spec.epsilon)
        x = spec.x0 + delta0
        if not is_success(oracle, x.clip(0.0, 1.0, out=x), spec):
            raise InfeasibleInitializer("initial perturbed input does not meet the attack goal")
        _, best = _keep_best(best, delta0, spec, True, oracle.queries_used)
    elif init_delta is not None:
        raise ValueError("score mode starts from zero; it takes no initial perturbation")
    state = AttackState(delta=delta0, z=np.array(delta0), u=np.zeros(spec.dim), best=best)

    rge_cfg = rge_cfg or RgeConfig()
    delta_step, evals = make_delta_step(spec, cfg, rge_cfg, bo_cfg)
    loss = make_loss(spec, loss_cfg, oracle, rng.child(1))
    iter_rng = rng.child(2)

    report = RunReport(config={
        "rho": cfg.rho,
        "alpha": cfg.alpha,
        "max_queries": cfg.max_queries,
        "backend": cfg.delta_backend.value,
        "feedback": loss_cfg.mode.value,
        "distortion": spec.distortion.value,
        "epsilon": spec.epsilon,
        "gamma": spec.gamma,
        "kappa": spec.kappa,
        "beta": spec.beta,
        "target": spec.target,
        "attack_mode": spec.attack_mode.value,
    })

    # Per-iteration query cost is known up front, so the budget is a hard
    # cap: an iteration that could not finish within it never starts. Every
    # iteration charges at least its success probe, so the budget ends the loop.
    iter_cost = evals * rows_per_eval + 1

    start_queries = oracle.queries_used
    # ZO's RGE directions depend on the iteration stream alone, so under
    # score feedback a DirectionSource that owns the stream draws them ahead,
    # on a thread that the finally joins. BO's draws interleave with
    # data-dependent fallbacks, so BO keeps the stream; so do decision runs,
    # whose unit_ball loop holds the GIL that the thread would need.
    source = None
    if cfg.delta_backend is DeltaBackend.ZO and loss_cfg.mode is FeedbackMode.SCORE:
        source = DirectionSource(iter_rng, rge_cfg.q, spec.dim, cfg.max_queries // iter_cost)
    try:
        while oracle.queries_used - start_queries + iter_cost <= cfg.max_queries:
            if state.best.queries_at_success is not None and not cfg.success_then_refine:
                break
            state, record = admm_iterate(state, spec, cfg, oracle, source or iter_rng, loss,
                                         delta_step)
            report.records.append(record)
    finally:
        if source is not None:
            source.close()

    best = state.best
    if best.queries_at_success is not None:
        report.success = True
        report.queries_first_success = best.queries_at_success - start_queries
        report.final_perturbation = best.perturbation
        report.final_norms = best.norms
    report.total_queries = oracle.queries_used - start_queries
    return report
