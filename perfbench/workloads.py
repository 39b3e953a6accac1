"""The three closed-loop attack workloads, their set-up and output checks.

One attacking process, one in-process victim, one query in flight: the
library sends the next query only after the previous reply. All workloads
attack the
acceptance-suite victim (softmax, 100 epochs, lr 0.5, RngStream(7), on
digits8x8; d = 64, K = 10) with l2 distortion, eps = 1, gamma = 1, rho = 10,
on pairs from ``cli._select_pairs``.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from admmattack.admm import AdmmConfig, DeltaBackend, run_attack
from admmattack.bo import BoConfig
from admmattack.cli import _find_exemplar, _select_pairs
from admmattack.core import Distortion, ProblemSpec, RngStream, box_feasible
from admmattack.grad_est import RgeConfig
from admmattack.losses import FeedbackMode, LossConfig, ModelOracle
from admmattack.victim import SoftmaxModel, digits8x8, train

from perfbench.tracer import BoundaryProxy, Tracer, array_rows


@dataclass(frozen=True)
class Workload:
    name: str
    backend: DeltaBackend
    feedback: FeedbackMode
    budget: int
    refine: bool
    default_seed: int
    pool: int  # pairs whose first pass gives the quality metrics
    # True when the seed may move the attack trajectory. BO stops at first
    # success, so its per-pair cost follows the RNG (0.7 s to 18 s per
    # pair); its trajectories stay on the criterion-10 streams and the
    # seed only orders the pool.
    seed_moves_trajectory: bool = True
    # Pairs per timing block; the run's timings are medians over blocks.
    # ZO pairs all spend their budget, so one pair is a block. BO pairs
    # differ (10 s to 16 s), so its block is a whole pass of the pool: the
    # same work in every run, timed over the whole pass.
    block: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # criterion 7: score feedback, refine on; every pair spends its budget
        Workload("zo-score", DeltaBackend.ZO, FeedbackMode.SCORE, 20000,
                 refine=True, default_seed=1, pool=25),
        # criterion 8: label-only victim, exemplar initializer, smoothing
        Workload("zo-decision", DeltaBackend.ZO, FeedbackMode.DECISION, 10000,
                 refine=True, default_seed=108, pool=20),
        # criterion 10: BO backend, stop at first success
        Workload("bo-score", DeltaBackend.BO, FeedbackMode.SCORE, 1900,
                 refine=False, default_seed=110, pool=3,
                 seed_moves_trajectory=False, block=3),
    )
}

VICTIM_SEED = 7


@dataclass(frozen=True)
class Pair:
    index: int  # position in the _select_pairs order; keys the RNG child
    image: int
    target: int
    x0: np.ndarray
    init_delta: np.ndarray | None


@dataclass
class PairResult:
    pair: Pair
    wall_s: float
    boundary_s: float
    ledger: int  # queries charged by the oracle during the pair
    boundary_rows: int  # queries seen at the victim boundary
    success: bool = False
    queries_first_success: int | None = None
    total_queries: int = 0
    l2: float = math.nan
    problems: list[str] = field(default_factory=list)

    def outcome(self) -> tuple:
        """What a rerun of the same pair must reproduce exactly."""
        return (self.success, self.queries_first_success, self.total_queries,
                self.ledger, self.l2)


def train_victim(data):
    rng = RngStream(VICTIM_SEED)
    model = SoftmaxModel.init(data.dim, 10, rng.child(0))
    return train(model, data, epochs=100, lr=0.5, rng=rng.child(1))


class Session:
    """A workload ready to attack: victim, pair pool and boundary meter."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.tracer = Tracer()
        data = digits8x8()
        self.model = train_victim(data)
        chosen = _select_pairs(self.model, data, workload.pool, untargeted=False)
        self.pairs = []
        for index, (image, target) in enumerate(chosen):
            x0 = data.inputs[image]
            init = None
            if workload.feedback is FeedbackMode.DECISION:
                init = _find_exemplar(self.model, data, target) - x0
            self.pairs.append(Pair(index, image, target, x0, init))
        if not workload.seed_moves_trajectory:
            order = RngStream(seed).permutation(len(self.pairs))
            self.pairs = [self.pairs[i] for i in order]
            self.rng_root = RngStream(workload.default_seed)
        else:
            self.rng_root = RngStream(seed)
        self.victim = BoundaryProxy(self.model, self.tracer, "victim", array_rows)

    def make_oracle(self, wrap_oracle=None):
        oracle = ModelOracle(
            self.victim, scores_available=self.workload.feedback is FeedbackMode.SCORE)
        return wrap_oracle(oracle) if wrap_oracle else oracle

    def attack(self, pair: Pair, wrap_oracle=None) -> PairResult:
        """Attack one pair; times it, then checks its outputs."""
        w = self.workload
        spec = ProblemSpec(x0=pair.x0, target=pair.target, num_classes=10,
                           epsilon=1.0, gamma=1.0, distortion=Distortion.L2)
        cfg = AdmmConfig(rho=10.0, max_queries=w.budget,
                         success_then_refine=w.refine, delta_backend=w.backend)
        loss_cfg = (LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=1.0,
                               smoothing_samples=10)
                    if w.feedback is FeedbackMode.DECISION else LossConfig())
        meter = self.tracer.stat("victim")
        before = meter.snapshot()
        report, error = None, None
        t0 = time.perf_counter()
        oracle = self.make_oracle(wrap_oracle)
        ledger0 = oracle.queries_used
        try:
            report = run_attack(spec, cfg, loss_cfg, oracle,
                                self.rng_root.child(pair.index),
                                rge_cfg=RgeConfig(), bo_cfg=BoConfig(),
                                init_delta=pair.init_delta)
        except Exception as exc:  # a raising pair is counted, not fatal
            traceback.print_exc()
            error = exc
        wall = time.perf_counter() - t0
        used = meter.minus(before)
        result = PairResult(pair, wall, used.seconds, oracle.queries_used - ledger0,
                            used.rows)
        if error is not None:
            result.problems.append(f"raised {type(error).__name__}: {error}")
            return result
        result.success = report.success
        result.queries_first_success = report.queries_first_success
        result.total_queries = report.total_queries
        result.l2 = float(report.final_norms[2])
        result.problems = check_pair(report, result, w, spec, self.model)
        return result


def init_overhead(workload: Workload) -> int:
    """Queries charged outside the report: the decision initializer check."""
    return 1 if workload.feedback is FeedbackMode.DECISION else 0


def check_pair(report, result: PairResult, workload: Workload, spec, model) -> list[str]:
    """Ledger, budget and output checks; returns the problems found."""
    problems = []
    if report.total_queries > workload.budget:
        problems.append(f"total_queries {report.total_queries} > budget {workload.budget}")
    if result.boundary_rows != result.ledger:
        problems.append(f"victim boundary saw {result.boundary_rows} queries, "
                        f"ledger charged {result.ledger}")
    extra = result.ledger - report.total_queries
    if extra != init_overhead(workload):
        problems.append(f"ledger - total_queries = {extra}, "
                        f"expected {init_overhead(workload)}")
    norms = list(report.final_norms)
    for rec in report.records:
        norms += [rec.l0, rec.l1, rec.l2, rec.linf, rec.dist_value]
    if not all(math.isfinite(v) for v in norms):
        problems.append("non-finite norm reported")
    if report.success:
        delta = report.final_perturbation
        if delta is None or not box_feasible(spec.x0, delta, spec.epsilon):
            problems.append("successful perturbation is infeasible")
        elif model.predict_label(np.clip(spec.x0 + delta, 0.0, 1.0)) != spec.target:
            problems.append("successful perturbation does not reach the target")
    return problems
