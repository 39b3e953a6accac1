import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from admm_reference import two_call_run
from oracles import FunctionOracle

from admmattack import admm, prox
from admmattack.admm import (
    AdmmConfig,
    AttackState,
    BestIterate,
    DeltaBackend,
    InfeasibleInitializer,
    admm_iterate,
    delta_zo_step,
    make_delta_step,
    run_attack,
)
from admmattack.bo import BoConfig, BoDeltaSolver
from admmattack.core import (
    AttackMode,
    Distortion,
    ProblemSpec,
    RngStream,
    box_feasible,
    distortion_value,
    lp_norms,
    project_box_linf,
)
from admmattack.grad_est import RgeConfig, block_iterations
from admmattack.losses import FeedbackMode, LossConfig, ModelOracle
from admmattack.victim import SoftmaxModel


def quadratic_analytic_min(eta, rho, delta_k, b, g_hat):
    """Argmin of g^T(d - d_k) + (eta/2)||d - d_k||^2 + (rho/2)||d - b||^2."""
    return (eta * delta_k + rho * b - g_hat) / (eta + rho)


class TestDeltaZoStep:
    def test_fixed_point_when_gradient_zero(self):
        state = AttackState(delta=np.array([0.2, -0.1]), z=np.array([0.2, -0.1]),
                            u=np.zeros(2), k=1)
        cfg = AdmmConfig(rho=1.0, alpha=1.0)
        loss = lambda V: np.full(len(V), 42.0)  # constant -> zero RGE
        out, base = delta_zo_step(state, cfg, RgeConfig(q=5, nu=0.1), loss, RngStream(0))
        np.testing.assert_allclose(out, state.delta, atol=1e-15)
        assert base == 42.0

    def test_an_iteration_index_below_one_is_rejected(self):
        state = AttackState(delta=np.zeros(2), z=np.zeros(2), u=np.zeros(2), k=0)
        with pytest.raises(ValueError, match="iteration index must start at 1"):
            delta_zo_step(state, AdmmConfig(), RgeConfig(q=2, nu=0.1),
                          lambda V: np.zeros(len(V)), RngStream(0))

    def test_a_gradient_estimate_that_overflows_is_rejected(self):
        # finite loss values whose differences overflow float64
        state = AttackState(delta=np.zeros(2), z=np.zeros(2), u=np.zeros(2), k=1)
        loss = lambda V: np.r_[-1e308, np.full(len(V) - 1, 1e308)]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite gradient estimate"):
            delta_zo_step(state, AdmmConfig(), RgeConfig(q=2, nu=0.1), loss, RngStream(0))

    def test_matches_closed_form_example(self):
        # eta=1, rho=1, delta=0, b=(2,2), g=(1,1) -> (0.5, 0.5)
        out = quadratic_analytic_min(1.0, 1.0, np.zeros(2), np.full(2, 2.0), np.ones(2))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_closed_form_equals_analytic_minimizer(self):
        rng = RngStream(1)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            eta = float(rng.uniform(0.1, 10))
            rho = float(rng.uniform(0.1, 10))
            delta_k = rng.standard_normal(d)
            b = rng.standard_normal(d)
            g = rng.standard_normal(d)
            closed = (eta * delta_k + rho * b - g) / (eta + rho)
            # independent check: numerical minimization of the quadratic
            # via its stationarity condition evaluated on the closed form
            grad_at = g + eta * (closed - delta_k) + rho * (closed - b)
            assert np.max(np.abs(grad_at)) < 1e-12

    def test_large_rho_limit_is_b(self):
        rng = RngStream(2)
        delta_k = rng.standard_normal(4)
        b = rng.standard_normal(4)
        g = rng.standard_normal(4)
        out = quadratic_analytic_min(1.0, 1e8, delta_k, b, g)
        np.testing.assert_allclose(out, b, rtol=1e-6)


def make_spec(x0, target=1, k=2, **kw):
    return ProblemSpec(x0=x0, target=target, num_classes=k, epsilon=1.0, **kw)


def zo_step(spec, cfg, rge_cfg):
    """The ZO delta-step that run_attack would build for these settings."""
    return make_delta_step(spec, cfg, rge_cfg)[0]


def probe_misses(values):
    """A synthetic loss that also answers the success probe the ZO delta-step
    sends with its points: the probe never succeeds."""
    def loss(V, probe=None):
        return values(V) if probe is None else (values(V), False)

    return loss


class TestAdmmIterate:
    def test_z_matches_feasible_delta_when_gamma_zero(self):
        x0 = np.full(3, 0.5)
        spec = make_spec(x0, gamma=0.0)
        oracle = FunctionOracle(lambda x: np.array([0.5, 0.5]))
        delta = np.array([0.1, -0.2, 0.3])
        state = AttackState(delta=delta, z=np.zeros(3), u=np.zeros(3))
        cfg = AdmmConfig(rho=1.0)
        loss = probe_misses(lambda V: np.zeros(len(V)))
        new_state, _ = admm_iterate(state, spec, cfg, oracle, RngStream(0), loss,
                                    zo_step(spec, cfg, RgeConfig(q=2, nu=0.1)))
        np.testing.assert_allclose(new_state.z, delta, atol=1e-15)

    def test_dual_unchanged_when_residual_zero(self):
        # constant loss: delta-step returns (eta*delta + rho*b)/(eta+rho);
        # with u=0 and z=delta that equals delta, so u stays 0
        x0 = np.full(2, 0.5)
        spec = make_spec(x0, gamma=0.0)
        oracle = FunctionOracle(lambda x: np.array([0.5, 0.5]))
        delta = np.array([0.1, 0.2])
        state = AttackState(delta=delta, z=delta.copy(), u=np.zeros(2))
        cfg = AdmmConfig(rho=2.0)
        new_state, _ = admm_iterate(state, spec, cfg, oracle, RngStream(1),
                                    probe_misses(lambda V: np.ones(len(V))),
                                    zo_step(spec, cfg, RgeConfig(q=2, nu=0.1)))
        np.testing.assert_allclose(new_state.u, np.zeros(2), atol=1e-14)

    def test_dual_update_algebra(self):
        x0 = np.full(4, 0.4)
        spec = make_spec(x0, gamma=0.7)
        oracle = FunctionOracle(lambda x: np.array([0.6, 0.4]))
        rng = RngStream(2)
        state = AttackState(delta=rng.standard_normal(4) * 0.1,
                            z=np.zeros(4), u=rng.standard_normal(4) * 0.1)
        cfg = AdmmConfig(rho=3.0)
        loss = probe_misses(lambda V: np.sum(V ** 2, axis=1))
        u_before = state.u.copy()
        new_state, _ = admm_iterate(state, spec, cfg, oracle, rng, loss,
                                    zo_step(spec, cfg, RgeConfig(q=3, nu=0.1)))
        lhs = new_state.u - u_before
        rhs = cfg.rho * (new_state.z - new_state.delta)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_z_always_feasible(self):
        x0 = np.array([0.1, 0.9, 0.5])
        spec = make_spec(x0, gamma=1.0)
        oracle = FunctionOracle(lambda x: np.array([0.5, 0.5]))
        rng = RngStream(3)
        state = AttackState(delta=np.zeros(3), z=np.zeros(3), u=np.zeros(3))
        cfg = AdmmConfig(rho=1.0)
        loss = probe_misses(lambda V: np.sin(np.sum(V, axis=1)))
        for _ in range(30):
            state, _ = admm_iterate(state, spec, cfg, oracle, rng, loss,
                                    zo_step(spec, cfg, RgeConfig(q=3, nu=0.2)))
            assert box_feasible(x0, state.z, spec.epsilon)

    def test_query_accounting_per_iteration_score_mode(self):
        x0 = np.full(2, 0.5)
        spec = make_spec(x0)
        oracle = FunctionOracle(lambda x: np.array([0.5, 0.5]))

        from admmattack.admm import make_loss
        loss = make_loss(spec, LossConfig(), oracle, RngStream(4))
        q = 6
        state = AttackState(delta=np.zeros(2), z=np.zeros(2), u=np.zeros(2))
        before = oracle.queries_used
        cfg = AdmmConfig(rho=1.0)
        state, _ = admm_iterate(state, spec, cfg, oracle, RngStream(5), loss,
                                zo_step(spec, cfg, RgeConfig(q=q, nu=0.1)))
        assert oracle.queries_used - before == (q + 1) + 1

    def test_query_accounting_per_iteration_decision_mode(self):
        x0 = np.full(2, 0.5)
        spec = make_spec(x0)
        oracle = FunctionOracle(lambda x: np.array([0.5, 0.5]))

        from admmattack.admm import make_loss
        n = 4
        loss_cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.5,
                              smoothing_samples=n)
        loss = make_loss(spec, loss_cfg, oracle, RngStream(6))
        q = 5
        state = AttackState(delta=np.zeros(2), z=np.zeros(2), u=np.zeros(2))
        before = oracle.queries_used
        cfg = AdmmConfig(rho=1.0)
        state, _ = admm_iterate(state, spec, cfg, oracle, RngStream(7), loss,
                                zo_step(spec, cfg, RgeConfig(q=q, nu=0.1)))
        assert oracle.queries_used - before == (q + 1) * n + 1


class TestBoQueryAccounting:
    """BO-ADMM's per-iteration query cost, pinned as the ZO cost is above."""

    BO = BoConfig(init_samples=3, max_bo_iters=2, ei_restarts=2, ei_steps=5, fit_steps=3)

    def problem(self, n, budget=20000):
        spec = make_spec(np.array([0.3, 0.5]))
        cfg = AdmmConfig(rho=1.0, max_queries=budget, delta_backend=DeltaBackend.BO)
        loss_cfg = (LossConfig() if n == 1 else
                    LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.5, smoothing_samples=n))
        # the target class 1 wins iff x[0] > 0.5
        oracle = FunctionOracle(lambda x: np.array([1.0 - x[0], x[0]]))
        return spec, cfg, loss_cfg, oracle

    @pytest.mark.parametrize("n", [1, 4], ids=["score", "decision"])
    def test_query_accounting_per_iteration(self, n):
        from admmattack.admm import make_loss
        spec, cfg, loss_cfg, oracle = self.problem(n)
        loss = make_loss(spec, loss_cfg, oracle, RngStream(8))
        step, evals = make_delta_step(spec, cfg, bo_cfg=self.BO)
        assert evals == 3 + 2
        state = AttackState(delta=np.zeros(2), z=np.zeros(2), u=np.zeros(2))
        rng = RngStream(9)
        for _ in range(3):
            before = oracle.queries_used
            state, _ = admm_iterate(state, spec, cfg, oracle, rng, loss, step)
            assert oracle.queries_used - before == (3 + 2) * n + 1

    # each budget is one query short of another whole iteration
    @pytest.mark.parametrize("n, budget", [(1, 41), (3, 79)], ids=["score", "decision"])
    def test_budget_is_a_hard_cap(self, n, budget):
        spec, cfg, loss_cfg, oracle = self.problem(n, budget)
        init_delta = np.array([0.5, 0.0]) if n > 1 else None
        rep = run_attack(spec, cfg, loss_cfg, oracle, RngStream(10), bo_cfg=self.BO,
                         init_delta=init_delta)
        iter_cost = (3 + 2) * n + 1
        assert rep.total_queries <= budget < rep.total_queries + iter_cost
        assert rep.total_queries == len(rep.records) * iter_cost


class RowCountingVictim:
    """A victim that counts every row it is asked to score and keeps each
    call's rows, a point as a one-row stack."""

    def __init__(self, model):
        self.model, self.rows, self.calls = model, 0, []

    def predict_scores(self, x):
        self.rows += 1 if np.ndim(x) == 1 else len(x)
        self.calls.append(np.array(x, ndmin=2))
        return self.model.predict_scores(x)


@settings(max_examples=100, deadline=None)
@given(
    feedback=st.sampled_from(list(FeedbackMode)),
    q=st.integers(1, 8),
    n_smooth=st.integers(1, 6),
    budget=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_zo_ledger_matches_the_victim_and_the_budget(feedback, q, n_smooth, budget, seed):
    # class 1 wins iff x[0] > 0.5; the decision initializer crosses there
    victim = RowCountingVictim(SoftmaxModel(np.array([[0.0, 0.0], [8.0, 0.0]]),
                                            np.array([0.0, -4.0])))
    decision = feedback is FeedbackMode.DECISION
    oracle = ModelOracle(victim, scores_available=not decision)
    loss_cfg = LossConfig(mode=feedback, smoothing_mu=0.5, smoothing_samples=n_smooth)
    rep = run_attack(make_spec(np.array([0.3, 0.5])), AdmmConfig(rho=1.0, max_queries=budget),
                     loss_cfg, oracle, RngStream(seed), rge_cfg=RgeConfig(q=q, nu=0.1),
                     init_delta=np.array([0.5, 0.0]) if decision else None)
    iter_cost = (q + 1) * (n_smooth if decision else 1) + 1
    # the decision initializer's one check is charged before the run's own count
    assert victim.rows == oracle.queries_used == rep.total_queries + decision
    assert rep.total_queries == len(rep.records) * iter_cost
    assert rep.total_queries <= budget < rep.total_queries + iter_cost


@pytest.mark.parametrize("feedback, q, n_smooth", [
    (FeedbackMode.SCORE, 1, 1),
    (FeedbackMode.SCORE, 7, 1),
    (FeedbackMode.DECISION, 1, 1),
    (FeedbackMode.DECISION, 3, 4),
    (FeedbackMode.DECISION, 6, 2),
])
def test_one_victim_call_per_zo_iteration_ends_with_the_probe(monkeypatch, feedback, q,
                                                                n_smooth):
    # class 1 wins iff x[0] > 0.5; the decision initializer crosses there
    victim = RowCountingVictim(SoftmaxModel(np.array([[0.0, 0.0], [8.0, 0.0]]),
                                            np.array([0.0, -4.0])))
    decision = feedback is FeedbackMode.DECISION
    spec = make_spec(np.array([0.3, 0.5]))
    zs = []
    real_zstep = prox.zstep
    monkeypatch.setattr(prox, "zstep", lambda inp: zs.append(real_zstep(inp)) or zs[-1])
    rep = run_attack(spec, AdmmConfig(rho=1.0, max_queries=300),
                     LossConfig(mode=feedback, smoothing_mu=0.5, smoothing_samples=n_smooth),
                     ModelOracle(victim, scores_available=not decision), RngStream(q),
                     rge_cfg=RgeConfig(q=q, nu=0.1),
                     init_delta=np.array([0.5, 0.0]) if decision else None)
    calls = victim.calls[decision:]  # after the decision initializer's one-row check
    assert len(calls) == len(rep.records) == len(zs) > 0
    rows = (q + 1) * n_smooth + 1 if decision else q + 2
    for z, call in zip(zs, calls):
        assert call.shape == (rows, 2)
        assert call[-1].tobytes() == np.clip(spec.x0 + z, 0.0, 1.0).tobytes()


@pytest.mark.parametrize("feedback, init_samples, max_bo_iters, n_smooth", [
    (FeedbackMode.SCORE, 3, 2, 1),
    (FeedbackMode.SCORE, 2, 0, 1),
    (FeedbackMode.DECISION, 2, 1, 3),
    (FeedbackMode.DECISION, 3, 0, 2),
])
def test_bo_iteration_calls_end_with_the_probe(monkeypatch, feedback, init_samples,
                                                max_bo_iters, n_smooth):
    # class 1 wins iff x[0] > 0.5; the decision initializer crosses there
    victim = RowCountingVictim(SoftmaxModel(np.array([[0.0, 0.0], [8.0, 0.0]]),
                                            np.array([0.0, -4.0])))
    decision = feedback is FeedbackMode.DECISION
    spec = make_spec(np.array([0.3, 0.5]))
    zs = []
    real_zstep = prox.zstep
    monkeypatch.setattr(prox, "zstep", lambda inp: zs.append(real_zstep(inp)) or zs[-1])
    bo_cfg = BoConfig(init_samples=init_samples, max_bo_iters=max_bo_iters, ei_restarts=2,
                      ei_steps=3, fit_steps=2)
    rep = run_attack(spec, AdmmConfig(rho=1.0, max_queries=120, delta_backend=DeltaBackend.BO),
                     LossConfig(mode=feedback, smoothing_mu=0.5, smoothing_samples=n_smooth),
                     ModelOracle(victim, scores_available=not decision), RngStream(init_samples),
                     bo_cfg=bo_cfg, init_delta=np.array([0.5, 0.0]) if decision else None)
    calls = victim.calls[decision:]  # after the decision initializer's one-row check
    per_iter = 1 + max_bo_iters
    assert len(calls) == len(rep.records) * per_iter == len(zs) * per_iter > 0
    # the last call holds the last acquisition, or the initial samples if there is none
    points = init_samples if max_bo_iters == 0 else 1
    rows = points * n_smooth + 1 if decision else points + 1
    for i, z in enumerate(zs):
        call = calls[(i + 1) * per_iter - 1]
        assert call.shape == (rows, 2)
        assert call[-1].tobytes() == np.clip(spec.x0 + z, 0.0, 1.0).tobytes()


def skip_the_last_acquisition(m):
    real_step = BoDeltaSolver.step

    def step(self, b, rho, f_loss, rng):
        cfg = self.cfg
        self.cfg = dataclasses.replace(cfg, max_bo_iters=cfg.max_bo_iters - 1)
        try:
            return real_step(self, b, rho, f_loss, rng)
        finally:
            self.cfg = cfg

    m.setattr(BoDeltaSolver, "step", step)


def add_an_acquisition(m):
    real_step = BoDeltaSolver.step

    def step(self, b, rho, f_loss, rng):
        delta = real_step(self, b, rho, f_loss, rng)
        self._query(delta[None, :], f_loss)
        return delta

    m.setattr(BoDeltaSolver, "step", step)


def add_a_zo_point(m):
    real_step = admm.delta_zo_step

    def step(state, cfg, rge_cfg, loss, rng):
        out = real_step(state, cfg, rge_cfg, loss, rng)
        loss(state.delta[None, :])
        return out

    m.setattr(admm, "delta_zo_step", step)


@pytest.mark.parametrize("backend, patch, sent_rows", [
    (DeltaBackend.BO, skip_the_last_acquisition, 3),  # no call reaches the 4 evaluations
    (DeltaBackend.BO, add_an_acquisition, 5),
    (DeltaBackend.ZO, add_a_zo_point, 5),
])
def test_a_delta_step_that_misses_its_evaluations_raises(monkeypatch, backend, patch,
                                                           sent_rows):
    # class 1 wins everywhere, so a probe that reached the books would be a success
    victim = RowCountingVictim(SoftmaxModel(np.zeros((2, 2)), np.array([0.0, 1.0])))
    oracle = ModelOracle(victim)
    patch(monkeypatch)
    with pytest.raises(ValueError):
        run_attack(make_spec(np.array([0.3, 0.5])),
                   AdmmConfig(rho=1.0, max_queries=100, delta_backend=backend), LossConfig(),
                   oracle, RngStream(0), rge_cfg=RgeConfig(q=3, nu=0.1),
                   bo_cfg=BoConfig(init_samples=2, max_bo_iters=2, ei_restarts=2, ei_steps=3,
                                   fit_steps=2))
    # the first iteration raised, and a point past its evaluations reached no victim
    assert victim.rows == oracle.queries_used == sent_rows


def assert_probe_path_equals_separate_probe(feedback, distortion, attack_mode, refine,
                                            budget, seed, n_smooth, **kwargs):
    """run_attack, whose delta-step's last loss call carries the success probe,
    against two_call_run, whose probe is a label query of its own, on one
    random 4-feature, 3-class softmax victim; kwargs go to both runs."""
    rng = RngStream(seed)
    d, k = 4, 3
    model = SoftmaxModel(4.0 * rng.standard_normal((k, d)), rng.standard_normal(k))
    points = rng.uniform(0.0, 1.0, (16, d))
    labels = model.predict_label(points)
    others = np.flatnonzero(labels != labels[0])
    assume(others.size > 0)
    targeted = attack_mode is AttackMode.TARGETED
    decision = feedback is FeedbackMode.DECISION
    spec = ProblemSpec(x0=points[0], target=int(labels[others[0]] if targeted else labels[0]),
                       num_classes=k, epsilon=1.0, gamma=0.5, distortion=distortion,
                       beta=0.5, attack_mode=attack_mode)
    backend = DeltaBackend.BO if "bo_cfg" in kwargs else DeltaBackend.ZO

    def attack(run):
        victim = RowCountingVictim(model)
        oracle = ModelOracle(victim, scores_available=not decision)
        rep = run(spec, AdmmConfig(rho=1.0, max_queries=budget, success_then_refine=refine,
                                   delta_backend=backend),
                  LossConfig(mode=feedback, smoothing_mu=0.5, smoothing_samples=n_smooth),
                  oracle, RngStream(seed).child(1),
                  init_delta=points[others[0]] - points[0] if decision else None, **kwargs)
        return rep, oracle.queries_used, b"".join(call.tobytes() for call in victim.calls)

    one, one_ledger, one_rows = attack(run_attack)
    two, two_ledger, two_rows = attack(two_call_run)
    # repr tells -0.0 from 0.0 and a NumPy bool from a Python one
    assert [repr(vars(r)) for r in one.records] == [repr(vars(r)) for r in two.records]
    assert repr((one.success, one.queries_first_success, one.final_norms, one.total_queries)) \
        == repr((two.success, two.queries_first_success, two.final_norms, two.total_queries))
    assert (one.final_perturbation is None) == (two.final_perturbation is None)
    if one.final_perturbation is not None:
        assert one.final_perturbation.tobytes() == two.final_perturbation.tobytes()
    assert one_ledger == two_ledger
    assert one_rows == two_rows  # the same queries, in the same order


@settings(max_examples=80, deadline=None)
@given(
    feedback=st.sampled_from(list(FeedbackMode)),
    distortion=st.sampled_from(list(Distortion)),
    attack_mode=st.sampled_from(list(AttackMode)),
    refine=st.booleans(),
    q=st.integers(1, 6),
    n_smooth=st.integers(1, 4),
    budget=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_one_call_iteration_equals_the_two_call_iteration(
        feedback, distortion, attack_mode, refine, q, n_smooth, budget, seed):
    assert_probe_path_equals_separate_probe(feedback, distortion, attack_mode, refine, budget,
                                            seed, n_smooth, rge_cfg=RgeConfig(q=q, nu=0.2))


@settings(max_examples=100, deadline=None)
@given(
    feedback=st.sampled_from(list(FeedbackMode)),
    distortion=st.sampled_from(list(Distortion)),
    attack_mode=st.sampled_from(list(AttackMode)),
    refine=st.booleans(),
    init_samples=st.integers(1, 3),
    max_bo_iters=st.integers(0, 2),
    n_smooth=st.integers(1, 3),
    budget=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_bo_probe_in_the_last_loss_call_equals_a_separate_probe(
        feedback, distortion, attack_mode, refine, init_samples, max_bo_iters, n_smooth, budget,
        seed):
    bo_cfg = BoConfig(init_samples=init_samples, max_bo_iters=max_bo_iters, ei_restarts=2,
                      ei_steps=3, max_observations=12, fit_steps=2)
    assert_probe_path_equals_separate_probe(feedback, distortion, attack_mode, refine, budget,
                                            seed, n_smooth, bo_cfg=bo_cfg)


@settings(max_examples=60, deadline=None)
@given(
    distortion=st.sampled_from(list(Distortion)),
    feedback=st.sampled_from(list(FeedbackMode)),
    gamma=st.sampled_from([0.0, 0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_record_norms_are_those_of_the_best_success_so_far(distortion, feedback, gamma, seed):
    # class 1 wins iff x[0] + 0.25 x[1] > 0.6; the decision initializer crosses there
    victim = SoftmaxModel(np.array([[0.0, 0.0, 0.0], [8.0, 2.0, 0.0]]), np.array([0.0, -4.8]))
    decision = feedback is FeedbackMode.DECISION
    spec = make_spec(np.array([0.3, 0.5, 0.4]), gamma=gamma, distortion=distortion, beta=0.5)
    init_delta = np.array([0.5, 0.2, -0.1]) if decision else None
    zs = []
    real_zstep = prox.zstep

    def zstep(inp):  # keeps every z the run's iterations probe
        zs.append(real_zstep(inp))
        return zs[-1]

    prox.zstep = zstep
    try:
        rep = run_attack(spec, AdmmConfig(rho=1.0, max_queries=600),
                         LossConfig(mode=feedback, smoothing_mu=0.5, smoothing_samples=3),
                         ModelOracle(victim, scores_available=not decision), RngStream(seed),
                         rge_cfg=RgeConfig(q=4, nu=0.2), init_delta=init_delta)
    finally:
        prox.zstep = real_zstep
    assert len(zs) == len(rep.records)
    best = best_dval = None
    if decision:  # the initializer is the first success
        best = project_box_linf(spec.x0, init_delta, spec.epsilon)
        best_dval = distortion_value(best, distortion, spec.beta)
    for z, rec in zip(zs, rep.records):
        assert rec.dist_value == distortion_value(z, distortion, spec.beta)
        if rec.success and (best is None or rec.dist_value < best_dval):
            best, best_dval = z, rec.dist_value
        assert (rec.l0, rec.l1, rec.l2, rec.linf) == lp_norms(z if best is None else best)
    assert rep.final_norms == (lp_norms(best) if best is not None else (0, 0.0, 0.0, 0.0))


class TestWhiteBoxConvergence:
    def run_instance(self, seed):
        """ADMM with the analytic gradient injected in place of RGE on the
        convex quadratic f(x0 + delta) = ||delta - delta*||^2."""
        rng = RngStream(seed)
        d = 5
        x0 = rng.uniform(0.2, 0.8, d)
        eps = 0.5
        lo = np.maximum(-x0, -eps)
        hi = np.minimum(1 - x0, eps)
        delta_star = rng.uniform(lo, hi)

        from admmattack.prox import ZStepInput, zstep_l2

        rho, gamma, alpha = 10.0, 0.1, 1.0
        delta = np.zeros(d)
        z = np.zeros(d)
        u = np.zeros(d)
        for k in range(1, 501):
            z = zstep_l2(ZStepInput(a=delta - u / rho, x0=x0, epsilon=eps,
                                    gamma=gamma, rho=rho))
            g = 2.0 * (delta - delta_star)  # analytic gradient
            eta = alpha * math.sqrt(k)
            b = z + u / rho
            delta = (eta * delta + rho * b - g) / (eta + rho)
            u = u + rho * (z - delta)
            if np.linalg.norm(z - delta) < 1e-3:
                return k
        return None

    def test_primal_residual_converges(self):
        for seed in range(5):
            assert self.run_instance(seed) is not None


class TestRunAttack:
    def test_trivial_victim_immediate_success(self):
        # victim classifies everything as the target
        x0 = np.full(3, 0.5)
        spec = make_spec(x0, target=1)
        oracle = FunctionOracle(lambda x: np.array([0.0, 1.0]))
        q = 5
        cfg = AdmmConfig(rho=1.0, max_queries=1000, success_then_refine=False)
        rep = run_attack(spec, cfg, LossConfig(), oracle, RngStream(0),
                         rge_cfg=RgeConfig(q=q, nu=0.1))
        assert rep.success
        assert rep.queries_first_success <= q + 2

    def test_zero_budget_no_iterations(self):
        x0 = np.full(2, 0.5)
        spec = make_spec(x0)
        oracle = FunctionOracle(lambda x: np.array([1.0, 0.0]))
        cfg = AdmmConfig(rho=1.0, max_queries=0)
        rep = run_attack(spec, cfg, LossConfig(), oracle, RngStream(0))
        assert rep.records == []
        assert not rep.success

    def test_determinism(self, softmax_victim, digits):
        def one_run():
            x0 = digits.inputs[0]
            t = (int(digits.labels[0]) + 1) % 10
            spec = ProblemSpec(x0=x0, target=t, num_classes=10, epsilon=1.0, gamma=1.0)
            cfg = AdmmConfig(rho=10.0, max_queries=2000)
            oracle = ModelOracle(softmax_victim)
            return run_attack(spec, cfg, LossConfig(), oracle, RngStream(77))

        r1, r2 = one_run(), one_run()
        assert len(r1.records) == len(r2.records)
        for a, b in zip(r1.records, r2.records):
            assert a == b
        if r1.final_perturbation is not None:
            np.testing.assert_array_equal(r1.final_perturbation, r2.final_perturbation)

    def test_decision_mode_requires_initializer(self):
        x0 = np.full(2, 0.5)
        spec = make_spec(x0)
        oracle = FunctionOracle(lambda x: np.array([1.0, 0.0]))
        cfg = AdmmConfig(rho=1.0, max_queries=100)
        loss_cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.5,
                              smoothing_samples=2)
        with pytest.raises(ValueError):
            run_attack(spec, cfg, loss_cfg, oracle, RngStream(0))

    def test_score_mode_refuses_an_initializer_before_any_query(self):
        spec = make_spec(np.full(2, 0.5))
        oracle = FunctionOracle(lambda x: np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="no initial perturbation"):
            run_attack(spec, AdmmConfig(rho=1.0, max_queries=100), LossConfig(), oracle,
                       RngStream(0), init_delta=np.full(2, 0.1))
        assert oracle.queries_used == 0

    @pytest.mark.parametrize("feedback", list(FeedbackMode))
    def test_a_class_count_other_than_the_victims_is_refused_before_any_query(self, feedback):
        decision = feedback is FeedbackMode.DECISION
        oracle = ModelOracle(SoftmaxModel(np.zeros((3, 2)), np.zeros(3)),
                             scores_available=not decision)
        assert oracle.num_classes == 3
        spec = make_spec(np.full(2, 0.5), target=4, k=7)  # a target the victim lacks
        loss_cfg = LossConfig(mode=feedback, smoothing_mu=0.5, smoothing_samples=2)
        with pytest.raises(ValueError, match="7 classes, the oracle's victim 3"):
            run_attack(spec, AdmmConfig(rho=1.0, max_queries=100), loss_cfg, oracle,
                       RngStream(0), init_delta=np.zeros(2) if decision else None)
        assert oracle.queries_used == 0

    def test_decision_mode_rejects_bad_initializer(self):
        x0 = np.full(2, 0.5)
        spec = make_spec(x0, target=1)
        oracle = FunctionOracle(lambda x: np.array([1.0, 0.0]))  # never target
        cfg = AdmmConfig(rho=1.0, max_queries=100)
        loss_cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.5,
                              smoothing_samples=2)
        with pytest.raises(InfeasibleInitializer):
            run_attack(spec, cfg, loss_cfg, oracle, RngStream(0),
                       init_delta=np.zeros(2))

    def test_best_perturbation_feasible(self, softmax_victim, digits):
        x0 = digits.inputs[3]
        t = (int(digits.labels[3]) + 2) % 10
        spec = ProblemSpec(x0=x0, target=t, num_classes=10, epsilon=1.0, gamma=1.0)
        cfg = AdmmConfig(rho=10.0, max_queries=3000)
        oracle = ModelOracle(softmax_victim)
        rep = run_attack(spec, cfg, LossConfig(), oracle, RngStream(5))
        if rep.final_perturbation is not None:
            assert box_feasible(x0, rep.final_perturbation, spec.epsilon)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(rho=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(alpha=-1.0)
        for budget in (2500.0, True):
            with pytest.raises(ValueError, match=r"AdmmConfig\.max_queries must be an integer"):
                AdmmConfig(max_queries=budget)
        assert AdmmConfig(max_queries=np.int64(2500)).max_queries == 2500


# The helper-thread tests attack at the acceptance shape, Q = 20 directions
# in 64 dimensions, so that each direction block holds BLOCK iterations.
THREAD_Q, THREAD_DIM = 20, 64
BLOCK = block_iterations(THREAD_Q, THREAD_DIM)


class ThreadCountingVictim:
    """Class 1 wins iff x[0] > 0.5, in THREAD_DIM dimensions. Records the
    thread count at each call and raises RuntimeError at call ``fail_at``,
    if given."""

    def __init__(self, fail_at=None):
        w = np.zeros((2, THREAD_DIM))
        w[1, 0] = 8.0
        self.model = SoftmaxModel(w, np.array([0.0, -4.0]))
        self.fail_at, self.threads = fail_at, []

    def predict_scores(self, x):
        self.threads.append(threading.active_count())
        if len(self.threads) == self.fail_at:
            raise RuntimeError("the victim failed mid-run")
        return self.model.predict_scores(x)


def thread_attack(victim, refine=True):
    """A score run on ThreadCountingVictim from x0 = (0.3, 0.5, ..., 0.5),
    with the budget of three direction blocks. The helper draws the second,
    the third and one that no iteration reads, so it is still running when
    the run starts: the ring holds the run's block and one drawn ahead."""
    x0 = np.full(THREAD_DIM, 0.5)
    x0[0] = 0.3
    iter_cost = THREAD_Q + 2  # Q + 1 RGE rows and the success probe
    cfg = AdmmConfig(rho=1.0, max_queries=3 * BLOCK * iter_cost, success_then_refine=refine)
    return run_attack(make_spec(x0), cfg, LossConfig(), ModelOracle(victim), RngStream(3),
                      rge_cfg=RgeConfig(q=THREAD_Q, nu=0.1))


@pytest.mark.parametrize("refine, fail_at", [(True, None), (False, None), (True, BLOCK + 4)],
                         ids=["full budget", "stop at first success", "oracle raises mid-run"])
def test_no_direction_thread_outlives_run_attack(refine, fail_at):
    before = threading.active_count()
    victim = ThreadCountingVictim(fail_at)
    if fail_at is None:
        rep = thread_attack(victim, refine)
        if refine:
            assert len(rep.records) == 3 * BLOCK
        else:  # stops within the first block, with the helper running
            assert rep.success and len(rep.records) == len(victim.threads) < BLOCK
    else:
        with pytest.raises(RuntimeError, match="mid-run"):
            thread_attack(victim, refine)
        assert len(victim.threads) == fail_at > BLOCK
    assert victim.threads[0] == before + 1  # the helper was running
    assert threading.active_count() == before


class HelperFault(Exception):
    pass


@pytest.fixture
def failing_helper(monkeypatch):
    """Direction draws off the main thread, the helper's, raise HelperFault;
    the list holds each fault raised."""
    draw, faults = RngStream.unit_directions, []

    def unit_directions(self, n, d, out=None):
        if threading.current_thread() is not threading.main_thread():
            faults.append(HelperFault("drawn on the helper"))
            raise faults[-1]
        return draw(self, n, d, out)

    monkeypatch.setattr(RngStream, "unit_directions", unit_directions)
    return faults


def test_a_victim_fault_is_not_replaced_by_a_helper_fault(failing_helper):
    with pytest.raises(RuntimeError, match="mid-run"):
        thread_attack(ThreadCountingVictim(fail_at=5))  # within the first block
    assert len(failing_helper) == 1


def test_a_helper_fault_in_a_block_no_iteration_reached_leaves_the_run_finished(
        failing_helper):
    rep = thread_attack(ThreadCountingVictim(), refine=False)
    assert rep.success and len(rep.records) < BLOCK
    assert len(failing_helper) == 1


def test_a_score_run_whose_budget_allows_no_iteration_starts_no_direction_thread(monkeypatch):
    def no_source(*args):
        pytest.fail("a DirectionSource was built")

    monkeypatch.setattr(admm, "DirectionSource", no_source)
    x0 = np.full(THREAD_DIM, 0.5)
    cfg = AdmmConfig(rho=1.0, max_queries=10)  # one iteration costs 50 + 2 queries
    rep = run_attack(make_spec(x0), cfg, LossConfig(), ModelOracle(ThreadCountingVictim()),
                     RngStream(3), rge_cfg=RgeConfig(q=50))
    assert rep.records == [] and rep.total_queries == 0
    assert not [t for t in threading.enumerate() if t.name.startswith("rge-directions")]


def test_a_decision_run_draws_its_directions_on_the_callers_thread(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    x0, init = np.full(THREAD_DIM, 0.5), np.zeros(THREAD_DIM)
    x0[0], init[0] = 0.3, 0.3
    loss_cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.5, smoothing_samples=2)
    iter_cost = (THREAD_Q + 1) * 2 + 1
    cfg = AdmmConfig(rho=1.0, max_queries=3 * BLOCK * iter_cost + 1)  # three blocks
    rep = run_attack(make_spec(x0), cfg, loss_cfg, ModelOracle(ThreadCountingVictim()),
                     RngStream(3), rge_cfg=RgeConfig(q=THREAD_Q, nu=0.1), init_delta=init)
    assert len(rep.records) == 3 * BLOCK
