"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line. Oracles (grid search, naive matrix inversion, finite
differences, Monte Carlo) are independent of the implementation under test.
"""

import csv
import hashlib
import math

import numpy as np
import pytest

from oracles import FunctionOracle
from test_gp import naive_nlml, naive_posterior
from test_prox import coordinate_objective, grid_minimizer

import admmattack.admm as admm_module
from admmattack.admm import (
    AdmmConfig,
    AttackState,
    DeltaBackend,
    delta_zo_step,
    run_attack,
)
from admmattack.bo import BoConfig, BoDeltaSolver, ei_gradient, expected_improvement
from admmattack.cli import _find_exemplar, _select_pairs, main
from admmattack.core import (
    AttackMode,
    Distortion,
    ProblemSpec,
    RngStream,
    project_box_linf,
)
from admmattack.gp import GpHyper, GpModel
from admmattack.grad_est import RgeConfig, rge_with_base
from admmattack.losses import (
    FeedbackMode,
    LossConfig,
    ModelOracle,
    score_loss,
)
from admmattack.prox import ZStepInput, zstep, zstep_l2
from admmattack.victim import digits8x8, load_weights


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


# -- shared end-to-end artifacts -------------------------------------------


@pytest.fixture(scope="module")
def cli_weights(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-weights") / "victim.weights"
    code = main(["train", "--model", "softmax", "--data", "digits8x8",
                 "--epochs", "100", "--lr", "0.5", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


def run_score_batch(out_dir, weights):
    """The canonical score-mode batch: 50 pairs, defaults, seed 1."""
    return main([
        "attack", "--weights", str(weights), "--data", "digits8x8",
        "--backend", "zo", "--feedback", "score", "--norm", "l2",
        "--budget", "20000", "--pairs", "50", "--seed", "1",
        "--out", str(out_dir),
    ])


@pytest.fixture(scope="module")
def score_batch(tmp_path_factory, cli_weights):
    out = tmp_path_factory.mktemp("acceptance-score")
    code = run_score_batch(out, cli_weights)
    return out, code


def read_aggregate(out_dir):
    with open(out_dir / "aggregate.csv") as fh:
        return list(csv.DictReader(fh))


# -- criteria ----------------------------------------------------------------


def test_criterion_1_prox_oracle_equivalence():
    rng = RngStream(101)
    norms = [Distortion.L0, Distortion.L1, Distortion.L2, Distortion.ELASTIC]
    worst_obj = 0.0
    worst_arg = 0.0
    for distortion in norms:
        for _ in range(2000):
            a = float(rng.uniform(-3, 3))
            x0 = float(rng.uniform(0, 1))
            eps = float(rng.uniform(0.05, 1.5))
            gamma = float(rng.uniform(0, 3))
            rho = float(rng.uniform(0.1, 20))
            beta = float(rng.uniform(0, 3))
            out = zstep(ZStepInput(a=np.array([a]), x0=np.array([x0]),
                                   epsilon=eps, gamma=gamma, rho=rho,
                                   distortion=distortion, beta=beta))[0]
            z, fmin = grid_minimizer(a, x0, eps, gamma, rho, distortion, beta)
            fout = coordinate_objective(np.array([out]), a, gamma, rho,
                                        distortion, beta)[0]
            worst_obj = max(worst_obj, fout - fmin)
            if distortion is Distortion.L0:
                # near-ties between the z=0 and nonzero branches make the
                # argmin ambiguous; the argument check applies off ties
                f_zero = coordinate_objective(np.array([0.0]), a, gamma, rho,
                                              distortion, beta)[0]
                if abs(f_zero - fmin) < 1e-4 and fmin < f_zero:
                    continue
            worst_arg = max(worst_arg, abs(out - z))
    check(1, "prox oracle equivalence", worst_obj <= 1e-6 and worst_arg <= 2e-4,
          f"max objective gap {worst_obj:.2e}, max argument gap {worst_arg:.2e}")


def test_criterion_2_delta_step_closed_form(monkeypatch):
    rng = RngStream(102)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 10))
        eta = float(rng.uniform(0.01, 50))
        rho = float(rng.uniform(0.01, 50))
        delta_k = rng.standard_normal(d)
        b = rng.standard_normal(d)
        g = rng.standard_normal(d)

        # inject the exact gradient in place of the random estimator
        monkeypatch.setattr(
            admm_module, "rge_with_base",
            lambda loss, delta, cfg, r, g=g: (g, loss(delta)),
        )
        # pick k and alpha so the schedule produces the drawn eta
        k = int(rng.integers(1, 100))
        alpha = eta / math.sqrt(k)
        state = AttackState(delta=delta_k, z=b.copy(), u=np.zeros(d), k=k)
        cfg = AdmmConfig(rho=rho, alpha=alpha)
        out, _ = delta_zo_step(state, cfg, RgeConfig(), lambda v: 0.0, rng)

        # independent oracle: stationarity system (eta + rho) I x = rhs
        oracle = np.linalg.solve((eta + rho) * np.eye(d),
                                 eta * delta_k + rho * b - g)
        worst = max(worst, float(np.max(np.abs(out - oracle))))
    check(2, "delta-step closed form", worst <= 1e-12, f"max gap {worst:.2e}")


def test_criterion_3_rge_statistics():
    d, q, n_est = 10, 20, 10**4
    c = np.arange(1.0, d + 1.0)
    loss = lambda V: V @ c
    rng = RngStream(103)
    cfg = RgeConfig(q=q, nu=0.5)
    ests = np.array([rge_with_base(loss, np.zeros(d), cfg, rng)[0] for _ in range(n_est)])
    mean = ests.mean(axis=0)
    stderr = ests.std(axis=0, ddof=1) / math.sqrt(n_est)
    within = np.all(np.abs(mean - c) <= 3.0 * stderr)
    cos = float(mean @ c / (np.linalg.norm(mean) * np.linalg.norm(c)))

    # ledger exactness: one estimate through a counted oracle is Q+1 queries
    oracle = FunctionOracle(lambda x: np.array([0.4, 0.6]))
    spec = ProblemSpec(x0=np.full(d, 0.5), target=1, num_classes=2, epsilon=1.0)
    counted = lambda delta: score_loss(
        oracle, np.clip(spec.x0 + delta, 0, 1), spec)
    rge_with_base(counted, np.zeros(d), cfg, RngStream(1))
    exact = oracle.queries_used == q + 1

    check(3, "RGE statistics", within and cos > 0.99 and exact,
          f"cosine {cos:.4f}, queries {oracle.queries_used}")


def test_criterion_4_gp_correctness():
    rng = RngStream(104)

    # posterior vs naive inverse, n up to 50
    post_gap = 0.0
    for _ in range(5):
        n = int(rng.integers(5, 51))
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        h = GpHyper(theta0=float(rng.uniform(0.5, 2.0)),
                    lengthscales=rng.uniform(0.5, 2.0, 2),
                    noise_var=float(rng.uniform(1e-4, 0.1)))
        model = GpModel(2, hyper=h)
        model.set_data(X, y)
        for _ in range(5):
            x = rng.standard_normal(2)
            (mu,), (var,) = model.posterior(x[None])
            mu0, var0 = naive_posterior(X, y, x, h)
            post_gap = max(post_gap, abs(mu - mu0), abs(var - max(var0, 0.0)))

    # NLML gradient vs central finite differences
    grad_ok = True
    for _ in range(5):
        n = int(rng.integers(4, 15))
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        h = GpHyper(theta0=float(rng.uniform(0.5, 2.0)),
                    lengthscales=rng.uniform(0.5, 2.0, 2),
                    noise_var=float(rng.uniform(1e-3, 0.2)))
        model = GpModel(2, hyper=h)
        model.set_data(X, y)
        g = model.nlml_grad()
        p0 = model._log_params()
        step = 1e-5
        for i in range(len(p0)):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += step
            pm[i] -= step
            up = GpModel(2, hyper=model._hyper_from_log(pp))
            up.set_data(X, y)
            dn = GpModel(2, hyper=model._hyper_from_log(pm))
            dn.set_data(X, y)
            fd = (up.nlml() - dn.nlml()) / (2 * step)
            if abs(g[i] - fd) > 1e-4 * max(abs(fd), 1e-3):
                grad_ok = False

    # noise-free interpolation at training points
    X = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    interp = GpModel(2, hyper=GpHyper(theta0=1.0, lengthscales=np.ones(2),
                                      noise_var=0.0))
    interp.set_data(X, y)
    interp_err = max(abs(interp.posterior(X[i][None])[0][0] - y[i]) for i in range(10))

    check(4, "GP correctness",
          post_gap <= 1e-8 and grad_ok and interp_err <= 1e-6,
          f"posterior gap {post_gap:.2e}, interpolation error {interp_err:.2e}")


def test_criterion_5_ei_correctness():
    rng = RngStream(105)

    # closed form vs antithetic Monte Carlo at 20 random (mu, sigma, l+)
    mc_gap = 0.0
    n = 10**6
    for _ in range(20):
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.05, 1.0))
        l_plus = mu + float(rng.uniform(-1.5, 1.5))
        z = rng.standard_normal(n // 2)
        y = np.concatenate([mu + sigma * z, mu - sigma * z])
        mc = float(np.mean(np.maximum(l_plus - y, 0.0)))
        mc_gap = max(mc_gap, abs(expected_improvement(mu, sigma, l_plus) - mc))

    # analytic EI gradient vs central finite differences on a fitted GP
    X = rng.uniform(-1, 1, (12, 2))
    yv = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1]
    model = GpModel(2, hyper=GpHyper(theta0=1.0, lengthscales=np.full(2, 0.8),
                                     noise_var=1e-4))
    model.set_data(X, yv)
    l_plus = float(np.min(yv))

    def ei_at(x):
        (mu,), (var,) = model.posterior(x[None])
        return expected_improvement(mu, math.sqrt(max(var, 0.0)), l_plus)

    grad_ok = True
    step = 1e-6
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        (g,), (degenerate,) = ei_gradient(model, x[None], l_plus)
        if degenerate:
            continue
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            fd = (ei_at(xp) - ei_at(xm)) / (2 * step)
            if abs(g[i] - fd) > 1e-4 * max(abs(fd), 1e-6):
                grad_ok = False

    check(5, "EI correctness", mc_gap <= 1e-3 and grad_ok,
          f"Monte Carlo gap {mc_gap:.2e}")


def test_criterion_6_white_box_admm_convergence():
    rng = RngStream(106)
    converged = 0
    for _ in range(20):
        d = int(rng.integers(2, 8))
        x0 = rng.uniform(0.2, 0.8, d)
        eps = float(rng.uniform(0.3, 1.0))
        lo = np.maximum(-x0, -eps)
        hi = np.minimum(1 - x0, eps)
        delta_star = rng.uniform(lo, hi)

        rho, gamma, alpha = 10.0, 0.1, 1.0
        delta = np.zeros(d)
        z = np.zeros(d)
        u = np.zeros(d)
        ok = False
        for k in range(1, 501):
            z = zstep_l2(ZStepInput(a=delta - u / rho, x0=x0, epsilon=eps,
                                    gamma=gamma, rho=rho))
            g = 2.0 * (delta - delta_star)  # analytic gradient of ||.||^2
            eta = alpha * math.sqrt(k)
            b = z + u / rho
            delta = (eta * delta + rho * b - g) / (eta + rho)
            u = u + rho * (z - delta)
            if np.linalg.norm(z - delta) < 1e-3:
                ok = True
                break
        converged += ok
    check(6, "white-box ADMM convergence", converged == 20,
          f"{converged}/20 instances")


def test_criterion_7_score_zo_admm_end_to_end(score_batch):
    out, code = score_batch
    rows = read_aggregate(out)
    asr = sum(r["success"] == "1" for r in rows) / len(rows)
    qfs = [int(r["queries_first_success"]) for r in rows
           if r["queries_first_success"]]
    mean_qfs = float(np.mean(qfs)) if qfs else math.inf
    l2s = [float(r["l2"]) for r in rows if r["success"] == "1"]
    mean_l2 = float(np.mean(l2s)) if l2s else math.inf
    budget_ok = all(int(r["total_queries"]) <= 20000 for r in rows)
    check(7, "score-based ZO-ADMM end to end",
          code == 0 and len(rows) == 50 and asr >= 0.95
          and mean_qfs < 5000 and math.isfinite(mean_l2) and budget_ok,
          f"ASR {asr:.0%}, mean first-success queries {mean_qfs:.1f}, "
          f"mean l2 {mean_l2:.3f}")


def test_criterion_8_decision_zo_admm_refinement(softmax_victim, digits):
    pairs = _select_pairs(softmax_victim, digits, 20, untargeted=False)
    assert len(pairs) == 20
    root = RngStream(108)
    successes = 0
    refined = 0
    for pair_idx, (img_idx, target) in enumerate(pairs):
        x0 = digits.inputs[img_idx]
        exemplar = _find_exemplar(softmax_victim, digits, target)
        init_delta = exemplar - x0
        init_l2 = float(np.linalg.norm(project_box_linf(x0, init_delta, 1.0)))
        spec = ProblemSpec(x0=x0, target=target, num_classes=10, epsilon=1.0,
                           gamma=1.0, distortion=Distortion.L2)
        cfg = AdmmConfig(rho=10.0, max_queries=10000)
        loss_cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=1.0,
                              smoothing_samples=10)
        oracle = ModelOracle(softmax_victim, scores_available=False)
        report = run_attack(spec, cfg, loss_cfg, oracle, root.child(pair_idx),
                            rge_cfg=RgeConfig(), init_delta=init_delta)
        if report.success:
            successes += 1
            if report.final_norms[2] < init_l2:
                refined += 1
    asr = successes / len(pairs)
    refine_rate = refined / successes if successes else 0.0
    check(8, "decision-based ZO-ADMM refinement",
          asr >= 0.90 and refine_rate >= 0.90,
          f"ASR {asr:.0%}, l2 reduced in {refine_rate:.0%} of successes")


def test_criterion_9_multi_norm_ordering(softmax_victim, digits):
    pairs = _select_pairs(softmax_victim, digits, 20, untargeted=False)
    root = RngStream(109)
    results = {}
    for distortion, gamma in ((Distortion.L0, 0.3), (Distortion.L2, 1.0)):
        l0s, l2s = [], []
        for pair_idx, (img_idx, target) in enumerate(pairs):
            spec = ProblemSpec(x0=digits.inputs[img_idx], target=target,
                               num_classes=10, epsilon=1.0, gamma=gamma,
                               distortion=distortion)
            cfg = AdmmConfig(rho=10.0, max_queries=8000)
            oracle = ModelOracle(softmax_victim)
            report = run_attack(spec, cfg, LossConfig(), oracle,
                                root.child(pair_idx), rge_cfg=RgeConfig())
            if report.success:
                l0s.append(report.final_norms[0])
                l2s.append(report.final_norms[2])
        results[distortion] = (float(np.mean(l0s)), float(np.mean(l2s)))
    l0_attack, l2_attack = results[Distortion.L0], results[Distortion.L2]
    check(9, "multi-norm ordering",
          l0_attack[0] < l2_attack[0] and l2_attack[1] < l0_attack[1],
          f"mean l0: {l0_attack[0]:.1f} vs {l2_attack[0]:.1f}; "
          f"mean l2: {l0_attack[1]:.3f} vs {l2_attack[1]:.3f}")


def test_criterion_10_bo_admm_query_frugality(softmax_victim, digits):
    # 1-D synthetic: l(delta) = (delta - 0.3)^2, x0 = 0.5, eps = 1
    hits = 0
    max_queries = 0
    for seed in range(20):
        calls = []

        def f_loss(D):
            calls.extend(float(v) for v in D[:, 0])  # one query per row
            return (D[:, 0] - 0.3) ** 2

        solver = BoDeltaSolver(np.array([0.5]), 1.0,
                               BoConfig(init_samples=5, max_bo_iters=15))
        solver.step(b=np.zeros(1), rho=1e-6, f_loss=f_loss, rng=RngStream(seed))
        best = calls[int(np.argmin([(c - 0.3) ** 2 for c in calls]))]
        max_queries = max(max_queries, len(calls))
        if len(calls) <= 200 and abs(best - 0.3) <= 0.05:
            hits += 1

    # victim: >= 50% targeted ASR with < 10% of the criterion-7 budget
    pairs = _select_pairs(softmax_victim, digits, 10, untargeted=False)
    root = RngStream(110)
    bo_budget = 1900  # < 10% of the 20000-query ZO budget
    successes = 0
    for pair_idx, (img_idx, target) in enumerate(pairs):
        spec = ProblemSpec(x0=digits.inputs[img_idx], target=target,
                           num_classes=10, epsilon=1.0, gamma=1.0,
                           distortion=Distortion.L2)
        # stop at first success: the criterion measures ASR under a tight
        # query cap, not post-success distortion refinement
        cfg = AdmmConfig(rho=10.0, max_queries=bo_budget,
                         delta_backend=DeltaBackend.BO,
                         success_then_refine=False)
        oracle = ModelOracle(softmax_victim)
        report = run_attack(spec, cfg, LossConfig(), oracle,
                            root.child(pair_idx), bo_cfg=BoConfig())
        assert report.total_queries <= bo_budget
        successes += report.success
    asr = successes / len(pairs)
    check(10, "BO-ADMM query frugality",
          hits >= 18 and max_queries <= 200 and asr >= 0.50,
          f"1-D hits {hits}/20 at <= {max_queries} queries, victim ASR {asr:.0%}")


def test_criterion_11_determinism(tmp_path, cli_weights, score_batch):
    first, _ = score_batch
    repeat = tmp_path / "repeat"
    code = run_score_batch(repeat, cli_weights)
    assert code == 0
    h1 = hashlib.sha256((first / "aggregate.csv").read_bytes()).hexdigest()
    h2 = hashlib.sha256((repeat / "aggregate.csv").read_bytes()).hexdigest()
    check(11, "determinism", h1 == h2, f"sha256 {h1[:16]}…")
