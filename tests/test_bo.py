import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admmattack
import gp_reference as ref
from gp_reference import same_bits
from admmattack import bo
from admmattack.bo import (
    BoConfig,
    BoDeltaSolver,
    _norm_cdf,
    _norm_pdf,
    ei_gradient,
    expected_improvement,
)
from admmattack.core import RngStream, box_feasible, project_box_linf
from admmattack.gp import GpFactorizationError, GpHyper, GpModel


def mc_expected_improvement(mu, sigma, l_plus, n=10**7, seed=0):
    """Independent Monte Carlo oracle: E[max(l_plus - Y, 0)], Y ~ N(mu, sigma^2)."""
    rng = RngStream(seed)
    y = mu + sigma * rng.standard_normal(n)
    return float(np.mean(np.maximum(l_plus - y, 0.0)))


class TestExpectedImprovement:
    def test_at_incumbent_mean(self):
        # mu == l_plus, sigma = 1: EI = phi(0) = 1/sqrt(2 pi)
        val = expected_improvement(0.0, 1.0, 0.0)
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert val == pytest.approx(0.39894228, abs=1e-8)

    def test_sigma_zero_below_incumbent(self):
        assert expected_improvement(1.0, 0.0, 3.0) == 2.0

    def test_sigma_zero_above_incumbent(self):
        assert expected_improvement(3.0, 0.0, 1.0) == 0.0

    def test_scales_linearly_with_sigma_at_incumbent(self):
        assert expected_improvement(0.0, 2.5, 0.0) == pytest.approx(
            2.5 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_monotone_in_incumbent(self):
        vals = [expected_improvement(0.0, 1.0, lp) for lp in (-1.0, 0.0, 1.0, 2.0)]
        assert vals == sorted(vals)
        assert all(v >= 0.0 for v in vals)

    def test_matches_monte_carlo(self):
        cases = [(0.0, 1.0, 0.0), (1.0, 0.5, 1.2), (-0.3, 2.0, 0.4), (2.0, 0.1, 1.0)]
        for i, (mu, sigma, lp) in enumerate(cases):
            assert expected_improvement(mu, sigma, lp) == pytest.approx(
                mc_expected_improvement(mu, sigma, lp, seed=i), abs=1e-3)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(3), np.array([1.0, -1.0, 0.0]), 0.0)

    def test_elementwise_equals_scalar_reference(self):
        rng = RngStream(3)
        for _ in range(200):
            mu = rng.standard_normal(100)
            sigma = np.abs(rng.standard_normal(100)) * rng.integers(0, 2, 100)
            l_plus = float(rng.standard_normal())
            ei = expected_improvement(mu, sigma, l_plus)
            ref = [scalar_ei(m, s, l_plus) for m, s in zip(mu, sigma)]
            assert ei.tobytes() == np.array(ref).tobytes()


class TestEiGradient:
    def fitted_model(self, seed=0, n=12, d=2):
        rng = RngStream(seed)
        X = rng.uniform(-1, 1, (n, d))
        y = np.sin(2 * X[:, 0]) + 0.5 * X[:, -1]
        model = GpModel(d, hyper=GpHyper(theta0=1.0,
                                         lengthscales=np.full(d, 0.8),
                                         noise_var=1e-4))
        model.set_data(X, y)
        return model, y

    def ei_at(self, model, x, l_plus):
        (mu,), (var,) = model.posterior(x[None])
        return expected_improvement(mu, math.sqrt(max(var, 0.0)), l_plus)

    def test_matches_finite_differences(self):
        model, y = self.fitted_model()
        l_plus = float(np.min(y))
        rng = RngStream(1)
        step = 1e-6
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            (g,), (degenerate,) = ei_gradient(model, x[None], l_plus)
            assert not degenerate
            for i in range(2):
                xp = x.copy(); xp[i] += step
                xm = x.copy(); xm[i] -= step
                fd = (self.ei_at(model, xp, l_plus) - self.ei_at(model, xm, l_plus)) / (2 * step)
                assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_degenerate_flag_on_zero_variance(self):
        class ZeroVarModel:
            def posterior_with_grad(self, x):
                return np.array([0.5]), np.array([0.0]), np.ones_like(x), np.zeros_like(x)

        (g,), (degenerate,) = ei_gradient(ZeroVarModel(), np.array([[0.3]]), 1.0)
        assert degenerate
        np.testing.assert_array_equal(g, np.zeros(1))


class TestBatchedEiGradient:
    @pytest.mark.parametrize("isotropic", [False, True])
    def test_stack_equals_single_points(self, isotropic):
        rng = RngStream(2)
        d = 3
        X = rng.uniform(-1, 1, (14, d))
        y = np.sin(2 * X[:, 0]) + 0.5 * X[:, -1]
        ls = np.full(1 if isotropic else d, 0.8)
        model = GpModel(d, hyper=GpHyper(theta0=1.0, lengthscales=ls, noise_var=1e-4))
        model.set_data(X, y)
        l_plus = float(np.min(y))
        Q = rng.uniform(-1, 1, (7, d))
        g, degenerate = ei_gradient(model, Q, l_plus)
        assert g.shape == (7, d)
        assert degenerate.dtype == bool and not degenerate.any()
        for r in range(7):
            (g1,), (deg1,) = ei_gradient(model, Q[r][None], l_plus)
            assert not deg1
            np.testing.assert_allclose(g[r], g1, rtol=1e-12)

    def test_degenerate_rows_get_zero_gradient(self):
        class HalfZeroVarModel:
            def posterior_with_grad(self, x):
                n = x.shape[0]
                var = np.where(np.arange(n) % 2 == 0, 0.0, 0.25)
                return np.full(n, 0.5), var, np.ones_like(x), np.ones_like(x)

        g, degenerate = ei_gradient(HalfZeroVarModel(), np.zeros((4, 2)), 1.0)
        np.testing.assert_array_equal(degenerate, [True, False, True, False])
        np.testing.assert_array_equal(g[degenerate], np.zeros((2, 2)))
        assert np.all(g[~degenerate] != 0.0)


def scalar_ei(mu, sigma, l_plus):
    """EI at one point, from the package's normal pdf and cdf."""
    if sigma == 0.0:
        return max(l_plus - mu, 0.0)
    z = (l_plus - mu) / sigma
    return float((l_plus - mu) * _norm_cdf(z) + sigma * _norm_pdf(z))


def reference_pick(xs, mu, var, l_plus):
    """The first start with the strictly largest EI; NaN never wins."""
    best_x, best_ei = None, -1.0
    for x, m, v in zip(xs, mu, var):
        ei = scalar_ei(m, math.sqrt(v), l_plus)
        if ei > best_ei:
            best_ei, best_x = ei, x
    return best_x, best_ei


def reference_maximize_ei(solver, model, l_plus, rng):
    """The per-start EI ascent: each start walks alone and stops at its
    first degenerate point; the first strict maximum of the final EI wins."""
    cfg = solver.cfg
    ends = []
    starts = [solver._X[int(np.argmin(model.targets))]]
    starts.extend(solver._sample(cfg.ei_restarts - 1, rng))
    for x in starts:
        x = project_box_linf(solver.x0, x, solver.epsilon)
        for _ in range(cfg.ei_steps):
            (g,), (degenerate,) = ei_gradient(model, x[None], l_plus)
            if degenerate:
                break
            x = project_box_linf(solver.x0, x + cfg.ei_learning_rate * g, solver.epsilon)
        ends.append(x)
    mu, var = np.array([model.posterior(x[None]) for x in ends])[:, :, 0].T
    return reference_pick(ends, mu, var, l_plus)


class FreezeBelow:
    """A GP whose variance reads 0 where x[1] < cut, so a start that steps
    there turns degenerate; records the rows of each gradient call."""

    def __init__(self, model, cut):
        self.model, self.cut, self.rows = model, cut, []

    @property
    def targets(self):
        return self.model.targets

    def posterior(self, x):
        return self.model.posterior(x)

    def posterior_with_grad(self, x):
        mu, var, dmu, dvar = self.model.posterior_with_grad(x)
        self.rows.append(np.atleast_2d(x).shape[0])
        return mu, np.where(np.asarray(x)[..., 1] < self.cut, 0.0, var), dmu, dvar


class TestBatchedMaximizeEi:
    def problem(self):
        d = 2
        solver = BoDeltaSolver(np.full(d, 0.5), 0.5, BoConfig(ei_restarts=5, ei_steps=50))
        deltas = RngStream(60).uniform(-0.5, 0.5, (6, d))
        solver._query(deltas, lambda X: np.sum((X - 0.3) ** 2, axis=1))
        model = GpModel(d, hyper=GpHyper(theta0=0.5, lengthscales=np.full(d, 0.4),
                                         noise_var=1e-4))
        model.set_data(solver._X, solver._f)
        return solver, model, float(np.min(model.targets))

    def assert_same(self, got, want):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-10)
        assert got[1] == pytest.approx(want[1], rel=1e-10)

    def test_matches_per_start_reference(self):
        solver, model, l_plus = self.problem()
        got = solver._maximize_ei(model, l_plus, RngStream(61))
        want = reference_maximize_ei(solver, model, l_plus, RngStream(61))
        self.assert_same(got, want)

    def test_degenerate_start_freezes_while_others_move(self):
        solver, model, l_plus = self.problem()
        batched = FreezeBelow(model, 0.22)
        got = solver._maximize_ei(batched, l_plus, RngStream(61))
        want = reference_maximize_ei(solver, FreezeBelow(model, 0.22), l_plus, RngStream(61))
        self.assert_same(got, want)
        rows = batched.rows
        # one batched call per step; starts drop out after moving for a
        # while, and the rest keep stepping to the last step
        assert len(rows) == solver.cfg.ei_steps
        assert rows[0] == 5 and rows[-1] >= 1
        assert any(rows[i] < rows[i - 1] for i in range(3, len(rows)))


class FixedPosterior:
    """A GP stand-in whose EI ascent stops at once (zero variance in the
    gradient call) and whose final posterior is given, start by start."""

    def __init__(self, targets, mu, var):
        self.targets, self.mu, self.var = targets, mu, var

    def posterior_with_grad(self, x):
        return np.zeros(len(x)), np.zeros(len(x)), np.zeros_like(x), np.zeros_like(x)

    def posterior(self, x):
        return self.mu, self.var


class TestEiPick:
    def solver(self, restarts):
        solver = BoDeltaSolver(np.full(3, 0.5), 0.5, BoConfig(ei_restarts=restarts))
        solver._query(RngStream(70).uniform(-0.5, 0.5, (4, 3)),
                      lambda X: np.sum(X ** 2, axis=1))
        return solver

    def picks(self, solver, mu, var, l_plus, seed):
        model = FixedPosterior(solver._f, mu, var)
        got = solver._maximize_ei(model, l_plus, RngStream(seed))
        starts = np.vstack([solver._X[int(np.argmin(solver._f))],
                            solver._sample(len(mu) - 1, RngStream(seed))])
        starts = np.clip(starts, solver.lo, solver.hi)
        return got, reference_pick(starts, mu, var, l_plus)

    def test_pick_equals_scalar_reference(self):
        solver = self.solver(6)
        rng = RngStream(71)
        for trial in range(300):
            mu = rng.standard_normal(6)
            var = np.abs(rng.standard_normal(6)) * rng.integers(0, 2, 6)
            var[int(rng.integers(0, 6))] = np.nan  # one start with no finite EI
            if trial % 3 == 0:
                mu[2], var[2] = mu[4], var[4]  # a tie: the first start wins
            got, want = self.picks(solver, mu, var, float(rng.standard_normal()), trial)
            assert want[0] is not None
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]

    def test_all_nan_starts_fall_back(self):
        solver = self.solver(4)
        nan = np.full(4, np.nan)
        got, want = self.picks(solver, nan, nan, 0.0, 5)
        assert want == (None, -1.0)
        # no winner: the step draws its random fallback since EI <= 0
        assert got[1] == -1.0
        np.testing.assert_array_equal(got[0], np.clip(solver._X[int(np.argmin(solver._f))],
                                                      solver.lo, solver.hi))


class TestBoDeltaSolver:
    def quadratic_setup(self, d=1, eps=1.0):
        x0 = np.full(d, 0.5)
        target = np.full(d, 0.3)
        f_loss = lambda D: np.sum((D - target) ** 2, axis=1)
        return x0, target, f_loss

    def test_finds_1d_quadratic_minimum(self):
        x0, target, f_loss = self.quadratic_setup()
        calls = []

        def counted(D):
            calls.extend(np.array(D))
            return f_loss(D)

        solver = BoDeltaSolver(x0, 1.0, BoConfig(init_samples=5, max_bo_iters=15))
        out = solver.step(b=np.zeros(1), rho=0.0, f_loss=counted, rng=RngStream(10))
        assert abs(out[0] - target[0]) < 0.05
        assert len(calls) == 5 + 15

    def test_all_queried_points_feasible(self):
        x0 = np.array([0.05, 0.95, 0.5])
        eps = 0.3
        seen = []

        def f_loss(D):
            seen.extend(np.array(D))
            return np.sum(D ** 2, axis=1)

        solver = BoDeltaSolver(x0, eps, BoConfig(init_samples=4, max_bo_iters=8))
        solver.step(b=np.zeros(3), rho=1.0, f_loss=f_loss, rng=RngStream(11))
        assert seen
        for delta in seen:
            assert box_feasible(x0, delta, eps)

    def test_returned_point_feasible_and_best_observed(self):
        x0 = np.array([0.4])
        solver = BoDeltaSolver(x0, 0.5, BoConfig(init_samples=3, max_bo_iters=5))
        b = np.array([0.2])
        rho = 2.0
        f_loss = lambda D: (D[:, 0] - 0.1) ** 2
        out = solver.step(b=b, rho=rho, f_loss=f_loss, rng=RngStream(12))
        assert box_feasible(x0, out, 0.5)
        targets = solver._targets(b, rho)
        out_target = f_loss(out[None])[0] + 0.5 * rho * float(np.sum((out - b) ** 2))
        assert out_target == pytest.approx(float(np.min(targets)), abs=1e-12)

    def test_incumbent_non_increasing_across_iters(self):
        x0 = np.full(2, 0.5)
        solver = BoDeltaSolver(x0, 1.0, BoConfig(init_samples=5, max_bo_iters=1))
        f_loss = lambda D: np.sum((D - 0.2) ** 2, axis=1)
        b, rho = np.zeros(2), 1.0
        prev = None
        for _ in range(8):
            solver.step(b=b, rho=rho, f_loss=f_loss, rng=RngStream(13))
            best = float(np.min(solver._targets(b, rho)))
            if prev is not None:
                assert best <= prev + 1e-12
            prev = best

    def test_observations_carry_over_between_steps(self):
        x0 = np.array([0.5])
        solver = BoDeltaSolver(x0, 1.0, BoConfig(init_samples=3, max_bo_iters=2))
        f_loss = lambda D: D[:, 0] ** 2
        solver.step(b=np.zeros(1), rho=1.0, f_loss=f_loss, rng=RngStream(14))
        n_after_first = len(solver._X)
        solver.step(b=np.full(1, 0.1), rho=1.0, f_loss=f_loss, rng=RngStream(15))
        assert len(solver._X) == n_after_first + 3 + 2

    def test_targets_rederived_under_new_b(self):
        x0 = np.array([0.5])
        solver = BoDeltaSolver(x0, 1.0, BoConfig())
        solver._query(np.array([[0.2], [-0.1]]), lambda D: np.array([1.5, 0.5]))
        b, rho = np.array([0.3]), 4.0
        expected = np.array([1.5 + 2.0 * 0.01, 0.5 + 2.0 * 0.16])
        np.testing.assert_allclose(solver._targets(b, rho), expected, atol=1e-12)

    def test_observation_cap_enforced(self):
        x0 = np.array([0.5])
        cfg = BoConfig(init_samples=5, max_bo_iters=3, max_observations=10)
        solver = BoDeltaSolver(x0, 1.0, cfg)
        queried = []

        def f_loss(D):
            queried.extend(D[:, 0])
            return D[:, 0] ** 2

        for i in range(4):
            solver.step(b=np.zeros(1), rho=1.0, f_loss=f_loss, rng=RngStream(20 + i))
        assert len(solver._X) == 10
        assert len(solver._f) == 10
        # the oldest rows are dropped: the last 10 queried remain, in order
        np.testing.assert_array_equal(solver._X[:, 0], queried[-10:])
        np.testing.assert_array_equal(solver._f, np.array(queried[-10:]) ** 2)

    def test_single_init_sample_skips_the_first_fit(self):
        # one observation cannot be fitted; the step must still run
        x0 = np.full(2, 0.5)
        solver = BoDeltaSolver(x0, 1.0, BoConfig(init_samples=1, max_bo_iters=3))
        f_loss = lambda D: np.sum((D - 0.2) ** 2, axis=1)
        out = solver.step(b=np.zeros(2), rho=1.0, f_loss=f_loss, rng=RngStream(30))
        assert box_feasible(x0, out, 1.0)
        assert len(solver._X) == 1 + 3

    def test_unexpected_fit_error_propagates(self, monkeypatch):
        def broken_fit(self, steps, learning_rate):
            raise RuntimeError("broken fit")

        monkeypatch.setattr(GpModel, "fit_hypers", broken_fit)
        solver = BoDeltaSolver(np.full(2, 0.5), 1.0, BoConfig(init_samples=3, max_bo_iters=2))
        with pytest.raises(RuntimeError, match="broken fit"):
            solver.step(b=np.zeros(2), rho=1.0, f_loss=lambda D: np.zeros(len(D)),
                        rng=RngStream(31))

    def test_a_covariance_that_cannot_be_factored_stops_the_step_in_the_fit(
            self, monkeypatch):
        # the EI ascent would factor the same data under the same hyper, so
        # the fit's failure ends the step before the EI-restart draw
        calls, rows = [], []

        def singular(S):
            calls.append(1)
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, "cholesky", singular)
        cfg = BoConfig(init_samples=3, max_bo_iters=2)
        solver = BoDeltaSolver(np.full(2, 0.5), 1.0, cfg)
        rng = RngStream(37)
        with pytest.raises(GpFactorizationError) as failure:
            solver.step(b=np.zeros(2), rho=1.0,
                        f_loss=lambda D: rows.append(len(D)) or np.sum(D ** 2, axis=1), rng=rng)
        assert str(failure.value) == "covariance not positive definite after jitter escalation"
        names = [entry.name for entry in failure.traceback]
        assert "fit_hypers" in names and "_maximize_ei" not in names
        assert len(calls) == 8  # one factorization: no jitter, then the 7 rungs
        assert rows == [cfg.init_samples]
        replay = RngStream(37)
        solver._sample(cfg.init_samples, replay)
        assert rng.uniform(size=4).tobytes() == replay.uniform(size=4).tobytes()

    def test_no_improvement_queries_the_fallback_draw(self, monkeypatch):
        # the documented draw order: init samples, the EI restarts, then one
        # fallback point when EI finds no improvement
        monkeypatch.setattr(bo, "expected_improvement", lambda mu, sigma, l_plus: np.zeros(len(mu)))
        queried = []

        def f_loss(D):
            queried.append(D.copy())
            return np.sum((D - 0.2) ** 2, axis=1)

        cfg = BoConfig(init_samples=4, ei_restarts=3, max_bo_iters=1)
        solver = BoDeltaSolver(np.array([0.05, 0.5, 0.97]), 0.3, cfg)
        solver.step(b=np.zeros(3), rho=1.0, f_loss=f_loss, rng=RngStream(38))
        replay = RngStream(38)
        init = replay.uniform(solver.lo, solver.hi, (cfg.init_samples, 3))
        replay.uniform(solver.lo, solver.hi, (cfg.ei_restarts - 1, 3))
        fallback = replay.uniform(solver.lo, solver.hi, (1, 3))
        assert len(queried) == 2
        assert queried[0].tobytes() == init.tobytes()
        assert queried[1].tobytes() == fallback.tobytes()

    def test_best_f_tracks_minimum_raw_value(self):
        solver = BoDeltaSolver(np.array([0.5]), 1.0, BoConfig())
        assert math.isnan(solver.best_f)
        solver._query(np.array([[0.1]]), lambda D: np.array([2.0]))
        solver._query(np.array([[0.2]]), lambda D: np.array([-1.0]))
        assert solver.best_f == -1.0

    def test_init_samples_are_one_loss_call(self):
        # the init samples go to the loss as one stack, then one row per
        # BO iteration
        rows = []

        def f_loss(D):
            rows.append(D.shape)
            return np.sum(D ** 2, axis=1)

        solver = BoDeltaSolver(np.full(3, 0.5), 0.4, BoConfig(init_samples=5, max_bo_iters=4))
        solver.step(b=np.zeros(3), rho=1.0, f_loss=f_loss, rng=RngStream(32))
        assert rows == [(5, 3)] + [(1, 3)] * 4

    def test_one_stacked_draw_equals_single_draws(self):
        # the documented draw order: one (k, d) uniform draw gives the same
        # values as k single draws
        solver = BoDeltaSolver(np.array([0.05, 0.5, 0.97]), 0.3, BoConfig())
        stacked = solver._sample(6, RngStream(33))
        rng = RngStream(33)
        single = np.array([rng.uniform(solver.lo, solver.hi) for _ in range(6)])
        np.testing.assert_array_equal(stacked, single)

    def test_loss_with_wrong_row_count_is_rejected(self):
        solver = BoDeltaSolver(np.full(2, 0.5), 1.0, BoConfig(init_samples=3))
        with pytest.raises(ValueError, match="one value per row"):
            solver.step(b=np.zeros(2), rho=1.0, f_loss=lambda D: 0.0, rng=RngStream(34))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_is_rejected_before_it_is_recorded(self, bad):
        # a NaN target would win np.argmin and come back as the step's delta
        def f_loss(D):
            f = (D[:, 0] - 0.3) ** 2
            if len(D) == 3:
                f[1] = bad
            return f

        solver = BoDeltaSolver(np.array([0.5]), 1.0, BoConfig(init_samples=3, max_bo_iters=3))
        with pytest.raises(ValueError, match="non-finite loss value"):
            solver.step(b=np.zeros(1), rho=1.0, f_loss=f_loss, rng=RngStream(35))
        assert solver._X.shape == (0, 1) and solver._f.size == 0

    def test_non_finite_acquisition_value_is_rejected(self):
        calls = []

        def f_loss(D):
            calls.append(len(D))
            return np.full(len(D), math.nan) if len(calls) == 2 else (D[:, 0] - 0.3) ** 2

        solver = BoDeltaSolver(np.array([0.5]), 1.0, BoConfig(init_samples=3, max_bo_iters=3))
        with pytest.raises(ValueError, match="non-finite loss value"):
            solver.step(b=np.zeros(1), rho=1.0, f_loss=f_loss, rng=RngStream(36))
        assert calls == [3, 1]
        assert solver._f.shape == (3,) and np.isfinite(solver._f).all()


def test_package_runs_without_scipy():
    # one BO step in a fresh interpreter; a SciPy import anywhere on the
    # way, at import time or inside a function, leaves it in sys.modules
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import admmattack
        from admmattack.bo import BoConfig, BoDeltaSolver
        from admmattack.core import RngStream
        solver = BoDeltaSolver(np.full(2, 0.5), 1.0, BoConfig(init_samples=3, max_bo_iters=2))
        solver.step(np.zeros(2), 1.0, lambda D: np.sum(D * D, axis=1), RngStream(0))
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """)
    src = str(Path(admmattack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_config_validation():
    with pytest.raises(ValueError):
        BoConfig(init_samples=0)
    with pytest.raises(ValueError):
        BoConfig(ei_learning_rate=0.0)
    with pytest.raises(ValueError):
        BoConfig(max_bo_iters=-1)
    for name in ("init_samples", "ei_restarts", "ei_steps", "max_bo_iters", "max_observations",
                 "fit_steps"):
        for value in (2.5, True):
            with pytest.raises(ValueError, match=rf"BoConfig\.{name} must be an integer"):
                BoConfig(**{name: value})
        assert getattr(BoConfig(**{name: np.int64(2)}), name) == 2


class TestEiGradientSameBits:
    """ei_gradient equals, bit for bit, its formula before it scaled the
    posterior gradients in place (tests/gp_reference.py)."""

    @pytest.mark.parametrize("d, n_ls, n", [(64, 1, 100), (3, 3, 40)], ids=["shared-64", "ard-3"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_equals_the_reference(self, d, n_ls, n, rows):
        rng = RngStream(130 + d)
        X = rng.uniform(-1, 1, (n, d))
        model = GpModel(d, hyper=GpHyper(lengthscales=np.ones(n_ls)))
        model.set_data(X, np.sum(X * X, axis=1) + 0.1 * rng.standard_normal(n))
        model.fit_hypers(3, 0.1)
        Q = rng.uniform(-1, 1, (rows, d))
        Q[0] = X[int(np.argmin(model.targets))]  # the incumbent, where EI starts
        l_plus = float(np.min(model.targets))
        got = ei_gradient(model, Q, l_plus)
        want = ref.ei_gradient_from(*ref.posterior_with_grad(model, Q), l_plus)
        assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_degenerate_rows_equal_the_reference(self):
        mu, var = np.array([0.5, 0.2, -0.1, 0.3]), np.array([0.0, 0.3, 0.0, 1e-300])
        dmu, dvar = RngStream(131).standard_normal((2, 4, 3))

        class Given:
            def posterior_with_grad(self, x):
                return mu.copy(), var.copy(), dmu.copy(), dvar.copy()

        got = ei_gradient(Given(), np.zeros((4, 3)), 0.4)
        want = ref.ei_gradient_from(mu, var, dmu, dvar, 0.4)
        assert all(same_bits(g, w) for g, w in zip(got, want))


def small_problem(d, n, epsilon, seed, corner=False, **cfg):
    """A solver with n observations of a quadratic inside its box; with
    corner, the best observation sits at a corner of the box, so the
    incumbent start does too."""
    rng = RngStream(seed)
    solver = BoDeltaSolver(rng.uniform(0, 1, d), epsilon, BoConfig(**cfg))
    X = solver._sample(n, rng)
    f = np.sum((X - 0.3 * epsilon) ** 2, axis=1)
    if corner:
        X[0] = np.where(rng.uniform(0, 1, d) < 0.5, solver.lo, solver.hi)
        f[0] = -1.0
    solver._query(X, lambda _: f)
    return solver, rng


class CountingEiGradient:
    def __init__(self, ei_gradient):
        self.ei_gradient, self.calls = ei_gradient, 0

    def __call__(self, model, x, l_plus):
        self.calls += 1
        return self.ei_gradient(model, x, l_plus)


class StillWhileFull:
    """A GP whose first start is degenerate, and whose gradient is zero at
    every start while the stack still holds all `full` starts: how a row's
    gradient may depend on the stack it is computed in."""

    def __init__(self, model, full):
        self.model, self.full = model, full

    @property
    def targets(self):
        return self.model.targets

    def posterior(self, x):
        return self.model.posterior(x)

    def posterior_with_grad(self, x):
        mu, var, dmu, dvar = self.model.posterior_with_grad(x)
        if len(x) == self.full:
            var[0] = 0.0
            dmu[:] = 0.0
            dvar[:] = 0.0
        return mu, var, dmu, dvar


class TestFixedPointExit:
    @settings(max_examples=120, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(2, 8),
        epsilon=st.sampled_from([1e-3, 0.05, 0.5]),
        shared=st.booleans(),
        log_ls=st.floats(-9.5, 1.0),
        corner=st.booleans(),
        ei_learning_rate=st.sampled_from([0.1, 10.0]),
        ei_steps=st.integers(1, 40),
        ei_restarts=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_ascent_that_takes_every_step(
            self, d, n, epsilon, shared, log_ls, corner, ei_learning_rate, ei_steps,
            ei_restarts, seed):
        solver, _ = small_problem(d, n, epsilon, seed, corner, ei_steps=ei_steps,
                                  ei_restarts=ei_restarts, ei_learning_rate=ei_learning_rate)
        model = GpModel(d, hyper=GpHyper(theta0=1.0,
                                         lengthscales=np.full(1 if shared else d,
                                                              math.exp(log_ls)),
                                         noise_var=1e-4))
        model.set_data(solver._X, solver._f)
        l_plus = float(np.min(model.targets))
        got = solver._maximize_ei(model, l_plus, RngStream(seed + 1))
        want = ref.maximize_ei_every_step(solver, model, l_plus, RngStream(seed + 1))
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])

    def test_starts_pinned_at_corners_stop_early(self, monkeypatch):
        # a tiny box and a long step: every start lands on a corner and the
        # gradient keeps pushing it outward
        solver, _ = small_problem(3, 6, 1e-3, 140, corner=True, ei_learning_rate=10.0)
        model = GpModel(3, hyper=GpHyper(theta0=1.0, lengthscales=np.full(3, 1e-3),
                                         noise_var=1e-4))
        model.set_data(solver._X, solver._f)
        l_plus = float(np.min(model.targets))
        counting = CountingEiGradient(bo.ei_gradient)
        monkeypatch.setattr(bo, "ei_gradient", counting)
        got = solver._maximize_ei(model, l_plus, RngStream(141))
        assert 1 < counting.calls < solver.cfg.ei_steps
        want = ref.maximize_ei_every_step(solver, model, l_plus, RngStream(141))
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_a_step_that_drops_a_start_is_not_a_fixed_point(self):
        # the remaining starts stand still on the first step, but the next
        # gradient call sees a smaller stack, which may move them
        solver, _ = small_problem(2, 6, 0.5, 144, ei_restarts=5)
        model = GpModel(2, hyper=GpHyper(theta0=0.5, lengthscales=np.full(2, 0.4),
                                         noise_var=1e-4))
        model.set_data(solver._X, solver._f)
        l_plus = float(np.min(model.targets))
        got = solver._maximize_ei(StillWhileFull(model, 5), l_plus, RngStream(145))
        want = ref.maximize_ei_every_step(solver, StillWhileFull(model, 5), l_plus,
                                          RngStream(145))
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        start = np.clip(solver._X[int(np.argmin(solver._f))], solver.lo, solver.hi)
        assert not same_bits(got[0], start)

    def test_one_gradient_call_when_no_start_moves(self, monkeypatch):
        # at lengthscale 1e-6 the kernel between distinct points underflows to
        # zero, so the EI gradient is exactly zero at every start; the unit
        # noise keeps the variance at the incumbent observation positive
        solver, _ = small_problem(2, 5, 0.5, 142, ei_restarts=5)
        model = GpModel(2, hyper=GpHyper(theta0=1.0, lengthscales=np.full(2, 1e-6),
                                         noise_var=1.0))
        model.set_data(solver._X, solver._f)
        l_plus = float(np.min(model.targets))
        counting = CountingEiGradient(bo.ei_gradient)
        monkeypatch.setattr(bo, "ei_gradient", counting)
        got = solver._maximize_ei(model, l_plus, RngStream(143))
        assert counting.calls == 1
        want = ref.maximize_ei_every_step(solver, model, l_plus, RngStream(143))
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("bad", [
    {"fit_steps": -1},
    {"fit_learning_rate": 0.0},
    {"fit_learning_rate": -0.1},
    {"fit_learning_rate": math.nan},
    {"ei_learning_rate": math.nan},
    {"ei_learning_rate": -1.0},
    {"ei_learning_rate": math.inf},
    {"fit_learning_rate": math.inf},
])
def test_config_rejects_bad_fit_and_ascent_settings(bad):
    with pytest.raises(ValueError):
        BoConfig(**bad)


def test_config_accepts_a_fit_of_zero_steps():
    assert BoConfig(fit_steps=0).fit_steps == 0
