import math

import numpy as np
import pytest

import gp_reference as ref
from gp_reference import same_bits
from admmattack.core import RngStream
import admmattack.gp as gp
from admmattack.gp import TRI_INV_BLOCK, GpHyper, GpModel, _tri_inv


def _scaled_r(x, y, hyper):
    diff = (np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    ls = hyper.lengthscales
    if ls.shape[0] == 1:
        scaled = diff / ls[0]
    else:
        scaled = diff / ls
    return float(np.sqrt(np.sum(scaled * scaled)))


def matern52(x, y, hyper):
    """Scalar reference kernel: theta0^2 * exp(-sqrt5 r) * (1 + sqrt5 r + (5/3) r^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("kernel arguments must have equal length")
    r = _scaled_r(x, y, hyper)
    return hyper.theta0 ** 2 * math.exp(-math.sqrt(5.0) * r) * (
        1.0 + math.sqrt(5.0) * r + (5.0 / 3.0) * r * r)


def kernel_matrix(X, Y, hyper):
    """K(X, Y) from the package's distance and kernel pieces."""
    D = gp._sq_dists(X, Y, hyper.lengthscales.shape[0])
    return gp._matern52(gp._scaled_r2(D, hyper.lengthscales), hyper.theta0)[0]


def naive_posterior(X, y, x, hyper):
    """Independent oracle: plain matrix-inverse GP posterior."""
    n = X.shape[0]
    K = np.array([[matern52(X[i], X[j], hyper) for j in range(n)] for i in range(n)])
    S = K + hyper.noise_var * np.eye(n)
    kvec = np.array([matern52(X[i], x, hyper) for i in range(n)])
    Sinv = np.linalg.inv(S)
    mu = kvec @ Sinv @ y
    var = matern52(x, x, hyper) - kvec @ Sinv @ kvec
    return float(mu), float(var)


def naive_nlml(X, y, hyper):
    n = X.shape[0]
    K = np.array([[matern52(X[i], X[j], hyper) for j in range(n)] for i in range(n)])
    S = K + hyper.noise_var * np.eye(n)
    sign, logdet = np.linalg.slogdet(S)
    return 0.5 * logdet + 0.5 * float(y @ np.linalg.solve(S, y))


class TestMatern52:
    def test_value_at_zero_distance(self):
        h = GpHyper(theta0=1.7, lengthscales=np.array([0.5, 2.0]))
        x = np.array([0.3, 0.4])
        assert matern52(x, x, h) == pytest.approx(1.7 ** 2)

    def test_decay_at_large_distance(self):
        h = GpHyper(theta0=1.0, lengthscales=np.ones(1))
        assert matern52(np.array([0.0]), np.array([50.0]), h) < 1e-10

    def test_unit_distance_value(self):
        # independent scalar computation of exp(-sqrt5)(1+sqrt5+5/3)
        h = GpHyper(theta0=1.0, lengthscales=np.ones(1))
        expected = math.exp(-math.sqrt(5)) * (1 + math.sqrt(5) + 5.0 / 3.0)
        got = matern52(np.array([0.0]), np.array([1.0]), h)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.52399411, abs=1e-8)

    def test_symmetry_and_matrix_consistency(self):
        rng = RngStream(0)
        h = GpHyper(theta0=1.3, lengthscales=rng.uniform(0.5, 2.0, 3))
        X = rng.standard_normal((6, 3))
        K = kernel_matrix(X, X, h)
        np.testing.assert_array_equal(K, K.T)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(matern52(X[i], X[j], h), abs=1e-12)

    def test_rejects_nonpositive_hypers(self):
        with pytest.raises(ValueError):
            GpHyper(theta0=0.0)
        with pytest.raises(ValueError):
            GpHyper(lengthscales=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["theta0", "lengthscale", "noise_var"])
    def test_rejects_non_finite_hypers(self, field, bad):
        kw = {"lengthscales": np.array([1.0, bad])} if field == "lengthscale" else {field: bad}
        with pytest.raises(ValueError, match="finite"):
            GpHyper(**kw)

    @pytest.mark.parametrize("shape", [(3, 1), (0,)])
    def test_lengthscales_are_one_number_or_a_1d_array(self, shape):
        with pytest.raises(ValueError, match=r"1-D array .* got shape"):
            GpHyper(lengthscales=np.ones(shape))
        assert GpHyper(lengthscales=2.0).lengthscales.tolist() == [2.0]


class TestPosterior:
    def test_noise_free_interpolation(self):
        rng = RngStream(1)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        model = GpModel(2, hyper=GpHyper(theta0=1.0, lengthscales=np.ones(2),
                                         noise_var=1e-8))
        model.set_data(X, y)
        for i in range(8):
            (mu,), (var,) = model.posterior(X[i][None])
            assert mu == pytest.approx(y[i], abs=1e-4)
            assert var <= 1e-4

    def test_prior_recovery_far_from_data(self):
        model = GpModel(1, hyper=GpHyper(theta0=2.0, lengthscales=np.ones(1),
                                         noise_var=1e-6))
        model.set_data(np.array([[0.0]]), np.array([3.0]))
        (mu,), (var,) = model.posterior(np.array([[1e4]]))
        assert abs(mu) < 1e-8
        assert var == pytest.approx(4.0, rel=1e-6)

    def test_matches_naive_inverse_oracle(self):
        rng = RngStream(2)
        for trial in range(10):
            n = int(rng.integers(2, 20))
            X = rng.standard_normal((n, 2))
            y = rng.standard_normal(n)
            h = GpHyper(theta0=float(rng.uniform(0.5, 2.0)),
                        lengthscales=rng.uniform(0.5, 2.0, 2),
                        noise_var=float(rng.uniform(1e-4, 0.1)))
            model = GpModel(2, hyper=h)
            model.set_data(X, y)
            x = rng.standard_normal(2)
            (mu,), (var,) = model.posterior(x[None])
            mu0, var0 = naive_posterior(X, y, x, h)
            assert mu == pytest.approx(mu0, abs=1e-8)
            assert var == pytest.approx(max(var0, 0.0), abs=1e-8)

    def test_variance_nonnegative_on_grid(self):
        rng = RngStream(3)
        X = rng.uniform(-1, 1, (15, 1))
        y = rng.standard_normal(15)
        model = GpModel(1, hyper=GpHyper(noise_var=1e-6))
        model.set_data(X, y)
        for x in np.linspace(-2, 2, 200):
            _, (var,) = model.posterior(np.array([[x]]))
            assert var >= 0.0

    def test_requires_observations(self):
        model = GpModel(2)
        for read in (lambda: model.posterior(np.zeros(2)), model.nlml, model.nlml_grad):
            with pytest.raises(ValueError):
                read()


class TestNlml:
    def test_matches_naive(self):
        rng = RngStream(4)
        X = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        h = GpHyper(theta0=1.2, lengthscales=np.array([0.8, 1.5]), noise_var=0.05)
        model = GpModel(2, hyper=h)
        model.set_data(X, y)
        assert model.nlml() == pytest.approx(naive_nlml(X, y, h), abs=1e-9)

    def test_single_zero_observation(self):
        h = GpHyper(theta0=1.5, lengthscales=np.ones(1), noise_var=0.01)
        model = GpModel(1, hyper=h)
        model.set_data(np.array([[0.3]]), np.array([0.0]))
        assert model.nlml() == pytest.approx(0.5 * math.log(1.5 ** 2 + 0.01), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(5)
        for trial in range(20):
            n = int(rng.integers(3, 12))
            d = int(rng.integers(1, 3))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            h = GpHyper(theta0=float(rng.uniform(0.5, 2.0)),
                        lengthscales=rng.uniform(0.5, 2.0, d),
                        noise_var=float(rng.uniform(1e-3, 0.2)))
            model = GpModel(d, hyper=h)
            model.set_data(X, y)
            g = model.nlml_grad()
            p0 = model._log_params()
            step = 1e-5
            for i in range(len(p0)):
                pp = p0.copy(); pp[i] += step
                pm = p0.copy(); pm[i] -= step
                mp = GpModel(d, hyper=model._hyper_from_log(pp))
                mp.set_data(X, y)
                mm = GpModel(d, hyper=model._hyper_from_log(pm))
                mm.set_data(X, y)
                fd = (mp.nlml() - mm.nlml()) / (2 * step)
                assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_isotropic_gradient_matches_finite_differences(self):
        rng = RngStream(6)
        X = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        model = GpModel(3, hyper=GpHyper(theta0=1.1, lengthscales=np.array([0.9]),
                                         noise_var=0.05))
        model.set_data(X, y)
        g = model.nlml_grad()
        p0 = model._log_params()
        step = 1e-5
        for i in range(len(p0)):
            pp = p0.copy(); pp[i] += step
            pm = p0.copy(); pm[i] -= step
            mp = GpModel(3, hyper=model._hyper_from_log(pp))
            mp.set_data(X, y)
            mm = GpModel(3, hyper=model._hyper_from_log(pm))
            mm.set_data(X, y)
            fd = (mp.nlml() - mm.nlml()) / (2 * step)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_duplicate_points_need_noise(self):
        # identical inputs with different targets: tiny noise is penalized
        X = np.array([[0.5], [0.5]])
        y = np.array([-1.0, 1.0])
        lo = GpModel(1, hyper=GpHyper(noise_var=1e-6))
        lo.set_data(X, y)
        hi = GpModel(1, hyper=GpHyper(noise_var=0.5))
        hi.set_data(X, y)
        assert lo.nlml() > hi.nlml()


class TestFitHypers:
    def test_steps_zero_unchanged(self):
        rng = RngStream(7)
        model = GpModel(1)
        model.set_data(rng.standard_normal((5, 1)), rng.standard_normal(5))
        before = model.hyper
        model.fit_hypers(0, 0.1)
        assert model.hyper is before

    def test_nlml_non_increasing(self):
        rng = RngStream(8)
        model = GpModel(1)
        X = rng.uniform(-2, 2, (30, 1))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(30)
        model.set_data(X, y)
        before = model.nlml()
        model.fit_hypers(30, 0.1)
        assert model.nlml() <= before + 1e-12

    def test_constant_targets_monotone(self):
        rng = RngStream(9)
        model = GpModel(1)
        X = rng.uniform(-1, 1, (10, 1))
        model.set_data(X, np.full(10, 2.0))
        before = model.nlml()
        model.fit_hypers(20, 0.1)
        assert model.nlml() <= before

    def test_lengthscale_recovery(self):
        # data generated from a known GP: fitted lengthscale within a
        # factor of 2 of truth in most seeds
        true_ls = 0.7
        hits = 0
        seeds = 20
        for seed in range(seeds):
            rng = RngStream(100 + seed)
            X = np.sort(rng.uniform(-3, 3, (50, 1)), axis=0)
            h_true = GpHyper(theta0=1.0, lengthscales=np.array([true_ls]),
                             noise_var=1e-4)
            K = kernel_matrix(X, X, h_true) + 1e-8 * np.eye(50)
            y = np.linalg.cholesky(K) @ rng.standard_normal(50)
            model = GpModel(1, hyper=GpHyper(theta0=1.0,
                                             lengthscales=np.array([2.0]),
                                             noise_var=1e-3))
            model.set_data(X, y)
            model.fit_hypers(60, 0.2)
            ls = float(model.hyper.lengthscales[0])
            if true_ls / 2 <= ls <= true_ls * 2:
                hits += 1
        assert hits >= 0.8 * seeds

    def test_requires_two_observations(self):
        model = GpModel(1)
        model.set_data(np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            model.fit_hypers(1, 0.1)


def test_hyper_is_read_only():
    # a written hyper would leave the cached factor of the old one in place
    model = GpModel(3)
    with pytest.raises(AttributeError):
        model.hyper = GpHyper(theta0=2.0, lengthscales=np.full(3, 0.5), noise_var=1e-3)


@pytest.mark.parametrize("n_ls", [2, 5])
def test_a_lengthscale_count_other_than_one_or_dim_is_rejected(n_ls):
    with pytest.raises(ValueError, match=rf"1 or 3 lengthscales, got {n_ls}"):
        GpModel(3, GpHyper(lengthscales=np.ones(n_ls)))


def test_isotropic_default_for_high_dim():
    assert GpModel(64).hyper.lengthscales.shape == (1,)
    assert GpModel(4).hyper.lengthscales.shape == (4,)


class TestBatchedPosterior:
    def model(self, isotropic, seed=40, n=15, d=3):
        rng = RngStream(seed)
        X = rng.uniform(-1, 1, (n, d))
        y = np.sin(2 * X[:, 0]) + X[:, -1] ** 2
        ls = rng.uniform(0.5, 2.0, 1 if isotropic else d)
        model = GpModel(d, hyper=GpHyper(theta0=1.3, lengthscales=ls, noise_var=1e-4))
        model.set_data(X, y)
        return model, rng.uniform(-1.2, 1.2, (6, d))

    @pytest.mark.parametrize("isotropic", [False, True])
    def test_posterior_with_grad_stack_equals_single_points(self, isotropic):
        model, Q = self.model(isotropic)
        mu, var, dmu, dvar = model.posterior_with_grad(Q)
        assert mu.shape == var.shape == (6,)
        assert dmu.shape == dvar.shape == (6, 3)
        for r in range(6):
            (m1,), (v1,), (dm1,), (dv1,) = model.posterior_with_grad(Q[r][None])
            np.testing.assert_allclose(mu[r], m1, rtol=1e-12)
            np.testing.assert_allclose(var[r], v1, rtol=1e-12)
            np.testing.assert_allclose(dmu[r], dm1, rtol=1e-12)
            np.testing.assert_allclose(dvar[r], dv1, rtol=1e-12)

    @pytest.mark.parametrize("isotropic", [False, True])
    def test_posterior_stack_equals_single_points_and_grad_path(self, isotropic):
        model, Q = self.model(isotropic, seed=41)
        mu, var = model.posterior(Q)
        mu_g, var_g, _, _ = model.posterior_with_grad(Q)
        np.testing.assert_array_equal(mu, mu_g)
        np.testing.assert_array_equal(var, var_g)
        for r in range(6):
            (m1,), (v1,) = model.posterior(Q[r][None])
            np.testing.assert_allclose([mu[r], var[r]], [m1, v1], rtol=1e-12)

    def test_bad_query_shapes_raise(self):
        model, _ = self.model(False)
        for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3)), np.float64(0.5)):
            with pytest.raises(ValueError):
                model.posterior(bad)
            with pytest.raises(ValueError):
                model.posterior_with_grad(bad)


class TestFitWithoutThrowawayModels:
    @pytest.mark.parametrize("d, isotropic", [(3, False), (40, True)])
    def test_nlml_never_increases_step_by_step(self, d, isotropic):
        rng = RngStream(50)
        X = rng.uniform(-1, 1, (25, d))
        y = np.cos(3 * X[:, 0]) + 0.05 * rng.standard_normal(25)
        values = []
        for steps in range(12):
            model = GpModel(d)
            assert model.hyper.lengthscales.shape == ((1,) if isotropic else (d,))
            model.set_data(X, y)
            model.fit_hypers(steps, 0.3)
            values.append(model.nlml())
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_cached_factor_equals_a_fresh_factorization(self):
        for d in (2, 40):  # one lengthscale per dimension, and one shared
            rng = RngStream(51)
            X = rng.uniform(-1, 1, (20, d))
            y = np.sin(3 * X[:, 0]) * X[:, 1]
            model = GpModel(d)
            model.set_data(X, y)
            model.fit_hypers(10, 0.1)
            fresh = GpModel(d, hyper=model.hyper)
            fresh.set_data(X, y)
            assert model.nlml() == fresh.nlml()
            for got, want in zip(model._factor(), fresh._factor()):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(model.nlml_grad(), fresh.nlml_grad())
            x = rng.uniform(-1, 1, (1, d))
            assert model.posterior(x) == fresh.posterior(x)


def spd_cholesky(n, seed):
    """Cholesky factor of a BO-like covariance: Matern kernel of n points in
    [-1, 1]^64 under one shared lengthscale, plus noise."""
    rng = RngStream(seed)
    X = rng.uniform(-1, 1, (n, 64))
    K = kernel_matrix(X, X, GpHyper(theta0=1.0, lengthscales=np.array([4.0])))
    return np.linalg.cholesky(K + 1e-4 * np.eye(n))


class TestTriInv:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 100, 101])
    def test_matches_general_inverse(self, n):
        L = spd_cholesky(n, seed=60 + n)
        want = np.linalg.inv(L)
        got = _tri_inv(L)
        assert np.max(np.abs(got @ L - np.eye(n))) <= 1e-13
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if n > TRI_INV_BLOCK:  # a halved inverse has an exactly zero upper block
            np.testing.assert_array_equal(got[: n // 2, n // 2 :], 0.0)

    def test_general_inverse_sees_only_small_blocks(self, monkeypatch):
        sizes = []
        inv = np.linalg.inv

        def recording_inv(a):
            sizes.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        rng = RngStream(61)
        model = GpModel(64)
        X = rng.uniform(-1, 1, (100, 64))
        model.set_data(X, np.sum(X * X, axis=1))
        model.fit_hypers(3, 0.1)
        model.posterior_with_grad(rng.uniform(-1, 1, (5, 64)))
        _tri_inv(spd_cholesky(101, seed=62))
        assert sizes and all(r == c <= TRI_INV_BLOCK for r, c in sizes)


def reference_posterior_with_grad(model, X):
    """The posterior gradient through an (R, n, d) array of kernel
    derivatives, dk_rij = q_ri (x_rj - X_ij)."""
    q, v, mu, var = model._posterior_terms(X)
    f = model._factor()
    sol = f.L_inv.T @ v  # S^-1 k^T, (n, R)
    dk = q[:, :, None] * (X[:, None, :] - model._X[None, :, :])
    ls_inv2 = model.hyper.lengthscales ** -2.0
    dmu = np.matmul(f.alpha, dk) * ls_inv2
    dvar = -2.0 * np.matmul(sol.T[:, None, :], dk)[:, 0] * ls_inv2
    return mu, var, dmu, dvar


def reference_nlml_grad(model):
    """The NLML gradient with the kernel evaluated afresh, not read from the
    cached factor."""
    h = model.hyper
    X, n = model._X, model.n
    S = kernel_matrix(X, X, h) + h.noise_var * np.eye(n)
    S_inv = np.linalg.inv(S)
    beta = S_inv @ model.targets
    A = S_inv - np.outer(beta, beta)
    D = (X[:, None, :] - X[None, :, :]) ** 2
    if h.lengthscales.shape[0] == 1:
        D = np.sum(D, axis=-1, keepdims=True)
    r = np.sqrt(np.sum(D * h.lengthscales ** -2.0, axis=-1))
    K = kernel_matrix(X, X, h)
    Q = -(5.0 / 3.0) * h.theta0 ** 2 * (1.0 + math.sqrt(5) * r) * np.exp(-math.sqrt(5) * r)
    return np.concatenate([
        [np.sum(A * K)],
        -0.5 * np.einsum("ij,ijk->k", A * Q, D) * h.lengthscales ** -2.0,
        [np.trace(A) * h.noise_var],
    ])


class TestProductFormGradients:
    def model(self, d, n_ls, n, seed):
        rng = RngStream(seed)
        X = rng.uniform(-1, 1, (n, d))
        y = np.sin(2 * X[:, 0]) + X[:, -1] ** 2
        h = GpHyper(theta0=1.3, lengthscales=rng.uniform(0.5, 2.0, n_ls) * (1 + (d > 3) * 3),
                    noise_var=1e-3)
        model = GpModel(d, hyper=h)
        model.set_data(X, y)
        return model, rng

    @pytest.mark.parametrize("d, n_ls, n", [(3, 3, 15), (3, 1, 15), (20, 20, 60), (64, 1, 100)],
                             ids=["ard-3", "shared-3", "ard-20", "shared-64"])
    def test_posterior_gradient_matches_the_3d_reference(self, d, n_ls, n):
        model, rng = self.model(d, n_ls, n, seed=70 + d)
        Q = rng.uniform(-1.2, 1.2, (5, d))
        Q[0] = model._X[3]  # at an observation, where r = 0
        for got, want in zip(model.posterior_with_grad(Q), reference_posterior_with_grad(model, Q)):
            np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12)
            # At an observation dvar is near zero, and the products' rounding is
            # relative to the size of the gradients elsewhere.
            np.testing.assert_allclose(got[0], want[0], rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want[1:])))

    @pytest.mark.parametrize("d, n_ls", [(3, 3), (3, 1), (40, 1)])
    def test_nlml_grad_reads_the_kernel_from_the_factor(self, d, n_ls, monkeypatch):
        model, _ = self.model(d, n_ls, 25, seed=80 + d)
        model.nlml()  # factors
        calls = []
        matern = gp._matern52
        monkeypatch.setattr(gp, "_matern52", lambda *a: calls.append(1) or matern(*a))
        g = model.nlml_grad()
        assert calls == []
        np.testing.assert_allclose(g, reference_nlml_grad(model), rtol=1e-12)
        fresh = GpModel(d, hyper=model.hyper)
        fresh.set_data(model._X, model.targets)
        np.testing.assert_array_equal(g, fresh.nlml_grad())


def bo_like_model(n, d, n_ls, seed, fit_steps=3):
    """A GP on n BO-like deltas in [-1, 1]^d, fitted a few steps the way the
    BO delta-step fits it."""
    rng = RngStream(seed)
    X = rng.uniform(-1, 1, (n, d))
    model = GpModel(d, hyper=GpHyper(lengthscales=np.ones(n_ls)))
    model.set_data(X, np.sum(X * X, axis=1) + 0.1 * rng.standard_normal(n))
    model.fit_hypers(fit_steps, 0.1)
    return model, rng


class TestSameBitsAsThePreInPlaceFormulas:
    """The factor, the posterior gradient and the NLML gradient equal, bit
    for bit, the formulas they had before they worked in place
    (tests/gp_reference.py)."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 99, 100])
    def test_tri_inv(self, n):
        L = spd_cholesky(n, seed=90 + n)
        assert same_bits(_tri_inv(L), ref.tri_inv(L))

    @pytest.mark.parametrize("d, n_ls, n", [(64, 1, 100), (64, 1, 99), (64, 1, 20), (3, 3, 40)],
                             ids=["shared-64-100", "shared-64-99", "shared-64-20", "ard-3-40"])
    def test_factor_and_nlml(self, d, n_ls, n):
        model, _ = bo_like_model(n, d, n_ls, seed=100 + n)
        for got, want in zip(model._factor(), ref.factor(model, model.hyper)):
            assert same_bits(got, want)
        assert same_bits(model.nlml(), ref.factor(model, model.hyper)[2])

    @pytest.mark.parametrize("d, n_ls, n", [(64, 1, 100), (3, 3, 40)], ids=["shared-64", "ard-3"])
    def test_nlml_grad(self, d, n_ls, n):
        model, _ = bo_like_model(n, d, n_ls, seed=110 + d)
        assert same_bits(model.nlml_grad(), ref.nlml_grad(model))

    @pytest.mark.parametrize("d, n_ls, n", [(64, 1, 100), (3, 3, 40)], ids=["shared-64", "ard-3"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_posterior_with_grad(self, d, n_ls, n, rows):
        model, rng = bo_like_model(n, d, n_ls, seed=120 + d)
        Q = rng.uniform(-1, 1, (rows, d))
        Q[0] = model._X[7]  # at an observation, where r = 0
        for got, want in zip(model.posterior_with_grad(Q), ref.posterior_with_grad(model, Q)):
            assert same_bits(got, want)
        for got, want in zip(model.posterior(Q), ref.posterior_terms(model, Q)[2:]):
            assert same_bits(got, want)


def fit_model(case):
    """A seeded model before its fit: BO-like deltas (shared-64, ard-3), and
    three whose fits pin hyperparameters at their bounds: the lengthscale
    at its lower bound (pinned-ls-1d), every lengthscale and the noise for
    constant targets (pinned-ard-3), and the amplitude and the noise at
    their upper bounds for steep targets (pinned-amplitude-1d)."""
    seed, n, d, n_ls, targets = {
        "shared-64": (140, 20, 64, 1, "bowl"),
        "ard-3": (141, 40, 3, 3, "bowl"),
        "pinned-ls-1d": (3, 5, 1, 1, "bowl"),
        "pinned-ard-3": (5, 8, 3, 3, "constant"),
        "pinned-amplitude-1d": (1, 6, 1, 1, "steep"),
    }[case]
    rng = RngStream(seed)
    X = rng.uniform(-1, 1, (n, d))
    y = {
        "bowl": lambda: np.sum(X * X, axis=1) + 0.1 * rng.standard_normal(n),
        "constant": lambda: np.ones(n),
        "steep": lambda: 1e4 * (X[:, 0] + 0.1 * rng.standard_normal(n)),
    }[targets]()
    model = GpModel(d, hyper=GpHyper(lengthscales=np.ones(n_ls)))
    model.set_data(X, y)
    return model


class TestFitStopsAtItsFixedPoint:
    """fit_hypers ends when an accepted trial repeats the hyperparameters,
    with the hyper and the cached factor of the fit that takes every step
    (tests/gp_reference.py)."""

    @pytest.mark.parametrize("case", ["shared-64", "ard-3", "pinned-ls-1d", "pinned-ard-3",
                                      "pinned-amplitude-1d"])
    def test_same_hyper_and_factor_as_every_step(self, case):
        model, reference = fit_model(case), fit_model(case)
        fitted = model.fit_hypers(80, 0.1)
        ref.fit_every_step(reference, 80, 0.1)
        assert ref.same_hyper(fitted, reference.hyper)
        assert ref.same_hyper(model.hyper, reference.hyper)
        for got, want in zip(model._factor(), reference._factor()):
            assert same_bits(got, want)

    @pytest.mark.parametrize("case", ["pinned-ls-1d", "pinned-ard-3", "pinned-amplitude-1d"])
    def test_no_gradient_follows_the_repeat(self, case, monkeypatch):
        first_repeat = ref.fit_every_step(fit_model(case), 80, 0.1)
        assert first_repeat is not None and first_repeat < 79
        calls = []
        grad = GpModel.nlml_grad
        monkeypatch.setattr(GpModel, "nlml_grad", lambda self: calls.append(1) or grad(self))
        fit_model(case).fit_hypers(80, 0.1)
        assert len(calls) == first_repeat + 1


class TestFactorizationFailures:
    """The jitter rungs and the fit's backtrack on a trial that cannot be
    factored, which BO's runs never reach."""

    def counted_cholesky(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda S: calls.append(S) or cholesky(S))
        return calls

    def test_a_slightly_negative_eigenvalue_factors_at_the_first_rung(self, monkeypatch):
        S = np.array([[1.0, 1.0], [1.0, 1.0 - 2e-12]])
        assert np.linalg.eigvalsh(S)[0] == pytest.approx(-1e-12, rel=1e-3)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)
        calls = self.counted_cholesky(monkeypatch)
        L = GpModel._chol_with_jitter(S)
        assert len(calls) == 2
        assert same_bits(L, np.linalg.cholesky(S + gp.JITTER_START * np.eye(2)))

    def test_an_indefinite_matrix_uses_up_every_rung(self, monkeypatch):
        S = np.diag([1.0, -1.0])
        calls = self.counted_cholesky(monkeypatch)
        with pytest.raises(gp.GpFactorizationError, match="after jitter escalation"):
            GpModel._chol_with_jitter(S)
        # no jitter, then 1e-10, 1e-9, ..., 1e-4
        assert len(calls) == 8
        assert calls[-1][0, 0] - 1.0 == pytest.approx(gp.JITTER_MAX, rel=1e-9)

    def test_a_trial_that_cannot_be_factored_halves_the_rate(self, monkeypatch):
        rng = RngStream(12)
        model = GpModel(2)
        model.set_data(rng.uniform(-1, 1, (8, 2)), rng.standard_normal(8))
        p, g = model._log_params(), model.nlml_grad()  # the fit's first gradient, cached
        lr = 0.1
        trials = []
        factor_for = GpModel._factor_for

        def first_trial_fails(self, hyper):
            trials.append(hyper)
            if len(trials) == 1:
                raise gp.GpFactorizationError("injected")
            return factor_for(self, hyper)

        monkeypatch.setattr(GpModel, "_factor_for", first_trial_fails)
        model.fit_hypers(1, lr)
        assert len(trials) >= 2
        assert ref.same_hyper(trials[0], model._hyper_from_log(p - lr * g))
        assert ref.same_hyper(trials[1], model._hyper_from_log(p - (lr / 2) * g))


@pytest.mark.parametrize("X, y", [
    (np.zeros((3, 2)), np.zeros(2)),  # fewer targets than rows
    (np.zeros((3, 3)), np.zeros(3)),  # rows of another dimension
    (np.zeros(2), np.zeros(1)),       # one point, not a stack
], ids=["targets", "dimension", "point"])
def test_observations_of_bad_shapes_are_rejected(X, y):
    with pytest.raises(ValueError, match="bad observation shapes"):
        GpModel(2).set_data(X, y)
