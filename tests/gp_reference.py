"""The GP and EI formulas as written before they worked in place.

Tests compare the package against these bit for bit: the package may
reorder its temporaries and stop its EI ascent and its hyperparameter fit
at a fixed point, but every float it returns must be the one these give.
"""

import numpy as np

from admmattack.bo import _norm_cdf, _norm_pdf, ei_gradient, expected_improvement
from admmattack.gp import SQRT5, TRI_INV_BLOCK, GpFactorizationError, _scaled_r2


def same_bits(got, want):
    """Equal dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def matern52(r2, theta0):
    t2 = theta0 ** 2
    a = np.sqrt(r2)
    a *= SQRT5
    e = np.exp(-a)
    a += 1.0
    q = a * e
    q *= -(5.0 / 3.0) * t2
    k = (5.0 / 3.0) * r2
    k += a
    k *= e
    k *= t2
    return k, q


def sq_dists(X, Y, n_ls, Y_sq=None):
    if n_ls > 1:
        return (X[:, None, :] - Y[None, :, :]) ** 2
    if Y_sq is None:
        Y_sq = np.sum(Y * Y, axis=1)
    d2 = np.sum(X * X, axis=1)[:, None] + Y_sq[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0, out=d2)


def tri_inv(L):
    n = L.shape[0]
    if n <= TRI_INV_BLOCK:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    A_inv = out[:h, :h] = tri_inv(L[:h, :h])
    C_inv = out[h:, h:] = tri_inv(L[h:, h:])
    out[h:, :h] = -(C_inv @ (L[h:, :h] @ A_inv))
    return out


def obs_sq_dists(model, hyper):
    X = model._X
    return sq_dists(X, X, hyper.lengthscales.shape[0], np.sum(X * X, axis=1))


def factor(model, hyper):
    """(L_inv, alpha, nlml, K, Q) of the model's observations under hyper."""
    K, Q = matern52(_scaled_r2(obs_sq_dists(model, hyper), hyper.lengthscales), hyper.theta0)
    S = K.copy()
    S.flat[:: model.n + 1] += hyper.noise_var
    L = model._chol_with_jitter(S)
    L_inv = tri_inv(L)
    y = model.targets
    alpha = L_inv.T @ (L_inv @ y)
    nlml = float(np.sum(np.log(np.diag(L)))) + 0.5 * float(y @ alpha)
    return L_inv, alpha, nlml, K, Q


def posterior_terms(model, X):
    h = model.hyper
    Y = model._X
    D = sq_dists(X, Y, h.lengthscales.shape[0], np.sum(Y * Y, axis=1))
    k, q = matern52(_scaled_r2(D, h.lengthscales), h.theta0)
    L_inv, alpha = factor(model, h)[:2]
    v = L_inv @ k.T
    return q, v, k @ alpha, np.maximum(h.theta0 ** 2 - np.sum(v * v, axis=0), 0.0)


def posterior_with_grad(model, X):
    q, v, mu, var = posterior_terms(model, X)
    L_inv, alpha = factor(model, model.hyper)[:2]
    ls_inv2 = model.hyper.lengthscales ** -2.0

    def weighted_dk(w):
        wq = w * q
        return (wq.sum(axis=1)[:, None] * X - wq @ model._X) * ls_inv2

    dmu = weighted_dk(alpha[None, :])
    dvar = -2.0 * weighted_dk((L_inv.T @ v).T)
    return mu, var, dmu, dvar


def nlml_grad(model):
    h = model.hyper
    n = model.n
    L_inv, alpha, _, K, Q = factor(model, h)
    A = L_inv.T @ L_inv - np.outer(alpha, alpha)
    D = obs_sq_dists(model, h)
    return np.concatenate([
        [float(A.ravel() @ K.ravel())],
        -0.5 * ((A * Q).ravel() @ D.reshape(n * n, -1)) * h.lengthscales ** -2.0,
        [float(np.trace(A)) * h.noise_var],
    ])


def ei_gradient_from(mu, var, dmu, dvar, l_plus):
    """The EI gradient from a posterior and its gradients."""
    degenerate = var <= 0.0
    sigma = np.sqrt(np.where(degenerate, 1.0, var))
    dsigma = dvar / (2.0 * sigma)[:, None]
    z = (l_plus - mu) / sigma
    grad = -_norm_cdf(z)[:, None] * dmu + _norm_pdf(z)[:, None] * dsigma
    grad[degenerate] = 0.0
    return grad, degenerate


def maximize_ei_every_step(solver, model, l_plus, rng):
    """The EI ascent that always takes cfg.ei_steps steps unless every start
    turns degenerate, with the package's own gradient and pick."""
    cfg = solver.cfg
    lo, hi = solver.lo, solver.hi
    incumbent = solver._X[int(np.argmin(model.targets))]
    x = np.clip(np.vstack([incumbent, solver._sample(cfg.ei_restarts - 1, rng)]), lo, hi)
    active = np.arange(len(x))
    for _ in range(cfg.ei_steps):
        g, degenerate = ei_gradient(model, x[active], l_plus)
        active, g = active[~degenerate], g[~degenerate]
        if active.size == 0:
            break
        x[active] = np.clip(x[active] + cfg.ei_learning_rate * g, lo, hi)
    mu, var = model.posterior(x)
    ei = expected_improvement(mu, np.sqrt(var), l_plus)
    ei[np.isnan(ei)] = -1.0
    best = int(np.argmax(ei))
    return x[best], float(ei[best])


def same_hyper(a, b):
    """Equal amplitude, noise and lengthscale bytes."""
    return all(same_bits(x, y) for x, y in ((a.theta0, b.theta0), (a.noise_var, b.noise_var),
                                            (a.lengthscales, b.lengthscales)))


def fit_every_step(model, steps, learning_rate):
    """The hyperparameter fit that takes every one of its steps unless a step
    accepts no trial or lr falls below 1e-12, with the package's own gradient
    and factor. Installs the result as fit_hypers does and returns the index
    of the first step whose accepted trial repeated the hyperparameters bit
    for bit (None if none did)."""
    p = model._log_params()
    current = model.nlml()
    lr = learning_rate
    first_repeat = None
    for step in range(steps):
        g = model.nlml_grad()
        accepted = False
        for _ in range(30):
            cand = model._hyper_from_log(p - lr * g)
            try:
                factor = model._factor_for(cand)
            except GpFactorizationError:
                lr *= 0.5
                continue
            if factor.nlml <= current:
                if first_repeat is None and same_hyper(cand, model.hyper):
                    first_repeat = step
                p = model._log_params(cand)
                current = factor.nlml
                model.hyper, model._cache = cand, factor
                accepted = True
                break
            lr *= 0.5
        if not accepted or lr < 1e-12:
            break
    return first_repeat
