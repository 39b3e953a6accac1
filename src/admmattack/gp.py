"""Gaussian-process regression with an ARD Matern 5/2 kernel.

Exact posterior via Cholesky with jitter escalation, and hyperparameter
fitting by gradient descent on the negative log marginal likelihood in
log-space (the printed NLML drops the constant (n/2) log 2pi term, which
does not affect optimization). Prior mean is fixed at zero.

For dimensions above ISOTROPIC_DIM_CUTOFF a single shared lengthscale is
fitted by default: with the handful of observations collected per step,
d separate lengthscales are not identifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

SQRT5 = math.sqrt(5.0)

JITTER_START = 1e-10
JITTER_MAX = 1e-4

LENGTHSCALE_BOUNDS = (1e-3, 1e3)
THETA0_BOUNDS = (1e-3, 1e3)
NOISE_VAR_BOUNDS = (1e-8, 1.0)

ISOTROPIC_DIM_CUTOFF = 32


@dataclass(frozen=True)
class GpHyper:
    """Kernel amplitude, per-dimension (or shared) lengthscales, noise."""

    theta0: float = 1.0
    lengthscales: np.ndarray = field(default_factory=lambda: np.ones(1))
    noise_var: float = 1e-6

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        object.__setattr__(self, "lengthscales", ls)
        if self.theta0 <= 0 or np.any(ls <= 0):
            raise ValueError("kernel hyperparameters must be positive")
        if self.noise_var < 0:
            raise ValueError("noise variance must be nonnegative")


def _scaled_r(x: np.ndarray, y: np.ndarray, hyper: GpHyper) -> float:
    diff = (np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    ls = hyper.lengthscales
    if ls.shape[0] == 1:
        scaled = diff / ls[0]
    else:
        scaled = diff / ls
    return float(np.sqrt(np.sum(scaled * scaled)))


def matern52(x: np.ndarray, y: np.ndarray, hyper: GpHyper) -> float:
    """theta0^2 * exp(-sqrt5 r) * (1 + sqrt5 r + (5/3) r^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("kernel arguments must have equal length")
    r = _scaled_r(x, y, hyper)
    return hyper.theta0 ** 2 * math.exp(-SQRT5 * r) * (1.0 + SQRT5 * r + (5.0 / 3.0) * r * r)


def _pairwise_r2(X: np.ndarray, Y: np.ndarray, hyper: GpHyper) -> np.ndarray:
    """Squared scaled distances between rows of X and rows of Y."""
    ls = hyper.lengthscales
    if ls.shape[0] == 1:
        Xs = X / ls[0]
        Ys = Y / ls[0]
    else:
        Xs = X / ls
        Ys = Y / ls
    d2 = (
        np.sum(Xs * Xs, axis=1)[:, None]
        + np.sum(Ys * Ys, axis=1)[None, :]
        - 2.0 * Xs @ Ys.T
    )
    return np.maximum(d2, 0.0)


def _kernel_matrix(X: np.ndarray, Y: np.ndarray, hyper: GpHyper) -> np.ndarray:
    r = np.sqrt(_pairwise_r2(X, Y, hyper))
    return hyper.theta0 ** 2 * np.exp(-SQRT5 * r) * (1.0 + SQRT5 * r + (5.0 / 3.0) * r * r)


class GpFactorizationError(RuntimeError):
    """Covariance matrix stayed non-PD after maximum jitter escalation."""


class GpModel:
    """Observation set plus hyperparameters with a cached factorization."""

    def __init__(self, dim: int, hyper: GpHyper | None = None, isotropic: bool | None = None):
        self.dim = int(dim)
        if isotropic is None:
            isotropic = dim > ISOTROPIC_DIM_CUTOFF
        self.isotropic = bool(isotropic)
        if hyper is None:
            n_ls = 1 if self.isotropic else dim
            hyper = GpHyper(theta0=1.0, lengthscales=np.ones(n_ls), noise_var=1e-6)
        self.hyper = hyper
        self._X = np.zeros((0, dim))
        self._y = np.zeros(0)
        self._cache = None  # (L, alpha) with S = L L^T, alpha = S^-1 y

    # -- observations -------------------------------------------------

    @property
    def n(self) -> int:
        return self._X.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._X

    @property
    def targets(self) -> np.ndarray:
        return self._y

    def set_data(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim or X.shape[0] != y.shape[0]:
            raise ValueError("bad observation shapes")
        self._X = X.copy()
        self._y = y.copy()
        self._cache = None

    def set_hyper(self, hyper: GpHyper) -> None:
        self.hyper = hyper
        self._cache = None

    # -- factorization -------------------------------------------------

    def _S(self, hyper: GpHyper | None = None) -> np.ndarray:
        h = hyper or self.hyper
        K = _kernel_matrix(self._X, self._X, h)
        return K + h.noise_var * np.eye(self.n)

    @staticmethod
    def _chol_with_jitter(S: np.ndarray) -> np.ndarray:
        jitter = 0.0
        while True:
            try:
                return np.linalg.cholesky(S + jitter * np.eye(S.shape[0]))
            except np.linalg.LinAlgError:
                jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
                if jitter > JITTER_MAX:
                    raise GpFactorizationError(
                        "covariance not positive definite after jitter escalation"
                    )

    def _factor(self):
        if self._cache is None:
            L = self._chol_with_jitter(self._S())
            alpha = np.linalg.solve(L.T, np.linalg.solve(L, self._y))
            self._cache = (L, alpha)
        return self._cache

    # -- inference -----------------------------------------------------

    def posterior(self, x: np.ndarray):
        """Posterior (mean, variance) at x; variance clipped at zero."""
        if self.n < 1:
            raise ValueError("posterior requires at least one observation")
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        L, alpha = self._factor()
        kvec = _kernel_matrix(self._X, x, self.hyper)[:, 0]
        mu = float(kvec @ alpha)
        v = np.linalg.solve(L, kvec)
        var = float(self.hyper.theta0 ** 2 - v @ v)
        return mu, max(var, 0.0)

    def posterior_with_grad(self, x: np.ndarray):
        """(mu, var, dmu/dx, dvar/dx) via analytic kernel derivatives."""
        if self.n < 1:
            raise ValueError("posterior requires at least one observation")
        x = np.asarray(x, dtype=np.float64)
        L, alpha = self._factor()
        h = self.hyper
        xr = x.reshape(1, -1)
        r2 = _pairwise_r2(self._X, xr, h)[:, 0]
        r = np.sqrt(r2)
        kvec = h.theta0 ** 2 * np.exp(-SQRT5 * r) * (1.0 + SQRT5 * r + (5.0 / 3.0) * r2)
        mu = float(kvec @ alpha)
        sol = np.linalg.solve(L.T, np.linalg.solve(L, kvec))
        var = max(float(h.theta0 ** 2 - kvec @ sol), 0.0)

        # dk/dx_j = (dk/dr)/r * (x_j - X_ij)/ls_j^2, where
        # (dk/dr)/r = -(5/3) theta0^2 (1 + sqrt5 r) exp(-sqrt5 r) has no
        # singularity at r = 0.
        q = -(5.0 / 3.0) * h.theta0 ** 2 * (1.0 + SQRT5 * r) * np.exp(-SQRT5 * r)
        ls = h.lengthscales
        ls2 = np.full(self.dim, ls[0] ** 2) if ls.shape[0] == 1 else ls ** 2
        diff = (x[None, :] - self._X) / ls2[None, :]
        dk = q[:, None] * diff  # (n, d)
        dmu = dk.T @ alpha
        dvar = -2.0 * (dk.T @ sol)
        return mu, var, dmu, dvar

    # -- marginal likelihood --------------------------------------------

    def nlml(self) -> float:
        """0.5 log|S| + 0.5 y^T S^-1 y (constant term dropped)."""
        if self.n < 1:
            raise ValueError("nlml requires at least one observation")
        L, alpha = self._factor()
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        return 0.5 * logdet + 0.5 * float(self._y @ alpha)

    def _log_params(self, hyper: GpHyper | None = None) -> np.ndarray:
        h = hyper or self.hyper
        return np.concatenate(
            [[math.log(h.theta0)], np.log(h.lengthscales), [0.5 * math.log(h.noise_var)]]
        )

    def _hyper_from_log(self, p: np.ndarray) -> GpHyper:
        n_ls = self.hyper.lengthscales.shape[0]
        theta0 = float(np.exp(np.clip(p[0], math.log(THETA0_BOUNDS[0]), math.log(THETA0_BOUNDS[1]))))
        ls = np.exp(
            np.clip(p[1 : 1 + n_ls], math.log(LENGTHSCALE_BOUNDS[0]), math.log(LENGTHSCALE_BOUNDS[1]))
        )
        log_nv = np.clip(2.0 * p[1 + n_ls], math.log(NOISE_VAR_BOUNDS[0]), math.log(NOISE_VAR_BOUNDS[1]))
        return GpHyper(theta0=theta0, lengthscales=ls, noise_var=float(np.exp(log_nv)))

    def nlml_grad(self) -> np.ndarray:
        """Gradient of nlml over log-hyperparameters.

        Layout: [d/dlog theta0, d/dlog ls_1..m, d/dlog sigma_n].
        Uses dL/dp = 0.5 tr((S^-1 - beta beta^T) dS/dp) with beta = S^-1 y.
        """
        if self.n < 1:
            raise ValueError("nlml_grad requires at least one observation")
        h = self.hyper
        n = self.n
        L, beta = self._factor()
        Sinv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(n)))
        A = Sinv - np.outer(beta, beta)

        r2 = _pairwise_r2(self._X, self._X, h)
        r = np.sqrt(r2)
        e = np.exp(-SQRT5 * r)
        K = h.theta0 ** 2 * e * (1.0 + SQRT5 * r + (5.0 / 3.0) * r2)
        # (dK/dr)/r with the removable singularity at r = 0 eliminated
        Q = -(5.0 / 3.0) * h.theta0 ** 2 * (1.0 + SQRT5 * r) * e

        grads = []
        # dS/dlog theta0 = 2K
        grads.append(0.5 * float(np.sum(A * (2.0 * K))))
        ls = h.lengthscales
        if ls.shape[0] == 1:
            # dr/dlog theta = -r  =>  dK/dlog theta = Q * r^2 * (-1) ... sign:
            # dK/dlog theta = (dK/dr) * (-r) = (Q * r) * (-r) = -Q * r^2
            grads.append(0.5 * float(np.sum(A * (-Q * r2))))
        else:
            for i in range(ls.shape[0]):
                di2 = (self._X[:, i][:, None] - self._X[:, i][None, :]) ** 2 / ls[i] ** 2
                # dK/dlog ls_i = Q * (-di2)
                grads.append(0.5 * float(np.sum(A * (-Q * di2))))
        # dS/dlog sigma_n = 2 sigma_n^2 I
        grads.append(0.5 * float(np.trace(A)) * 2.0 * h.noise_var)
        return np.array(grads)

    def fit_hypers(self, steps: int = 50, learning_rate: float = 0.1) -> GpHyper:
        """Backtracking gradient descent on nlml in log-space.

        Accepted steps never increase nlml; bounds are enforced by clipping
        in log-space. Returns (and installs) the fitted hyperparameters.
        """
        if self.n < 2:
            raise ValueError("fitting requires at least two observations")
        p = self._log_params()
        current = self.nlml()
        lr = learning_rate
        for _ in range(steps):
            g = self.nlml_grad()
            accepted = False
            for _ in range(30):
                cand = self._hyper_from_log(p - lr * g)
                trial = GpModel(self.dim, hyper=cand, isotropic=self.isotropic)
                trial.set_data(self._X, self._y)
                try:
                    val = trial.nlml()
                except GpFactorizationError:
                    lr *= 0.5
                    continue
                if val <= current:
                    p = trial._log_params()
                    current = val
                    self.set_hyper(cand)
                    accepted = True
                    break
                lr *= 0.5
            if not accepted or lr < 1e-12:
                break
        return self.hyper
