"""Gaussian-process regression with an ARD Matern 5/2 kernel.

Exact posterior via the Cholesky factor L of the covariance, with jitter
escalation, as in Rasmussen & Williams, GPML Algorithm 2.1; L^-1 is formed
once per factorization by a blocked triangular inverse, so each solve
against L is a matrix product. The kernel matrix is evaluated once per
factorization and kept with it for the NLML gradient. The posterior takes
a stack of query points and returns per-row arrays. Hyperparameters are
fitted by gradient descent on the negative log marginal likelihood in
log-space, with the step count and learning rate its caller passes (BO
passes BoConfig's); the printed NLML drops the constant (n/2) log 2pi
term, which does not affect optimization. Prior mean is fixed at zero.

For dimensions above ISOTROPIC_DIM_CUTOFF a single shared lengthscale is
fitted: with the handful of observations collected per step,
d separate lengthscales are not identifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SQRT5 = math.sqrt(5.0)

JITTER_START = 1e-10
JITTER_MAX = 1e-4

LENGTHSCALE_BOUNDS = (1e-3, 1e3)
THETA0_BOUNDS = (1e-3, 1e3)
NOISE_VAR_BOUNDS = (1e-8, 1.0)

ISOTROPIC_DIM_CUTOFF = 32

TRI_INV_BLOCK = 32  # _tri_inv inverts blocks of at most this many rows directly

_LOG_THETA0_BOUNDS = (math.log(THETA0_BOUNDS[0]), math.log(THETA0_BOUNDS[1]))
_LOG_LENGTHSCALE_BOUNDS = (math.log(LENGTHSCALE_BOUNDS[0]), math.log(LENGTHSCALE_BOUNDS[1]))
_LOG_NOISE_VAR_BOUNDS = (math.log(NOISE_VAR_BOUNDS[0]), math.log(NOISE_VAR_BOUNDS[1]))


@dataclass(frozen=True)
class GpHyper:
    """Kernel amplitude, per-dimension (or shared) lengthscales, noise."""

    theta0: float = 1.0
    lengthscales: np.ndarray = field(default_factory=lambda: np.ones(1))
    noise_var: float = 1e-6

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        object.__setattr__(self, "lengthscales", ls)
        if self.theta0 <= 0 or (ls <= 0).any():
            raise ValueError("kernel hyperparameters must be positive")
        if self.noise_var < 0:
            raise ValueError("noise variance must be nonnegative")


def _matern52(r2: np.ndarray, theta0: float):
    """Kernel values and (dk/dr)/r from scaled squared distances
    r2 = |(x - y) / ls|^2 (see _scaled_r2).

    k = theta0^2 exp(-sqrt5 r) (1 + sqrt5 r + (5/3) r^2), and
    (dk/dr)/r = -(5/3) theta0^2 (1 + sqrt5 r) exp(-sqrt5 r), which has no
    singularity at r = 0.
    """
    t2 = theta0 ** 2
    a = np.sqrt(r2)
    a *= SQRT5
    e = np.negative(a)
    np.exp(e, out=e)
    a += 1.0  # 1 + sqrt5 r
    q = a * e
    q *= -(5.0 / 3.0) * t2
    k = (5.0 / 3.0) * r2
    k += a
    k *= e
    k *= t2
    return k, q


def _sq_dists(X: np.ndarray, Y: np.ndarray, n_ls: int, Y_sq: np.ndarray | None = None):
    """Unscaled squared distances between the rows of X and of Y.

    (nx, ny, d) per dimension when there are n_ls > 1 lengthscales (ARD);
    summed over dimensions to (nx, ny) for one shared lengthscale, via
    |x|^2 + |y|^2 - 2 x.y clipped at zero, which needs no (nx, ny, d) array.
    Y_sq, when given, is |y|^2 for the rows of Y.
    """
    if n_ls > 1:
        return (X[:, None, :] - Y[None, :, :]) ** 2
    if Y_sq is None:
        Y_sq = (Y * Y).sum(axis=1)
    d2 = (X * X).sum(axis=1)[:, None] + Y_sq[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0, out=d2)


def _scaled_r2(D: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """|(x - y) / ls|^2 from the output D of _sq_dists: a scalar multiply
    for a shared lengthscale, one product with ls^-2 for ARD."""
    if D.ndim == 2:
        return D * lengthscales[0] ** -2.0
    return D @ lengthscales ** -2.0


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halving.

    For L = [[A, 0], [B, C]], L^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]];
    blocks of at most TRI_INV_BLOCK rows go to np.linalg.inv, so the work
    is mostly matrix products.
    """
    n = L.shape[0]
    if n <= TRI_INV_BLOCK:
        return np.linalg.inv(L)
    h = n // 2
    out = np.empty_like(L)
    out[:h, h:] = 0.0
    A_inv = out[:h, :h] = _tri_inv(L[:h, :h])
    C_inv = out[h:, h:] = _tri_inv(L[h:, h:])
    out[h:, :h] = -(C_inv @ (L[h:, :h] @ A_inv))
    return out


class GpFactorizationError(RuntimeError):
    """Covariance matrix stayed non-PD after maximum jitter escalation."""


class _Factor(NamedTuple):
    """S = K + noise * I = L L^T for the observations under one hyper: L^-1,
    alpha = S^-1 y and the NLML; the kernel K and its (dk/dr)/r Q serve the
    NLML gradient."""

    L_inv: np.ndarray
    alpha: np.ndarray
    nlml: float
    K: np.ndarray
    Q: np.ndarray


def _clip(v: float, bounds) -> float:
    return min(max(v, bounds[0]), bounds[1])


class GpModel:
    """Observation set plus hyperparameters with a cached factorization."""

    def __init__(self, dim: int, hyper: GpHyper | None = None):
        """``hyper`` defaults to unit amplitude and lengthscales: one shared
        lengthscale above ISOTROPIC_DIM_CUTOFF dimensions, else one each."""
        self.dim = int(dim)
        if hyper is None:
            n_ls = 1 if dim > ISOTROPIC_DIM_CUTOFF else dim
            hyper = GpHyper(theta0=1.0, lengthscales=np.ones(n_ls), noise_var=1e-6)
        if hyper.lengthscales.shape[0] not in (1, self.dim):
            raise ValueError(f"a {self.dim}-dimensional GP takes 1 or {self.dim} lengthscales, "
                             f"got {hyper.lengthscales.shape[0]}")
        self._hyper = hyper
        self.set_data(np.zeros((0, self.dim)), np.zeros(0))

    @property
    def hyper(self) -> GpHyper:
        """Read-only: set by the constructor, and by fit_hypers with its factor."""
        return self._hyper

    # -- observations -------------------------------------------------

    @property
    def n(self) -> int:
        return self._X.shape[0]

    @property
    def targets(self) -> np.ndarray:
        return self._y

    def set_data(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim or X.shape[0] != y.shape[0]:
            raise ValueError("bad observation shapes")
        self._X = X.copy()
        self._X_sq = (self._X * self._X).sum(axis=1)  # |x|^2 of each observation
        self._y = y.copy()
        self._D = self._sq_dists_to(self._X)  # no hyper value enters it
        self._cache = None  # the _Factor under self.hyper

    # -- factorization -------------------------------------------------

    def _sq_dists_to(self, X: np.ndarray) -> np.ndarray:
        """_sq_dists from the rows of X to the observations."""
        return _sq_dists(X, self._X, self._hyper.lengthscales.shape[0], self._X_sq)

    @staticmethod
    def _chol_with_jitter(S: np.ndarray) -> np.ndarray:
        jitter = 0.0
        while True:
            try:
                return np.linalg.cholesky(S if jitter == 0.0 else S + jitter * np.eye(S.shape[0]))
            except np.linalg.LinAlgError:
                jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
                if jitter > JITTER_MAX:
                    raise GpFactorizationError(
                        "covariance not positive definite after jitter escalation"
                    )

    def _factor_for(self, hyper: GpHyper) -> _Factor:
        """The factor of the observations' covariance under ``hyper``.

        The kernel is evaluated once; the noise goes onto the diagonal of a
        copy, and L^-1 is formed once, so every later solve against L or
        L^T is a matrix product. The NLML is 0.5 log|S| + 0.5 y^T alpha with
        0.5 log|S| = sum(log diag L).
        """
        K, Q = _matern52(_scaled_r2(self._D, hyper.lengthscales), hyper.theta0)
        S = K.copy()
        S.ravel()[:: self.n + 1] += hyper.noise_var
        L = self._chol_with_jitter(S)
        L_inv = _tri_inv(L)
        alpha = L_inv.T @ (L_inv @ self._y)
        nlml = float(np.log(L.diagonal()).sum()) + 0.5 * float(self._y @ alpha)
        return _Factor(L_inv, alpha, nlml, K, Q)

    def _factor(self) -> _Factor:
        """The cached factor under self.hyper; an empty model has none."""
        if self.n < 1:
            raise ValueError("the GP has no observations")
        if self._cache is None:
            self._cache = self._factor_for(self._hyper)
        return self._cache

    # -- inference -----------------------------------------------------

    def _query_rows(self, x: np.ndarray) -> np.ndarray:
        """A stack (R, d) as an (R, d) float array; one point (d,) is read as
        a one-row stack."""
        X = np.asarray(x, dtype=np.float64)
        if X.ndim not in (1, 2) or X.shape[-1] != self.dim:
            raise ValueError(f"query points must be (d,) or (R, d) with d = {self.dim}, "
                             f"got shape {X.shape}")
        return X.reshape(-1, self.dim)

    def _posterior_terms(self, X: np.ndarray):
        """At the rows of X (R, d): (dk/dr)/r as (R, n), v = L^-1 k^T as
        (n, R), and the mean and the variance (clipped at zero) as (R,)."""
        f = self._factor()
        h = self._hyper
        k, q = _matern52(_scaled_r2(self._sq_dists_to(X), h.lengthscales), h.theta0)
        v = f.L_inv @ k.T
        var = h.theta0 ** 2 - (v * v).sum(axis=0)
        return q, v, k @ f.alpha, np.maximum(var, 0.0, out=var)

    def posterior(self, x: np.ndarray):
        """Posterior mean and variance (clipped at zero) at the rows of x
        (R, d), as (R,) arrays."""
        _, _, mu, var = self._posterior_terms(self._query_rows(x))
        return mu, var

    def posterior_with_grad(self, x: np.ndarray):
        """(mu, var, dmu/dx, dvar/dx) at the rows of x (R, d) via analytic
        kernel derivatives: (R,) arrays and (R, d) gradients."""
        X = self._query_rows(x)
        q, v, mu, var = self._posterior_terms(X)
        f = self._factor()
        ls_inv2 = self.hyper.lengthscales ** -2.0

        def weighted_dk(w):
            # sum_i w_i dk_i/dx for weights w (R, n): dk_i/dx_j is
            # q_i (x_j - X_ij) / ls_j^2, and (dk/dr)/r = q is finite at r = 0
            wq = w * q
            out = wq.sum(axis=1)[:, None] * X
            out -= wq @ self._X
            out *= ls_inv2
            return out

        dmu = weighted_dk(f.alpha[None, :])
        dvar = weighted_dk((f.L_inv.T @ v).T)  # weights S^-1 k^T
        dvar *= -2.0
        return mu, var, dmu, dvar

    # -- marginal likelihood --------------------------------------------

    def nlml(self) -> float:
        """0.5 log|S| + 0.5 y^T S^-1 y (constant term dropped)."""
        return self._factor().nlml

    def _log_params(self, hyper: GpHyper | None = None) -> np.ndarray:
        h = hyper or self.hyper
        return np.concatenate(
            [[math.log(h.theta0)], np.log(h.lengthscales), [0.5 * math.log(h.noise_var)]]
        )

    def _hyper_from_log(self, p: np.ndarray) -> GpHyper:
        n_ls = self.hyper.lengthscales.shape[0]
        log_ls = np.minimum(np.maximum(p[1 : 1 + n_ls], _LOG_LENGTHSCALE_BOUNDS[0]),
                            _LOG_LENGTHSCALE_BOUNDS[1])
        return GpHyper(
            theta0=math.exp(_clip(float(p[0]), _LOG_THETA0_BOUNDS)),
            lengthscales=np.exp(log_ls),
            noise_var=math.exp(_clip(2.0 * float(p[1 + n_ls]), _LOG_NOISE_VAR_BOUNDS)),
        )

    def nlml_grad(self) -> np.ndarray:
        """Gradient of nlml over log-hyperparameters.

        Layout: [d/dlog theta0, d/dlog ls_1..m, d/dlog sigma_n].
        Uses dL/dp = 0.5 tr((S^-1 - beta beta^T) dS/dp) with beta = S^-1 y,
        and the kernel matrix kept with the factor.
        """
        f = self._factor()
        h = self._hyper
        n = self.n
        A = f.L_inv.T @ f.L_inv
        A -= f.alpha[:, None] * f.alpha[None, :]
        # dS/dlog theta0 = 2K; dK/dlog ls_i = (dK/dr) dr/dlog ls_i = -Q D_i / ls_i^2
        # (D summed over dimensions for a shared lengthscale);
        # dS/dlog sigma_n = 2 sigma_n^2 I
        d_theta0 = float(A.ravel() @ f.K.ravel())
        d_noise = float(A.trace()) * h.noise_var
        A *= f.Q
        return np.concatenate([
            [d_theta0],
            -0.5 * (A.ravel() @ self._D.reshape(n * n, -1)) * h.lengthscales ** -2.0,
            [d_noise],
        ])

    def fit_hypers(self, steps: int, learning_rate: float) -> GpHyper:
        """Backtracking gradient descent on nlml in log-space.

        Accepted steps never increase nlml; bounds are enforced by clipping
        in log-space. A trial hyper is factored on this model's data, and an
        accepted trial's factor becomes the cached one. An accepted trial
        with the current hyperparameters, bit for bit, ends the fit: every
        later step would repeat its gradient, trial and factor. Returns (and
        installs) the fitted hyperparameters.
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
                try:
                    factor = self._factor_for(cand)
                except GpFactorizationError:
                    lr *= 0.5
                    continue
                if factor.nlml <= current:
                    h = self.hyper
                    # theta0 and the noise are positive, so == compares their bits
                    if (cand.theta0 == h.theta0 and cand.noise_var == h.noise_var
                            and cand.lengthscales.tobytes() == h.lengthscales.tobytes()):
                        return h
                    p = self._log_params(cand)
                    current = factor.nlml
                    self._hyper, self._cache = cand, factor
                    accepted = True
                    break
                lr *= 0.5
            if not accepted or lr < 1e-12:
                break
        return self.hyper
