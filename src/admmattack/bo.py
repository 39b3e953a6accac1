"""Bayesian-optimization delta-step: GP surrogate + expected improvement.

The step models l(delta) = f(x0 + delta) + (rho/2) ||delta - b||_2^2 with a
Gaussian process and picks the next query point by maximizing EI with
projected gradient ascent. Raw f-values are stored so observations carry
over between ADMM steps: the quadratic term is recomputed analytically
under the new b instead of re-querying the oracle.

EI is oriented for minimization: improvement means l(delta) below the best
observed value l_plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_vector, check_fields, feasible_bounds
from .gp import GpModel


@dataclass(frozen=True)
class BoConfig:
    init_samples: int = 5
    ei_restarts: int = 5
    ei_steps: int = 50
    ei_learning_rate: float = 0.1
    max_bo_iters: int = 10
    max_observations: int = 100  # GP size cap; oldest observations dropped
    fit_steps: int = 20
    fit_learning_rate: float = 0.1

    def __post_init__(self):
        check_fields(self, positive=("ei_learning_rate", "fit_learning_rate"),
                     counts={"init_samples": 1, "ei_restarts": 1, "ei_steps": 1,
                             "max_bo_iters": 0, "max_observations": 1, "fit_steps": 0})


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


_erfc = np.frompyfunc(math.erfc, 1, 1)  # math.erfc element-wise, as objects


def _norm_cdf(z):
    return 0.5 * np.asarray(_erfc(-z / math.sqrt(2.0)), dtype=np.float64)


def expected_improvement(mu, sigma, l_plus: float) -> np.ndarray:
    """Closed-form EI for minimization, element-wise; max(l_plus - mu, 0) where sigma = 0."""
    mu, sigma = np.asarray(mu, dtype=np.float64), np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    gap = l_plus - mu
    flat = sigma == 0.0
    z = gap / np.where(flat, 1.0, sigma)
    return np.where(flat, np.where(0.0 > gap, 0.0, gap), gap * _norm_cdf(z) + sigma * _norm_pdf(z))


def ei_gradient(model: GpModel, x: np.ndarray, l_plus: float):
    """Analytic EI gradient at the rows of x (R, d): the (R, d) gradients and
    an (R,) bool array of degenerate flags.

    grad EI = -Phi(z) grad mu + phi(z) grad sigma with z = (l_plus - mu)/sigma,
    formed in place in the gradient arrays the posterior returns.
    Degenerate (sigma = 0) rows get a zero gradient and flag True.
    """
    mu, var, dmu, dvar = model.posterior_with_grad(x)
    degenerate = var <= 0.0
    sigma = np.sqrt(np.where(degenerate, 1.0, var))
    z = (l_plus - mu) / sigma
    sigma *= 2.0
    dvar /= sigma[:, None]  # grad sigma
    dvar *= _norm_pdf(z)[:, None]
    dmu *= -_norm_cdf(z)[:, None]
    dmu += dvar
    dmu[degenerate] = 0.0
    return dmu, degenerate


class BoDeltaSolver:
    """Stateful BO delta-step with warm-started observations.

    Stores the queried deltas as one (n, d) array and their raw f-values as
    one (n,) array across calls, keeping the last max_observations rows;
    each call re-derives the surrogate targets l = f + (rho/2)||delta - b||^2
    under the new b.
    """

    def __init__(self, x0: np.ndarray, epsilon: float, cfg: BoConfig):
        self.x0 = as_vector(x0)
        self.epsilon = float(epsilon)
        self.cfg = cfg
        self.lo, self.hi = feasible_bounds(self.x0, self.epsilon)
        self._X = np.zeros((0, self.x0.shape[0]))
        self._f = np.zeros(0)

    @property
    def best_f(self) -> float:
        return float(np.min(self._f)) if self._f.size else float("nan")

    def _sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n feasible deltas, one uniform draw of shape (n, d)."""
        return rng.uniform(self.lo, self.hi, (n, self.x0.shape[0]))

    def _query(self, X: np.ndarray, f_loss) -> None:
        """Evaluate f at the rows of X in one loss call and record them."""
        f = np.asarray(f_loss(X), dtype=np.float64)
        if f.shape != (X.shape[0],):
            raise ValueError(f"f_loss must return one value per row, got shape {f.shape}")
        if not np.isfinite(f).all():
            raise ValueError("non-finite loss value")
        keep = self.cfg.max_observations
        self._X = np.concatenate([self._X, X])[-keep:]
        self._f = np.concatenate([self._f, f])[-keep:]

    def _targets(self, b: np.ndarray, rho: float) -> np.ndarray:
        return self._f + 0.5 * rho * np.sum((self._X - b[None, :]) ** 2, axis=1)

    def _maximize_ei(self, model: GpModel, l_plus: float, rng: RngStream):
        """Projected gradient ascent on EI from several feasible starts.

        The incumbent and ei_restarts - 1 random draws start; all step
        together, one batched EI gradient per step, and a start stops where
        its posterior variance is degenerate. The ascent ends early at a
        fixed point: when a step drops no start and leaves every start
        bitwise where it was, the next gradient call would see the same
        stack under the same model, l_plus and box, and so would every call
        after it. The first start with the strictly largest final EI wins;
        a NaN EI counts as -1.
        """
        cfg = self.cfg
        lo, hi = self.lo, self.hi
        incumbent = self._X[int(np.argmin(model.targets))]
        x = np.clip(np.vstack([incumbent, self._sample(cfg.ei_restarts - 1, rng)]), lo, hi)
        active = np.arange(len(x))
        for _ in range(cfg.ei_steps):
            stack = x[active]
            g, degenerate = ei_gradient(model, stack, l_plus)
            dropped = degenerate.any()
            if dropped:
                keep = ~degenerate
                active, g, stack = active[keep], g[keep], stack[keep]
                if active.size == 0:
                    break
            moved = np.clip(stack + cfg.ei_learning_rate * g, lo, hi)
            if not dropped and moved.tobytes() == stack.tobytes():
                break
            x[active] = moved
        mu, var = model.posterior(x)
        ei = expected_improvement(mu, np.sqrt(var), l_plus)
        ei[np.isnan(ei)] = -1.0
        best = int(np.argmax(ei))
        return x[best], float(ei[best])

    def step(self, b: np.ndarray, rho: float, f_loss, rng: RngStream) -> np.ndarray:
        """One BO delta-step; returns the best-observed feasible delta.

        f_loss maps a stack of perturbations (n, d) to the attack loss f of
        each row (n,), and is what consumes oracle queries. Every point
        queried is feasible.
        """
        b = as_vector(b)
        cfg = self.cfg
        self._query(self._sample(cfg.init_samples, rng), f_loss)
        model = GpModel(dim=self.x0.shape[0])
        for _ in range(cfg.max_bo_iters):
            model.set_data(self._X, self._targets(b, rho))
            if model.n >= 2:  # a fit needs two observations
                model.fit_hypers(cfg.fit_steps, cfg.fit_learning_rate)
            cand, ei = self._maximize_ei(model, float(np.min(model.targets)), rng)
            if ei <= 0.0:  # also when no start had a finite EI
                cand = self._sample(1, rng)[0]
            self._query(cand[None, :], f_loss)
        return self._X[int(np.argmin(self._targets(b, rho)))].copy()
