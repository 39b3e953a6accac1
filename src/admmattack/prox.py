"""Closed-form z-step solutions under box + l-inf constraints.

Each routine minimizes, coordinatewise,

    gamma * D_i(z) + (rho / 2) * (z - a_i)^2

over the feasible interval [max(-x0_i, -eps), min(1 - x0_i, eps)], where
a = delta^k - u^k / rho. For the convex distortions (l2, l1, elastic net)
clamping the unconstrained minimizer is exact. For l0 the hard-thresholded
candidate is clamped and then re-checked against z = 0, since clamping can
make the nonzero branch lose; exact ties go to 0 for sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Distortion, as_vector, check_fields, feasible_bounds


@dataclass(frozen=True)
class ZStepInput:
    """The z-step problem at a; lo and hi are computed once, at construction.

    Only ``a`` changes between the iterations of a run, so a run may keep
    one input and rewrite ``a`` in place before each zstep call.
    """

    a: np.ndarray
    x0: np.ndarray
    epsilon: float
    gamma: float
    rho: float
    distortion: Distortion = Distortion.L2
    beta: float = 0.0
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "x0", as_vector(self.x0))
        check_fields(self, positive=("rho",), nonnegative=("gamma", "beta"))
        if not self.epsilon > 0:  # an infinite epsilon leaves only the box
            raise ValueError("epsilon must be positive")
        if self.a.shape != self.x0.shape:
            raise ValueError("a and x0 must have the same length")
        lo, hi = feasible_bounds(self.x0, self.epsilon)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def _clamp(c: np.ndarray, inp: ZStepInput) -> np.ndarray:
    """c clamped in place to the feasible interval; c is the caller's own."""
    return c.clip(inp.lo, inp.hi, out=c)


def zstep_l2(inp: ZStepInput) -> np.ndarray:
    """Shrink by rho/(2*gamma + rho), then clamp."""
    c = (inp.rho / (2.0 * inp.gamma + inp.rho)) * inp.a
    return _clamp(c, inp)


def _soft_threshold(a: np.ndarray, tau: float) -> np.ndarray:
    return np.maximum(a - tau, 0.0) - np.maximum(-a - tau, 0.0)


def zstep_l1(inp: ZStepInput) -> np.ndarray:
    """Soft threshold by gamma/rho, then clamp."""
    c = _soft_threshold(inp.a, inp.gamma / inp.rho)
    return _clamp(c, inp)


def zstep_elastic(inp: ZStepInput) -> np.ndarray:
    """Soft threshold by gamma/rho, scale by 1/(1 + gamma*beta/rho), clamp."""
    c = _soft_threshold(inp.a, inp.gamma / inp.rho)
    c /= 1.0 + inp.gamma * inp.beta / inp.rho
    return _clamp(c, inp)


def zstep_l0(inp: ZStepInput) -> np.ndarray:
    """Hard threshold (a_i^2 > 2*gamma/rho), clamp, re-check against zero.

    After clamping, the clamped nonzero candidate may be beaten by z = 0;
    we compare gamma * 1{z != 0} + (rho/2)(z - a)^2 at both and keep the
    cheaper, choosing 0 on exact ties.
    """
    a = inp.a
    keep = a * a > 2.0 * inp.gamma / inp.rho
    c = np.where(keep, a, 0.0)
    c = _clamp(c, inp)

    def obj(z):
        return inp.gamma * (z != 0.0) + 0.5 * inp.rho * (z - a) ** 2

    return np.where(obj(c) < obj(np.zeros_like(a)), c, 0.0)


_ZSTEPS = {
    Distortion.L0: zstep_l0,
    Distortion.L1: zstep_l1,
    Distortion.L2: zstep_l2,
    Distortion.ELASTIC: zstep_elastic,
}


def zstep(inp: ZStepInput) -> np.ndarray:
    """Dispatch to the z-step for the configured distortion."""
    return _ZSTEPS[inp.distortion](inp)
