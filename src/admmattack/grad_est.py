"""Random gradient estimation over a row-wise loss callable.

Forward differences over Q random directions sharing one base evaluation,
so each call costs exactly Q + 1 loss evaluations, made in one loss call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_vector, row_norms


@dataclass(frozen=True)
class RgeConfig:
    q: int = 20
    nu: float = 0.5

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one random direction")
        if not 0 < self.nu < math.inf:  # NaN fails too
            raise ValueError("smoothing radius nu must be positive and finite")


def rge_with_base(loss, delta: np.ndarray, cfg: RgeConfig, rng: RngStream):
    """(d/(nu*Q)) * sum_j [loss(delta + nu*u_j) - loss(delta)] * u_j, and loss(delta).

    ``loss`` maps an (n, d) stack of perturbations to n values. The base
    point and the Q perturbed points go to it in one call of Q + 1 rows,
    base first. The directions u_j lie on the unit sphere: one (Q, d)
    standard normal draw, each row divided by its norm.
    """
    delta = as_vector(delta)
    d = delta.shape[0]
    u = rng.standard_normal((cfg.q, d))
    u /= row_norms(u)
    points = np.empty((cfg.q + 1, d))
    points[0] = delta
    np.multiply(u, cfg.nu, out=points[1:])
    points[1:] += delta
    values = np.asarray(loss(points), dtype=np.float64)
    base = float(values[0])
    if not math.isfinite(base):
        raise ValueError("non-finite loss value at the base point")
    if not np.isfinite(values).all():
        raise ValueError("non-finite loss value at a perturbed point")
    u *= (values[1:] - base)[:, None]
    grad = u.sum(axis=0)
    grad *= d / (cfg.nu * cfg.q)
    return grad, base
