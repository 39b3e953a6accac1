"""Random gradient estimation over a row-wise loss callable.

Forward differences over Q random directions sharing one base evaluation,
so each call costs exactly Q + 1 loss evaluations, made in one loss call.
A :class:`DirectionSource` can draw a run's directions ahead of its
iterations on one executor worker, with a future per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_vector, check_fields

# Bytes of float64 directions a DirectionSource draws in one block, in whole
# iterations but at least one, so that its ring of two blocks holds at most
# twice this unless one iteration's directions are larger.
BLOCK_BYTES = 512 * 1024


def block_iterations(q: int, d: int) -> int:
    """Iterations whose (q, d) directions a DirectionSource draws in one block."""
    return max(1, BLOCK_BYTES // (8 * q * d))


@dataclass(frozen=True)
class RgeConfig:
    q: int = 20
    nu: float = 0.5

    def __post_init__(self):
        check_fields(self, positive=("nu",), counts={"q": 1})


def rge_with_base(loss, delta: np.ndarray, cfg: RgeConfig, rng: RngStream):
    """(d/(nu*Q)) * sum_j [loss(delta + nu*u_j) - loss(delta)] * u_j, and loss(delta).

    ``loss`` maps an (n, d) stack of perturbations to n values. The base
    point and the Q perturbed points go to it in one call of Q + 1 rows,
    base first. The directions u_j lie on the unit sphere, drawn by
    ``rng.unit_directions(Q, d)``; ``rng`` is an RngStream or a
    DirectionSource.
    """
    delta = as_vector(delta)
    d = delta.shape[0]
    u = rng.unit_directions(cfg.q, d)
    points = np.empty((cfg.q + 1, d))
    points[0] = delta
    np.multiply(u, cfg.nu, out=points[1:])
    points[1:] += delta
    values = np.asarray(loss(points), dtype=np.float64)
    if values.shape != (cfg.q + 1,):
        raise ValueError(f"loss must return one value per row, got shape {values.shape}")
    base = float(values[0])
    if not math.isfinite(base):
        raise ValueError("non-finite loss value at the base point")
    if not np.isfinite(values).all():
        raise ValueError("non-finite loss value at a perturbed point")
    u *= (values[1:] - base)[:, None]
    grad = np.add.reduce(u, axis=0)  # u.sum(axis=0) without its method wrapper
    grad *= d / (cfg.nu * cfg.q)
    return grad, base


class DirectionSource:
    """The RGE directions of one run, drawn ahead of its iterations.

    It owns ``rng``: its ``unit_directions(q, d)`` calls give the (q, d)
    blocks that as many ``rng.unit_directions(q, d)`` calls would, bit for
    bit. A block holds ``block_iterations(q, d)`` iterations, at most
    BLOCK_BYTES unless one iteration is larger; the first block is drawn
    here. One executor worker draws each later block with one
    ``rng.unit_directions`` call into a ring of two blocks allocated here,
    while the caller reads the other, so one block is always in flight and
    no call reads the last. NumPy's draw and the row norms release the GIL,
    so the draws overlap the caller's work. Each block's future hands it to
    the caller, or re-raises what its draw raised when the caller reaches
    that block. ``close`` stops the worker, cancelling a draw not begun.
    """

    def __init__(self, rng: RngStream, q: int, d: int):
        # imported only when a source is built: concurrent.futures loads logging
        from concurrent.futures import ThreadPoolExecutor
        self._rng, self._shape = rng, (q, d)
        ring = np.empty((2, q * block_iterations(q, d), d))
        self._block, self._used = rng.unit_directions(*ring[0].shape, out=ring[0]), 0
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rge-directions")
        self._next = self._pool.submit(rng.unit_directions, *ring[1].shape, out=ring[1])

    def unit_directions(self, n: int, d: int) -> np.ndarray:
        """The next (n, d) directions, with (n, d) the source's (q, d). The
        rows are the caller's until its next call."""
        if (n, d) != self._shape:
            raise ValueError(f"this source draws {self._shape} blocks, not {(n, d)}")
        if self._used == len(self._block):
            free, self._block, self._used = self._block, self._next.result(), 0
            self._next = self._pool.submit(self._rng.unit_directions, *free.shape, out=free)
        u = self._block[self._used:self._used + n]
        self._used += n
        return u

    def close(self) -> None:
        """Stop the worker once its running draw ends. What a draw raised is
        raised only by a call that reaches its block, so a finished run stays
        finished and an exception the caller is unwinding is not replaced."""
        self._pool.shutdown(cancel_futures=True)
