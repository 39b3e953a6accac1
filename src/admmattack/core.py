"""Shared domain types, box/l-inf feasibility logic and deterministic RNG streams.

All vectors are dense float64 numpy arrays. Inputs live in [0,1]^d,
perturbations are signed deltas of the same length.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

# Reporting threshold for the l0 count; avoids counting float dust.
L0_THRESHOLD = 1e-8


class Distortion(enum.Enum):
    L0 = "l0"
    L1 = "l1"
    L2 = "l2"
    ELASTIC = "elastic"


class AttackMode(enum.Enum):
    TARGETED = "targeted"
    UNTARGETED = "untargeted"


def as_vector(v) -> np.ndarray:
    """Coerce to a contiguous 1-D float64 array."""
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def check_fields(config, positive=(), nonnegative=(), counts=()) -> None:
    """Raise ValueError naming the first of config's fields that breaks its rule.

    Each ``positive`` field must lie in (0, inf) and each ``nonnegative`` one in
    [0, inf); NaN fails both. ``counts`` maps each count field to its least
    value: the field must be an integer to ``operator.index`` (NumPy integers
    pass, a bool does not) of at least that value.
    """
    def fail(name, value, rule):
        raise ValueError(f"{type(config).__name__}.{name} must be {rule}, got {value!r}")

    for name in positive:
        if not 0 < (value := getattr(config, name)) < math.inf:
            fail(name, value, "positive and finite")
    for name in nonnegative:
        if not 0 <= (value := getattr(config, name)) < math.inf:
            fail(name, value, "nonnegative and finite")
    for name, least in dict(counts).items():
        value = getattr(config, name)
        try:
            ok = not isinstance(value, bool) and operator.index(value) >= least
        except TypeError:
            ok = False
        if not ok:
            fail(name, value, f"an integer of at least {least}")


def _check_same_length(x0: np.ndarray, v: np.ndarray) -> None:
    if x0.shape != v.shape:
        raise ValueError(
            f"dimension mismatch: input has length {x0.shape[0]}, "
            f"perturbation has length {v.shape[0]}"
        )


@dataclass(frozen=True)
class ProblemSpec:
    """Frozen attack instance.

    In untargeted mode ``target`` holds the original label t0; success then
    means the predicted label differs from t0.
    """

    x0: np.ndarray
    target: int
    num_classes: int
    epsilon: float
    gamma: float = 1.0
    kappa: float = 0.0
    distortion: Distortion = Distortion.L2
    beta: float = 0.0
    attack_mode: AttackMode = AttackMode.TARGETED

    def __post_init__(self):
        check_fields(self, nonnegative=("gamma", "kappa", "beta"),
                     counts={"target": 0, "num_classes": 2})
        object.__setattr__(self, "x0", as_vector(self.x0))
        if not len(self.x0):
            raise ValueError("x0 must have at least one coordinate")
        if not np.all((self.x0 >= 0.0) & (self.x0 <= 1.0)):  # NaN fails too
            raise ValueError("x0 must lie in [0,1]^d")
        if self.target >= self.num_classes:
            raise ValueError("target class out of range")
        if not self.epsilon > 0:  # NaN fails too; an infinite epsilon leaves only the box
            raise ValueError("epsilon must be positive")

    @property
    def dim(self) -> int:
        return self.x0.shape[0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm as an (n, 1) column: one dot product per row,
    so bitwise equal to np.linalg.norm of the row."""
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0])


class RngStream:
    """Deterministic random stream with reproducible child derivation.

    Identical seed plus identical call sequence gives bitwise identical
    outputs. A stream is single-owner; concurrent use goes through
    independent children obtained via :meth:`child`.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(int(k) for k in _spawn_key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, *keys: int) -> "RngStream":
        """Independent stream derived from this one's seed and the keys."""
        return RngStream(self.seed, self._spawn_key + tuple(keys))

    # thin passthroughs, kept so call sites never touch .gen directly
    def standard_normal(self, size=None) -> np.ndarray:
        return self.gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def unit_directions(self, n: int, d: int, out: np.ndarray | None = None) -> np.ndarray:
        """n directions on the unit sphere, as an (n, d) stack (in ``out`` if
        given): one standard_normal((n, d)) draw, each row divided by its norm.
        Row for row, one (n, d) draw gives the bits of successive smaller ones."""
        u = self.gen.standard_normal((n, d), out=out)
        u /= row_norms(u)
        return u

    def unit_ball(self, n: int, d: int, out: np.ndarray | None = None) -> np.ndarray:
        """n uniform draws inside the unit Euclidean ball, as an (n, d) stack
        (in ``out`` if given).

        Per row, a standard_normal(d) direction and then the one 64-bit word
        that random() would take for its radius; all rows are scaled to unit
        norm after the draws. The stream is PCG64, whose random() is
        ``(word >> 11) * 2**-53``, so each radius ``u ** (1/d)`` has the bits
        of random() ** (1/d) (and of uniform(0, 1), which is 0 + 1 * random()).
        The power is a Python float power, libm's pow, as np.power may take a
        SIMD path that rounds differently.
        """
        if out is None:
            out = np.empty((n, d))
        elif out.shape != (n, d):
            raise ValueError(f"out has shape {out.shape}, expected {(n, d)}")
        normal, raw = self.gen.standard_normal, self.gen.bit_generator.random_raw
        words = []
        for row in out:
            normal(out=row)
            words.append(raw())
        norms = row_norms(out)
        if not norms.all():
            raise ValueError("a unit-ball direction drew an all-zero normal vector")
        power = 1.0 / d
        out /= norms
        out *= np.array([((w >> 11) * 2**-53) ** power for w in words])[:, None]
        return out


def feasible_bounds(x0: np.ndarray, epsilon: float):
    """Per-coordinate feasible interval [lo, hi] for a perturbation."""
    lo = np.maximum(-x0, -epsilon)
    hi = np.minimum(1.0 - x0, epsilon)
    return lo, hi


def box_feasible(x0: np.ndarray, v: np.ndarray, epsilon: float) -> bool:
    """True iff x0 + v stays in [0,1]^d and ||v||_inf <= epsilon."""
    x0 = as_vector(x0)
    v = as_vector(v)
    _check_same_length(x0, v)
    s = x0 + v
    return bool(
        np.all(s >= 0.0)
        and np.all(s <= 1.0)
        and np.all(np.abs(v) <= epsilon)
    )


def project_box_linf(x0: np.ndarray, v: np.ndarray, epsilon: float) -> np.ndarray:
    """Euclidean projection of v onto {w : x0 + w in [0,1]^d, ||w||_inf <= eps}.

    Coordinatewise clamp; idempotent, and the output always passes
    :func:`box_feasible` when x0 is itself in the box.
    """
    x0 = as_vector(x0)
    v = as_vector(v)
    _check_same_length(x0, v)
    lo, hi = feasible_bounds(x0, epsilon)
    return np.clip(v, lo, hi)


def lp_norms(v: np.ndarray):
    """(l0, l1, l2, linf) of a perturbation; l0 uses the reporting threshold."""
    v = as_vector(v)
    a = np.abs(v)
    l0 = int(np.count_nonzero(a > L0_THRESHOLD))
    l1 = float(a.sum())
    l2 = math.sqrt((v * v).sum())
    linf = float(a.max()) if v.size else 0.0
    return l0, l1, l2, linf


def distortion_value(v: np.ndarray, distortion: Distortion, beta: float = 0.0) -> float:
    """Value of the configured distortion function D at v."""
    v = as_vector(v)
    if distortion is Distortion.L0:
        return float(np.count_nonzero(np.abs(v) > L0_THRESHOLD))
    if distortion is Distortion.L1:
        return float(np.abs(v).sum())
    if distortion is Distortion.L2:
        return float(np.add.reduce(v * v))
    if distortion is Distortion.ELASTIC:
        return float(np.abs(v).sum() + 0.5 * beta * (v * v).sum())
    raise ValueError(f"unknown distortion {distortion}")
