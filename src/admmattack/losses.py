"""Black-box oracle abstraction, attack losses, and exact query accounting.

Oracles expose ``query_label`` (always) and optionally ``query_scores``;
each takes one point or a stack of n points and adds n to a monotone query
ledger. The losses take a stack of n points and return n values; they never
query more than their documented count.
"""

from __future__ import annotations

import enum
import math
import subprocess
from dataclasses import dataclass

import numpy as np

from .core import AttackMode, ProblemSpec, RngStream

# Probabilities are clipped here before taking logs so hard one-hot
# victims cannot produce infinite losses.
PROB_FLOOR = 1e-12


class FeedbackMode(enum.Enum):
    SCORE = "score"
    DECISION = "decision"


@dataclass(frozen=True)
class LossConfig:
    mode: FeedbackMode = FeedbackMode.SCORE
    smoothing_mu: float = 1.0
    smoothing_samples: int = 10

    def __post_init__(self):
        if self.mode is FeedbackMode.DECISION:
            if not 0 < self.smoothing_mu < math.inf:  # NaN fails too
                raise ValueError("smoothing mu must be positive and finite")
            if self.smoothing_samples < 1:
                raise ValueError("need at least one smoothing sample")


class OracleCapabilityError(RuntimeError):
    """Raised when a score query hits a label-only oracle."""


class OracleReplyError(RuntimeError):
    """The victim's reply to a query broke the oracle contract; nothing was charged."""


def _checked_scores(scores, x: np.ndarray) -> np.ndarray:
    """Scores (n, K) for a stack (n, d), K >= 1, all finite and non-negative."""
    s = np.asarray(scores)
    if s.ndim != 2 or len(s) != len(x) or s.shape[1] == 0 or s.dtype.kind not in "fiu":
        raise OracleReplyError(f"scores of shape {s.shape} and dtype {s.dtype} for a query "
                               f"of shape {x.shape}; expected (n, K) numbers")
    if not (s.min() >= 0 and s.max() < np.inf):  # NaN fails both
        raise OracleReplyError("scores must be finite and non-negative")
    return s


def _checked_labels(labels, x: np.ndarray) -> np.ndarray:
    """Labels (n,) for a stack (n, d), all non-negative integers."""
    arr = np.asarray(labels)
    if arr.shape != (len(x),) or arr.dtype.kind not in "iu" or arr.min() < 0:
        raise OracleReplyError(f"labels {arr!r} for a query of shape {x.shape}; "
                               "expected one non-negative integer per point")
    return arr


class QueryOracle:
    """Base query oracle with a ledger.

    Both queries take one point (d,) or a stack (n, d) and charge one query
    per row once the victim's reply has passed its checks; a call that
    raises charges nothing, and a malformed reply raises OracleReplyError.
    A point is a one-row stack to ``_scores`` (full class scores), ``_label``
    and the checks, and gets its row back. An oracle with
    ``scores_available`` false is label-only and refuses score queries.
    """

    scores_available = True

    def __init__(self):
        self.queries_used = 0

    def query_scores(self, x: np.ndarray) -> np.ndarray:
        if not self.scores_available:
            raise OracleCapabilityError("oracle is label-only and does not expose class scores")
        return self._charged(self._scores, _checked_scores, x)

    def query_label(self, x: np.ndarray):
        return self._charged(self._label, _checked_labels, x)

    def _charged(self, answer, check, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] == 0:
            raise ValueError(f"a query takes one point (d,) or a stack (n, d), got shape {x.shape}")
        X = x if x.ndim == 2 else x[None]  # a point is a one-row stack
        out = check(answer(X), X)
        self.queries_used += len(X)
        if x.ndim == 2:
            return out
        return out[0] if out.ndim == 2 else out.item()  # (K,) scores or an int label

    def _scores(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _label(self, x: np.ndarray):
        return hard_label(self._scores(x))


class ModelOracle(QueryOracle):
    """Wraps an in-process victim model (anything with predict_scores)."""

    def __init__(self, model, scores_available: bool = True):
        super().__init__()
        self.model = model
        self.scores_available = scores_available

    def _scores(self, x):
        return self.model.predict_scores(x)


class ProcessOracle(QueryOracle):
    """Line-delimited oracle over a subprocess's standard streams.

    Request: d comma-separated decimals on one line. Response: K
    comma-separated decimals (scores mode) or one integer (label mode).
    Each row of a stack takes one round trip.
    """

    def __init__(self, argv, mode: str = "scores"):
        super().__init__()
        if mode not in ("scores", "label"):
            raise ValueError("mode must be 'scores' or 'label'")
        self.scores_available = mode == "scores"
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def _roundtrip(self, x: np.ndarray) -> str:
        line = ",".join(repr(float(v)) for v in x)
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except OSError as exc:  # the child is gone, or going
            raise RuntimeError(f"oracle process cannot take a query (exit code "
                               f"{self.proc.poll()}): {exc}") from None
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("oracle process closed its output stream")
        return reply.strip()

    def _replies(self, x, parse):
        """Each row's reply read by ``parse``, row for row."""
        try:
            return np.array([parse(self._roundtrip(row)) for row in x])
        except ValueError as exc:
            raise OracleReplyError(f"unreadable reply from the oracle process: {exc}") from None

    def _scores(self, x):
        return self._replies(x, lambda reply: [float(t) for t in reply.split(",")])

    def _label(self, x):
        if self.scores_available:
            return super()._label(x)
        return self._replies(x, int)

    def close(self):
        if self.proc.stdin:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:  # a dead child cannot take the final flush
                pass
        self.proc.wait(timeout=10)


def serve_oracle(model, mode: str = "scores", stdin=None, stdout=None):
    """Serve a victim model over the line-delimited protocol until EOF.

    A request that is not model.dim comma-separated numbers raises
    ValueError naming its 1-based line.
    """
    import sys

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for lineno, line in enumerate(stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            x = np.array([float(t) for t in line.split(",")])
        except ValueError:
            raise ValueError(f"request line {lineno} is not comma-separated numbers: "
                             f"{line[:80]!r}") from None
        if x.shape != (model.dim,):
            raise ValueError(f"request line {lineno} has {x.size} values, "
                             f"the victim takes {model.dim}")
        scores = model.predict_scores(x)
        if mode == "scores":
            stdout.write(",".join(repr(float(s)) for s in scores) + "\n")
        else:
            stdout.write(f"{hard_label(scores)}\n")
        stdout.flush()


def hard_label(scores: np.ndarray):
    """Argmax with lowest class index winning exact ties; one label per row."""
    return np.argmax(scores, axis=-1)


def _goal_met(labels, spec: ProblemSpec):
    """Whether each label meets the attack goal (targeted: hits the target)."""
    return (labels == spec.target) == (spec.attack_mode is AttackMode.TARGETED)


def score_loss(oracle: QueryOracle, x: np.ndarray, spec: ProblemSpec, probe: bool = False):
    """C&W-style log-score loss of each row of x (n, d); one score query per row.

    Targeted: max(max_{j != t} log P_j - log P_t, -kappa). Untargeted swaps
    roles with t0 = spec.target holding the original label.

    With ``probe``, the last row of x is a success probe, scored in the same
    query: the result is then (the values of the other rows, whether the
    attack goal is met at the probe by the hard label of its scores).
    """
    n = len(x) - 1 if probe else len(x)
    scores = oracle.query_scores(x)
    logp = np.maximum(scores[:n], PROB_FLOOR)
    np.log(logp, out=logp)
    t = spec.target
    own = logp[..., t].copy()
    logp[..., t] = -np.inf  # so the max is over the other classes, each >= log(PROB_FLOOR)
    others = logp.max(axis=-1)
    if spec.attack_mode is AttackMode.TARGETED:
        val = others - own
    else:
        val = own - others
    # the semantics of Python's max(val, -kappa), signed zeros included
    floor = -spec.kappa
    values = np.where(floor > val, floor, val)
    return (values, bool(_goal_met(hard_label(scores[n]), spec))) if probe else values


def decision_loss(oracle: QueryOracle, x: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Hard-label loss in {-1, +1} of each row of x (n, d); -1 means the
    attack currently succeeds there."""
    return np.where(_goal_met(oracle.query_label(x), spec), -1.0, 1.0)


def smoothed_decision_loss(
    oracle: QueryOracle,
    x: np.ndarray,
    spec: ProblemSpec,
    cfg: LossConfig,
    rng: RngStream,
    probe: bool = False,
):
    """Monte Carlo smoothing of the decision loss of each row of x (n, d);
    N label queries per row.

    The directions are uniform in the unit ball, scaled by mu: one (n*N, d)
    stack from ``rng.unit_ball``, the N samples of the first row first.
    All of them go to the oracle in one call, clamped to [0,1]^d so real
    oracles never see out-of-range pixels. A decision-mode LossConfig has
    checked mu and N.

    With ``probe``, the last row of x is a success probe: it is not
    smoothed, and it goes to the oracle as the last row of the same label
    query. The result is then (the values of the other rows, whether the
    attack goal is met at the probe).
    """
    n, d = np.shape(x)
    if probe:
        n -= 1
    samples = cfg.smoothing_samples
    xq = rng.unit_ball(n * samples, d)
    xq *= cfg.smoothing_mu
    xq += np.repeat(x[:n], samples, axis=0)
    xq.clip(0.0, 1.0, out=xq)
    if probe:
        xq = np.concatenate((xq, x[n:]))
    losses = decision_loss(oracle, xq, spec)
    values = losses[:n * samples].reshape(n, samples).sum(axis=1) / samples
    return (values, bool(losses[-1] < 0)) if probe else values


def is_success(oracle: QueryOracle, x: np.ndarray, spec: ProblemSpec) -> bool:
    """One label query; true iff the attack goal is met at x."""
    return _goal_met(oracle.query_label(x), spec)
