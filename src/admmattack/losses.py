"""Black-box oracle abstraction, attack losses, and exact query accounting.

Oracles expose ``query_label`` (always) and optionally ``query_scores``;
each takes one point or a stack of n points and adds n to a monotone query
ledger. The losses take a stack of n points and return n values; they never
query more than their documented count.
"""

from __future__ import annotations

import enum
import struct
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .core import AttackMode, ProblemSpec, RngStream, check_fields

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
        check_fields(self, positive=("smoothing_mu",), counts={"smoothing_samples": 1})


class OracleCapabilityError(RuntimeError):
    """Raised when a score query hits a label-only oracle."""


class OracleReplyError(RuntimeError):
    """The victim's reply to a query broke the oracle contract; nothing was charged."""


def _checked_scores(scores, x: np.ndarray, k: int | None) -> np.ndarray:
    """Scores (n, K) for a stack (n, d), all finite and non-negative: K >= 2
    classes, and K = k where the oracle knows its class count k."""
    s = np.asarray(scores)
    if (s.ndim != 2 or len(s) != len(x) or s.shape[1] < 2 or s.dtype.kind not in "fiu"
            or (k is not None and s.shape[1] != k)):
        raise OracleReplyError(f"scores of shape {s.shape} and dtype {s.dtype} for a query "
                               f"of shape {x.shape}; expected (n, K) numbers, "
                               + ("K >= 2" if k is None else f"K = {k}"))
    # NaN fails both; each ufunc reduce is what s.min() or s.max() would call
    if not (np.minimum.reduce(s, axis=None) >= 0 and np.maximum.reduce(s, axis=None) < np.inf):
        raise OracleReplyError("scores must be finite and non-negative")
    return s


def _checked_labels(labels, x: np.ndarray, k: int | None) -> np.ndarray:
    """Labels (n,) for a stack (n, d), all non-negative integers, and below k
    where the oracle knows its class count k."""
    arr = np.asarray(labels)
    if (arr.shape != (len(x),) or arr.dtype.kind not in "iu" or np.minimum.reduce(arr) < 0
            or (k is not None and np.maximum.reduce(arr) >= k)):
        raise OracleReplyError(f"labels {arr!r} for a query of shape {x.shape}; expected one "
                               + ("non-negative integer" if k is None else f"integer in [0, {k})")
                               + " per point")
    return arr


class QueryOracle:
    """Base query oracle with a ledger.

    Both queries take one point (d,) or a stack (n, d) and charge one query
    per row once the victim's reply has passed its checks; a call that
    raises charges nothing, and a malformed reply raises OracleReplyError.
    A point is a one-row stack to ``_scores`` (full class scores), ``_label``
    and the checks, and gets its row back. An oracle with
    ``scores_available`` false is label-only and refuses score queries.
    ``num_classes`` is the victim's class count where the oracle knows it;
    the checks then hold each reply to it.
    """

    scores_available = True
    num_classes: int | None = None

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
        out = check(answer(X), X, self.num_classes)
        self.queries_used += len(X)
        if x.ndim == 2:
            return out
        return out[0] if out.ndim == 2 else out.item()  # (K,) scores or an int label

    def _scores(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _label(self, x: np.ndarray):
        return hard_label(_checked_scores(self._scores(x), x, self.num_classes))


class ModelOracle(QueryOracle):
    """Wraps an in-process victim model (anything with predict_scores),
    and takes its class count from the model's ``num_classes`` if it has one."""

    def __init__(self, model, scores_available: bool = True):
        super().__init__()
        self.model = model
        self.scores_available = scores_available
        self.num_classes = getattr(model, "num_classes", None)

    def _scores(self, x):
        return self.model.predict_scores(x)


_FRAME_HEADER = struct.Struct("<QQ")  # (rows, cols); see ProcessOracle
CLOSE_TIMEOUT_S = 10.0  # how long ProcessOracle.close waits for its child to exit


def _write_frame(stream, a: np.ndarray) -> None:
    """Write the (rows, cols) array a as one frame: int64 if it holds integers, else float64."""
    a = np.ascontiguousarray(a, dtype="<i8" if a.dtype.kind in "iu" else "<f8")
    stream.write(_FRAME_HEADER.pack(*a.shape) + a.tobytes())
    stream.flush()


def _read_frame(stream, dtype: str = "<f8", rows: int = 0, cols: int = 0) -> np.ndarray:
    """The next frame as a (rows, cols) array of ``dtype``. A header whose shape
    differs from a nonzero ``rows`` or ``cols``, or that cannot be allocated, raises
    ValueError before the body is read; a stream that ends inside the frame, EOFError."""
    head = stream.read(_FRAME_HEADER.size)
    if len(head) < _FRAME_HEADER.size:
        raise EOFError(f"the stream ended {len(head)} bytes into a frame header")
    got = _FRAME_HEADER.unpack(head)
    want = (rows or got[0], cols or got[1])
    if got != want:
        raise ValueError(f"a frame of {got[0]} x {got[1]} values, expected {want[0]} x {want[1]}")
    try:
        out = np.empty(got, dtype=dtype)
    except (MemoryError, ValueError):
        raise ValueError(f"a frame of {got[0]} x {got[1]} values cannot be allocated") from None
    if stream.readinto(out) < out.nbytes:
        raise EOFError(f"the stream ended inside a frame of {got[0]} x {got[1]} values")
    return out


class ProcessOracle(QueryOracle):
    """Oracle over a subprocess's standard streams, one frame each way per stack.

    A frame is (rows, cols) as little-endian uint64, then the values row by
    row as little-endian 8-byte numbers. Request: the (n, d) float64 stack.
    Reply: the (n, K) float64 scores, or in label mode (n, 1) int64 labels.

    A fault in an exchange may leave the streams out of step, so it breaks
    the oracle: every later query raises RuntimeError naming that fault.
    """

    def __init__(self, argv, mode: str = "scores"):
        super().__init__()
        if mode not in ("scores", "label"):
            raise ValueError("mode must be 'scores' or 'label'")
        self.scores_available = mode == "scores"
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._fault = None  # the message of the fault that broke the oracle

    def _exchange(self, x: np.ndarray, dtype: str = "<f8", cols: int = 0) -> np.ndarray:
        if self._fault is not None:
            raise RuntimeError(f"oracle process is broken by an earlier fault: {self._fault}")
        try:
            _write_frame(self.proc.stdin, x)
            return _read_frame(self.proc.stdout, dtype, len(x), cols)
        except OSError as exc:  # the child is gone, or going
            fault = RuntimeError(f"oracle process cannot take a query (exit code "
                                 f"{self.proc.poll()}): {exc}")
        except EOFError as exc:
            fault = RuntimeError(f"oracle process closed its output stream: {exc}")
        except ValueError as exc:
            fault = OracleReplyError(f"bad reply from the oracle process: {exc}")
        self._fault = str(fault)
        raise fault from None

    _scores = _exchange  # float64 replies of any width

    def _label(self, x):
        if self.scores_available:
            return super()._label(x)
        return self._exchange(x, "<i8", cols=1)[:, 0]

    def close(self):
        """Close the child's input, drain its output and reap it. A child
        still running after CLOSE_TIMEOUT_S is killed and reaped, and close
        raises RuntimeError naming its exit code."""
        try:
            self.proc.communicate(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError(f"oracle process did not exit within {CLOSE_TIMEOUT_S:g} s of "
                               f"its input closing; killed (exit code "
                               f"{self.proc.returncode})") from None


def serve_oracle(model, mode: str = "scores"):
    """Answer each frame on stdin with one ``predict_scores`` of its stack,
    framed on stdout as ProcessOracle reads it, until EOF. A request cut
    short raises EOFError; one that is not model.dim wide, ValueError."""
    while sys.stdin.buffer.peek(1):  # not at EOF
        scores = model.predict_scores(_read_frame(sys.stdin.buffer, cols=model.dim))
        _write_frame(sys.stdout.buffer, scores if mode == "scores" else hard_label(scores)[:, None])


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
    others = np.maximum.reduce(logp, axis=-1)
    if spec.attack_mode is AttackMode.TARGETED:
        val = others - own
    else:
        val = own - others
    # the semantics of Python's max(val, -kappa), signed zeros included
    floor = -spec.kappa
    values = np.where(floor > val, floor, val)
    # the probe's hard label: the lowest index of its row's largest score
    return (values, bool(_goal_met(int(scores[n].argmax()), spec))) if probe else values


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
    oracles never see out-of-range pixels.

    With ``probe``, the last row of x is a success probe: it is not
    smoothed, and it goes to the oracle as the last row of the same label
    query. The result is then (the values of the other rows, whether the
    attack goal is met at the probe).

    The query stack is built in place, a fresh array per call since the
    oracle receives it: the draws fill its first n*N rows, and the probe,
    if any, is written last.
    """
    n, d = np.shape(x)
    if probe:
        n -= 1
    samples = cfg.smoothing_samples
    m = n * samples
    xq = np.empty((m + 1 if probe else m, d))
    smoothed = rng.unit_ball(m, d, out=xq[:m])
    smoothed *= cfg.smoothing_mu
    per_row = smoothed.reshape(n, samples, d)  # a view: row i's N samples
    np.add(per_row, x[:n, None], out=per_row)
    smoothed.clip(0.0, 1.0, out=smoothed)
    if probe:
        xq[m] = x[n]
    losses = decision_loss(oracle, xq, spec)
    values = np.add.reduce(losses[:m].reshape(n, samples), axis=1) / samples
    return (values, bool(losses[-1] < 0)) if probe else values


def is_success(oracle: QueryOracle, x: np.ndarray, spec: ProblemSpec) -> bool:
    """One label query; true iff the attack goal is met at x."""
    return _goal_met(oracle.query_label(x), spec)
