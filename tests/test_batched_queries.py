"""The batched query primitive: a stack of n points is n queries, answered
bitwise as the same points one at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmattack.core import AttackMode, ProblemSpec, RngStream
from admmattack.losses import (
    FeedbackMode,
    LossConfig,
    ModelOracle,
    score_loss,
    smoothed_decision_loss,
)
from admmattack.victim import MlpModel, SoftmaxModel


def random_victim(kind, d, k, seed):
    rng = RngStream(seed)
    if kind == "softmax":
        return SoftmaxModel(rng.standard_normal((k, d)), rng.standard_normal(k))
    h = int(rng.integers(1, 40))
    return MlpModel(rng.standard_normal((h, d)), rng.standard_normal(h),
                    rng.standard_normal((k, h)), rng.standard_normal(k))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["softmax", "mlp"]),
    n=st.integers(1, 40),
    d=st.integers(1, 80),
    k=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_queries_equal_single_queries(kind, n, d, k, seed):
    model = random_victim(kind, d, k, seed)
    X = RngStream(seed).child(1).uniform(0.0, 1.0, (n, d))
    batched, single = ModelOracle(model), ModelOracle(model)

    scores = batched.query_scores(X)
    assert batched.queries_used == n
    labels = batched.query_label(X)
    assert batched.queries_used == 2 * n

    rows = [single.query_scores(x) for x in X]
    row_labels = [single.query_label(x) for x in X]
    assert single.queries_used == 2 * n
    assert scores.shape == (n, k)
    assert scores.tobytes() == np.array(rows).tobytes()
    assert labels.tolist() == row_labels
    assert all(type(label) is int for label in row_labels)


def make_spec(d, target, mode=AttackMode.TARGETED, kappa=0.0):
    return ProblemSpec(x0=np.full(d, 0.5), target=target, num_classes=10,
                       epsilon=1.0, kappa=kappa, attack_mode=mode)


@pytest.mark.parametrize("mode", list(AttackMode))
@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_batched_score_loss_equals_per_row(softmax_victim, digits, mode, kappa):
    spec = make_spec(64, target=3, mode=mode, kappa=kappa)
    X = digits.inputs[:25]
    batched, single = ModelOracle(softmax_victim), ModelOracle(softmax_victim)
    values = score_loss(batched, X, spec)
    rows = [score_loss(single, x[None], spec) for x in X]
    assert all(r.shape == (1,) for r in rows)
    assert values.tobytes() == np.concatenate(rows).tobytes()
    assert batched.queries_used == single.queries_used == 25


def test_batched_smoothed_loss_equals_per_row(softmax_victim, digits):
    # the target is the class of the first digit, so both loss signs occur
    spec = make_spec(64, target=int(digits.labels[0]))
    cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.5, smoothing_samples=7)
    X = digits.inputs[:12]
    batched, single = ModelOracle(softmax_victim), ModelOracle(softmax_victim)
    values = smoothed_decision_loss(batched, X, spec, cfg, RngStream(5))
    rng = RngStream(5)
    rows = [smoothed_decision_loss(single, x[None], spec, cfg, rng) for x in X]
    assert all(r.shape == (1,) for r in rows)
    assert values.tobytes() == np.concatenate(rows).tobytes()
    assert len(set(np.concatenate(rows))) > 1
    assert batched.queries_used == single.queries_used == 12 * 7


@pytest.mark.parametrize("x", [
    np.float64(0.5),            # 0-d
    np.zeros((2, 3, 4)),        # 3-D
    np.zeros(5),                # wrong d, one point
    np.zeros((3, 5)),           # wrong d, a stack
    np.zeros((0, 4)),           # an empty stack
], ids=["0d", "3d", "wrong-d", "wrong-d-stack", "empty"])
def test_bad_query_shapes_raise_and_charge_nothing(x):
    oracle = ModelOracle(SoftmaxModel(np.ones((3, 4)), np.zeros(3)))
    with pytest.raises(ValueError):
        oracle.query_scores(x)
    with pytest.raises(ValueError):
        oracle.query_label(x)
    assert oracle.queries_used == 0
