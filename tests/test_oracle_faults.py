"""Fault injection at the oracle boundary.

A victim behind the oracle contract answers every query honestly except one,
its first, second or last call within a small budget, which it corrupts. ZO
and BO runs under score feedback meet the score faults; under decision
feedback, the label faults. Each run must raise the typed error (the victim's
own OSError unchanged) with only the calls answered before the corrupted one
on the ledger.
"""

import numpy as np
import pytest

from admmattack.admm import AdmmConfig, DeltaBackend, run_attack
from admmattack.bo import BoConfig
from admmattack.core import ProblemSpec, RngStream
from admmattack.grad_est import RgeConfig
from admmattack.losses import FeedbackMode, LossConfig, ModelOracle, OracleReplyError, hard_label

BUDGET = 60
BO = BoConfig(init_samples=2, max_bo_iters=2, ei_restarts=2, ei_steps=3, fit_steps=2)


def with_first(reply, value):
    out = reply.copy()
    out.flat[0] = value
    return out


def victim_down(reply, k):
    raise OSError("the victim is down")


ROW_FAULTS = {
    "a-row-too-many": lambda reply, k: np.concatenate([reply, reply[:1]]),
    "a-row-too-few": lambda reply, k: reply[:-1],
    "oserror": victim_down,
}
SCORE_FAULTS = {
    **ROW_FAULTS,
    "k-1-columns": lambda reply, k: reply[:, :k - 1],
    "nan": lambda reply, k: with_first(reply, np.nan),
    "a-negative-score": lambda reply, k: with_first(reply, -0.5),
}
LABEL_FAULTS = {
    **ROW_FAULTS,
    "float-labels": lambda reply, k: reply.astype(np.float64),
    "label-k": lambda reply, k: with_first(reply, k),
    "label-minus-1": lambda reply, k: with_first(reply, -1),
}


class FaultyOracle(ModelOracle):
    """The bundled victim, whose reply to call number ``at`` (counted from 0;
    None: no call) goes through ``fault(reply, K)``. ``rows`` holds the rows of
    every call the victim was sent."""

    def __init__(self, model, feedback, fault=None, at=None):
        super().__init__(model, scores_available=feedback is FeedbackMode.SCORE)
        self.fault, self.at, self.rows = fault, at, []

    def _reply(self, reply):
        self.rows.append(len(reply))
        if len(self.rows) - 1 == self.at:
            return self.fault(reply, self.num_classes)
        return reply

    def _scores(self, x):
        return self._reply(self.model.predict_scores(x))

    def _label(self, x):
        return self._reply(hard_label(self.model.predict_scores(x)))


@pytest.fixture(scope="module")
def problem(softmax_victim, digits):
    """A spec on the first correctly classified digit, its target the next
    class, and the decision initializer from the first input of that class."""
    labels = softmax_victim.predict_label(digits.inputs)
    idx = int(np.flatnonzero(labels == digits.labels)[0])
    target = (int(labels[idx]) + 1) % softmax_victim.num_classes
    spec = ProblemSpec(x0=digits.inputs[idx], target=target,
                       num_classes=softmax_victim.num_classes, epsilon=1.0)
    init = digits.inputs[np.flatnonzero(labels == target)[0]] - spec.x0
    return softmax_victim, spec, init


def run(problem, oracle, backend, feedback):
    model, spec, init = problem
    decision = feedback is FeedbackMode.DECISION
    return run_attack(spec, AdmmConfig(max_queries=BUDGET, delta_backend=backend),
                      LossConfig(mode=feedback, smoothing_samples=2), oracle, RngStream(0),
                      rge_cfg=RgeConfig(q=4), bo_cfg=BO, init_delta=init if decision else None)


@pytest.fixture(scope="module")
def clean_rows(problem):
    """The rows of each call of an uncorrupted run, by (backend, feedback)."""
    rows = {}
    for backend in DeltaBackend:
        for feedback in FeedbackMode:
            oracle = FaultyOracle(problem[0], feedback)
            run(problem, oracle, backend, feedback)
            assert oracle.queries_used == sum(oracle.rows) <= BUDGET
            assert len(oracle.rows) >= 3
            rows[backend, feedback] = oracle.rows
    return rows


CASES = [(backend, feedback, name)
         for backend in DeltaBackend
         for feedback, faults in ((FeedbackMode.SCORE, SCORE_FAULTS),
                                  (FeedbackMode.DECISION, LABEL_FAULTS))
         for name in faults]


@pytest.mark.parametrize("when", ["first", "second", "last"])
@pytest.mark.parametrize("backend, feedback, name", CASES,
                         ids=[f"{b.value}-{f.value}-{n}" for b, f, n in CASES])
def test_a_corrupted_reply_fails_the_run_and_charges_only_the_calls_before_it(
        problem, clean_rows, backend, feedback, name, when):
    rows = clean_rows[backend, feedback]
    at = {"first": 0, "second": 1, "last": len(rows) - 1}[when]
    faults = SCORE_FAULTS if feedback is FeedbackMode.SCORE else LABEL_FAULTS
    oracle = FaultyOracle(problem[0], feedback, faults[name], at)
    with pytest.raises(OSError if name == "oserror" else OracleReplyError) as raised:
        run(problem, oracle, backend, feedback)
    if name == "oserror":
        assert raised.type is OSError and str(raised.value) == "the victim is down"
    assert oracle.rows == rows[:at + 1]
    assert oracle.queries_used == sum(rows[:at])
