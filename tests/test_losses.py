import contextlib
import math
import sys

import numpy as np
import pytest

from oracles import FunctionOracle

from admmattack import losses
from admmattack.core import AttackMode, ProblemSpec, RngStream
from admmattack.losses import (
    PROB_FLOOR,
    FeedbackMode,
    LossConfig,
    ModelOracle,
    OracleCapabilityError,
    OracleReplyError,
    ProcessOracle,
    QueryOracle,
    decision_loss,
    hard_label,
    is_success,
    score_loss,
    smoothed_decision_loss,
)
from admmattack.victim import SoftmaxModel, save_weights


def fixed_oracle(probs):
    return FunctionOracle(lambda x: np.array(probs))


def make_spec(d=2, target=1, k=2, mode=AttackMode.TARGETED, kappa=0.0):
    return ProblemSpec(
        x0=np.full(d, 0.5), target=target, num_classes=k,
        epsilon=1.0, kappa=kappa, attack_mode=mode,
    )


class TestScoreLoss:
    def test_target_dominates(self):
        oracle = fixed_oracle([0.1, 0.9])
        assert score_loss(oracle, np.full((1, 2), 0.5), make_spec())[0] == 0.0

    def test_target_losing(self):
        oracle = fixed_oracle([0.9, 0.1])
        val = score_loss(oracle, np.full((1, 2), 0.5), make_spec())[0]
        assert val == pytest.approx(math.log(0.9) - math.log(0.1), abs=1e-7)
        assert val == pytest.approx(2.1972246, abs=1e-6)

    def test_exact_tie_hits_hinge(self):
        oracle = fixed_oracle([0.5, 0.5])
        assert score_loss(oracle, np.full((1, 2), 0.5), make_spec())[0] == 0.0

    def test_floor_keeps_loss_finite(self):
        oracle = fixed_oracle([1.0, 0.0])
        val = score_loss(oracle, np.full((1, 2), 0.5), make_spec())[0]
        assert math.isfinite(val)

    def test_lower_bounded_by_minus_kappa(self):
        spec = make_spec(kappa=0.5)
        oracle = fixed_oracle([0.01, 0.99])
        assert score_loss(oracle, np.full((1, 2), 0.5), spec)[0] == -0.5

    def test_untargeted_swaps_roles(self):
        # target field holds the original label t0 in untargeted mode
        spec = make_spec(target=0, mode=AttackMode.UNTARGETED)
        oracle = fixed_oracle([0.9, 0.1])
        val = score_loss(oracle, np.full((1, 2), 0.5), spec)[0]
        assert val == pytest.approx(math.log(0.9) - math.log(0.1), abs=1e-7)

    def test_label_only_oracle_rejected(self):
        model = SoftmaxModel(np.zeros((2, 2)), np.zeros(2))
        oracle = ModelOracle(model, scores_available=False)
        with pytest.raises(OracleCapabilityError):
            score_loss(oracle, np.full((1, 2), 0.5), make_spec())

    def test_consumes_one_query(self):
        oracle = fixed_oracle([0.3, 0.7])
        score_loss(oracle, np.full((1, 2), 0.5), make_spec())
        assert oracle.queries_used == 1


def reference_score_loss(oracle, x, spec):
    """The np.delete form of the loss: the max over a copy without column t."""
    logp = np.log(np.clip(oracle.query_scores(x), PROB_FLOOR, None))
    t = spec.target
    others = np.max(np.delete(logp, t, axis=-1), axis=-1)
    if spec.attack_mode is AttackMode.TARGETED:
        val = others - logp[..., t]
    else:
        val = logp[..., t] - others
    floor = -spec.kappa
    return np.where(floor > val, floor, val)


@pytest.mark.parametrize("mode", list(AttackMode))
@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_score_loss_equals_the_delete_form_bitwise(mode, kappa):
    k, n = 10, 40
    table = np.random.default_rng(11).dirichlet(np.full(k, 0.3), size=n)
    table[0] = 0.0
    table[0, 3] = 1.0  # one-hot: exact zeros beside a one
    table[1, :] = 1.0 / k  # all tied
    table[2, 5] = 0.0  # an exact zero in one column
    oracle = FunctionOracle(lambda row: table[int(row[0])])
    x = np.arange(n, dtype=np.float64)[:, None]  # row i asks for table[i]
    for target in range(k):
        spec = ProblemSpec(x0=np.zeros(1), target=target, num_classes=k, epsilon=1.0,
                           kappa=kappa, attack_mode=mode)
        ours, ref = score_loss(oracle, x, spec), reference_score_loss(oracle, x, spec)
        assert ours.tobytes() == ref.tobytes()


def linear_victim(w=4.0, b=-2.0):
    """Two-class softmax victim on d=1 with decision boundary at x = -b/w."""
    return SoftmaxModel(np.array([[0.0], [w]]), np.array([0.0, b]))


class TestDecisionLoss:
    def test_hits_target(self):
        oracle = fixed_oracle([0.1, 0.9])
        assert decision_loss(oracle, np.full((1, 2), 0.5), make_spec())[0] == -1.0

    def test_misses_target(self):
        oracle = fixed_oracle([0.9, 0.1])
        assert decision_loss(oracle, np.full((1, 2), 0.5), make_spec())[0] == 1.0

    def test_sign_flips_at_linear_boundary(self):
        # boundary of the bundled linear victim is at x = 0.5
        model = linear_victim()
        spec = ProblemSpec(x0=np.array([0.5]), target=1, num_classes=2, epsilon=1.0)
        oracle = ModelOracle(model)
        assert decision_loss(oracle, np.array([[0.5 + 1e-6]]), spec)[0] == -1.0
        assert decision_loss(oracle, np.array([[0.5 - 1e-6]]), spec)[0] == 1.0

    def test_consumes_one_query(self):
        oracle = fixed_oracle([0.3, 0.7])
        decision_loss(oracle, np.full((1, 2), 0.5), make_spec())
        assert oracle.queries_used == 1


class TestSmoothedDecisionLoss:
    def cfg(self, n=10, mu=0.5):
        return LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=mu, smoothing_samples=n)

    def test_constant_target(self):
        oracle = fixed_oracle([0.1, 0.9])
        val = smoothed_decision_loss(
            oracle, np.full((1, 2), 0.5), make_spec(), self.cfg(), RngStream(1))[0]
        assert val == -1.0

    def test_constant_nontarget(self):
        oracle = fixed_oracle([0.9, 0.1])
        val = smoothed_decision_loss(
            oracle, np.full((1, 2), 0.5), make_spec(), self.cfg(), RngStream(1))[0]
        assert val == 1.0

    def test_consumes_n_queries(self):
        oracle = fixed_oracle([0.1, 0.9])
        smoothed_decision_loss(
            oracle, np.full((1, 2), 0.5), make_spec(), self.cfg(n=7), RngStream(1))
        assert oracle.queries_used == 7

    def test_values_quantized(self):
        model = linear_victim()
        spec = ProblemSpec(x0=np.array([0.5]), target=1, num_classes=2, epsilon=1.0)
        oracle = ModelOracle(model)
        val = smoothed_decision_loss(
            oracle, np.array([[0.5]]), spec, self.cfg(n=10, mu=0.3), RngStream(2))[0]
        steps = round((val + 1.0) / 0.2)
        assert val == pytest.approx(-1.0 + 0.2 * steps, abs=1e-12)

    def test_boundary_symmetry(self):
        # On the boundary of a linear victim the ball measure is split in
        # half, so the smoothed loss is ~0 (3-sigma Monte Carlo band).
        model = SoftmaxModel(np.array([[0.0, 0.0], [8.0, -8.0]]), np.array([0.0, 0.0]))
        spec = ProblemSpec(x0=np.full(2, 0.5), target=1, num_classes=2, epsilon=1.0)
        oracle = ModelOracle(model)
        n = 10**5
        cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.05,
                         smoothing_samples=n)
        val = smoothed_decision_loss(oracle, np.full((1, 2), 0.5), spec, cfg, RngStream(3))[0]
        assert abs(val) < 0.02

    def test_variance_shrinks_with_n(self):
        model = linear_victim()
        spec = ProblemSpec(x0=np.array([0.5]), target=1, num_classes=2, epsilon=1.0)
        x = np.array([[0.52]])  # boundary-adjacent
        rng = RngStream(4)

        def variance(n, reps=200):
            vals = []
            for i in range(reps):
                oracle = ModelOracle(model)
                cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.3,
                                 smoothing_samples=n)
                vals.append(smoothed_decision_loss(oracle, x, spec, cfg, rng.child(n, i))[0])
            return np.var(vals)

        # 1/10 scaling plus 20% slack
        assert variance(100) <= 0.12 * variance(10)


def test_config_validation():
    # the smoothing settings are checked in every mode, so no LossConfig
    # can make smoothed_decision_loss send an empty stack of queries
    for mode in FeedbackMode:
        for n in (2.5, True, 0):
            with pytest.raises(ValueError,
                               match=r"LossConfig\.smoothing_samples must be an integer"):
                LossConfig(mode=mode, smoothing_samples=n)
        with pytest.raises(ValueError, match=r"LossConfig\.smoothing_mu must be positive.*nan"):
            LossConfig(mode=mode, smoothing_mu=math.nan)
        assert LossConfig(mode=mode, smoothing_samples=np.int64(3)).smoothing_samples == 3


def reference_smoothed_decision_loss(oracle, x, spec, cfg, rng, probe=False):
    """The np.repeat / np.concatenate form of the smoothed loss: each row of x
    repeated N times under its scaled ball draws, clipped, then the probe
    row appended unsmoothed and unclipped."""
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
    values = np.add.reduce(losses[:n * samples].reshape(n, samples), axis=1) / samples
    return (values, bool(losses[-1] < 0)) if probe else values


class StackKeepingOracle(ModelOracle):
    """A label-only oracle that keeps a copy of every stack it is sent."""

    def __init__(self, model):
        super().__init__(model, scores_available=False)
        self.stacks = []

    def _scores(self, x):
        self.stacks.append(x.copy())
        return super()._scores(x)


@pytest.mark.parametrize("mode", list(AttackMode))
@pytest.mark.parametrize("probe", [False, True])
@pytest.mark.parametrize("samples", [1, 3, 10])
@pytest.mark.parametrize("mu", [0.5, 1.0, 2.5])
def test_smoothed_decision_loss_equals_the_repeat_form_bitwise(mode, probe, samples, mu):
    gen = np.random.default_rng(4)  # rows whose smoothed values lie strictly inside (-1, 1)
    d, k = 6, 3
    model = SoftmaxModel(4.0 * gen.standard_normal((k, d)), gen.standard_normal(k))
    x = gen.uniform(0.0, 1.0, (5, d))
    x[0, :2] = 0.0, 1.0  # on the box's faces
    spec = ProblemSpec(x0=np.full(d, 0.5), target=0, num_classes=k, epsilon=1.0,
                       attack_mode=mode)
    cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=mu, smoothing_samples=samples)
    ours_oracle, ref_oracle = StackKeepingOracle(model), StackKeepingOracle(model)
    ours = smoothed_decision_loss(ours_oracle, x, spec, cfg, RngStream(5), probe)
    ref = reference_smoothed_decision_loss(ref_oracle, x, spec, cfg, RngStream(5), probe)
    if probe:
        assert ours[1] is ref[1]
        ours, ref = ours[0], ref[0]
    assert ours.tobytes() == ref.tobytes()
    assert len(ours_oracle.stacks) == len(ref_oracle.stacks) == 1
    sent, want = ours_oracle.stacks[0], ref_oracle.stacks[0]
    assert sent.shape == want.shape == ((len(x) - probe) * samples + probe, d)
    assert sent.tobytes() == want.tobytes()
    assert ours_oracle.queries_used == ref_oracle.queries_used == len(sent)


def test_uniform_ball_mean_norm():
    # E||u|| = d/(d+1) for the uniform ball
    rng = RngStream(6)
    d = 4
    mean = np.mean(np.linalg.norm(rng.unit_ball(10**5, d), axis=1))
    assert mean == pytest.approx(d / (d + 1), rel=0.01)


class TestIsSuccess:
    def test_original_input_not_success(self, softmax_victim, digits):
        x0 = digits.inputs[0]
        t0 = int(digits.labels[0])
        t = (t0 + 1) % 10
        spec = ProblemSpec(x0=x0, target=t, num_classes=10, epsilon=1.0)
        oracle = ModelOracle(softmax_victim)
        assert not is_success(oracle, x0, spec)

    def test_target_exemplar_is_success(self, softmax_victim, digits):
        x0 = digits.inputs[0]
        t = int(digits.labels[1])
        if t == int(digits.labels[0]):
            t = (t + 1) % 10
        exemplar = next(
            digits.inputs[i] for i in range(digits.n)
            if softmax_victim.predict_label(digits.inputs[i]) == t
        )
        spec = ProblemSpec(x0=x0, target=t, num_classes=10, epsilon=1.0)
        oracle = ModelOracle(softmax_victim)
        assert is_success(oracle, exemplar, spec)

    def test_untargeted(self):
        oracle = fixed_oracle([0.9, 0.1])
        spec = make_spec(target=0, mode=AttackMode.UNTARGETED)
        assert not is_success(oracle, np.full(2, 0.5), spec)
        oracle2 = fixed_oracle([0.1, 0.9])
        assert is_success(oracle2, np.full(2, 0.5), spec)

    def test_tie_break_lowest_index(self):
        assert hard_label(np.array([0.5, 0.5])) == 0


def test_query_ledger_exactness():
    oracle = fixed_oracle([0.4, 0.6])
    spec = make_spec()
    cfg = LossConfig(mode=FeedbackMode.DECISION, smoothing_mu=0.5, smoothing_samples=5)
    score_loss(oracle, np.full((1, 2), 0.5), spec)
    decision_loss(oracle, np.full((1, 2), 0.5), spec)
    smoothed_decision_loss(oracle, np.full((1, 2), 0.5), spec, cfg, RngStream(1))
    is_success(oracle, np.full(2, 0.5), spec)
    assert oracle.queries_used == 1 + 1 + 5 + 1


@contextlib.contextmanager
def spawned(argv, mode):
    """A ProcessOracle over argv; its child is killed and reaped on the way out."""
    oracle = ProcessOracle(argv, mode=mode)
    try:
        yield oracle
    finally:
        oracle.proc.kill()
        oracle.close()


def serve_argv(model, tmp_path, mode):
    path = tmp_path / "victim.weights"
    save_weights(model, path)
    return [sys.executable, "-m", "admmattack.cli", "serve", "--weights", str(path),
            "--mode", mode]


def child_argv(script):
    """A Python child that runs ``script`` with struct and sys imported."""
    return [sys.executable, "-c", "import struct, sys\n" + script]


# what a child reads as one (1, 2) float64 request, header and body
READ_REQUEST = "sys.stdin.buffer.read(16 + 16)\n"


class TestProcessOracle:
    model = SoftmaxModel(np.array([[0.0, 0.0], [2.0, -1.0]]), np.array([0.0, 0.5]))

    def test_scores_roundtrip(self, tmp_path):
        with spawned(serve_argv(self.model, tmp_path, "scores"), "scores") as oracle:
            x = np.array([0.25, 0.75])
            np.testing.assert_allclose(oracle.query_scores(x), self.model.predict_scores(x))
            assert oracle.queries_used == 1

    def test_label_mode(self, tmp_path):
        with spawned(serve_argv(self.model, tmp_path, "label"), "label") as oracle:
            x = np.array([0.9, 0.1])
            assert oracle.query_label(x) == self.model.predict_label(x)
            with pytest.raises(OracleCapabilityError):
                oracle.query_scores(x)

    def test_engine_shapes_take_one_frame_each_way(self, tmp_path, monkeypatch, softmax_victim):
        # a ZO score iteration's (22, 64) stack and a decision one's (211, 64)
        X = RngStream(5).uniform(0.0, 1.0, size=(211, 64))
        frames = []
        write, read = losses._write_frame, losses._read_frame

        def write_frame(stream, a):
            frames.append(a.shape)
            write(stream, a)

        def read_frame(*args):
            out = read(*args)
            frames.append(out.shape)
            return out

        monkeypatch.setattr(losses, "_write_frame", write_frame)
        monkeypatch.setattr(losses, "_read_frame", read_frame)
        local = ModelOracle(softmax_victim)
        with spawned(serve_argv(softmax_victim, tmp_path, "scores"), "scores") as oracle:
            scores = oracle.query_scores(X[:22])
            assert oracle.queries_used == 22
        assert frames == [(22, 64), (22, 10)]
        expected = local.query_scores(X[:22])
        assert scores.dtype == expected.dtype and scores.tobytes() == expected.tobytes()
        frames.clear()
        with spawned(serve_argv(softmax_victim, tmp_path, "label"), "label") as oracle:
            labels = oracle.query_label(X)
            assert oracle.queries_used == 211
        assert frames == [(211, 64), (211, 1)]
        expected = local.query_label(X)
        assert labels.dtype == np.int64 and np.array_equal(labels, expected)
        assert len(set(expected.tolist())) > 1  # the labels say something

    def test_a_dead_child_is_a_runtime_error_and_is_reaped(self):
        # the child answers one label query with label 1, then exits with code 5
        child = READ_REQUEST + "sys.stdout.buffer.write(struct.pack('<QQq', 1, 1, 1))\nsys.exit(5)"
        with spawned(child_argv(child), "label") as oracle:
            assert oracle.query_label(np.array([0.5, 0.5])) == 1
            oracle.proc.wait(timeout=10)
            for _ in range(2):
                with pytest.raises(RuntimeError, match="exit code 5"):
                    oracle.query_label(np.array([0.5, 0.5]))
            assert oracle.queries_used == 1
            oracle.close()
            assert oracle.proc.returncode == 5

    def test_a_child_that_outlives_close_is_killed_and_reaped(self, monkeypatch):
        monkeypatch.setattr(losses, "CLOSE_TIMEOUT_S", 0.2)
        # the child reads to EOF, then keeps running
        oracle = ProcessOracle(child_argv("import time\nsys.stdin.buffer.read()\n"
                                          "time.sleep(60)"), mode="label")
        try:
            with pytest.raises(RuntimeError, match="exit code -9"):
                oracle.close()
            assert oracle.proc.returncode == -9
        finally:
            oracle.proc.kill()
            oracle.proc.wait(timeout=10)

    # Each child reads one request and replies with ``reply``, then exits.
    # A reply with the wrong shape fails on its header: a client that read
    # the missing body first would see the end of the stream instead.
    @pytest.mark.parametrize("mode, reply, fault", [
        ("scores", "struct.pack('<QQd', 1, 2, 0.5)", RuntimeError),
        ("label", "b''", RuntimeError),
        ("scores", "struct.pack('<QQ', 2, 2)", OracleReplyError),
        ("label", "struct.pack('<QQ', 1, 2)", OracleReplyError),
    ], ids=["a reply cut short", "a closed output stream", "a reply with the wrong row count",
            "a label reply with two columns"])
    def test_a_bad_reply_is_a_typed_one_line_fault_and_charges_nothing(self, mode, reply, fault):
        child = READ_REQUEST + f"sys.stdout.buffer.write({reply})\n"
        with spawned(child_argv(child), mode) as oracle:
            query = oracle.query_scores if mode == "scores" else oracle.query_label
            with pytest.raises(RuntimeError) as info:
                query(np.array([0.5, 0.5]))
            assert type(info.value) is fault
            assert "\n" not in str(info.value) and info.value.__suppress_context__
            assert oracle.queries_used == 0


class ScriptedLabels(FunctionOracle):
    """Replies to label queries with a fixed answer, whatever the point."""

    def __init__(self, labels):
        super().__init__(lambda x: np.array([0.5, 0.5]))
        self.labels = labels

    def _label(self, x):
        return self.labels


class RecordingOracle(QueryOracle):
    """Records the shape of every array its hooks get."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def _scores(self, x):
        self.calls.append(("scores", x.shape))
        return np.tile([0.25, 0.75], (len(x), 1))

    def _label(self, x):
        self.calls.append(("label", x.shape))
        return np.ones(len(x), dtype=np.int64)


def test_hooks_see_stacks_and_a_point_gets_its_row_back():
    oracle = RecordingOracle()
    scores = oracle.query_scores(np.full(2, 0.5))
    label = oracle.query_label(np.full(2, 0.5))
    assert scores.tolist() == [0.25, 0.75]
    assert type(label) is int and label == 1
    assert oracle.queries_used == 2
    assert oracle.query_scores(np.full((3, 2), 0.5)).shape == (3, 2)
    assert oracle.query_label(np.full((3, 2), 0.5)).tolist() == [1, 1, 1]
    assert oracle.queries_used == 2 + 6
    assert oracle.calls == [("scores", (1, 2)), ("label", (1, 2)),
                            ("scores", (3, 2)), ("label", (3, 2))]


class TestReplyChecks:
    """A malformed reply raises OracleReplyError and charges nothing."""

    # a point reaches the hooks as a one-row stack, so these reply to one
    @pytest.mark.parametrize("scores", [
        [[0.5, np.nan]], [[0.5, np.inf]], [[0.5, -np.inf]], [[1.5, -0.5]], [[0.5, 0.5]] * 2,
        [0.5, 0.5], [[]],
    ], ids=["nan", "inf", "minus-inf", "negative", "a stack for a point", "a row, not a stack",
            "no classes"])
    def test_bad_scores_for_a_point(self, scores):
        oracle = FunctionOracle(lambda x: np.array([0.5, 0.5]))
        oracle._scores = lambda x: np.array(scores)
        with pytest.raises(OracleReplyError):
            oracle.query_scores(np.full(2, 0.5))
        assert oracle.queries_used == 0

    def test_bad_scores_in_a_stack(self):
        oracle = FunctionOracle(lambda x: np.array([0.5, np.nan] if x[0] > 0.5 else [0.5, 0.5]))
        with pytest.raises(OracleReplyError):
            oracle.query_scores(np.array([[0.1, 0.1], [0.9, 0.1]]))
        assert oracle.queries_used == 0

    def test_a_stack_answered_with_the_wrong_row_count(self):
        oracle = FunctionOracle(lambda x: np.array([0.5, 0.5]))
        oracle._scores = lambda x: np.full((len(x) - 1, 2), 0.5)
        with pytest.raises(OracleReplyError):
            oracle.query_scores(np.full((3, 2), 0.5))
        assert oracle.queries_used == 0

    @pytest.mark.parametrize("labels, x", [
        (np.array([-1]), np.full(2, 0.5)),
        (np.array([1.0]), np.full(2, 0.5)),
        (np.array([True]), np.full(2, 0.5)),
        (np.array([1, 1]), np.full(2, 0.5)),
        (np.int64(1), np.full(2, 0.5)),
        (np.array([0, -2]), np.full((2, 2), 0.5)),
        (np.array([0, 1, 1]), np.full((2, 2), 0.5)),
        (np.array([0.0, 1.0]), np.full((2, 2), 0.5)),
        (np.array([3]), np.full(2, 0.5)),
        (np.array([99, 99]), np.full((2, 2), 0.5)),
    ], ids=["negative", "float", "bool", "a stack for a point", "a scalar, not a stack",
            "negative in a stack", "too many", "float stack", "K", "past K in a stack"])
    def test_bad_labels(self, labels, x):
        oracle = ScriptedLabels(labels)
        oracle.num_classes = 3
        with pytest.raises(OracleReplyError):
            oracle.query_label(x)
        assert oracle.queries_used == 0

    @pytest.mark.parametrize("scores_available", [True, False], ids=["scores", "label"])
    def test_scores_of_another_width_than_the_victims(self, softmax_victim, scores_available):
        class NineWide:
            num_classes = softmax_victim.num_classes

            def predict_scores(self, x):
                return softmax_victim.predict_scores(x)[:, :9]

        oracle = ModelOracle(NineWide(), scores_available=scores_available)
        with pytest.raises(OracleReplyError, match="K = 10"):
            if scores_available:
                oracle.query_scores(np.full((2, 64), 0.5))
            else:
                oracle.query_label(np.full((2, 64), 0.5))
        assert oracle.queries_used == 0

    def test_a_label_only_oracle_checks_the_scores_it_takes_labels_from(self):
        model = SoftmaxModel(np.zeros((3, 2)), np.zeros(3))
        model.predict_scores = lambda x: np.tile([0.5, np.nan, 0.5], (len(x), 1))
        oracle = ModelOracle(model, scores_available=False)
        with pytest.raises(OracleReplyError, match="finite"):
            oracle.query_label(np.full((2, 2), 0.5))
        assert oracle.queries_used == 0

    def test_good_replies_are_charged(self):
        assert ScriptedLabels(np.array([3])).query_label(np.full(2, 0.5)) == 3
        oracle = ScriptedLabels(np.array([0, 2]))
        oracle.query_label(np.full((2, 2), 0.5))
        oracle.query_scores(np.full((2, 2), 0.5))
        assert oracle.queries_used == 4

    def test_label_client_of_a_scores_child(self, tmp_path):
        # the (1, 2) reply header fails before its body is read, so the
        # streams are out of step and the oracle is broken from then on
        with spawned(serve_argv(TestProcessOracle.model, tmp_path, "scores"), "label") as oracle:
            with pytest.raises(OracleReplyError) as first:
                oracle.query_label(np.array([0.9, 0.1]))
            for _ in range(2):
                with pytest.raises(RuntimeError) as later:
                    oracle.query_label(np.array([0.9, 0.1]))
                assert type(later.value) is RuntimeError
                assert str(first.value) in str(later.value)
            assert oracle.queries_used == 0

    def test_scores_client_of_a_label_child(self, tmp_path):
        # the (1, 1) int64 labels would read as one-class float64 scores
        with spawned(serve_argv(TestProcessOracle.model, tmp_path, "label"), "scores") as oracle:
            with pytest.raises(OracleReplyError, match="K >= 2"):
                oracle.query_scores(np.array([0.9, 0.1]))
            assert oracle.queries_used == 0
