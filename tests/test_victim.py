import math

import numpy as np
import pytest

from admmattack.cli import EXIT_USAGE, main
from admmattack.core import RngStream
from admmattack.victim import (
    Dataset,
    MlpModel,
    SoftmaxModel,
    WeightFormatError,
    accuracy,
    digits8x8,
    load_weights,
    save_weights,
    softmax,
    train,
)


def cross_entropy(model, X, Y):
    p = softmax(model.logits(X))
    return float(-np.mean(np.log(np.clip(p[np.arange(len(Y)), Y], 1e-300, None))))


def write_csv(data, path):
    """One row per sample: d values then the label, as Dataset.from_csv reads."""
    with open(path, "w") as fh:
        for x, y in zip(data.inputs, data.labels):
            fh.write(",".join(repr(float(v)) for v in x) + f",{int(y)}\n")


class TestSoftmaxFunction:
    def test_uniform_for_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-15)

    def test_two_logit_example(self):
        # logits (0, ln 3) -> probabilities (1/4, 3/4)
        p = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = RngStream(0)
        z = rng.standard_normal(6)
        np.testing.assert_allclose(softmax(z), softmax(z + 123.456), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        p = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0)

    def test_batched_rows_sum_to_one(self):
        rng = RngStream(1)
        p = softmax(rng.standard_normal((5, 3)))
        np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)


def softmax_through_functions(logits):
    """softmax as written with np.max and np.sum."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


class TestSoftmaxSameBits:
    """softmax through the array methods equals the np.max/np.sum form bit
    for bit, on the logits of both bundled models and on edge cases."""

    @pytest.fixture(scope="class")
    def models(self):
        # unit-scale weights, drawn as the models' init draws them
        rng = RngStream(150)
        mlp_rng = rng.child(1)
        return [SoftmaxModel(rng.child(0).standard_normal((10, 64)), np.zeros(10)),
                MlpModel(mlp_rng.standard_normal((16, 64)), np.zeros(16),
                         mlp_rng.standard_normal((10, 16)), np.zeros(10))]

    @pytest.mark.parametrize("rows", [None, 1, 2, 21])
    def test_on_model_logits(self, models, rows):
        rng = RngStream(151)
        X = rng.uniform(0, 1, 64 if rows is None else (rows, 64))
        for model in models:
            logits = model.logits(X)
            got, want = softmax(logits), softmax_through_functions(logits)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert model.predict_scores(X).tobytes() == want.tobytes()

    @pytest.mark.parametrize("logits", [
        np.zeros(10),
        np.array([3.0, 3.0, -1.0, 3.0]),  # a tied maximum
        np.array([[1e4, 0.0, -1e4], [7.0, 7.0, 7.0]]),
        np.array([[700.0, 709.0, -745.0], [-1e300, 1e300, 0.0]]),
        RngStream(152).standard_normal((5, 7)) * 50.0,
    ], ids=["zeros", "tied", "extreme", "huge", "wide"])
    def test_on_edge_logits(self, logits):
        got, want = softmax(logits), softmax_through_functions(logits)
        assert got.tobytes() == want.tobytes()


class TestModels:
    def test_softmax_known_scores(self):
        model = SoftmaxModel(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        p = model.predict_scores(np.array([1.0, 0.0]))
        e = math.exp(1.0)
        np.testing.assert_allclose(p, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        assert model.predict_label(np.array([1.0, 0.0])) == 0

    def test_mlp_relu_gating(self):
        # negative pre-activation is cut, so only the first hidden unit fires
        model = MlpModel(
            w1=np.array([[1.0], [-1.0]]),
            b1=np.zeros(2),
            w2=np.array([[2.0, 0.0], [0.0, 2.0]]),
            b2=np.zeros(2),
        )
        np.testing.assert_allclose(model.logits(np.array([0.5])), [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        model = SoftmaxModel(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            model.predict_scores(np.zeros(4))

    def test_copy_is_independent(self):
        model = SoftmaxModel(np.ones((2, 2)), np.zeros(2))
        clone = model.copy()
        clone.weights[0, 0] = 99.0
        assert model.weights[0, 0] == 1.0


class TestDataset:
    def test_digits_shape_and_range(self, digits):
        assert digits.inputs.shape == (600, 64)
        assert digits.inputs.min() >= 0.0 and digits.inputs.max() <= 1.0
        assert sorted(set(digits.labels.tolist())) == list(range(10))
        assert np.bincount(digits.labels).tolist() == [60] * 10

    def test_digits_deterministic(self):
        a = digits8x8()
        b = digits8x8()
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_csv_roundtrip(self, tmp_path, digits):
        data = Dataset(digits.inputs[:30], digits.labels[:30])
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = Dataset.from_csv(path)
        np.testing.assert_array_equal(back.inputs, data.inputs)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_blank_csv_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n0.5,0.25,1\n  \n0.75,0,0\n\n")
        back = Dataset.from_csv(path)
        assert back.inputs.tolist() == [[0.5, 0.25], [0.75, 0.0]]
        assert back.labels.tolist() == [1, 0]

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank-lines"])
    def test_a_csv_without_rows_is_rejected_naming_it(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"no samples in {path}"):
            Dataset.from_csv(path)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("inputs, labels, message", [
        ([[0.5, 0.5], [0.2, 0.1]], [-1, 0], "nonnegative"),
        ([[0.5, np.nan], [0.2, 0.1]], [1, 0], "finite"),
        ([[0.5, 0.5], [np.inf, 0.1]], [1, 0], "finite"),
        (np.zeros((2, 0)), [1, 0], "d >= 1"),
        ([0.5, 0.2], [1, 0], "d >= 1"),
    ], ids=["negative-label", "nan-feature", "inf-feature", "no-features", "one-dim"])
    def test_negative_label_or_nonfinite_feature_rejected(self, inputs, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.array(inputs), np.array(labels))


def separable_blobs(n_per_class=50, seed=11):
    """Two well-separated Gaussian blobs in 2-D."""
    rng = RngStream(seed)
    a = rng.standard_normal((n_per_class, 2)) * 0.1 + np.array([0.2, 0.2])
    b = rng.standard_normal((n_per_class, 2)) * 0.1 + np.array([0.8, 0.8])
    X = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return Dataset(X, y)


class TestTraining:
    def test_cross_entropy_gradient_matches_fd(self):
        from admmattack.victim import _grads

        rng = RngStream(12)
        X = rng.uniform(0, 1, (8, 3))
        Y = rng.integers(0, 2, 8)
        for model in [SoftmaxModel.init(3, 2, rng.child(0)), MlpModel.init(3, 2, 4, rng.child(1))]:
            gs = _grads(model, X, Y)
            step = 1e-6
            for arr, g in zip(model.arrays(), gs):
                flat = arr.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = cross_entropy(model, X, Y)
                    flat[i] = orig - step
                    dn = cross_entropy(model, X, Y)
                    flat[i] = orig
                    fd = (up - dn) / (2 * step)
                    assert g.reshape(-1)[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_epochs_zero_leaves_model_unchanged(self):
        rng = RngStream(13)
        model = SoftmaxModel.init(2, 2, rng)
        data = separable_blobs()
        trained = train(model, data, epochs=0, lr=0.1, rng=rng.child(0))
        np.testing.assert_array_equal(trained.weights, model.weights)
        np.testing.assert_array_equal(trained.biases, model.biases)

    def test_training_does_not_mutate_input_model(self):
        rng = RngStream(14)
        model = SoftmaxModel.init(2, 2, rng)
        before = model.weights.copy()
        train(model, separable_blobs(), epochs=5, lr=0.5, rng=rng.child(0))
        np.testing.assert_array_equal(model.weights, before)

    def test_softmax_separable_blobs(self):
        rng = RngStream(15)
        data = separable_blobs()
        model = train(SoftmaxModel.init(2, 2, rng), data, epochs=200, lr=1.0,
                      rng=rng.child(0))
        assert accuracy(model, data) >= 0.99

    def test_mlp_heldout_accuracy(self, digits):
        rng = RngStream(16)
        data = digits
        split = int(0.8 * data.n)
        tr = Dataset(data.inputs[:split], data.labels[:split])
        te = Dataset(data.inputs[split:], data.labels[split:])
        model = train(MlpModel.init(64, 10, 32, rng), tr, epochs=60, lr=0.5,
                      rng=rng.child(0))
        assert accuracy(model, te) >= 0.90

    def test_loss_decreases(self):
        rng = RngStream(17)
        data = separable_blobs()
        model = SoftmaxModel.init(2, 2, rng)
        before = cross_entropy(model, data.inputs, data.labels)
        trained = train(model, data, epochs=20, lr=0.5, rng=rng.child(0))
        assert cross_entropy(trained, data.inputs, data.labels) < before

    def test_empty_dataset_rejected(self):
        rng = RngStream(18)
        model = SoftmaxModel.init(2, 2, rng)
        data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            train(model, data, epochs=1, lr=0.1, rng=rng)


class TestSerialization:
    def test_softmax_bit_exact_roundtrip(self, tmp_path):
        rng = RngStream(20)
        model = SoftmaxModel(rng.standard_normal((3, 5)), rng.standard_normal(3))
        path = tmp_path / "m.weights"
        save_weights(model, path)
        back = load_weights(path)
        assert isinstance(back, SoftmaxModel)
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.biases, model.biases)

    def test_mlp_bit_exact_roundtrip(self, tmp_path):
        rng = RngStream(21)
        model = MlpModel.init(6, 3, 4, rng)
        model.b1 += rng.standard_normal(4)
        path = tmp_path / "m.weights"
        save_weights(model, path)
        back = load_weights(path)
        assert isinstance(back, MlpModel)
        for a, b in zip(back.arrays(), model.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_sidecar_written(self, tmp_path):
        import json

        model = MlpModel.init(6, 3, 4, RngStream(22))
        path = tmp_path / "m.weights"
        save_weights(model, path)
        meta = json.loads((tmp_path / "m.weights.json").read_text())
        assert meta == {"model": "mlp", "d": 6, "num_classes": 3, "hidden": 4}

    def test_truncated_file_error_names_offset(self, tmp_path):
        model = SoftmaxModel(np.ones((2, 2)), np.zeros(2))
        path = tmp_path / "m.weights"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(WeightFormatError, match=r"offset \d+"):
            load_weights(path)

    def test_trailing_bytes_are_rejected_with_their_count(self, tmp_path):
        model = SoftmaxModel(np.ones((2, 2)), np.zeros(2))
        path = tmp_path / "m.weights"
        save_weights(model, path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(WeightFormatError, match="7 extra bytes"):
            load_weights(path)
        assert main(["attack", "--weights", str(path), "--out", str(tmp_path / "r")]) == EXIT_USAGE

    def test_version_mismatch_detected(self, tmp_path):
        model = SoftmaxModel(np.ones((2, 2)), np.zeros(2))
        path = tmp_path / "m.weights"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:5] = b"9"  # forge a future format version
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="version"):
            load_weights(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "m.weights"
        path.write_bytes(b"GIF89a-not-weights")
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(path)

    @pytest.mark.parametrize("model", [
        SoftmaxModel(np.ones((3, 2)), np.zeros(2)),
        MlpModel(np.ones((4, 2)), np.zeros(4), np.ones((3, 5)), np.zeros(3)),
        MlpModel(np.ones((4, 2)), np.zeros(4), np.ones((3, 4)), np.zeros(4)),
    ], ids=["softmax-bias", "mlp-fan-in", "mlp-bias"])
    def test_inconsistent_shapes_rejected(self, tmp_path, model):
        path = tmp_path / "m.weights"
        save_weights(model, path)
        with pytest.raises(WeightFormatError, match="inconsistent"):
            load_weights(path)

    @pytest.mark.parametrize("model", [
        SoftmaxModel(np.array([[1.0, np.nan], [0.0, 1.0]]), np.zeros(2)),
        MlpModel(np.ones((4, 2)), np.array([0.0, np.inf, 0.0, 0.0]), np.ones((3, 4)), np.zeros(3)),
        SoftmaxModel(np.ones((0, 2)), np.zeros(0)),
        SoftmaxModel(np.ones((1, 2)), np.zeros(1)),
        SoftmaxModel(np.ones((3, 0)), np.zeros(3)),
        MlpModel(np.ones((0, 2)), np.zeros(0), np.ones((3, 0)), np.zeros(3)),
    ], ids=["nan-weight", "inf-bias", "0-class", "1-class", "0-dim-input", "0-hidden"])
    def test_arrays_no_classifier_can_have_rejected(self, tmp_path, model):
        path = tmp_path / "m.weights"
        save_weights(model, path)
        with pytest.raises(WeightFormatError, match="at least 2 classes and nonempty, finite"):
            load_weights(path)

    def test_a_nan_weight_is_a_usage_error_before_any_pair_runs(self, tmp_path, capsys):
        weights = np.zeros((10, 64))
        weights[3, 5] = np.nan
        path, out = tmp_path / "m.weights", tmp_path / "reports"
        save_weights(SoftmaxModel(weights, np.zeros(10)), path)
        for command in (["attack", "--out", str(out)], ["serve"]):
            assert main([*command, "--weights", str(path)]) == EXIT_USAGE
            assert f"malformed weight file {path}" in capsys.readouterr().err
        assert not out.exists()

    def test_an_array_count_the_model_does_not_take_is_rejected(self, tmp_path):
        model = SoftmaxModel(np.ones((2, 3)), np.zeros(2))
        model.arrays = lambda: [model.weights, model.biases, model.biases]  # one too many
        path = tmp_path / "m.weights"
        save_weights(model, path)
        with pytest.raises(WeightFormatError, match="array count mismatch for softmax"):
            load_weights(path)

    def test_unknown_model_code_rejected(self, tmp_path):
        import struct

        path = tmp_path / "m.weights"
        path.write_bytes(b"SPAV1" + struct.pack("<I", 42) + struct.pack("<I", 0))
        with pytest.raises(WeightFormatError, match="model code"):
            load_weights(path)
