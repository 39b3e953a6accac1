"""Bundled query-able victim classifiers and a self-contained trainer.

A softmax-regression model and a one-hidden-layer ReLU MLP (initial
weights N(0, 0.01^2) and N(0, 0.1^2), zero biases), trained by SGD on
cross-entropy over minibatches of 32, with bit-exact binary weight
serialization. A procedurally generated 8x8 "digits" dataset (10 class
templates plus seeded pixel noise, clipped to [0,1]; 600 fixed rows)
stands in for MNIST at desk scale.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import RngStream
from .losses import hard_label

MAGIC = b"SPAV1"


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _affine(w: np.ndarray, x, b: np.ndarray) -> np.ndarray:
    """w x + b for one point (d,) or each row of a stack (n, d); a row gets
    bitwise its single-point result, which ``X @ w.T`` does not give."""
    return np.matmul(w, np.asarray(x, dtype=np.float64)[..., None])[..., 0] + b


class _Classifier:
    """A stack of affine layers, ReLU between them and a softmax over the
    last; scores and labels for one point (d,) or a stack of points (n, d).

    ``arrays()`` lists each layer's (out, in) matrix and then its (out,) bias.
    """

    def layers(self):
        """(w, b) of each layer, input layer first."""
        a = self.arrays()
        return list(zip(a[::2], a[1::2]))

    @property
    def dim(self) -> int:
        return self.arrays()[0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.arrays()[-2].shape[0]

    def logits(self, x: np.ndarray) -> np.ndarray:
        a = self.arrays()  # indexed, not layers(): this is the query path
        if np.asarray(x).shape[-1] != a[0].shape[1]:
            raise ValueError("input dimension mismatch")
        out = _affine(a[0], x, a[1])
        for i in range(2, len(a), 2):
            out = _affine(a[i], np.maximum(out, 0.0), a[i + 1])
        return out

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(x))

    def predict_label(self, x: np.ndarray):
        return hard_label(self.predict_scores(x))

    def copy(self):
        return type(self)(*(a.copy() for a in self.arrays()))


@dataclass
class SoftmaxModel(_Classifier):
    weights: np.ndarray  # (K, d)
    biases: np.ndarray   # (K,)

    kind = "softmax"

    def arrays(self):
        return [self.weights, self.biases]

    @staticmethod
    def init(d: int, k: int, rng: RngStream) -> "SoftmaxModel":
        return SoftmaxModel(0.01 * rng.standard_normal((k, d)), np.zeros(k))


@dataclass
class MlpModel(_Classifier):
    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (K, h)
    b2: np.ndarray  # (K,)

    kind = "mlp"

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def arrays(self):
        return [self.w1, self.b1, self.w2, self.b2]

    @staticmethod
    def init(d: int, k: int, h: int, rng: RngStream) -> "MlpModel":
        return MlpModel(
            0.1 * rng.standard_normal((h, d)),
            np.zeros(h),
            0.1 * rng.standard_normal((k, h)),
            np.zeros(k),
        )


# A weight file's model code indexes this tuple.
_MODELS = (SoftmaxModel, MlpModel)


@dataclass
class Dataset:
    inputs: np.ndarray  # (n, d) with d >= 1; attacks need them in [0,1]
    labels: np.ndarray  # (n,) int class indices
    source: str = "the given inputs"  # where the rows came from, for messages

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        try:
            self.labels = np.asarray(self.labels, dtype=np.int64)
        except OverflowError:
            raise ValueError("class labels must fit in int64") from None
        if self.inputs.ndim != 2 or self.inputs.shape[1] < 1:
            raise ValueError(f"inputs must be (n, d) with d >= 1, got shape {self.inputs.shape}")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels disagree on sample count")
        if np.any(self.labels < 0):
            raise ValueError("class labels must be nonnegative")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("features must be finite")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @staticmethod
    def from_csv(path) -> "Dataset":
        rows, labels = [], []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                rows.append([float(v) for v in parts[:-1]])
                labels.append(int(parts[-1]))
        if not rows:
            raise ValueError(f"no samples in {path}")
        return Dataset(np.array(rows), labels, str(path))


def digits8x8() -> Dataset:
    """Procedural 8x8 dataset: 10 fixed class templates, 60 samples of each
    with Gaussian pixel noise (sd 0.15), shuffled; always the same 600 rows."""
    rng = RngStream(1234)
    templates = rng.child(0).uniform(0.0, 1.0, size=(10, 64))
    sample_rng = rng.child(1)
    xs, ys = [], []
    for c in range(10):
        noise = sample_rng.standard_normal((60, 64)) * 0.15
        xs.append(np.clip(templates[c][None, :] + noise, 0.0, 1.0))
        ys.append(np.full(60, c))
    inputs = np.concatenate(xs)
    labels = np.concatenate(ys)
    order = rng.child(2).permutation(inputs.shape[0])
    return Dataset(inputs[order], labels[order], "digits8x8")


# -- training ----------------------------------------------------------


def _grads(model, X: np.ndarray, Y: np.ndarray):
    """Cross-entropy gradients for a minibatch, in ``arrays()`` order; Y is
    int labels."""
    layers = model.layers()
    acts = [X]  # the input of each layer
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    w, b = layers[-1]
    p = softmax(acts[-1] @ w.T + b)
    p[np.arange(len(Y)), Y] -= 1.0
    p /= len(Y)
    grads = []
    for i in reversed(range(len(layers))):
        grads[:0] = [p.T @ acts[i], p.sum(axis=0)]
        if i:
            p = (p @ layers[i][0]) * (acts[i] > 0.0)
    return grads


def train(model, data: Dataset, epochs: int, lr: float, rng: RngStream):
    """SGD on cross-entropy over minibatches of 32; returns a trained copy."""
    if data.n == 0:
        raise ValueError("empty dataset")
    model = model.copy()
    for _ in range(epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, 32):
            idx = order[start : start + 32]
            gs = _grads(model, data.inputs[idx], data.labels[idx])
            for arr, g in zip(model.arrays(), gs):
                arr -= lr * g
    return model


def accuracy(model, data: Dataset) -> float:
    return int(np.count_nonzero(model.predict_label(data.inputs) == data.labels)) / data.n


# -- serialization -----------------------------------------------------


class WeightFormatError(ValueError):
    """Malformed, truncated, or wrong-version weight file."""


def save_weights(model, path) -> None:
    """Versioned little-endian binary plus a JSON sidecar of hyperparameters."""
    path = Path(path)
    arrays = model.arrays()
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", _MODELS.index(type(model)))
    blob += struct.pack("<I", len(arrays))
    for arr in arrays:
        blob += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
    for arr in arrays:
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))

    sidecar = {"model": model.kind, "d": model.dim, "num_classes": model.num_classes}
    if model.kind == "mlp":
        sidecar["hidden"] = model.hidden
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_weights(path):
    """Inverse of :func:`save_weights`; bit-exact round trip."""
    data = Path(path).read_bytes()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise WeightFormatError(
                f"truncated weight file: needed {n} bytes for {what} at offset {off}, "
                f"file has {len(data)} bytes"
            )
        chunk = data[off : off + n]
        off += n
        return chunk

    magic = take(len(MAGIC), "magic")
    if magic != MAGIC:
        if magic[:4] == MAGIC[:4]:
            raise WeightFormatError(
                f"unsupported weight format version {magic[4:].decode(errors='replace')!r}, "
                f"this build reads version {MAGIC[4:].decode()!r}"
            )
        raise WeightFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (model_code,) = struct.unpack("<I", take(4, "model code"))
    if model_code >= len(_MODELS):
        raise WeightFormatError(f"unknown model code {model_code}")
    (n_arrays,) = struct.unpack("<I", take(4, "array count"))
    shapes = []
    for i in range(n_arrays):
        (ndim,) = struct.unpack("<I", take(4, f"array {i} ndim"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"array {i} shape"))
        shapes.append(dims)
    arrays = []
    for i, shape in enumerate(shapes):
        raw = take(8 * math.prod(shape), f"array {i} data")
        arrays.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
    if off != len(data):
        raise WeightFormatError(f"{len(data) - off} extra bytes after the last array, "
                                f"at offset {off}")

    cls = _MODELS[model_code]
    try:
        model = cls(*arrays)
    except TypeError as exc:
        raise WeightFormatError(f"array count mismatch for {cls.kind}: {exc}") from exc
    # each layer is a (out, in) matrix and an (out,) bias, fed by the layer before
    fan_in = None
    for w, b in model.layers():
        if w.ndim != 2 or b.shape != w.shape[:1] or fan_in not in (None, w.shape[1]):
            raise WeightFormatError(f"inconsistent {cls.kind} array shapes: "
                                    f"{[a.shape for a in arrays]}")
        fan_in = w.shape[0]
    if fan_in < 2 or not all(a.size and np.isfinite(a).all() for a in arrays):
        raise WeightFormatError("a classifier needs at least 2 classes and nonempty, finite arrays")
    return model
