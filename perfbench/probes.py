"""Fixed-input layer probes on seeded d = 64 inputs.

GP and z-step timings do not depend on an attack trajectory, so they still
compare when a change moves the BO path (say, by warm-starting
hyperparameters). Each repeats its call in batches of at least BATCH_S
seconds and reports the median batch's mean time per call. The served
victim probe sends fixed label queries through ``ProcessOracle`` to an
``admmattack serve`` child.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import admmattack
from admmattack.bo import BoConfig
from admmattack.core import Distortion, RngStream
from admmattack.gp import GpModel
from admmattack.losses import ProcessOracle
from admmattack.prox import ZStepInput, zstep
from admmattack.victim import save_weights

DIM = 64
BATCHES = 5
BATCH_S = 0.02
PROBE_SEED = 20190727
SERVED_BATCH = 200  # label queries per timed batch
# `admmattack serve` run from the same library sources as this process
SERVE = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from admmattack.cli import main; sys.exit(main())")


def time_per_call(fn, batches: int = BATCHES, batch_s: float = BATCH_S) -> float:
    """Median over batches of seconds per call."""
    reps = 1
    while True:  # calibrate, then measure
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        reps *= 2
    means = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        means.append((time.perf_counter() - t0) / reps)
    return statistics.median(means)


def gp_inputs(n: int):
    """Seeded BO-like observations: deltas in [-1, 1]^64, smooth targets."""
    rng = RngStream(PROBE_SEED).child(n)
    X = rng.uniform(-1.0, 1.0, size=(n, DIM))
    y = np.sum(X * X, axis=1) + 0.1 * rng.standard_normal(n)
    x = rng.uniform(-1.0, 1.0, size=DIM)
    return X, y, x


def gp_probes() -> dict[str, float]:
    bo = BoConfig()  # the fit settings the BO delta-step uses
    out = {}
    for n in (20, 100):
        X, y, x = gp_inputs(n)
        model = GpModel(dim=DIM)

        def factor():
            model.set_data(X, y)  # drops the cached factor
            model.nlml()

        factor()
        out[f"gp.factor.n{n}.us"] = 1e6 * time_per_call(factor)
        out[f"gp.posterior_with_grad.n{n}.us"] = 1e6 * time_per_call(
            lambda: model.posterior_with_grad(x))
        out[f"gp.nlml_grad.n{n}.us"] = 1e6 * time_per_call(model.nlml_grad)

        def fit():
            fresh = GpModel(dim=DIM)  # default hyperparameters every time
            fresh.set_data(X, y)
            fresh.fit_hypers(bo.fit_steps, bo.fit_learning_rate)

        out[f"gp.fit_hypers.n{n}.ms"] = 1e3 * time_per_call(fit, batches=3)
    return out


def zstep_probes() -> dict[str, float]:
    rng = RngStream(PROBE_SEED).child(0)
    x0 = rng.uniform(0.0, 1.0, size=DIM)
    a = rng.uniform(-1.0, 1.0, size=DIM)
    out = {}
    for dist in (Distortion.L0, Distortion.L1, Distortion.L2, Distortion.ELASTIC):
        inp = ZStepInput(a=a, x0=x0, epsilon=1.0, gamma=1.0, rho=10.0,
                         distortion=dist, beta=1.0)
        out[f"prox.zstep.{dist.value}.us"] = 1e6 * time_per_call(lambda: zstep(inp))
    return out


def served_probe(model, parent_dir: str) -> dict[str, float]:
    """Closed-loop label queries through ProcessOracle, one in flight."""
    X = RngStream(PROBE_SEED).child(1).uniform(0.0, 1.0, size=(SERVED_BATCH, DIM))
    expected = [model.predict_label(x) for x in X]
    tmp = tempfile.mkdtemp(prefix=".perfbench-serve-", dir=parent_dir)
    try:
        weights = os.path.join(tmp, "victim.weights")
        save_weights(model, weights)
        src = str(Path(admmattack.__file__).resolve().parent.parent)
        oracle = ProcessOracle([sys.executable, "-c", SERVE, src, "serve",
                                "--weights", weights, "--mode", "label"], mode="label")
        try:
            oracle.query_label(X[0])  # the child is up
            means = []
            for _ in range(BATCHES):
                t0 = time.perf_counter()
                labels = [oracle.query_label(x) for x in X]
                means.append((time.perf_counter() - t0) / len(X))
                if labels != expected:
                    raise RuntimeError("served victim disagrees with the in-process victim")
        finally:
            try:
                oracle.close()
            except Exception:
                oracle.proc.kill()
                oracle.proc.wait()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"losses.ProcessOracle.calls": float(oracle.queries_used),
            "losses.ProcessOracle.us_per_query": 1e6 * statistics.median(means)}


def run_probes(model, parent_dir: str) -> dict[str, float]:
    return {**gp_probes(), **zstep_probes(), **served_probe(model, parent_dir)}
