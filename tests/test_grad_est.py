import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import admmattack
from admmattack.core import RngStream, row_norms
from admmattack.grad_est import (
    BLOCK_BYTES,
    DirectionSource,
    RgeConfig,
    block_iterations,
    rge_with_base,
)


class CountingLoss:
    """Row-wise loss that counts the rows (loss evaluations) it is given."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, V):
        self.calls += len(V)
        return self.fn(V)


def test_constant_loss_gives_exact_zero():
    loss = CountingLoss(lambda V: np.full(len(V), 3.5))
    g, _ = rge_with_base(loss, np.zeros(5), RgeConfig(q=10, nu=0.1), RngStream(0))
    np.testing.assert_array_equal(g, np.zeros(5))


def test_query_count_is_q_plus_one():
    for q in (1, 7, 20):
        loss = CountingLoss(lambda V: np.sum(V, axis=1))
        rge_with_base(loss, np.zeros(4), RgeConfig(q=q, nu=0.1), RngStream(1))
        assert loss.calls == q + 1


def test_returns_base_value():
    loss = CountingLoss(lambda V: np.sum(V ** 2, axis=1))
    delta = np.full(3, 2.0)
    _, base = rge_with_base(loss, delta, RgeConfig(q=5, nu=0.1), RngStream(2))
    assert base == pytest.approx(12.0)


def test_unbiased_on_linear_loss():
    # E[u u^T] = I/d on the sphere makes the estimator unbiased for linear f
    d, q, n_calls = 10, 20, 2000
    c = np.arange(1.0, d + 1.0)
    loss = lambda V: V @ c
    rng = RngStream(3)
    cfg = RgeConfig(q=q, nu=0.5)
    ests = np.array([rge_with_base(loss, np.zeros(d), cfg, rng)[0] for _ in range(n_calls)])
    mean = ests.mean(axis=0)
    stderr = ests.std(axis=0, ddof=1) / np.sqrt(n_calls)
    assert np.all(np.abs(mean - c) <= 3.5 * stderr)
    cos = mean @ c / (np.linalg.norm(mean) * np.linalg.norm(c))
    assert cos > 0.99


def test_bias_shrinks_with_nu_on_quadratic():
    # analytic gradient of ||v||^2 at 0 is 0; bias is O(nu)
    d = 6
    loss = lambda V: np.sum(V ** 2, axis=1)
    rng = RngStream(4)
    norms = []
    for nu in (0.5, 0.05, 0.005):
        cfg = RgeConfig(q=20, nu=nu)
        mean = np.mean(
            [rge_with_base(loss, np.zeros(d), cfg, rng.child(int(nu * 1000), i))[0]
             for i in range(500)],
            axis=0,
        )
        norms.append(np.linalg.norm(mean))
    assert norms[0] > norms[1] > norms[2]


def test_non_finite_loss_raises():
    loss = lambda V: np.full(len(V), np.nan)
    with pytest.raises(ValueError):
        rge_with_base(loss, np.zeros(2), RgeConfig(q=2, nu=0.1), RngStream(6))


def unit_sphere(rng, d):
    """One standard_normal(d) draw scaled to unit norm, redrawn while zero."""
    g = rng.standard_normal(d)
    n = np.linalg.norm(g)
    while n == 0.0:  # pragma: no cover - probability zero
        g = rng.standard_normal(d)
        n = np.linalg.norm(g)
    return g / n


def reference_rge(loss, delta, cfg, rng):
    """One direction and one loss evaluation at a time, accumulated in order."""
    d = delta.shape[0]
    base = float(loss(delta[None, :])[0])
    acc = np.zeros(d)
    for _ in range(cfg.q):
        u = unit_sphere(rng, d)
        fv = float(loss((delta + cfg.nu * u)[None, :])[0])
        acc += (fv - base) * u
    return (d / (cfg.nu * cfg.q)) * acc, base


def test_batched_estimate_equals_reference_loop_bitwise():
    rng = RngStream(7)
    for trial in range(20):
        d = int(rng.integers(1, 70))
        cfg = RgeConfig(q=int(rng.integers(1, 30)), nu=float(rng.uniform(0.01, 1.0)))
        delta = rng.standard_normal(d)
        w = rng.standard_normal(d)
        # row-wise exact: a row's value does not depend on the other rows
        loss = lambda V: np.log1p(np.exp(np.sum(V * w, axis=1))) - 0.5
        g, base = rge_with_base(loss, delta, cfg, RngStream(100).child(trial))
        g_ref, base_ref = reference_rge(loss, delta, cfg, RngStream(100).child(trial))
        assert g.tobytes() == g_ref.tobytes()
        assert base == base_ref


def test_base_and_directions_share_one_loss_call():
    calls = []

    def loss(V):
        calls.append(V.shape)
        return np.sum(V, axis=1)

    rge_with_base(loss, np.zeros(4), RgeConfig(q=9, nu=0.1), RngStream(8))
    assert calls == [(10, 4)]


@pytest.mark.parametrize("reply", [
    lambda V: np.float64(1.0),  # 0-d
    lambda V: V,  # one row per point, not one value
    lambda V: np.zeros(len(V) + 1),  # Q + 2 values
], ids=["scalar", "rows", "one-too-many"])
def test_a_malformed_loss_reply_is_refused_by_shape(reply):
    with pytest.raises(ValueError, match=r"one value per row, got shape"):
        rge_with_base(reply, np.zeros(4), RgeConfig(q=3, nu=0.1), RngStream(8))


def test_config_validation():
    with pytest.raises(ValueError):
        RgeConfig(q=0)
    with pytest.raises(ValueError):
        RgeConfig(nu=0.0)
    for q in (2.5, True):
        with pytest.raises(ValueError, match=r"RgeConfig\.q must be an integer"):
            RgeConfig(q=q)
    assert RgeConfig(q=np.int64(3)).q == 3


def reference_rge_stacked(loss, delta, cfg, rng):
    """The vstack / np.sum form: a new (Q + 1, d) stack, then a weighted sum."""
    d = delta.shape[0]
    u = rng.standard_normal((cfg.q, d))
    u /= np.sqrt(np.matmul(u[:, None, :], u[:, :, None])[:, 0])
    values = loss(np.vstack([delta, delta + cfg.nu * u]))
    base = float(values[0])
    grad = np.sum((values[1:] - base)[:, None] * u, axis=0)
    return (d / (cfg.nu * cfg.q)) * grad, base


def test_estimate_equals_the_stacked_form_bitwise():
    rng = RngStream(9)
    for trial in range(30):
        d = int(rng.integers(1, 70))
        cfg = RgeConfig(q=int(rng.integers(1, 30)), nu=float(rng.uniform(0.01, 1.0)))
        delta = rng.standard_normal(d)
        w = rng.standard_normal(d)
        loss = lambda V: np.sin(V @ w) + np.sum(V * V, axis=1)
        ours, ref = RngStream(200).child(trial), RngStream(200).child(trial)
        g, base = rge_with_base(loss, delta, cfg, ours)
        g_ref, base_ref = reference_rge_stacked(loss, delta, cfg, ref)
        assert g.tobytes() == g_ref.tobytes()
        assert base == base_ref
        assert ours.gen.bit_generator.state == ref.gen.bit_generator.state


def test_unit_directions_are_one_normal_draw_over_its_row_norms():
    a, b = RngStream(11), RngStream(11)
    u = a.unit_directions(7, 5)
    g = b.standard_normal((7, 5))
    assert u.tobytes() == (g / np.linalg.norm(g, axis=1, keepdims=True)).tobytes()
    out = np.empty((3, 5))
    assert a.unit_directions(3, 5, out=out) is out
    g = b.standard_normal((3, 5))
    assert out.tobytes() == (g / row_norms(g)).tobytes()


def test_a_block_holds_whole_iterations_within_its_byte_budget():
    assert block_iterations(20, 64) == 51  # the acceptance shape
    assert block_iterations(20, 784) == 4
    assert block_iterations(1, BLOCK_BYTES // 8) == 1
    assert block_iterations(1, BLOCK_BYTES // 8 + 1) == 1  # one iteration past the budget
    for q, d in [(20, 64), (3, 5), (20, 784), (7, 333)]:
        b = block_iterations(q, d)
        assert b * q * d * 8 <= BLOCK_BYTES < (b + 1) * q * d * 8


# (blocks, extra iterations) of each run named by its length in blocks of B
BLOCK_RUNS = {"B-1": (1, -1), "B": (1, 0), "B+1": (1, 1), "2B+1": (2, 1)}


# runs of fixed lengths, and of about one and two blocks of B =
# block_iterations(q, d), so that whatever the block size some runs cross a
# block boundary or end on one; d = 784 has blocks of 4 iterations
@pytest.mark.parametrize("q, d", [(20, 64), (3, 5), (20, 784)])
@pytest.mark.parametrize("run", [1, 15, 16, 17, 33, *BLOCK_RUNS])
def test_prefetched_directions_equal_per_iteration_draws(run, q, d):
    if isinstance(run, int):
        iterations = run
    else:
        blocks, extra = BLOCK_RUNS[run]
        iterations = blocks * block_iterations(q, d) + extra
    rng, twin = RngStream(4).child(2), RngStream(4).child(2)
    source = DirectionSource(rng, q, d, iterations)
    ring = None
    try:
        for _ in range(iterations):
            u = source.unit_directions(q, d)
            ring = u.base if ring is None else ring
            assert u.base is ring  # every block is a view of one ring
            assert u.tobytes() == twin.unit_directions(q, d).tobytes()
        with pytest.raises(RuntimeError, match="spent"):
            source.unit_directions(q, d)
    finally:
        source.close()
    assert rng.gen.bit_generator.state == twin.gen.bit_generator.state
    assert ring.nbytes <= 2 * BLOCK_BYTES


def test_interleaved_sources_under_fast_thread_switching_keep_their_bits():
    # five threads, more than the host's cores: this one reads four sources
    # in turn while their helpers draw, switching threads as often as it can
    q, d = 2, 4096
    iterations = 5 * block_iterations(q, d) + 3
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    sources = []
    try:
        sources = [DirectionSource(RngStream(i), q, d, iterations) for i in range(4)]
        twins = [RngStream(i) for i in range(4)]
        for _ in range(iterations):
            for source, twin in zip(sources, twins):
                assert source.unit_directions(q, d).tobytes() == \
                    twin.unit_directions(q, d).tobytes()
    finally:
        for source in sources:
            source.close()
        sys.setswitchinterval(switch)


class HelperFault(Exception):
    pass


class FailingStream:
    """Draws as an RngStream, except that its second unit_directions call,
    the helper thread's first, raises HelperFault."""

    def __init__(self):
        self.rng, self.calls = RngStream(0), 0

    def unit_directions(self, n, d, out=None):
        self.calls += 1
        if self.calls == 2:
            raise HelperFault("drawn on the helper")
        return self.rng.unit_directions(n, d, out)


def test_a_fault_on_the_helper_thread_surfaces_in_the_caller():
    block = block_iterations(2, 3)
    source = DirectionSource(FailingStream(), 2, 3, 2 * block)
    try:
        for _ in range(block):
            source.unit_directions(2, 3)
        with pytest.raises(HelperFault, match="drawn on the helper"):
            source.unit_directions(2, 3)
    finally:
        source.close()


def test_close_joins_without_raising_a_helper_fault_that_no_call_reached():
    source = DirectionSource(FailingStream(), 2, 3, 2 * block_iterations(2, 3))
    source.unit_directions(2, 3)
    source.close()
    assert not [t for t in threading.enumerate() if t.name.startswith("rge-directions")]


def test_a_source_that_fits_in_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    DirectionSource(RngStream(1), 2, 3, block_iterations(2, 3)).close()
    DirectionSource(RngStream(1), 2, 3, 0).close()


def test_importing_the_package_loads_no_executor():
    # concurrent.futures loads logging; only a source that starts a worker
    # imports it, so an import or a run without one does not pay for it
    code = ("import sys, admmattack, admmattack.cli\n"
            "assert 'concurrent.futures' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(admmattack.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
