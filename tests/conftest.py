import threading

import pytest

from admmattack import RngStream
from admmattack.victim import SoftmaxModel, digits8x8, train


@pytest.fixture(scope="session")
def digits():
    return digits8x8()


@pytest.fixture(scope="session")
def softmax_victim(digits):
    rng = RngStream(7)
    model = SoftmaxModel.init(64, 10, rng.child(0))
    return train(model, digits, epochs=100, lr=0.5, rng=rng.child(1))


@pytest.fixture(autouse=True)
def no_direction_worker_outlives_the_test():
    """Fail any test that leaves an RGE direction worker running: every
    DirectionSource must be closed by the run or the test that built it."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("rge-directions")]
    if left:
        pytest.fail(f"direction workers still running after the test: {left}")
