import numpy as np
import pytest

from admmattack.core import Distortion, RngStream, box_feasible, feasible_bounds
from admmattack.prox import ZStepInput, zstep, zstep_elastic, zstep_l0, zstep_l1, zstep_l2


def coordinate_objective(z, a, gamma, rho, distortion, beta=0.0):
    """Per-coordinate z-step objective gamma*D(z) + (rho/2)(z-a)^2."""
    if distortion is Distortion.L0:
        d = (z != 0.0).astype(float)
    elif distortion is Distortion.L1:
        d = np.abs(z)
    elif distortion is Distortion.L2:
        d = z * z
    else:
        d = np.abs(z) + 0.5 * beta * z * z
    return gamma * d + 0.5 * rho * (z - a) ** 2


def grid_minimizer(a, x0, eps, gamma, rho, distortion, beta=0.0, points=100001):
    """Independent oracle: dense grid search over the feasible interval.

    The grid always includes 0 exactly so the l0 objective's discontinuity
    is sampled.
    """
    lo, hi = feasible_bounds(np.array([x0]), eps)
    grid = np.linspace(lo[0], hi[0], points)
    if lo[0] <= 0.0 <= hi[0]:
        grid = np.append(grid, 0.0)
    vals = coordinate_objective(grid, a, gamma, rho, distortion, beta)
    return grid[np.argmin(vals)], float(np.min(vals))


def make_input(a, x0, eps, gamma, rho, distortion, beta=0.0):
    return ZStepInput(
        a=np.array([a]), x0=np.array([x0]), epsilon=eps,
        gamma=gamma, rho=rho, distortion=distortion, beta=beta,
    )


class TestZStepL2:
    def test_shrink_factor(self):
        # gamma=1, rho=2 -> factor 0.5; grid oracle agrees
        out = zstep_l2(make_input(0.4, 0.5, 1.0, 1.0, 2.0, Distortion.L2))
        assert out[0] == pytest.approx(0.2, abs=1e-12)
        z, _ = grid_minimizer(0.4, 0.5, 1.0, 1.0, 2.0, Distortion.L2)
        assert out[0] == pytest.approx(z, abs=2e-4)

    def test_gamma_zero_is_projection(self):
        out = zstep_l2(make_input(0.3, 0.5, 1.0, 0.0, 1.0, Distortion.L2))
        assert out[0] == pytest.approx(0.3)

    def test_eps_binds(self):
        out = zstep_l2(make_input(10.0, 0.5, 0.4, 1.0, 2.0, Distortion.L2))
        assert out[0] == pytest.approx(0.4)


class TestZStepL0:
    def test_thresholded_to_zero(self):
        out = zstep_l0(make_input(0.5, 0.5, 1.0, 1.0, 2.0, Distortion.L0))
        assert out[0] == 0.0

    def test_clamped_candidate_wins(self):
        out = zstep_l0(make_input(1.5, 0.2, 1.0, 1.0, 2.0, Distortion.L0))
        assert out[0] == pytest.approx(0.8)
        z, _ = grid_minimizer(1.5, 0.2, 1.0, 1.0, 2.0, Distortion.L0)
        assert out[0] == pytest.approx(z, abs=2e-4)

    def test_clamp_can_flip_decision_back_to_zero(self):
        # unclamped candidate passes the threshold but the clamp makes the
        # nonzero branch lose to z=0
        a, x0, eps, gamma, rho = 3.0, 0.9, 1.0, 2.0, 1.0
        out = zstep_l0(make_input(a, x0, eps, gamma, rho, Distortion.L0))
        z, _ = grid_minimizer(a, x0, eps, gamma, rho, Distortion.L0)
        assert out[0] == pytest.approx(z, abs=2e-4)
        assert out[0] == 0.0

    def test_gamma_zero_is_projection(self):
        out = zstep_l0(make_input(0.3, 0.5, 1.0, 0.0, 2.0, Distortion.L0))
        assert out[0] == pytest.approx(0.3)


class TestZStepL1:
    def test_soft_threshold(self):
        out = zstep_l1(make_input(0.8, 0.5, 1.0, 1.0, 2.0, Distortion.L1))
        assert out[0] == pytest.approx(0.3, abs=1e-12)

    def test_small_a_zeroed(self):
        out = zstep_l1(make_input(-0.3, 0.5, 1.0, 1.0, 2.0, Distortion.L1))
        assert out[0] == 0.0

    def test_threshold_then_clamp(self):
        out = zstep_l1(make_input(2.0, 0.9, 1.0, 1.0, 2.0, Distortion.L1))
        assert out[0] == pytest.approx(0.1, abs=1e-12)


class TestZStepElastic:
    def test_beta_zero_reduces_to_l1(self):
        rng = RngStream(4)
        for _ in range(50):
            a = float(rng.uniform(-2, 2))
            x0 = float(rng.uniform(0, 1))
            i_el = make_input(a, x0, 0.7, 1.3, 2.0, Distortion.ELASTIC, beta=0.0)
            i_l1 = make_input(a, x0, 0.7, 1.3, 2.0, Distortion.L1)
            np.testing.assert_allclose(zstep_elastic(i_el), zstep_l1(i_l1))

    def test_scale_after_threshold(self):
        out = zstep_elastic(make_input(0.8, 0.5, 1.0, 1.0, 2.0, Distortion.ELASTIC, beta=2.0))
        assert out[0] == pytest.approx(0.15, abs=1e-12)

    def test_gamma_zero_is_projection(self):
        out = zstep_elastic(make_input(0.25, 0.5, 1.0, 0.0, 2.0, Distortion.ELASTIC, beta=3.0))
        assert out[0] == pytest.approx(0.25)


ALL_NORMS = [Distortion.L0, Distortion.L1, Distortion.L2, Distortion.ELASTIC]


@pytest.mark.parametrize("distortion", ALL_NORMS)
def test_oracle_equivalence_sampled(distortion):
    # smaller sample here; the full 2000-instance sweep runs in acceptance
    rng = RngStream(21)
    for _ in range(200):
        a = float(rng.uniform(-3, 3))
        x0 = float(rng.uniform(0, 1))
        eps = float(rng.uniform(0.05, 1.5))
        gamma = float(rng.uniform(0, 3))
        rho = float(rng.uniform(0.1, 20))
        beta = float(rng.uniform(0, 3))
        out = zstep(make_input(a, x0, eps, gamma, rho, distortion, beta))[0]
        z, fmin = grid_minimizer(a, x0, eps, gamma, rho, distortion, beta)
        fout = coordinate_objective(np.array([out]), a, gamma, rho, distortion, beta)[0]
        assert fout <= fmin + 1e-6
        if distortion is not Distortion.L0:
            assert out == pytest.approx(z, abs=2e-4)


@pytest.mark.parametrize("distortion", ALL_NORMS)
def test_output_always_feasible(distortion):
    rng = RngStream(22)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        a = rng.uniform(-3, 3, d)
        x0 = rng.uniform(0, 1, d)
        eps = float(rng.uniform(0.05, 1.5))
        inp = ZStepInput(a=a, x0=x0, epsilon=eps, gamma=float(rng.uniform(0, 3)),
                         rho=float(rng.uniform(0.1, 20)), distortion=distortion,
                         beta=float(rng.uniform(0, 3)))
        assert box_feasible(x0, zstep(inp), eps)


def test_l2_monotone_shrinkage():
    rng = RngStream(23)
    for _ in range(200):
        x0 = rng.uniform(0, 1, 3)
        eps = float(rng.uniform(0.1, 1.0))
        lo, hi = feasible_bounds(x0, eps)
        a = rng.uniform(lo, hi)  # feasible a
        out = zstep_l2(ZStepInput(a=a, x0=x0, epsilon=eps,
                                  gamma=float(rng.uniform(0, 5)), rho=2.0))
        assert np.all(np.abs(out) <= np.abs(a) + 1e-15)


@pytest.mark.parametrize("distortion", ALL_NORMS)
def test_gamma_never_increases_distortion(distortion):
    from admmattack.core import distortion_value

    rng = RngStream(24)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        a = rng.uniform(-2, 2, d)
        x0 = rng.uniform(0, 1, d)
        eps = float(rng.uniform(0.1, 1.2))
        beta = float(rng.uniform(0, 2))
        prev = None
        for gamma in np.linspace(0.0, 4.0, 9):
            out = zstep(ZStepInput(a=a, x0=x0, epsilon=eps, gamma=float(gamma),
                                   rho=2.0, distortion=distortion, beta=beta))
            val = distortion_value(out, distortion, beta)
            if prev is not None:
                assert val <= prev + 1e-9
            prev = val


@pytest.mark.parametrize("eps, gamma, rho, beta", [
    (1.0, 1.0, 0.0, 0.0), (1.0, 1.0, np.nan, 0.0), (1.0, 1.0, np.inf, 0.0),
    (1.0, np.nan, 1.0, 0.0), (np.nan, 1.0, 1.0, 0.0), (-1.0, 1.0, 1.0, 0.0),
    (1.0, 1.0, 1.0, np.nan),
], ids=["rho-zero", "rho-nan", "rho-inf", "gamma-nan", "eps-nan", "eps-negative", "beta-nan"])
def test_settings_out_of_range_are_rejected(eps, gamma, rho, beta):
    """Unchecked, each of these settings gives a NaN or infeasible z."""
    with pytest.raises(ValueError):
        make_input(0.1, 0.5, eps, gamma, rho, Distortion.ELASTIC, beta)


def test_a_and_x0_of_different_lengths_are_rejected():
    with pytest.raises(ValueError, match="a and x0 must have the same length"):
        ZStepInput(a=np.zeros(3), x0=np.full(2, 0.5), epsilon=1.0, gamma=1.0, rho=1.0)
