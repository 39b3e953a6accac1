from types import SimpleNamespace

import numpy as np
import pytest

from test_grad_est import unit_sphere

from admmattack.core import (
    Distortion,
    ProblemSpec,
    RngStream,
    as_vector,
    box_feasible,
    distortion_value,
    feasible_bounds,
    lp_norms,
    project_box_linf,
    row_norms,
)


class TestBoxFeasible:
    def test_zero_perturbation_feasible(self):
        assert box_feasible(np.array([0.5, 0.5]), np.array([0.0, 0.0]), 0.1)

    def test_box_violation(self):
        assert not box_feasible(np.array([0.95]), np.array([0.08]), 0.1)

    def test_eps_violation(self):
        assert not box_feasible(np.array([0.5]), np.array([-0.2]), 0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            box_feasible(np.array([0.5]), np.array([0.0, 0.0]), 0.1)


class TestProjectBoxLinf:
    def test_eps_binds(self):
        out = project_box_linf(np.array([0.5]), np.array([0.9]), 0.3)
        np.testing.assert_allclose(out, [0.3])

    def test_upper_box_binds(self):
        out = project_box_linf(np.array([0.9]), np.array([0.3]), 0.5)
        np.testing.assert_allclose(out, [0.1])

    def test_identity_when_feasible(self):
        v = np.array([0.05, -0.05])
        out = project_box_linf(np.array([0.2, 0.8]), v, 0.1)
        np.testing.assert_array_equal(out, v)

    def test_idempotent(self):
        rng = RngStream(3)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            x0 = rng.uniform(0, 1, d)
            v = rng.uniform(-2, 2, d)
            eps = float(rng.uniform(0.01, 1.5))
            once = project_box_linf(x0, v, eps)
            twice = project_box_linf(x0, once, eps)
            np.testing.assert_array_equal(once, twice)
            assert box_feasible(x0, once, eps)

    def test_matches_grid_search_argmin(self):
        # Euclidean projection onto a box is a coordinatewise argmin;
        # check against dense grid search on random instances.
        rng = RngStream(11)
        for _ in range(1000):
            x0 = rng.uniform(0, 1, 1)
            v = rng.uniform(-3, 3, 1)
            eps = float(rng.uniform(0.05, 1.5))
            lo, hi = feasible_bounds(x0, eps)
            grid = np.linspace(lo[0], hi[0], 20001)
            best = grid[np.argmin((grid - v[0]) ** 2)]
            out = project_box_linf(x0, v, eps)
            assert abs(out[0] - best) <= max(1e-9, (hi[0] - lo[0]) / 20000)


class TestLpNorms:
    def test_zero(self):
        assert lp_norms(np.zeros(3)) == (0, 0.0, 0.0, 0.0)

    def test_triangle(self):
        assert lp_norms(np.array([3.0, -4.0])) == (2, 7.0, 5.0, 4.0)

    def test_derived(self):
        l0, l1, l2, linf = lp_norms(np.array([0.5, 0.0, -0.5]))
        assert l0 == 2
        assert l1 == pytest.approx(1.0)
        assert l2 == pytest.approx(0.70710678, abs=1e-8)
        assert linf == 0.5

    def test_threshold_skips_float_dust(self):
        assert lp_norms(np.array([1e-9, 0.2]))[0] == 1


def reference_norms(v, beta):
    """lp_norms and each distortion_value in their np.sum / np.max form."""
    l0 = int(np.count_nonzero(np.abs(v) > 1e-8))
    norms = (l0, float(np.sum(np.abs(v))), float(np.sqrt(np.sum(v * v))),
             float(np.max(np.abs(v))))
    dists = (float(l0), float(np.sum(np.abs(v))), float(np.sum(v * v)),
             float(np.sum(np.abs(v)) + 0.5 * beta * np.sum(v * v)))
    return norms, dists


def test_norms_equal_the_sum_form_bitwise():
    rng = RngStream(12)
    order = (Distortion.L0, Distortion.L1, Distortion.L2, Distortion.ELASTIC)
    for _ in range(200):
        d = int(rng.integers(1, 100))
        v = rng.standard_normal(d) * float(rng.uniform(1e-9, 10.0))
        v[rng.uniform(size=d) < 0.3] = 0.0
        beta = float(rng.uniform(0.0, 2.0))
        norms, dists = reference_norms(v, beta)
        assert lp_norms(v) == norms
        assert tuple(distortion_value(v, dist, beta) for dist in order) == dists


@pytest.mark.parametrize("d", [1, 2, 7, 64])
def test_row_norms_equal_np_linalg_norm_bitwise(d):
    a = RngStream(13).standard_normal((50, d)) * np.logspace(-150, 150, 50)[:, None]
    assert row_norms(a).shape == (50, 1)
    assert row_norms(a)[:, 0].tolist() == [np.linalg.norm(row) for row in a]


class TestDistortionValue:
    def test_l2_is_squared(self):
        assert distortion_value(np.array([3.0, 4.0]), Distortion.L2) == 25.0

    def test_elastic(self):
        v = np.array([2.0])
        assert distortion_value(v, Distortion.ELASTIC, beta=1.0) == pytest.approx(4.0)

    def test_a_value_that_is_no_distortion_is_rejected(self):
        with pytest.raises(ValueError, match="unknown distortion l2"):
            distortion_value(np.array([3.0, 4.0]), "l2")


@pytest.mark.parametrize("v", [np.zeros((2, 2)), np.zeros((1, 3, 1))])
def test_as_vector_takes_only_one_dimensional_input(v):
    with pytest.raises(ValueError, match="expected a 1-D vector"):
        as_vector(v)


class TestRngStream:
    def test_determinism_first_draws(self):
        a = RngStream(42).standard_normal(10**4)
        b = RngStream(42).standard_normal(10**4)
        np.testing.assert_array_equal(a, b)

    def test_children_independent_of_sibling_order(self):
        root = RngStream(5)
        c2_first = root.child(2).standard_normal(10)
        c1 = root.child(1).standard_normal(10)
        c2_again = RngStream(5).child(2).standard_normal(10)
        np.testing.assert_array_equal(c2_first, c2_again)
        assert not np.allclose(c1, c2_first)

    def test_unit_ball_inside(self):
        u = RngStream(10).unit_ball(200, 6)
        assert u.shape == (200, 6)
        assert np.all(np.linalg.norm(u, axis=1) <= 1.0)

    @pytest.mark.parametrize("d", [1, 3, 8, 64, 65, 784])
    def test_unit_ball_stack_equals_per_sample_draws(self, d):
        for n in (0, 1, 210):
            for seed in range(20):
                stacked, into, looped = RngStream(seed), RngStream(seed), RngStream(seed)
                u = stacked.unit_ball(n, d)
                out = np.empty((n, d))
                into.unit_ball(n, d, out=out)
                ref = np.array([reference_unit_ball(looped, d) for _ in range(n)]).reshape(n, d)
                assert u.tobytes() == out.tobytes() == ref.tobytes()
                state = looped.gen.bit_generator.state
                assert stacked.gen.bit_generator.state == into.gen.bit_generator.state == state

    def test_unit_ball_returns_its_out_and_rejects_a_wrong_shape(self):
        rng = RngStream(3)
        out = np.empty((4, 2))
        assert rng.unit_ball(4, 2, out=out) is out
        state = rng.gen.bit_generator.state
        for shape in [(4, 3), (3, 2), (8,)]:
            with pytest.raises(ValueError, match="out has shape"):
                rng.unit_ball(4, 2, out=np.empty(shape))
        assert rng.gen.bit_generator.state == state  # nothing drawn

    def test_unit_ball_all_zero_normal_row_raises(self):
        class ZeroNormals:
            bit_generator = SimpleNamespace(random_raw=lambda: 1 << 63)  # a radius of 0.5

            def standard_normal(self, out):
                out[...] = 0.0

        rng = RngStream(0)
        rng.gen = ZeroNormals()
        with pytest.raises(ValueError):
            rng.unit_ball(3, 1)


def reference_unit_ball(rng, d):
    """One draw at a time: a unit-sphere direction, then a uniform() radius."""
    direction = unit_sphere(rng, d)
    radius = rng.uniform() ** (1.0 / d)
    return direction * radius


class TestProblemSpec:
    def test_validation(self):
        x0 = np.array([0.5])
        with pytest.raises(ValueError):
            ProblemSpec(x0=x0, target=5, num_classes=3, epsilon=0.5)
        for target in (1.0, True, -1):
            with pytest.raises(ValueError, match=r"ProblemSpec\.target must be an integer"):
                ProblemSpec(x0=x0, target=target, num_classes=3, epsilon=0.5)
        assert ProblemSpec(x0=x0, target=np.int64(1), num_classes=3, epsilon=0.5).target == 1
        for k in (2.5, 1):
            with pytest.raises(ValueError, match=r"ProblemSpec\.num_classes must be an integer"):
                ProblemSpec(x0=x0, target=0, num_classes=k, epsilon=0.5)
        with pytest.raises(ValueError):
            ProblemSpec(x0=x0, target=0, num_classes=3, epsilon=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(x0=np.array([1.5]), target=0, num_classes=3, epsilon=0.5)
        with pytest.raises(ValueError):
            ProblemSpec(x0=np.array([np.nan, 0.5]), target=0, num_classes=2, epsilon=1.0)
        with pytest.raises(ValueError, match="at least one coordinate"):
            ProblemSpec(x0=np.zeros(0), target=0, num_classes=2, epsilon=1.0)
