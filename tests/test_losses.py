import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlab.losses import (
    cross_entropy_loss,
    discrete_energy_minimizer,
    energy_loss,
    mse_loss,
)
from freqlab.poisson import Grid1D, assemble_poisson, g_rhs, thomas_solve


def fd_gradient(fn, x, h):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2 * h)
    return grad


EPS = np.finfo(float).eps


def assert_matches_fd(grad, fn, x, h, scale, truncation=0.0):
    """grad agrees with central differences of fn at x within their error.

    A computed fn value is off by up to about (len(x) + 2)*eps*scale, where
    scale sums the magnitudes of fn's terms (|fn| when none is negative). The
    quotient divides the difference of two such errors by 2h, so it carries
    an absolute cancellation error of (len(x) + 2)*eps*scale/h, however small
    grad_i is. Rounding x_i +- h moves the step by up to eps*|x_i|, a relative
    error of eps*|x_i|/h. truncation bounds the h^2/6 * third-derivative term,
    zero for a quadratic.
    """
    fd = fd_gradient(fn, x, h)
    bound = (len(x) + 2) * EPS * scale / h + EPS * np.abs(x) * np.abs(grad) / h + truncation
    assert np.all(np.abs(fd - grad) <= bound), np.max(np.abs(fd - grad) / bound)


class TestMse:
    def test_minimum(self):
        value, grad_out = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert value == 0.0
        assert np.array_equal(grad_out, [0.0, 0.0])

    def test_definition(self):
        value, grad_out = mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert value == 1.0
        assert np.array_equal(grad_out, [2.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones(3), np.ones(2))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p, t = rng.standard_normal(8), rng.standard_normal(8)
        perm = rng.permutation(8)
        assert mse_loss(p, t)[0] == pytest.approx(mse_loss(p[perm], t[perm])[0], rel=1e-14)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=9484)  # a 2.7e-3 component whose cancellation error beat a 1e-8 relative bound
    @settings(max_examples=20)
    def test_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        p, t = rng.standard_normal(6), rng.standard_normal(6)
        value, grad_out = mse_loss(p, t)
        assert_matches_fd(grad_out, lambda q: mse_loss(q, t)[0], p, 1e-5, scale=value)


class TestCrossEntropy:
    def test_perfect_prediction_is_exactly_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, _ = cross_entropy_loss(y.copy(), y)
        assert value == 0.0

    def test_uniform_two_class_hand_value(self):
        value, _ = cross_entropy_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert value == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_moving_mass_toward_truth_decreases(self):
        y = np.array([[1.0, 0.0]])
        values = [cross_entropy_loss(np.array([[p, 1 - p]]), y)[0]
                  for p in (0.3, 0.5, 0.7, 0.9, 0.99)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_gradient_sign_pushes_toward_truth(self):
        _, grad_out = cross_entropy_loss(np.array([[0.4, 0.6]]), np.array([[1.0, 0.0]]))
        assert grad_out[0, 0] < 0  # raising the true-class probability lowers the loss
        assert grad_out[0, 1] > 0

    def test_nonnegative_and_zero_iff_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            y = np.zeros(3)
            y[rng.integers(0, 3)] = 1.0
            v = cross_entropy_loss(p, y)[0]
            assert v >= 0.0
            assert (v == 0.0) == bool(np.array_equal(p, y))

    def test_input_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.array([1.2, -0.2]), np.array([1.0, 0.0]))

    def test_non_onehot_target_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_extreme_probabilities_finite(self):
        value, _ = cross_entropy_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert np.isfinite(value)
        assert value == pytest.approx(-2 * math.log(1e-12), rel=1e-6)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20)
    def test_gradient_matches_fd_interior(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.05, 0.95, size=4)
        y = np.zeros(4)
        y[rng.integers(0, 4)] = 1.0
        value, grad_out = cross_entropy_loss(p, y)
        h = 1e-7
        # each component's terms are -log of a value in [0.05, 0.95]: third derivative <= 2/0.05^3
        assert_matches_fd(grad_out, lambda q: cross_entropy_loss(np.clip(q, 0, 1), y)[0], p, h,
                          scale=value, truncation=h ** 2 / 3 / 0.05 ** 3)


class TestEnergyLoss:
    def setup_method(self):
        self.grid = Grid1D(n=16)
        self.beta = 10.0
        self.g = g_rhs(self.grid.points)

    def test_zero_function_value_and_gradient(self):
        u = np.zeros(17)
        value, grad_out = energy_loss(u, self.g, self.grid, self.beta)
        assert value == 0.0
        assert np.allclose(grad_out, -self.grid.dx * self.g)

    def test_zero_source_zero_function_is_global_minimum(self):
        zeros = np.zeros(17)
        value, grad_out = energy_loss(zeros, zeros, self.grid, self.beta)
        assert value == 0.0
        assert np.array_equal(grad_out, zeros)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = rng.standard_normal(17)
            assert energy_loss(u, zeros, self.grid, self.beta)[0] > 0.0

    def test_orientation_reversal_invariance(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(17)
        a = energy_loss(u, self.g, self.grid, self.beta)[0]
        b = energy_loss(u[::-1].copy(), self.g[::-1].copy(), self.grid, self.beta)[0]
        assert a == pytest.approx(b, rel=1e-13)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            energy_loss(np.zeros(3), np.zeros(3), self.grid, self.beta)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            energy_loss(np.zeros(17), self.g, self.grid, -1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            energy_loss(np.zeros(17), self.g, self.grid, beta)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(17)
        _, grad_out = energy_loss(u, self.g, self.grid, self.beta)
        dx = self.grid.dx
        slopes = np.diff(u) / dx
        scale = (0.5 * dx * np.sum(slopes * slopes) + dx * np.sum(np.abs(self.g * u))
                 + self.beta * (u[0] ** 2 + u[-1] ** 2))
        # the energy is quadratic, so a wide step has no truncation error
        assert_matches_fd(grad_out, lambda q: energy_loss(q, self.g, self.grid, self.beta)[0], u, 1e-4,
                          scale=scale)


class TestEnergyMinimizer:
    def test_zero_source_zero_minimizer(self):
        grid = Grid1D(n=16)
        u = discrete_energy_minimizer(np.zeros(17), grid, 10.0)
        assert np.max(np.abs(u)) < 1e-15

    def test_returned_point_is_stationary(self):
        grid = Grid1D(n=64)
        g = g_rhs(grid.points)
        u = discrete_energy_minimizer(g, grid, 10.0)
        _, grad_out = energy_loss(u, g, grid, 10.0)
        assert np.max(np.abs(grad_out)) < 1e-10

    def test_beta_zero_rejected(self):
        grid = Grid1D(n=16)
        with pytest.raises(ValueError):
            discrete_energy_minimizer(np.zeros(17), grid, 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_non_finite_or_negative_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            discrete_energy_minimizer(np.zeros(17), Grid1D(n=16), beta)

    def test_distance_to_direct_solution_decreases_in_beta(self):
        grid = Grid1D(n=64)
        ref = thomas_solve(assemble_poisson(grid, g_rhs))
        g = g_rhs(grid.points)
        dists = []
        for beta in (10.0, 100.0, 1000.0):
            u = discrete_energy_minimizer(g, grid, beta)
            dists.append(np.max(np.abs(u - ref)))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] <= dists[0] / 5.0

    def test_interior_stationarity_reproduces_difference_scheme(self):
        # with the boundary pinned hard, the minimizer approaches the direct solve
        grid = Grid1D(n=32)
        ref = thomas_solve(assemble_poisson(grid, g_rhs))
        g = g_rhs(grid.points)
        u = discrete_energy_minimizer(g, grid, 1e8)
        assert np.max(np.abs(u - ref)) < 1e-5
