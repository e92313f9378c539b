"""Resolvent closed forms, transition quadrature, fixed-point behavior."""

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast_spde import zvonkin
from slowfast_spde.errors import ConfigError, IntegrationError, PicardDivergenceError
from slowfast_spde.noise import NoiseSpectrum, conv_increment_law
from slowfast_spde.spectral import OperatorSpectrum
from slowfast_spde.zvonkin import (MAX_PICARD_NODES, OuKernel, TruncatedFunction,
                                   _log_quadrature_nodes, box_axes,
                                   check_picard_grid, dlambda_curve,
                                   ou_gradient_apply, ou_semigroup_apply,
                                   picard_solve)

KERNEL = OuKernel(np.array([1.0]), np.array([1.0]))
SIGMA = float(KERNEL.stationary_std()[0])


def zero_bbar(pts):
    return np.zeros((np.atleast_2d(pts).shape[0], 1))


@pytest.fixture(scope="module")
def axes():
    return box_axes(KERNEL, n_per_axis=257, radius_mult=8.0)


def core_mask(x):
    return np.abs(x) <= SIGMA


class TestTransitionQuadrature:
    def test_transition_is_the_noise_law_bit_for_bit(self):
        lam = np.array([1.0, 4.0, 9.0])
        q = np.array([1.0, 0.5, 0.25])
        for t in (1e-8, 0.3, 5.0):
            got = OuKernel(lam, q).transition(t)
            ref = conv_increment_law(t, NoiseSpectrum(q), OperatorSpectrum(lam))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))

    def test_constant_is_fixed(self, axes):
        f = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 2.5), axes)
        for t in (0.1, 1.0, 10.0):
            out = ou_semigroup_apply(f, t, KERNEL, order=24)
            assert np.max(np.abs(out.values - 2.5)) < 1e-12

    def test_time_zero_is_identity(self, axes):
        f = TruncatedFunction.from_callable(lambda p: np.sin(p), axes)
        out = ou_semigroup_apply(f, 0.0, KERNEL)
        assert np.array_equal(out.values, f.values)

    def test_linear_mean_decay(self, axes):
        # T_t x = e^{-t} x; evaluate away from the clamped boundary
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        out = ou_semigroup_apply(f, 0.7, KERNEL, order=40)
        x = axes[0]
        m = core_mask(x)
        assert np.max(np.abs(out.values[m, 0] - np.exp(-0.7) * x[m])) < 1e-9

    def test_quadratic_second_moment(self, axes):
        # T_t x^2 = e^{-2t}x^2 + q(1-e^{-2t})/(2 lambda); the multilinear
        # representation of x^2 carries an O(h^2) bias, hence the tolerance
        f = TruncatedFunction.from_callable(lambda p: p**2, axes)
        out = ou_semigroup_apply(f, 0.3, KERNEL, order=40)
        x = axes[0]
        m = core_mask(x)
        exact = np.exp(-0.6) * x[m] ** 2 + (1.0 - np.exp(-0.6)) / 2.0
        assert np.max(np.abs(out.values[m, 0] - exact)) < 1e-3

    def test_order_validation(self, axes):
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        with pytest.raises(ValueError):
            ou_semigroup_apply(f, 0.1, KERNEL, order=2)

    def test_infinite_time_is_the_stationary_mean(self, axes):
        # every node maps to sigma Z: E cos(sigma Z) = e^{-sigma^2 / 2}, up to
        # the O(h^2) bias of the multilinear representation
        f = TruncatedFunction.from_callable(np.cos, axes)
        out = ou_semigroup_apply(f, math.inf, KERNEL, order=40)
        assert np.max(np.abs(out.values - math.exp(-SIGMA**2 / 2.0))) < 1e-3
        assert np.ptp(out.values) < 1e-15
        assert np.array_equal(ou_gradient_apply(f, math.inf, KERNEL).values,
                              np.zeros(f.values.shape + (1,)))

    def test_negative_time_rejected(self, axes):
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        with pytest.raises(ValueError, match="time must be nonnegative"):
            ou_semigroup_apply(f, -0.1, KERNEL)

    @pytest.mark.parametrize("lam,q,message", [
        ([1.0, 4.0], [1.0], "1-d arrays of equal length"),
        ([[1.0, 4.0]], [[1.0, 0.5]], "1-d arrays of equal length"),
        ([1.0, 0.0], [1.0, 0.5], r"need lambda > 0 and q >= 0"),
        ([1.0, -4.0], [1.0, 0.5], r"need lambda > 0 and q >= 0"),
        ([1.0], [-1.0], r"need lambda > 0 and q >= 0"),
    ], ids=["unequal", "two-d", "zero-lambda", "negative-lambda", "negative-q"])
    def test_kernel_rejects_bad_parameters(self, lam, q, message):
        with pytest.raises(ConfigError, match=message):
            OuKernel(np.array(lam), np.array(q))

    @pytest.mark.parametrize("lam,q,field", [
        ([np.nan], [1.0], "eigenvalues"), ([1.0, np.inf], [1.0, 0.5], "eigenvalues"),
        ([1.0], [np.nan], "q"), ([1.0, 4.0], [1.0, np.inf], "q"),
    ], ids=["nan-lambda", "inf-lambda", "nan-q", "inf-q"])
    def test_kernel_rejects_non_finite_parameters(self, lam, q, field):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            OuKernel(np.array(lam), np.array(q))

    def test_kernel_copies_the_callers_arrays(self):
        lam, q = np.array([1.0, 4.0]), np.array([1.0, 0.5])
        kernel = OuKernel(lam, q)
        assert lam.flags.writeable and q.flags.writeable
        lam[0], q[0] = 9.0, 0.0
        assert kernel.eigenvalues[0] == 1.0 and kernel.q[0] == 1.0
        assert not kernel.eigenvalues.flags.writeable


class TestGradient:
    def test_constant_has_zero_gradient(self, axes):
        f = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 3.0), axes)
        out = ou_gradient_apply(f, 0.5, KERNEL, order=24)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_linear_gradient_is_decay(self, axes):
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        out = ou_gradient_apply(f, 0.7, KERNEL, order=40)
        m = core_mask(axes[0])
        assert np.max(np.abs(out.values[m, 0, 0] - np.exp(-0.7))) < 1e-9

    def test_matches_finite_differences(self):
        # central differences of T_t f on a fine grid vs the
        # integration-by-parts gradient, smooth f
        fine = (np.linspace(-8 * SIGMA, 8 * SIGMA, 8193),)
        f = TruncatedFunction.from_callable(
            lambda p: np.sin(p) * np.exp(-p**2 / 8.0), fine)
        sg = ou_semigroup_apply(f, 0.4, KERNEL, order=40)
        gd = ou_gradient_apply(f, 0.4, KERNEL, order=40)
        h = fine[0][1] - fine[0][0]
        fd = (sg.values[2:, 0] - sg.values[:-2, 0]) / (2.0 * h)
        m = np.abs(fine[0][1:-1]) <= 2.0 * SIGMA
        assert np.max(np.abs(gd.values[1:-1, 0, 0][m] - fd[m])) < 1e-4

    def test_rejects_time_zero(self, axes):
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        with pytest.raises(ValueError):
            ou_gradient_apply(f, 0.0, KERNEL)

    def test_order_validation(self, axes):
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        with pytest.raises(ValueError, match="quadrature order must be >= 3"):
            ou_gradient_apply(f, 0.1, KERNEL, order=2)


class TestPicard:
    def test_constant_resolvent(self, axes):
        g = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 1.3), axes)
        sol = picard_solve(g, zero_bbar, 2.0, KERNEL, order=24)
        assert sol.converged
        assert np.max(np.abs(sol.u.values - 1.3 / 2.0)) < 1e-6

    def test_linear_resolvent(self, axes):
        # G(x) = x solves to x/(lambda + lambda_1) on the core region
        g = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        sol = picard_solve(g, zero_bbar, 2.0, KERNEL, order=40)
        x = axes[0]
        m = core_mask(x)
        assert np.max(np.abs(sol.u.values[m, 0] - x[m] / 3.0)) < 1e-6

    def test_fixed_point_residual_and_geometric_contraction(self):
        axes6 = box_axes(KERNEL, n_per_axis=257, radius_mult=6.0)
        g = TruncatedFunction.from_callable(lambda p: np.cos(p), axes6)

        def bbar(pts):
            return 0.8 * np.sin(np.atleast_2d(pts))

        sol = picard_solve(g, bbar, 2.0, KERNEL, order=24)
        assert sol.converged
        assert sol.residual < 1e-2 * g.sup_norm()
        ratios = [b / a for a, b in zip(sol.change_history, sol.change_history[1:])]
        assert all(r < 1.0 for r in ratios)
        assert max(ratios) / min(ratios) < 3.0  # roughly constant factor

    def test_self_consistency_bound(self):
        # sup|U| <= (1/lambda) (sup|Bbar| sup|DU| + sup|G|) at the fixed point
        axes6 = box_axes(KERNEL, n_per_axis=129, radius_mult=6.0)
        g = TruncatedFunction.from_callable(lambda p: np.cos(p), axes6)

        def bbar(pts):
            return 0.8 * np.sin(np.atleast_2d(pts))

        lam = 2.0
        sol = picard_solve(g, bbar, lam, KERNEL, order=24)
        lhs = sol.u.sup_norm()
        rhs = (0.8 * sol.du.sup_norm() + g.sup_norm()) / lam
        assert lhs <= rhs * (1.0 + 1e-6)

    def test_dlambda_norms_decrease(self):
        axes6 = box_axes(KERNEL, n_per_axis=129, radius_mult=6.0)
        g = TruncatedFunction.from_callable(lambda p: np.cos(p), axes6)

        def bbar(pts):
            return 0.8 * np.sin(np.atleast_2d(pts))

        rows = dlambda_curve(g, bbar, KERNEL, [1.0, 10.0, 100.0], order=24)
        sup_u = [r["sup_u"] for r in rows]
        sup_du = [r["sup_du"] for r in rows]
        assert sup_u[0] > sup_u[1] > sup_u[2]
        assert sup_du[0] > sup_du[1] > sup_du[2]

    def test_constant_g_exact_inverse_lambda_decay(self, axes):
        g = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 1.0), axes)
        for lam in (0.01, 0.1, 1.0, 4.0, 16.0):
            sol = picard_solve(g, zero_bbar, lam, KERNEL, order=12)
            assert np.max(np.abs(sol.u.values - 1.0 / lam)) < 1e-8 / lam * 100

    def test_largest_lambda_damps_without_overflow_warnings(self, axes):
        g = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 1.0), axes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = picard_solve(g, zero_bbar, 1e308, KERNEL, order=12)
        assert sol.converged
        assert np.allclose(sol.u.values, 1e-308, rtol=1e-12, atol=0.0)

    def test_largest_lambda_reports_its_tiny_solution(self, axes):
        # sup|U| is 1e-308, whose square underflows to 0
        g = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 1.0), axes)
        sol = picard_solve(g, zero_bbar, 1e308, KERNEL, order=12)
        assert sol.table_row()["sup_u"] == pytest.approx(1e-308, rel=1e-12, abs=0.0)

    def test_lambda_without_a_finite_horizon_is_refused(self, axes):
        g = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 1.0), axes)
        with pytest.raises(ConfigError, match="too small for a finite time horizon"):
            picard_solve(g, zero_bbar, 1e-310, KERNEL)

    @pytest.mark.parametrize("g_value,bbar_value,message", [
        (math.nan, 0.0, "G is not finite at grid node 3, x = "),
        (1.0, math.nan, "Bbar is not finite at grid node 3, x = "),
        (1.0, math.inf, "Bbar is not finite at grid node 3, x = "),
    ], ids=["G-nan", "Bbar-nan", "Bbar-inf"])
    def test_non_finite_data_is_refused_before_assembly(
            self, axes, monkeypatch, g_value, bbar_value, message):
        def no_assembly(*args):
            raise AssertionError("assembled a sweep for non-finite data")

        monkeypatch.setattr(zvonkin, "_sweep_operators", no_assembly)
        values = np.ones((axes[0].size, 1))
        values[3] = g_value
        g = TruncatedFunction(axes, values)

        def bbar(pts):
            out = np.zeros((np.atleast_2d(pts).shape[0], 1))
            out[3:5] = bbar_value
            return out

        with pytest.raises(IntegrationError, match=re.escape(
                message + f"({axes[0][3]:.6g})")):
            picard_solve(g, bbar, 1.0, KERNEL)

    def test_divergence_suggests_larger_lambda(self, axes):
        g = TruncatedFunction.from_callable(lambda p: np.cos(p), axes)

        def huge(pts):
            return np.full((np.atleast_2d(pts).shape[0], 1), 60.0)

        with pytest.raises(PicardDivergenceError, match="increase lambda"):
            picard_solve(g, huge, 0.05, KERNEL, order=12, max_iter=30)

    def test_dimension_mismatch_refused_before_any_work(self):
        plane = (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5))
        g = TruncatedFunction(plane, np.zeros((5, 5, 2)))

        def bbar(pts):
            raise AssertionError("the drift was read before the check")

        with pytest.raises(ConfigError, match="g and kernel dimensions differ"):
            picard_solve(g, bbar, 1.0, KERNEL)

    def test_lambda_table_requires_increasing(self, axes):
        g = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        with pytest.raises(ConfigError):
            dlambda_curve(g, zero_bbar, KERNEL, [10.0, 1.0])

    @pytest.mark.parametrize("lams", [[1.0, math.nan], [1.0, 1.0], [0.0, 1.0]])
    def test_lambda_table_refused_before_any_solve(self, axes, lams):
        g = TruncatedFunction.from_callable(lambda p: p.copy(), axes)

        def no_drift(pts):
            raise AssertionError("solved for a refused lambda table")

        with pytest.raises(ConfigError, match="lambdas must be"):
            dlambda_curve(g, no_drift, KERNEL, lams)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_lambda_must_be_finite_and_positive(self, axes, lam):
        g = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        with pytest.raises(ConfigError, match="finite and positive"):
            picard_solve(g, zero_bbar, lam, KERNEL)


class TestRefusedArguments:
    """Every entry point refuses a quadrature order below 3, a function of
    another dimension than the kernel's and (the solver) an iteration cap
    below 1, before a quadrature node is built or Bbar is read."""

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def built(order):
            raise AssertionError("a quadrature node was built before the check")
        monkeypatch.setattr(zvonkin, "_hermite_1d", built)

    @staticmethod
    def unread_bbar(pts):
        raise AssertionError("the drift was read before the check")

    @staticmethod
    def g_of_box():
        return TruncatedFunction.from_callable(np.cos, box_axes(KERNEL, 33))

    @pytest.mark.parametrize("order", [-1, 0, 1, 2])
    def test_order_below_three(self, no_quadrature, order):
        g = self.g_of_box()
        match = "quadrature order must be >= 3"
        with pytest.raises(ValueError, match=match):
            picard_solve(g, self.unread_bbar, 2.0, KERNEL, order=order)
        with pytest.raises(ValueError, match=match):
            dlambda_curve(g, self.unread_bbar, KERNEL, [1.0, 2.0], order=order)
        for t in (0.0, 0.1):
            with pytest.raises(ValueError, match=match):
                ou_semigroup_apply(g, t, KERNEL, order=order)
        with pytest.raises(ValueError, match=match):
            ou_gradient_apply(g, 0.1, KERNEL, order=order)

    def test_dimension_mismatch_in_the_single_applies(self, no_quadrature):
        g = self.g_of_box()
        plane = OuKernel(np.array([1.0, 4.0]), np.array([1.0, 0.5]))
        for t in (0.0, 0.1):
            with pytest.raises(ConfigError, match="f and kernel dimensions differ"):
                ou_semigroup_apply(g, t, plane)
        with pytest.raises(ConfigError, match="f and kernel dimensions differ"):
            ou_gradient_apply(g, 0.1, plane)

    def test_nan_time_in_the_single_applies(self, no_quadrature):
        g = self.g_of_box()
        with pytest.raises(ValueError, match="time must be nonnegative, got nan"):
            ou_semigroup_apply(g, math.nan, KERNEL)
        with pytest.raises(ValueError, match="requires t > 0, got nan"):
            ou_gradient_apply(g, math.nan, KERNEL)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_f_is_located(self, no_quadrature, bad, d):
        kernel = kernel_of_dim(d)
        f = TruncatedFunction.from_callable(np.cos, box_axes(kernel, 9))
        values = f.values.copy()
        values.reshape(-1, d)[7, d - 1] = bad
        f = TruncatedFunction(f.axes, values)
        where = ", ".join(f"{v:.6g}" for v in f.grid_points()[7])
        message = re.escape(f"f is not finite at grid node 7, x = ({where})")
        for t in (0.0, 0.1):
            with pytest.raises(IntegrationError, match=message):
                ou_semigroup_apply(f, t, kernel)
        with pytest.raises(IntegrationError, match=message):
            ou_gradient_apply(f, 0.1, kernel)

    def test_degenerate_axis_in_the_gradient(self, no_quadrature):
        # q = 0 on the second axis: its transition has std 0, and the
        # integration-by-parts weights decay / std are singular there
        kernel = OuKernel(np.array([1.0, 4.0]), np.array([1.0, 0.0]))
        f = TruncatedFunction.from_callable(np.cos, box_axes(kernel, 5))
        with pytest.raises(ValueError, match="gradient weights are singular "
                                             "for a degenerate axis"):
            ou_gradient_apply(f, 0.5, kernel)

    @pytest.mark.parametrize("shape", [(34,), (17,), (17, 2), (1, 17)])
    def test_bbar_rows_off_the_grid(self, monkeypatch, shape):
        # (17,) at d = 1 is refused too: Bbar takes one row of d per node
        def no_assembly(*args):
            raise AssertionError("assembled a sweep for a misshapen Bbar")

        monkeypatch.setattr(zvonkin, "_sweep_operators", no_assembly)
        g = TruncatedFunction.from_callable(np.cos, box_axes(KERNEL, 17))
        message = f"bbar returned shape {shape}, expected (17, 1)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            picard_solve(g, lambda pts: np.zeros(shape), 2.0, KERNEL)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_iteration_cap_below_one(self, no_quadrature, max_iter):
        with pytest.raises(ConfigError, match="max_iter must be >= 1"):
            picard_solve(self.g_of_box(), self.unread_bbar, 2.0, KERNEL,
                         max_iter=max_iter)


@st.composite
def grid_functions(draw):
    """A TruncatedFunction on 1 to 3 uneven axes of 2 to 6 points, with
    scalar or vector values, and points in and around its box."""
    d = draw(st.integers(1, 3))
    axes = []
    for _ in range(d):
        n = draw(st.integers(2, 6))
        steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
        axes.append(draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(steps)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out_shape = draw(st.sampled_from([(), (d,)]))
    values = rng.standard_normal(tuple(a.size for a in axes) + out_shape)
    return TruncatedFunction(axes, values), rng.uniform(-8.0, 8.0, (16, d))


def hat_basis_reference(f, pts):
    """Clamped multilinear interpolation as a sum over all grid nodes of the
    values times the tensor product of np.interp's 1-D hat functions."""
    out = np.empty((pts.shape[0],) + f.out_shape)
    for i, p in enumerate(pts):
        w = np.ones(())
        for j, ax in enumerate(f.axes):
            w = np.multiply.outer(w, [np.interp(p[j], ax, e) for e in np.eye(ax.size)])
        out[i] = np.tensordot(w, f.values, axes=f.dim)
    return out


class TestTruncatedFunction:
    def test_clamping_outside_box(self, axes):
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        r = axes[0][-1]
        out = f(np.array([[2.0 * r], [-2.0 * r]]))
        assert out[0, 0] == pytest.approx(r)
        assert out[1, 0] == pytest.approx(-r)

    @settings(max_examples=60, deadline=None)
    @given(grid_functions())
    def test_matches_the_hat_basis(self, case):
        f, pts = case
        assert np.max(np.abs(f(pts) - hat_basis_reference(f, pts)), initial=0.0) <= 1e-12
        # leading axes of the points are kept, and do not change the values
        grid = pts.reshape(2, 8, -1)
        assert np.array_equal(f(grid), f(pts).reshape(grid.shape[:2] + f.out_shape))

    @settings(max_examples=30, deadline=None)
    @given(grid_functions())
    def test_nodes_return_their_values_exactly(self, case):
        f, _ = case
        out = f(f.grid_points())
        assert np.array_equal(out, f.values.reshape(out.shape))

    def test_reassigned_values_are_read(self, axes):
        # nothing is cached from the values: a new array is what __call__ reads
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        pts = np.array([[0.1], [-0.3]])
        assert np.array_equal(f(pts), pts)
        f.values = np.ones_like(f.values)
        assert np.array_equal(f(pts), np.ones((2, 1)))
        assert f.sup_norm() == 1.0

    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e200, 1e300])
    def test_sup_norm_past_the_range_of_the_squares(self, axes, scale):
        # the squares of these entries underflow to 0 or overflow to inf
        f = TruncatedFunction.from_callable(
            lambda p: np.stack([3.0 * scale * (p[:, 0] >= 0.0),
                                4.0 * scale * (p[:, 0] >= 0.0)], axis=-1), axes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f.sup_norm() == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-450, 450), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_sup_norm_is_numpys_inside_that_range(self, exponent, width, seed):
        values = (np.random.default_rng(seed).standard_normal((9, width))
                  * 10.0 ** (exponent * 0.3))
        f = TruncatedFunction((np.linspace(-1.0, 1.0, 9),), values)
        assert f.sup_norm() == float(np.max(np.linalg.norm(values, axis=-1)))

    @pytest.mark.parametrize("axis", [[0.0, 2.0, 1.0], [1.0, 0.0], [0.0, 1.0, 1.0],
                                      [0.0, np.nan, 1.0], [0.5], [], [[0.0, 1.0]],
                                      [-1.0, 0.0, np.inf], [-np.inf, 0.0]],
                             ids=["unsorted", "decreasing", "repeated", "nan",
                                  "one-point", "empty", "two-d", "infinite",
                                  "minus-infinite"])
    def test_bad_axis_is_config_error(self, axis):
        axis = np.array(axis)
        with pytest.raises(ConfigError, match="strictly increasing"):
            TruncatedFunction((np.linspace(0.0, 1.0, 3), axis), np.zeros((3, axis.size)))

        def fn(p):
            raise AssertionError("tabulated on a refused grid")

        with pytest.raises(ConfigError, match="strictly increasing"):
            TruncatedFunction.from_callable(fn, (axis,))

    @pytest.mark.parametrize("rows", [
        lambda p: np.concatenate([p, p]), lambda p: p[1:], lambda p: 1.0,
        lambda p: p.T], ids=["two-per-node", "one-short", "scalar", "transposed"])
    def test_tabulated_rows_off_the_grid_are_config_error(self, rows):
        # fn must give one row per node; numpy used to refuse the reshape
        axes = (np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 2))
        with pytest.raises(ConfigError, match=re.escape("fn returned shape ")
                           + r".*" + re.escape("expected (34, ...)")):
            TruncatedFunction.from_callable(rows, axes)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), ()])
    def test_values_off_the_grid_shape_are_config_error(self, shape):
        with pytest.raises(ConfigError, match="values do not match the grid shape"):
            TruncatedFunction((np.linspace(0.0, 1.0, 3),), np.zeros(shape))

    @pytest.mark.parametrize("n", [0, 1])
    def test_box_axes_need_two_points(self, n):
        with pytest.raises(ConfigError, match="at least 2 points per axis"):
            box_axes(KERNEL, n_per_axis=n)

    @pytest.mark.parametrize("mult", [0.0, -8.0, math.nan, math.inf])
    def test_box_axes_need_a_finite_positive_radius(self, mult):
        with pytest.raises(ConfigError, match="radius_mult must be finite and positive"):
            box_axes(KERNEL, n_per_axis=5, radius_mult=mult)

    def test_box_axes_of_a_noiseless_mode_are_the_unit_box(self):
        kernel = OuKernel(np.array([1.0, 4.0]), np.array([1.0, 0.0]))
        axes = box_axes(kernel, n_per_axis=5, radius_mult=3.0)
        assert np.array_equal(axes[0], np.linspace(-3.0, 3.0, 5) * SIGMA)
        assert np.array_equal(axes[1], np.linspace(-1.0, 1.0, 5))

    def test_two_dimensional_kernel(self):
        # d = 2 sanity: constants fixed, means decay per axis
        k2 = OuKernel(np.array([1.0, 4.0]), np.array([1.0, 0.5]))
        axes2 = box_axes(k2, n_per_axis=33, radius_mult=6.0)
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes2)
        out = ou_semigroup_apply(f, 0.5, k2, order=12)
        x0, x1 = np.meshgrid(*axes2, indexing="ij")
        m = (np.abs(x0) <= 0.7) & (np.abs(x1) <= 0.18)
        err0 = np.max(np.abs(out.values[..., 0] - np.exp(-0.5) * x0)[m])
        err1 = np.max(np.abs(out.values[..., 1] - np.exp(-2.0) * x1)[m])
        assert err0 < 1e-6 and err1 < 1e-6


def kernel_of_dim(d):
    return OuKernel(np.array([1.0, 4.0, 9.0][:d]), np.array([1.0, 0.5, 0.3][:d]))


def clamped_axes(kernel, n):
    # a box of 2 stationary deviations, unequal per axis: many Hermite
    # points of every grid node land outside and clamp to the boundary
    return tuple(a * (1.0 + 0.25 * j)
                 for j, a in enumerate(box_axes(kernel, n, radius_mult=2.0)))


def kernel_apply_reference(f, t, kernel, order):
    """(T_t f, D T_t f) on f's own grid, point by point: every pair of a
    grid node and a tensor Gauss-Hermite node is evaluated through
    TruncatedFunction (its _hat weights), and the values are summed with
    the tensor weights and the integration-by-parts weights."""
    decay, std = kernel.transition(t)
    z1, w1 = zvonkin._hermite_1d(order)
    z = np.stack([a.ravel() for a in np.meshgrid(*[z1] * f.dim, indexing="ij")], -1)
    w = np.prod([a.ravel() for a in np.meshgrid(*[w1] * f.dim, indexing="ij")], axis=0)
    x = f.grid_points()
    vals = f(x[:, None, :] * decay + z[None, :, :] * std)  # (G, Q, *out)
    mean = np.tensordot(vals, w, axes=([1], [0]))
    grad = np.tensordot(vals, w[:, None] * z * (decay / std), axes=([1], [0]))
    return mean.reshape(f.values.shape), grad.reshape(f.values.shape + (f.dim,))


def reference_picard(g, bbar, lam, kernel, order=24, n_panels=30, gl_order=8,
                     t_min=1e-8, max_iter=60):
    """The sweep as a loop of per-node point-by-point applies
    (:func:`kernel_apply_reference`; no assembled operator)."""
    d = kernel.dim
    bbar_vals = np.asarray(bbar(g.grid_points()), dtype=float).reshape(
        g.grid_shape + (d,))
    tol = 1e-3 * max(g.sup_norm(), 1e-12)
    nodes, weights = _log_quadrature_nodes(
        t_min, 40.0 / float(kernel.eigenvalues[0]), n_panels, gl_order)
    damp = weights * np.exp(-lam * nodes)
    head = -math.expm1(-lam * t_min) / lam

    def sweep(du_vals):
        psi_vals = g.values + np.einsum("...j,...cj->...c", bbar_vals, du_vals)
        psi = TruncatedFunction(g.axes, psi_vals)
        new_u = head * psi_vals
        new_du = np.zeros_like(du_vals)
        for t, w in zip(nodes, damp):
            mean, grad = kernel_apply_reference(psi, t, kernel, order)
            new_u = new_u + w * mean
            new_du += w * grad
        return new_u, new_du

    u = np.zeros(g.values.shape)
    du = np.zeros(g.values.shape + (d,))
    for iterations in range(1, max_iter + 1):
        new_u, new_du = sweep(du)
        change = max(np.max(np.abs(new_u - u)), np.max(np.abs(new_du - du)))
        u, du = new_u, new_du
        if change < tol:
            break
    resid_u, _ = sweep(du)
    residual = float(np.max(np.linalg.norm(
        (resid_u - u).reshape(g.grid_shape + (-1,)), axis=-1)))
    return u, du, residual, iterations


@st.composite
def axis_transitions(draw):
    """An uneven axis of 2 to 9 points, as in grid_functions, with 1 to 4
    time nodes (decay, std), a Hermite order and, or not, damping
    weights.  The last node's std is wide enough that points of every
    node clamp on both sides of the axis."""
    n = draw(st.integers(2, 9))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    axis = draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    n_t = draw(st.integers(1, 4))
    decay = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_t, max_size=n_t)))
    std = np.array(draw(st.lists(st.floats(1e-3, 3.0), min_size=n_t - 1,
                                 max_size=n_t - 1)) + [2.0 * np.max(np.abs(axis)) + 1.0])
    order = draw(st.integers(3, 12))
    # no subnormal damping: its scale has no relative precision to compare at
    damp = draw(st.none() | st.lists(st.just(0.0) | st.floats(1e-3, 2.0),
                                     min_size=n_t, max_size=n_t).map(np.array))
    return axis, decay, std, order, damp


def axis_matrices_reference(axis, decay, std, z, w, damp):
    """_axis_matrices' maps from _hat's weights, scattered point by point."""
    n, n_t = axis.shape[0], decay.shape[0]
    v, dv = np.zeros((n_t, n, n)), np.zeros((n_t, n, n))
    for t in range(n_t):
        for i in range(n):
            left, frac = zvonkin._hat(axis, axis[i] * decay[t] + z * std[t])
            for m, wq in ((v, w), (dv, w * z * (decay[t] / std[t]))):
                np.add.at(m[t, i], left, wq * (1.0 - frac))
                np.add.at(m[t, i], left + 1, wq * frac)
    if damp is None:
        return v, dv
    return np.tensordot(damp, v, 1), np.tensordot(damp, dv, 1)


class TestAssembledSweep:
    @pytest.mark.parametrize("d, n", [(1, 33), (2, 9), (3, 5)])
    @pytest.mark.parametrize("t", [1e-6, 0.3, 5.0])
    def test_operator_matches_kernel_apply(self, d, n, t):
        kernel = kernel_of_dim(d)
        axes = clamped_axes(kernel, n)
        a_op, b_op = zvonkin._sweep_operators(axes, kernel, 12, np.array([t]),
                                              np.array([1.0]), 0.0)
        psi = np.random.default_rng(d).standard_normal(
            tuple(a.shape[0] for a in axes) + (2,))
        mean, grad = kernel_apply_reference(TruncatedFunction(axes, psi), t,
                                            kernel, 12)
        flat = psi.reshape(a_op.shape[0], -1)
        # the Hermite weights sum to 1; the gradient weights to at most
        # decay/std per axis, the scale of the cancelling summands
        sup = np.max(np.abs(psi))
        decay, std = kernel.transition(t)
        assert np.max(np.abs(a_op @ flat - mean.reshape(flat.shape))) < 1e-13 * sup
        got = np.moveaxis(b_op @ flat, 0, -1)
        err = np.max(np.abs(got - grad.reshape(got.shape)))
        assert err < 1e-13 * sup * np.max(decay / std)

    @settings(max_examples=80, deadline=None)
    @given(axis_transitions())
    def test_axis_matrices_match_the_hat_weights(self, case):
        axis, decay, std, order, damp = case
        z, w = zvonkin._hermite_1d(order)
        got = zvonkin._axis_matrices(axis, decay, std, z, w, damp)
        ref = axis_matrices_reference(axis, decay, std, z, w, damp)
        # every V row sums to its time node's sum_q w_q, every D row to
        # decay/std sum_q w_q z_q, whatever cells the weights land in
        sums, g_sums = np.full_like(decay, np.sum(w)), decay / std * np.sum(w * z)
        if damp is not None:
            sums, g_sums = damp @ sums, damp @ g_sums
        # the weight scales of V and D
        scale = 1.0 if damp is None else np.sum(damp)
        g_scale = scale * np.max(decay / std) * np.sum(np.abs(w * z))
        assert got[0].shape == ref[0].shape == got[1].shape == ref[1].shape
        assert np.max(np.abs(got[0] - ref[0])) <= 1e-13 * scale
        assert np.max(np.abs(got[1] - ref[1])) <= 1e-13 * g_scale
        assert np.max(np.abs(got[0].sum(axis=-1).T - sums)) <= 1e-13 * scale
        assert np.max(np.abs(got[1].sum(axis=-1).T - g_sums)) <= 1e-13 * g_scale

    @pytest.mark.parametrize("d, n", [(1, 65), (2, 9)])
    def test_solve_matches_per_node_loop(self, d, n):
        kernel = kernel_of_dim(d)
        axes = clamped_axes(kernel, n)
        g = TruncatedFunction.from_callable(lambda p: np.cos(p), axes)

        def bbar(pts):
            return 0.8 * np.sin(np.atleast_2d(pts))

        sol = picard_solve(g, bbar, 2.0, kernel, order=12)
        u, du, residual, iterations = reference_picard(g, bbar, 2.0, kernel,
                                                       order=12)
        assert sol.iterations == iterations
        assert np.max(np.abs(sol.u.values - u)) < 1e-12
        assert np.max(np.abs(sol.du.values - du)) < 1e-12
        assert abs(sol.residual - residual) < 1e-12

    def test_node_cap(self):
        for shape in [(MAX_PICARD_NODES,), (32, 64), (8, 16, 16)]:
            check_picard_grid(shape)
        for shape in [(MAX_PICARD_NODES + 1,), (46, 46), (13, 13, 13)]:
            with pytest.raises(ConfigError, match="grid nodes"):
                check_picard_grid(shape)
        # the largest grid solves; one node more is refused before any work
        g = TruncatedFunction.from_callable(
            lambda p: np.full((p.shape[0], 1), 1.0),
            box_axes(KERNEL, n_per_axis=MAX_PICARD_NODES))
        sol = picard_solve(g, zero_bbar, 2.0, KERNEL, order=6)
        assert sol.converged and np.max(np.abs(sol.u.values - 0.5)) < 1e-6
        big = TruncatedFunction.from_callable(
            lambda p: np.ones((p.shape[0], 1)),
            box_axes(KERNEL, n_per_axis=MAX_PICARD_NODES + 1))
        with pytest.raises(ConfigError, match="grid nodes"):
            picard_solve(big, zero_bbar, 2.0, KERNEL)

    def test_three_dimensional_solve_finishes(self):
        kernel = kernel_of_dim(3)
        axes = box_axes(kernel, n_per_axis=5)
        g = TruncatedFunction.from_callable(lambda p: np.cos(p), axes)

        def bbar(pts):
            return 0.5 * np.sin(np.atleast_2d(pts))

        t0 = time.perf_counter()
        sol = picard_solve(g, bbar, 2.0, kernel)
        assert time.perf_counter() - t0 < 60.0
        assert sol.converged
        assert sol.residual < 1e-2 * g.sup_norm()
        assert sol.du.values.shape == (5, 5, 5, 3, 3)


@st.composite
def apply_cases(draw):
    """f on 1 to 3 uneven axes of 2 to 7 points with 1 or 2 output
    components, an OU kernel, a time and a Hermite order.  Each box spans
    at most about two stationary deviations, off centre, so Hermite points
    of every node clamp to its boundary."""
    d = draw(st.integers(1, 3))
    lam = np.array(draw(st.lists(st.floats(0.5, 10.0), min_size=d, max_size=d)))
    q = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=d, max_size=d)))
    kernel = OuKernel(lam, q)
    axes = []
    for sd in kernel.stationary_std():
        n = draw(st.integers(2, 7))
        steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
        axis = np.concatenate([[0.0], np.cumsum(steps)])
        axes.append(sd * (2.0 * axis / axis[-1] - 1.0 + draw(st.floats(-1.0, 1.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(tuple(a.size for a in axes) + (draw(st.integers(1, 2)),))
    return (TruncatedFunction(axes, values), kernel, draw(st.floats(1e-4, 5.0)),
            draw(st.integers(3, 12)))


class TestSingleApplies:
    @settings(max_examples=60, deadline=None)
    @given(apply_cases())
    def test_match_the_point_by_point_reference(self, case):
        f, kernel, t, order = case
        mean, grad = kernel_apply_reference(f, t, kernel, order)
        sg = ou_semigroup_apply(f, t, kernel, order=order).values
        gd = ou_gradient_apply(f, t, kernel, order=order).values
        # the Hermite weights sum to 1; the gradient weights to at most
        # decay/std per axis
        sup = np.max(np.abs(f.values))
        decay, std = kernel.transition(t)
        assert sg.shape == mean.shape and gd.shape == grad.shape
        assert np.max(np.abs(sg - mean)) <= 1e-13 * sup
        assert np.max(np.abs(gd - grad)) <= 1e-13 * sup * np.max(decay / std)

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_output_components(self, d):
        kernel = kernel_of_dim(d)
        f = TruncatedFunction(box_axes(kernel, 9), np.zeros((9,) * d + (0,)))
        assert ou_semigroup_apply(f, 0.5, kernel).values.shape == (9,) * d + (0,)
        assert ou_gradient_apply(f, 0.5, kernel).values.shape == (9,) * d + (0, d)

    def test_bench_sized_apply_stays_small(self):
        # the zvonkin-1d bench's applies: 8193 nodes, order 40
        fine = (np.linspace(-8.0 * SIGMA, 8.0 * SIGMA, 8193),)
        f = TruncatedFunction.from_callable(
            lambda p: np.sin(p) * np.exp(-p**2 / 8.0), fine)
        for apply in (ou_semigroup_apply, ou_gradient_apply):
            tracemalloc.start()
            try:
                apply(f, 0.4, KERNEL, order=40)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000, (apply.__name__, peak)

    def test_three_dimensional_cap_grid(self):
        # constants are fixed and linear means decay by e^{-lambda_a t} per
        # axis, on picard_solve's largest d = 3 grid; away from the box edge
        # the clamped Hermite mass is below e^{-24}
        kernel = kernel_of_dim(3)
        axes = box_axes(kernel, n_per_axis=12, radius_mult=8.0)
        one = TruncatedFunction.from_callable(lambda p: np.ones((p.shape[0], 1)), axes)
        f = TruncatedFunction.from_callable(lambda p: p.copy(), axes)
        t0 = time.perf_counter()
        const = ou_semigroup_apply(one, 0.5, kernel, order=24).values
        lin = ou_semigroup_apply(f, 0.5, kernel, order=24).values
        assert time.perf_counter() - t0 < 1.0
        assert np.max(np.abs(const - 1.0)) < 1e-12
        x = np.moveaxis(f.values, -1, 0)
        core = np.all(np.abs(x) <= kernel.stationary_std()[:, None, None, None], axis=0)
        assert np.count_nonzero(core) == 8
        for a in range(3):
            decayed = np.exp(-kernel.eigenvalues[a] * 0.5) * x[a]
            assert np.max(np.abs(lin[..., a] - decayed)[core]) < 1e-9


def test_time_nodes_are_the_log_panel_rule():
    # the per-solver builder this replaced, kept as the reference
    def time_quadrature(kernel, t_min, n_panels, gl_order):
        t_max = 40.0 / float(kernel.eigenvalues[0])
        edges = np.exp(np.linspace(math.log(t_min), math.log(t_max), n_panels + 1))
        gx, gw = np.polynomial.legendre.leggauss(gl_order)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes.append(mid + half * gx)
            weights.append(half * gw)
        return np.concatenate(nodes), np.concatenate(weights)

    rng = np.random.default_rng(5)
    cases = [(1.0, 1e-8, 30, 8), (4.0, 1e-8, 30, 8)] + [
        (float(np.exp(rng.uniform(-3, 5))), float(np.exp(rng.uniform(-25, -1))),
         int(rng.integers(1, 50)), int(rng.integers(1, 20))) for _ in range(300)]
    for lam1, t_min, n_panels, gl_order in cases:
        kernel = OuKernel(np.array([lam1]), np.array([1.0]))
        ref = time_quadrature(kernel, t_min, n_panels, gl_order)
        got = _log_quadrature_nodes(t_min, 40.0 / lam1, n_panels, gl_order)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
