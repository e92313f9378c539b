"""Integrator correctness: exact linear cases, coupling, refinement."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast_spde.errors import ConfigError, IntegrationError
from slowfast_spde.model import heat_example
from slowfast_spde.noise import (NoiseSpectrum, conv_increment_law,
                                 derive_substream)
from slowfast_spde.simulate import (SlowFastState, StepScheme,
                                    simulate_auxiliary_fast, simulate_averaged,
                                    simulate_frozen, simulate_slow_fast,
                                    step_slow_fast)
from slowfast_spde.spectral import (coeffs_to_grid_values,
                                    grid_values_to_coeffs, h_norm,
                                    SpectralField)


def zero_drift(x_grid, y_grid):
    return np.zeros_like(x_grid)


def quiet(config):
    """Config with zero drifts and zero noise (pure semigroup decay)."""
    n = config.n_modes
    return replace(config, drift_b=zero_drift, drift_f=zero_drift,
                   q1=NoiseSpectrum(np.zeros(n)), q2=NoiseSpectrum(np.zeros(n)))


@pytest.fixture(scope="module")
def heat():
    return heat_example(0.1, 0.1, 8)


def streams(n, seed=1):
    return derive_substream(seed, 0, "W1", n), derive_substream(seed, 0, "W2", n)


class TestDeterministicCases:
    def test_pure_semigroup_decay(self, heat, rng):
        cfg = quiet(heat)
        x0 = rng.standard_normal(8)
        y0 = rng.standard_normal(8)
        w1, w2 = streams(8)
        xs, ys = simulate_slow_fast(cfg, 0.5, x0, y0, 0.2, StepScheme(1e-2), w1, w2)
        lam = cfg.eigs.eigenvalues
        assert np.max(np.abs(xs.states[-1] - np.exp(-lam * 0.2) * x0)) < 1e-12
        # fast component decays in its own time t/eps
        assert np.max(np.abs(ys.states[-1] - np.exp(-lam * 0.2 / 0.5) * y0)) < 1e-12

    def test_constant_drift_closed_form_step(self, heat, rng):
        # B == c*e_1, q1 == 0: one macro step gives e^{-l1 dt}(x1 + dt*c)
        c = 0.7
        e1_grid = coeffs_to_grid_values(np.eye(8)[0], heat.m_points)
        cfg = replace(quiet(heat), drift_b=lambda xg, yg: c * e1_grid)
        x0 = rng.standard_normal(8)
        w1, w2 = streams(8)
        state = SlowFastState(x=x0, y=np.zeros(8), t=0.0, eps=0.5)
        out = step_slow_fast(state, StepScheme(0.05), w1, w2, cfg)
        lam1 = cfg.eigs.eigenvalues[0]
        assert out.x[0] == pytest.approx(np.exp(-lam1 * 0.05) * (x0[0] + 0.05 * c),
                                         abs=1e-14)

    def test_frozen_zero_drift_is_semigroup(self, heat, rng):
        cfg = quiet(heat)
        y0 = rng.standard_normal(8)
        traj = simulate_frozen(cfg, np.zeros(8), y0, 1.0, 0.01, streams(8)[1])
        lam = cfg.eigs.eigenvalues
        assert np.max(np.abs(traj.states[-1] - np.exp(-lam) * y0)) < 1e-12


class TestStochasticLaws:
    def test_frozen_ou_stationary_moment(self, heat):
        # F == 0: stationary second moment of mode k is q_k/(2 lambda_k)
        cfg = replace(heat, drift_f=zero_drift)
        w2 = derive_substream(3, 0, "W2", 8)
        traj = simulate_frozen(cfg, np.zeros(8), np.zeros((256, 8)), 40.0, 0.05, w2)
        sample = traj.states[200:]  # past burn-in
        emp = np.mean(sample**2, axis=(0, 1))
        target = cfg.q2.q / (2.0 * cfg.eigs.eigenvalues)
        # time-averaged over 256 replicas x 600 nodes; allow 10%
        assert np.all(np.abs(emp - target) <= 0.1 * target)

    def test_averaged_constant_drift_mean(self, heat):
        # Bbar == c*e_1: mode-1 mean at T is e^{-l1 T}x1 + c(1-e^{-l1 T})/l1
        c, t_final, dt, n_mc = 1.0, 1.0, 1e-3, 2000
        e1 = np.eye(8)[0]
        w1 = derive_substream(5, 0, "W1", 8)
        traj = simulate_averaged(heat, np.zeros((n_mc, 8)), t_final, dt, w1,
                                 lambda x: c * e1)
        m = traj.states[-1][:, 0]
        exact = c * (1.0 - np.exp(-1.0)) / 1.0
        se = m.std(ddof=1) / np.sqrt(n_mc)
        assert abs(m.mean() - exact) <= 3.0 * se + 1e-3  # 1e-3 = O(dt) bias

    def test_averaged_reduces_to_frozen_ou(self, heat):
        # Bbar == 0 and q1 == q2: the averaged path and the frozen path
        # consume identical draws when given identically keyed streams
        cfg = replace(heat, q2=heat.q1, drift_f=zero_drift)
        w_a = derive_substream(7, 0, "X", 8)
        w_b = derive_substream(7, 0, "X", 8)
        xa = simulate_averaged(cfg, np.zeros(8), 0.5, 0.01, w_a,
                               lambda x: np.zeros_like(x))
        xb = simulate_frozen(cfg, np.zeros(8), np.zeros(8), 0.5, 0.01, w_b)
        assert np.array_equal(xa.states, xb.states)


class TestCouplingAndDeterminism:
    def test_bit_identical_rerun(self, heat):
        w1, w2 = streams(8, seed=11)
        a = simulate_slow_fast(heat, 1e-1, np.zeros(8), np.zeros(8), 0.2,
                               StepScheme(1e-2), w1, w2)
        w1, w2 = streams(8, seed=11)
        b = simulate_slow_fast(heat, 1e-1, np.zeros(8), np.zeros(8), 0.2,
                               StepScheme(1e-2), w1, w2)
        assert np.array_equal(a[0].states, b[0].states)
        assert np.array_equal(a[1].states, b[1].states)

    def test_path_is_repeated_single_steps(self, heat, monkeypatch):
        # the laws are computed once per path, and the path equals the
        # public single step applied repeatedly, bit for bit
        from slowfast_spde import simulate

        calls = []

        def counting_law(*args):
            calls.append(None)
            return conv_increment_law(*args)

        monkeypatch.setattr(simulate, "conv_increment_law", counting_law)
        w1, w2 = streams(8, seed=12)
        xs, ys = simulate_slow_fast(heat, 1e-1, np.zeros(8), np.zeros(8), 0.2,
                                    StepScheme(1e-2), w1, w2)
        assert len(calls) == 2
        w1, w2 = streams(8, seed=12)
        state = SlowFastState(x=np.zeros(8), y=np.zeros(8), t=0.0, eps=1e-1)
        for i in range(1, len(xs)):
            state = step_slow_fast(state, StepScheme(1e-2), w1, w2, heat)
            assert np.array_equal(state.x, xs.states[i])
            assert np.array_equal(state.y, ys.states[i])
        assert len(calls) == 2 + 2 * (len(xs) - 1)

    def test_path_steps_through_public_step(self, heat, monkeypatch):
        # one step_slow_fast call per macro step, so wrappers of the
        # public step see every step a path takes
        from slowfast_spde import simulate

        steps = []
        step = simulate.step_slow_fast

        def counting_step(*args, **kwargs):
            steps.append(None)
            return step(*args, **kwargs)

        monkeypatch.setattr(simulate, "step_slow_fast", counting_step)
        w1, w2 = streams(8, seed=12)
        xs, _ = simulate_slow_fast(heat, 1e-1, np.zeros(8), np.zeros(8), 0.2,
                                   StepScheme(1e-2), w1, w2)
        assert len(steps) == len(xs) - 1 == 20

    def test_macro_step_transforms_each_state_once(self, heat, monkeypatch):
        # x and each of the n_sub fast states go to the grid once: the
        # first substep reuses the grid values the slow drift used.  A
        # transform is a call of the public function or, in a frozen step
        # that binds the sine matrices, a product with the bound
        # evaluation matrix; both are counted.
        from slowfast_spde import simulate

        calls = []
        to_grid = simulate.coeffs_to_grid_values
        sine_matrices = simulate._sine_matrices

        def counting(*args):
            calls.append(None)
            return to_grid(*args)

        class CountingMatrix(np.ndarray):
            def __array_function__(self, func, types, args, kwargs):
                calls.append(None)
                return super().__array_function__(func, types, args, kwargs)

        def counting_matrices(n, m):
            evaluate, project = sine_matrices(n, m)
            return evaluate.view(CountingMatrix), project

        monkeypatch.setattr(simulate, "coeffs_to_grid_values", counting)
        monkeypatch.setattr(simulate, "_sine_matrices", counting_matrices)
        scheme = StepScheme(1e-2)
        w1, w2 = streams(8, seed=13)
        state = SlowFastState(x=np.zeros(8), y=np.zeros(8), t=0.0, eps=1e-2)
        step_slow_fast(state, scheme, w1, w2, heat)
        assert len(calls) == 1 + scheme.n_substeps(1e-2)

    def test_w1_draw_order_contract(self, heat):
        # decoupled B (independent of y): slow-fast and averaged paths
        # coincide bitwise under replayed W1
        e_grid = coeffs_to_grid_values(np.zeros(8), heat.m_points)

        def b_decoupled(xg, yg):
            return np.sin(np.sqrt(np.abs(xg)))

        cfg = replace(heat, drift_b=b_decoupled)

        def bbar_exact(x):
            xg = coeffs_to_grid_values(x, cfg.m_points)
            return grid_values_to_coeffs(b_decoupled(xg, e_grid), 8)

        w1, w2 = streams(8, seed=13)
        xs, _ = simulate_slow_fast(cfg, 1e-1, np.zeros(8), np.zeros(8), 0.2,
                                   StepScheme(1e-2), w1, w2)
        xbar = simulate_averaged(cfg, np.zeros(8), 0.2, 1e-2,
                                 derive_substream(13, 0, "W1", 8), bbar_exact)
        assert np.array_equal(xs.states, xbar.states)

    def test_refinement_self_difference_decreases(self, heat):
        # exponential-Euler endpoint vs itself under matched noise,
        # aggregating fine convolution increments to coarse steps:
        # eta_coarse = e^{A h} eta_1 + eta_2
        n, t_final = 8, 0.5
        lam = heat.eigs.eigenvalues
        levels = [0.02, 0.01, 0.005, 0.0025]
        rng = np.random.default_rng(99)
        n_fine = int(round(t_final / levels[-1]))
        _, std_f = conv_increment_law(levels[-1], heat.q1, heat.eigs)
        etas = {levels[-1]: std_f * rng.standard_normal((n_fine, 64, n))}
        for dt_to in (0.005, 0.01, 0.02):
            fine = etas[dt_to / 2]
            decay_h = np.exp(-lam * (dt_to / 2))
            etas[dt_to] = decay_h * fine[0::2] + fine[1::2]

        def run(dt):
            decay = np.exp(-lam * dt)
            x_grid0 = coeffs_to_grid_values(np.zeros((64, n)), heat.m_points)
            x = np.zeros((64, n))
            for i in range(int(round(t_final / dt))):
                xg = coeffs_to_grid_values(x, heat.m_points)
                b = grid_values_to_coeffs(heat.drift_b(xg, x_grid0 * 0.0), n)
                x = decay * (x + dt * b) + etas[dt][i]
            return x

        ends = [run(dt) for dt in levels]
        rms = [np.sqrt(np.mean(np.sum((a - b) ** 2, axis=-1)))
               for a, b in zip(ends[:-1], ends[1:])]
        assert rms[0] > rms[1] > rms[2] > 0.0

    def test_shared_noise_contraction_pathwise(self, heat, rng):
        # same x, different y0, shared W2: discrete scheme satisfies
        # |dY|^2 <= e^{-(l1-L_F)t}|dy0|^2 pathwise (noise cancels exactly)
        dy = rng.standard_normal(8)
        w2a = derive_substream(17, 0, "W2", 8)
        w2b = derive_substream(17, 0, "W2", 8)
        ya = simulate_frozen(heat, np.zeros(8), np.zeros(8), 4.0, 0.01, w2a)
        yb = simulate_frozen(heat, np.zeros(8), dy, 4.0, 0.01, w2b)
        d2 = np.sum((ya.states - yb.states) ** 2, axis=-1)
        gap = heat.spectral_gap
        bound = np.exp(-gap * ya.times) * d2[0]
        assert np.all(d2 <= bound * (1.0 + 1e-12))


class TestAuxiliaryFast:
    def test_single_block_equals_frozen(self, heat):
        # delta >= T: the auxiliary process is the frozen equation at X_0,
        # run at the matching substep, consuming the same draws
        eps, t_final, dt = 0.25, 0.2, 0.02
        scheme = StepScheme(dt, fast_substep_factor=0.4)
        w1, w2 = streams(8, seed=19)
        xs, _ = simulate_slow_fast(heat, eps, np.zeros(8), np.ones(8) * 0.1,
                                   t_final, scheme, w1, w2)
        yhat = simulate_auxiliary_fast(heat, eps, xs, t_final, np.ones(8) * 0.1,
                                       scheme, w2.replay())
        n_sub = scheme.n_substeps(eps)
        h_fast = dt / n_sub / eps
        frozen = simulate_frozen(heat, np.zeros(8), np.ones(8) * 0.1,
                                 t_final / eps, h_fast,
                                 derive_substream(19, 0, "W2", 8))
        assert np.array_equal(yhat.states, frozen.states[::n_sub])

    def test_f_independent_of_x_identity(self, heat):
        cfg = replace(heat, drift_f=lambda xg, yg: 0.5 * np.cos(np.abs(yg)))
        eps, t_final = 0.1, 0.2
        scheme = StepScheme(0.01)
        w1, w2 = streams(8, seed=23)
        xs, ys = simulate_slow_fast(cfg, eps, np.zeros(8), np.zeros(8),
                                    t_final, scheme, w1, w2)
        yhat = simulate_auxiliary_fast(cfg, eps, xs, 0.05, np.zeros(8),
                                       scheme, w2.replay())
        assert np.array_equal(ys.states, yhat.states)

    def test_mismatched_delta_rejected(self, heat):
        scheme = StepScheme(0.01)
        w1, w2 = streams(8)
        xs, _ = simulate_slow_fast(heat, 0.1, np.zeros(8), np.zeros(8), 0.1,
                                   scheme, w1, w2)
        with pytest.raises(ConfigError, match="multiple"):
            simulate_auxiliary_fast(heat, 0.1, xs, 0.015, np.zeros(8), scheme,
                                    w2.replay())
        with pytest.raises(ConfigError,
                           match="delta must be a positive multiple of dt_macro"):
            simulate_auxiliary_fast(heat, 0.1, xs, 0.0, np.zeros(8), scheme,
                                    w2.replay())


class TestValidationAndBounds:
    def test_eps_domain_rejected(self, heat):
        with pytest.raises(ConfigError, match="eps"):
            SlowFastState(x=np.zeros(8), y=np.zeros(8), t=0.0, eps=1.0)

    @pytest.mark.parametrize("run,message", [
        (lambda heat, w1, w2: StepScheme(0.0),
         "dt_macro must be finite and positive, got 0.0"),
        (lambda heat, w1, w2: simulate_slow_fast(
            heat, 0.1, np.zeros(7), np.zeros(8), 0.02, StepScheme(0.01), w1, w2),
         "initial field has 7 modes, config expects 8"),
        (lambda heat, w1, w2: simulate_frozen(heat, np.zeros(8), np.zeros(8),
                                              0.1, 0.0, w2),
         "dt must be positive"),
        (lambda heat, w1, w2: simulate_averaged(heat, np.zeros(8), 0.1, -0.01,
                                                w1, lambda x: 0.0 * x),
         "dt must be positive"),
    ], ids=["zero-macro-step", "seven-mode-x0", "frozen-dt-0", "averaged-dt-neg"])
    def test_invalid_input_rejected(self, heat, run, message):
        w1, w2 = streams(8)
        with pytest.raises(ConfigError, match=message):
            run(heat, w1, w2)
        assert w1.draws == w2.draws == 0

    @pytest.mark.parametrize("t_final, dt", [(0.0105, 0.01), (0.05, 0.02),
                                             (-0.02, 0.01)])
    def test_horizon_not_a_step_multiple_rejected(self, heat, t_final, dt):
        w1, w2 = streams(8)
        zero = np.zeros(8)
        with pytest.raises(ConfigError, match="t_final"):
            simulate_slow_fast(heat, 0.1, zero, zero, t_final, StepScheme(dt),
                               w1, w2)
        with pytest.raises(ConfigError, match="t_final"):
            simulate_frozen(heat, zero, zero, t_final, dt, w2)
        with pytest.raises(ConfigError, match="t_final"):
            simulate_averaged(heat, zero, t_final, dt, w1, lambda x: 0.0 * x)

    @pytest.mark.parametrize("t_final, dt, n_steps", [
        (0.01, 2e-3, 5), (0.5, 1e-3, 500), (1.0, 1e-3, 1000), (0.2, 1e-2, 20),
        (0.0, 1e-2, 0)])
    def test_step_multiple_horizons_run(self, heat, t_final, dt, n_steps):
        # the horizons of the configs, demos and benchmark: t_final / dt
        # is off an integer only by rounding
        w1, w2 = streams(8)
        zero = np.zeros(8)
        traj = simulate_averaged(heat, zero, t_final, dt, w1, lambda x: 0.0 * x)
        assert len(traj) == n_steps + 1
        assert len(simulate_frozen(heat, zero, zero, t_final, dt, w2)) == n_steps + 1
        if n_steps <= 20:
            xs, _ = simulate_slow_fast(heat, 0.5, zero, zero, t_final,
                                       StepScheme(dt), w1, w2)
            assert len(xs) == n_steps + 1

    def test_nan_drift_reports_grid_point(self, heat):
        def bad(xg, yg):
            out = np.zeros_like(xg)
            out[..., 3] = np.nan
            return out

        cfg = replace(heat, drift_b=bad)
        w1, w2 = streams(8)
        with pytest.raises(IntegrationError, match="xi="):
            simulate_slow_fast(cfg, 0.1, np.zeros(8), np.zeros(8), 0.05,
                               StepScheme(1e-2), w1, w2)

    @pytest.mark.parametrize("x0", [np.zeros(8), np.zeros((4, 8))],
                             ids=["one-path", "batch"])
    def test_nan_averaged_drift_reports_time_and_mode(self, heat, x0):
        calls = []

        def bbar(x):
            calls.append(None)
            out = np.zeros_like(x)
            if len(calls) >= 3:
                out[..., 2] = np.nan
            return out

        w1, _ = streams(8)
        # the third call drifts the state of t = 2 dt
        with pytest.raises(IntegrationError,
                           match=r"^averaged drift returned a non-finite value "
                                 r"at t=0\.020000 in mode 3$"):
            simulate_averaged(heat, x0, 0.05, 1e-2, w1, bbar)
        assert len(calls) == 3

    def test_fast_moment_uniform_in_eps(self, heat):
        # time-sup of E|Y|^2 varies little across eps
        sups = []
        for i, eps in enumerate((1e-1, 1e-2)):
            w1, w2 = streams(8, seed=31 + i)
            _, ys = simulate_slow_fast(heat, eps, np.zeros((128, 8)),
                                       np.zeros((128, 8)), 0.5,
                                       StepScheme(2e-3), w1, w2)
            sups.append(np.max(np.mean(np.sum(ys.states**2, axis=-1), axis=1)))
        spread = abs(sups[0] - sups[1]) / np.mean(sups)
        assert spread < 0.2

    def test_slow_path_spatial_regularity(self, heat32):
        # t^theta * E||X_t||_theta^2 stays bounded on (0, T]; the constant
        # 3.0 was calibrated once on this seed and frozen
        theta = 0.55
        n = 32
        w1 = derive_substream(41, 0, "W1", n)
        w2 = derive_substream(41, 0, "W2", n)
        xs, _ = simulate_slow_fast(heat32, 1e-2, np.zeros((32, n)),
                                   np.zeros((32, n)), 1.0, StepScheme(1e-3),
                                   w1, w2)
        lam = heat32.eigs.eigenvalues**theta
        hn2 = np.mean(np.sum(lam * xs.states[1:] ** 2, axis=-1), axis=1)
        prod = xs.times[1:] ** theta * hn2
        assert np.max(prod) < 3.0


class TestSplitHorizon:
    """[0, T] in one call equals [0, T1] then [T1, T] on the same stream
    objects, bit for bit: the stepper carries nothing from one call to
    the next but the state and the streams."""

    DT = 1e-2

    @settings(max_examples=20, deadline=None)
    @given(n_paths=st.sampled_from([None, 3]), n1=st.integers(0, 3),
           n2=st.integers(0, 3), eps=st.sampled_from([1e-2, 2e-2, 5e-2]),
           seed=st.integers(0, 2**32 - 1))
    def test_coupled(self, heat, n_paths, n1, n2, eps, seed):
        scheme = StepScheme(self.DT)
        assert scheme.n_substeps(eps) > 1
        shape = (8,) if n_paths is None else (n_paths, 8)
        rng = np.random.default_rng(seed)
        x0, y0 = rng.standard_normal(shape), rng.standard_normal(shape)
        whole = simulate_slow_fast(heat, eps, x0, y0, (n1 + n2) * self.DT, scheme,
                                   *streams(8, seed))
        w1, w2 = streams(8, seed)
        first = simulate_slow_fast(heat, eps, x0, y0, n1 * self.DT, scheme, w1, w2)
        second = simulate_slow_fast(heat, eps, first[0].states[-1],
                                    first[1].states[-1], n2 * self.DT, scheme, w1, w2)
        for w, a, b in zip(whole, first, second):
            assert np.array_equal(w.states, np.concatenate([a.states, b.states[1:]]))

    @settings(max_examples=20, deadline=None)
    @given(n_paths=st.sampled_from([None, 3]), n1=st.integers(0, 4),
           n2=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_averaged(self, heat, n_paths, n1, n2, seed):
        def bbar(x):
            return np.sin(x) - 0.5 * x

        shape = (8,) if n_paths is None else (n_paths, 8)
        x0 = np.random.default_rng(seed).standard_normal(shape)
        whole = simulate_averaged(heat, x0, (n1 + n2) * self.DT, self.DT,
                                  streams(8, seed)[0], bbar)
        w1 = streams(8, seed)[0]
        first = simulate_averaged(heat, x0, n1 * self.DT, self.DT, w1, bbar)
        second = simulate_averaged(heat, first.states[-1], n2 * self.DT, self.DT,
                                   w1, bbar)
        assert np.array_equal(whole.states,
                              np.concatenate([first.states, second.states[1:]]))
