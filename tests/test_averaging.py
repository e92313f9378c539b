"""Averaged-drift estimator, batched drift oracle, mixing diagnostic."""

from dataclasses import replace

import numpy as np
import pytest

from slowfast_spde.averaging import (AveragingParams, BbarOracle,
                                     estimate_bbar, estimate_bbar_batch,
                                     mixing_diagnostic)
from slowfast_spde.errors import ConfigError, ErgodicityError, IntegrationError
from slowfast_spde.model import heat_example
from slowfast_spde.noise import NoiseSpectrum, conv_increment_law, derive_substream
from slowfast_spde.simulate import simulate_frozen
from slowfast_spde.spectral import PI, coeffs_to_grid_values, grid_values_to_coeffs


def zero_drift(x_grid, y_grid):
    return np.zeros_like(x_grid)


def per_step_projection_estimate(config, xs, params, seed):
    """Reference time-average estimator that projects B(x, Y_t) to
    coefficients on every step of the window, in the package's draw order."""
    reps, n = params.n_replicas, config.n_modes
    big = xs.shape[0] * reps
    stream = derive_substream(seed, 0, "bbar", n)
    x_grid = coeffs_to_grid_values(np.repeat(xs, reps, axis=0), config.m_points)
    decay, std = conv_increment_law(params.dt, config.q2, config.eigs)
    n_burn = int(round(params.t_burn / params.dt))
    n_avg = max(1, int(round(params.t_avg / params.dt)))
    y = np.zeros((big, n))
    acc = np.zeros((big, n))
    for i in range(n_burn + n_avg):
        y_grid = coeffs_to_grid_values(y, config.m_points)
        if i >= n_burn:
            acc += grid_values_to_coeffs(config.drift_b(x_grid, y_grid), n)
        f = grid_values_to_coeffs(config.drift_f(x_grid, y_grid), n)
        y = decay * (y + params.dt * f) + std * stream.standard_normals(big)
    per_replica = (acc / n_avg).reshape(-1, reps, n)
    values = per_replica.mean(axis=1)
    dev = per_replica - values[:, None, :]
    stderr = np.sqrt(np.sum(dev**2, axis=(1, 2)) / (reps * (reps - 1)))
    return values, stderr


@pytest.fixture(scope="module")
def heat():
    return heat_example(0.1, 0.1, 8)


@pytest.fixture(scope="module")
def params():
    return AveragingParams(t_burn=8.0, t_avg=24.0, dt=0.02, n_replicas=4)


class TestEstimate:
    def test_y_independent_drift_is_exact(self, heat, params, rng):
        # B ignores y: the time average is constant, stderr vanishes
        cfg = replace(heat, drift_b=lambda xg, yg: np.sin(np.sqrt(np.abs(xg))))
        x = rng.standard_normal(8) * 0.5
        est = estimate_bbar(cfg, x, params, seed=1)
        xg = coeffs_to_grid_values(x, cfg.m_points)
        exact = grid_values_to_coeffs(np.sin(np.sqrt(np.abs(xg))), 8)
        assert np.max(np.abs(est.value - exact)) < 1e-12
        assert est.stderr < 1e-13

    def test_linear_drift_centered_ou(self, heat, params):
        # B(x,y) = y with F == 0: the invariant law is centered Gaussian
        cfg = replace(heat, drift_b=lambda xg, yg: yg, drift_f=zero_drift)
        est = estimate_bbar(cfg, np.zeros(8), params, seed=2)
        assert np.linalg.norm(est.value) <= 4.0 * est.stderr + 1e-12

    def test_initial_condition_independence(self, heat, params, rng):
        x = np.zeros(8)
        a = estimate_bbar(heat, x, params, seed=3)
        y_alt = rng.standard_normal(8)
        b = estimate_bbar(heat, x, params, seed=4, y0=y_alt)
        diff = np.linalg.norm(a.value - b.value)
        assert diff <= 3.0 * np.hypot(a.stderr, b.stderr)

    def test_boundedness_pointwise(self, heat, params):
        # a time average of fields bounded by 1 pointwise stays bounded
        est = estimate_bbar(heat, np.zeros(8), params, seed=5)
        grid_vals = coeffs_to_grid_values(est.value, heat.m_points)
        assert np.max(np.abs(grid_vals)) <= heat.bound_b + 1e-9
        assert np.linalg.norm(est.value) <= np.sqrt(PI) * heat.bound_b

    def test_refuses_without_gap(self, heat, params):
        bad = replace(heat, l_f=1.5)  # lambda_1 - L_F = -0.5
        with pytest.raises(ErgodicityError) as est:
            estimate_bbar(bad, np.zeros(8), params, seed=6)
        # the default burn-in refuses with the same message
        with pytest.raises(ErgodicityError) as burn:
            AveragingParams.for_model(bad)
        assert str(burn.value) == str(est.value)

    def test_grid_side_average_matches_per_step_projection(self, heat, rng):
        params = AveragingParams(t_burn=2.0, t_avg=4.0, dt=0.02, n_replicas=3)
        xs = rng.standard_normal((5, 8)) * 0.5
        values, stderr = estimate_bbar_batch(heat, xs, params, seed=20)
        ref_values, ref_stderr = per_step_projection_estimate(heat, xs, params, 20)
        assert np.max(np.abs(values - ref_values)) <= 1e-12 * np.max(np.abs(ref_values))
        assert np.max(np.abs(stderr - ref_stderr)) <= 1e-12 * np.max(ref_stderr)

    @pytest.mark.parametrize("shape", [(8,), (2, 8), (4, 8), (2, 2, 8)])
    def test_accepted_initial_state_shapes(self, heat, rng, shape):
        params = AveragingParams(t_burn=0.1, t_avg=0.2, dt=0.02, n_replicas=2)
        xs = rng.standard_normal((2, 8)) * 0.5
        y0 = rng.standard_normal(shape)
        if shape == (8,):
            per_path = np.tile(y0, (4, 1))
        elif shape == (2, 8):
            per_path = np.repeat(y0, 2, axis=0)
        else:
            per_path = y0.reshape(4, 8)
        got = estimate_bbar_batch(heat, xs, params, seed=22, y0=y0)
        want = estimate_bbar_batch(heat, xs, params, seed=22, y0=per_path)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_rejects_points_of_another_mode_count(self, heat):
        params = AveragingParams(t_burn=0.1, t_avg=0.2, dt=0.02, n_replicas=2)
        with pytest.raises(ConfigError, match="point dimension does not match config"):
            estimate_bbar_batch(heat, np.zeros((2, 7)), params, seed=22)

    @pytest.mark.parametrize("shape", [(3, 8), (1, 8), (4, 7), (2, 8, 1)])
    def test_rejects_other_initial_state_shapes(self, heat, shape):
        # P = 2 points, R = 2 replicas, N = 8 modes
        params = AveragingParams(t_burn=0.1, t_avg=0.2, dt=0.02, n_replicas=2)
        with pytest.raises(ConfigError, match=r"y0 has shape .*\(P, R, N\)"):
            estimate_bbar_batch(heat, np.zeros((2, 8)), params, seed=22,
                                y0=np.zeros(shape))

    def test_final_states_are_the_frozen_paths_last_states(self, heat, rng):
        # one point, three replicas: the same draws as three frozen paths
        params = AveragingParams(t_burn=0.2, t_avg=0.4, dt=0.02, n_replicas=3)
        x = rng.standard_normal(8) * 0.5
        y0 = rng.standard_normal((3, 8))
        final = np.empty((3, 8))
        estimate_bbar_batch(heat, x[None, :], params, seed=23, y0=y0,
                            y_final=final)
        paths = simulate_frozen(heat, x, y0, (10 + 20 - 1) * 0.02, 0.02,
                                derive_substream(23, 0, "bbar", 8))
        assert np.array_equal(final, paths.states[-1])

    @pytest.mark.parametrize("bad_call,bad", [
        pytest.param(3, np.nan, id="time-average-3-nan"),
        pytest.param(5, np.inf, id="time-average-5-inf"),
        pytest.param(1, -np.inf, id="time-average-1--inf"),
    ])
    def test_rejects_non_finite_slow_drift(self, heat, bad_call, bad):
        calls = []

        def drift_b(x_grid, y_grid):
            calls.append(None)
            out = heat.drift_b(x_grid, y_grid)
            if len(calls) == bad_call:  # one value on one step only
                out[0, 2] = bad
            return out

        params = AveragingParams(t_burn=0.1, t_avg=0.2, dt=0.02, n_replicas=2)
        with pytest.raises(IntegrationError, match="slow drift.*at xi="):
            estimate_bbar(replace(heat, drift_b=drift_b), np.zeros(8), params,
                          seed=21)

    def test_default_burn_in_formula(self, heat):
        p = AveragingParams.for_model(heat, bias_tol=1e-3)
        gap_beta = heat.spectral_gap * heat.beta
        assert p.t_burn == pytest.approx(2.0 / gap_beta * np.log(1e3))


def oracle_call_estimate(oracle, k, xs, y0=None):
    """What the oracle's k-th call must return at the distinct rows xs:
    cold (y = 0, declared burn-in) without ``y0``, warm (no burn-in) from
    the replica states ``y0`` (P, R, N).  Returns (values, stderr, final
    replica states (P, R, N))."""
    n, reps = oracle.config.n_modes, oracle.params.n_replicas
    params = oracle.params if y0 is None else replace(oracle.params, t_burn=0.0)
    final = np.empty((xs.shape[0] * reps, n))
    values, stderr = estimate_bbar_batch(
        oracle.config, xs, params, oracle.seed, y0=y0,
        stream=derive_substream(oracle.seed, k, "bbar", n), y_final=final)
    return values, stderr, final.reshape(xs.shape[0], reps, n)


class TestOracle:
    def test_oracle_vs_fresh_estimate(self, heat, params):
        oracle = BbarOracle(heat, params, seed=11)
        x = np.full(8, 0.1)
        v = oracle(x)
        values, stderr, _ = oracle_call_estimate(oracle, 0, x[None, :])
        assert np.array_equal(v, values[0])
        fresh = estimate_bbar(heat, x, params, seed=12)
        tol = 3.0 * np.hypot(stderr[0], fresh.stderr)
        assert np.linalg.norm(v - fresh.value) <= tol

    def test_holder_consistency_of_oracle(self, heat, params, rng):
        # |oracle(x) - oracle(x')| <= C |x-x'|^(1/4) + 6*stderr on random
        # pairs; C = 2.5 calibrated once on this seed and frozen.  Every
        # call has one row, so every call after the first is warm.
        oracle = BbarOracle(heat, params, seed=14)
        m = heat.rough_index
        states = None
        for i in range(10):
            x = rng.standard_normal(8) * 0.5
            dx = rng.standard_normal(8)
            dx *= rng.uniform(0.3, 1.5) / np.linalg.norm(dx)
            v1, v2 = oracle(x), oracle(x + dx)
            (e1,), (s1,), states = oracle_call_estimate(oracle, 2 * i, x[None, :],
                                                        states)
            (e2,), (s2,), states = oracle_call_estimate(
                oracle, 2 * i + 1, (x + dx)[None, :], states)
            assert np.array_equal(v1, e1) and np.array_equal(v2, e2)
            lhs = np.linalg.norm(v1 - v2)
            assert lhs <= 2.5 * np.linalg.norm(dx) ** m + 6.0 * max(s1, s2)

    def test_repeated_rows_estimated_once_in_first_occurrence_order(
            self, heat, params, rng, monkeypatch):
        from slowfast_spde import averaging

        a, b, c = rng.standard_normal((3, 8)) * 0.2
        xb = np.stack([b, a, b, c, a, b])
        batches = []

        def recording(config, xs, *args, **kwargs):
            batches.append(np.array(xs))
            return estimate_bbar_batch(config, xs, *args, **kwargs)

        monkeypatch.setattr(averaging, "estimate_bbar_batch", recording)
        oracle = BbarOracle(heat, params, seed=16)
        oracle(np.zeros(8))
        out = oracle(xb)
        assert len(batches) == 2
        assert np.array_equal(batches[1], np.stack([b, a, c]))
        # the row count changed (1, then 6), so both calls are cold
        values, _, _ = oracle_call_estimate(oracle, 1, np.stack([b, a, c]))
        assert np.array_equal(out, values[[0, 1, 0, 2, 1, 0]])
        assert oracle.stats == {"calls": 7, "cache_hits": 3, "cached_cells": 4,
                                "batched_estimates": 2, "warm_calls": 0,
                                "path_steps": 4 * 4 * (400 + 1200 - 1)}

    def test_warm_calls_start_from_the_kept_states(self, heat, rng):
        params = AveragingParams(t_burn=0.2, t_avg=0.4, dt=0.02, n_replicas=2)
        oracle = BbarOracle(heat, params, seed=17)
        # call 0 (cold): six identical rows, estimated once; every row
        # keeps the estimated row's replica states
        out = oracle(np.zeros((6, 8)))
        values, _, kept = oracle_call_estimate(oracle, 0, np.zeros((1, 8)))
        assert np.array_equal(out, np.repeat(values, 6, axis=0))
        # call 1 (warm, six rows again): the distinct rows b, a, c start
        # from the states of their first occurrences, rows 0, 1 and 3
        a, b, c = rng.standard_normal((3, 8)) * 0.2
        out = oracle(np.stack([b, a, b, c, a, b]))
        values, _, final = oracle_call_estimate(oracle, 1, np.stack([b, a, c]),
                                                np.repeat(kept, 3, axis=0))
        assert np.array_equal(out, values[[0, 1, 0, 2, 1, 0]])
        # call 2 (warm): six new rows, row i from the states row i kept
        xs = rng.standard_normal((6, 8)) * 0.2
        out = oracle(xs)
        values, _, _ = oracle_call_estimate(oracle, 2, xs,
                                            final[[0, 1, 0, 2, 1, 0]])
        assert np.array_equal(out, values)
        # call 3 (cold): a different row count burns in from y = 0 again
        out = oracle(xs[:2])
        values, _, _ = oracle_call_estimate(oracle, 3, xs[:2])
        assert np.array_equal(out, values)
        # 10 burn-in and 20 sampled states, one step fewer than states
        assert oracle.stats == {"calls": 20, "cache_hits": 8, "cached_cells": 12,
                                "batched_estimates": 4, "warm_calls": 2,
                                "path_steps": 2 * (1 * 29 + 3 * 19 + 6 * 19
                                                   + 2 * 29)}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_warm_estimate_agrees_with_cold(self, heat, seed):
        # criterion 10's frozen horizons with 16 replicas; x_{k+1} lies one
        # typical macro-step move (|dx| = 0.17) from x_k, the warm call
        # starts from x_k's replica states and runs no burn-in
        params = AveragingParams(t_burn=8.0, t_avg=24.0, dt=0.1, n_replicas=16)
        rng = np.random.default_rng(seed)
        xk = rng.standard_normal((4, 8)) * 0.25
        dx = rng.standard_normal((4, 8))
        x1 = xk + 0.17 * dx / np.linalg.norm(dx, axis=1, keepdims=True)
        oracle = BbarOracle(heat, params, seed=seed)
        oracle(xk)
        warm = oracle(x1)
        _, _, kept = oracle_call_estimate(oracle, 0, xk)
        values, stderr, _ = oracle_call_estimate(oracle, 1, x1, kept)
        assert np.array_equal(warm, values)
        cold, cold_stderr = estimate_bbar_batch(heat, x1, params, seed=seed + 100)
        diff = np.linalg.norm(warm - cold, axis=1)
        assert np.all(diff <= 2.0 * np.hypot(stderr, cold_stderr))

    @pytest.mark.parametrize("seed", [1.7, 1.0, "1", -1, 2**64])
    def test_seed_must_be_a_64_bit_integer(self, heat, params, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            BbarOracle(heat, params, seed=seed)

    def test_numpy_integer_seed_is_the_python_seed(self, heat, params):
        assert BbarOracle(heat, params, seed=np.int64(3)).seed == 3

    def test_batched_call_shape(self, heat, params, rng):
        oracle = BbarOracle(heat, params, seed=15)
        xb = rng.standard_normal((5, 8)) * 0.2
        out = oracle(xb)
        assert out.shape == (5, 8)


class TestMixing:
    def test_ou_rate_is_lambda1(self, heat):
        # F == 0, phi = mode-1 coordinate: E phi decays exactly at rate l1
        cfg = replace(heat, drift_f=zero_drift)
        diag = mixing_diagnostic(cfg, np.zeros(8), horizon=10.0,
                                 n_replicas=512, seed=16)
        rate, ci = diag.per_functional["mode_1"]
        assert abs(rate - 1.0) <= max(3.0 * ci, 0.05)

    def test_heat_rate_exceeds_bound(self, heat):
        diag = mixing_diagnostic(heat, np.zeros(8), horizon=24.0,
                                 n_replicas=256, seed=17)
        target = heat.spectral_gap * heat.beta / 2.0  # 1/8
        assert not diag.insufficient_data
        assert diag.rate >= target - diag.rate_ci

    def test_identical_replicas_give_zero_stderr(self, heat, rng):
        # without fast noise the replicas never part: their spread, and so
        # every stderr, is exactly 0, not the rounding of E[phi^2] - E[phi]^2
        cfg = replace(heat, q2=NoiseSpectrum(np.zeros(8)))
        diag = mixing_diagnostic(cfg, rng.standard_normal(8) * 0.5, horizon=1.0,
                                 n_replicas=64, seed=12)
        assert np.all(diag.stderrs == 0.0)
        assert np.all(diag.signals[0] > 0.0)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_fewer_than_two_replicas_is_config_error(self, heat, reps):
        # the same refusal as AveragingParams: one replica has no spread
        with pytest.raises(ConfigError, match="at least 2 replicas"):
            mixing_diagnostic(heat, np.zeros(8), horizon=0.2, n_replicas=reps, seed=1)

    def test_horizon_is_whole_steps(self, heat):
        with pytest.raises(ConfigError, match="horizon = 0.05"):
            mixing_diagnostic(heat, np.zeros(8), horizon=0.05, n_replicas=4,
                              seed=1)

    def test_short_horizon_flagged(self, heat):
        diag = mixing_diagnostic(heat, np.zeros(8), horizon=0.06,
                                 n_replicas=16, seed=18)
        assert diag.insufficient_data


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            AveragingParams(t_burn=1.0, t_avg=0.0)
        with pytest.raises(ConfigError):
            AveragingParams(t_burn=1.0, t_avg=1.0, n_replicas=1)

    @pytest.mark.parametrize("t_avg", [0.05, 0.03, 1e-12])
    def test_averaging_window_is_whole_steps(self, t_avg):
        # 0.05 at dt = 0.02 used to average round(2.5) = 2 steps
        with pytest.raises(ConfigError, match="t_avg"):
            AveragingParams(t_burn=1.0, t_avg=t_avg, dt=0.02)

    def test_burn_in_is_rounded_to_the_nearest_step(self):
        assert AveragingParams(t_burn=0.05, t_avg=0.04, dt=0.02).t_burn == 0.05

    def test_batch_shapes(self, heat, params, rng):
        xs = rng.standard_normal((3, 8)) * 0.2
        values, errs = estimate_bbar_batch(heat, xs, params, seed=19)
        assert values.shape == (3, 8)
        assert errs.shape == (3,)
        assert np.all(errs >= 0)
