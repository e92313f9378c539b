"""Verification-harness behavior on oracles, nulls, and small runs."""

from dataclasses import replace

import numpy as np
import pytest

from slowfast_spde.config import parse_drift_expression
from slowfast_spde.errors import ConfigError, IntegrationError
from slowfast_spde.experiments import (RateTarget, _ci_verdict_geq,
                                       aux_fast_error, averaged_drift_holder,
                                       contraction_test, correlation_decay,
                                       ergodic_consistency, increment_scaling,
                                       moment_sweep, rate_fit, strong_error)
from slowfast_spde.averaging import (AveragingParams, estimate_bbar_batch,
                                     mixing_diagnostic)
from slowfast_spde.model import heat_example
from slowfast_spde.noise import NoiseSpectrum, derive_substream
from slowfast_spde.simulate import StepScheme
from slowfast_spde.spectral import (coeffs_to_grid_values, grid_points,
                                    grid_values_to_coeffs)


@pytest.fixture(scope="module")
def heat():
    return heat_example(0.1, 0.1, 32)


def zero_drift(xg, yg):
    return np.zeros_like(xg)


class TestRateFit:
    def test_exact_power(self):
        x = np.array([0.1, 0.2, 0.4, 0.8])
        fit = rate_fit(x, x**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.ci <= 1e-12

    def test_constant_data(self):
        x = np.array([0.1, 0.2, 0.4, 0.8])
        fit = rate_fit(x, np.full(4, 3.0))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_sqrt_recovers_half(self):
        rng = np.random.default_rng(0)
        x = np.array([0.05, 0.1, 0.2, 0.4, 0.8, 1.6])
        y = x**0.5 * (1.0 + 0.05 * rng.standard_normal(6))
        fit = rate_fit(x, y, 0.05 * y)
        assert 0.4 <= fit.slope <= 0.6

    def test_nonpositive_point_dropped_with_warning(self):
        x = np.array([0.1, 0.2, 0.4, 0.8])
        y = np.array([0.01, 0.04, -1.0, 0.64])
        with pytest.warns(UserWarning, match="dropped"):
            fit = rate_fit(x, y)
        assert fit.n_dropped == 1 and fit.n_used == 3

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            rate_fit([0.1, 0.2], [1.0, 2.0])


@pytest.mark.parametrize("slope,ci,target,verdict", [
    (1.0, 0.1, 0.5, "pass"),
    (0.2, 0.1, 0.5, "fail"),
    (0.45, 0.1, 0.5, "inconclusive"),
    (0.55, 0.1, 0.5, "pass"),
])
def test_ci_verdict_geq(slope, ci, target, verdict):
    assert _ci_verdict_geq(slope, ci, target) == verdict


class TestRateTarget:
    def test_heat_exponent(self):
        rt = RateTarget(theta=0.55, alpha=0.5, beta=0.5, gamma=0.5)
        assert rt.rough_index == 0.25
        assert rt.exponent == pytest.approx(0.1375 / 1.1375)

    def test_delta_rule_between_eps_and_one(self):
        rt = RateTarget(theta=0.55, alpha=0.5, beta=0.5, gamma=0.5)
        for eps in (1e-1, 1e-2, 1e-3):
            d = rt.delta_rule(eps)
            assert eps < d < 1.0

    def test_theta_validated(self):
        with pytest.raises(ConfigError):
            RateTarget(theta=1.2, alpha=0.5, beta=0.5, gamma=0.5)


class TestIncrementScaling:
    def test_deterministic_linear_system(self, heat):
        # B == 0, q == 0, x0 = e_1: X_t = e^{tA} e_1; the integral of
        # squared increments is smooth in delta, slope ~ 2 >= 1 > theta
        det = replace(heat, drift_b=zero_drift, drift_f=zero_drift,
                      q1=NoiseSpectrum(np.zeros(32)),
                      q2=NoiseSpectrum(np.zeros(32)))
        e1 = np.eye(32)[0]
        deltas = [2.0**-k for k in range(4, 9)]
        rep = increment_scaling(det, 0.1, deltas, 1.0, StepScheme(2.0**-10),
                                n_mc=4, seed=1, theta=0.55, x0=e1)
        assert rep.slope >= 1.0
        # oracle: same discrete integral from the analytic path
        times = np.arange(2**10 + 1) * 2.0**-10
        lam = det.eigs.eigenvalues[:, None]
        path = np.exp(-lam * times).T  # (S+1, 32) coefficients of e^{tA}e1
        path = path * e1  # only mode 1 active
        idx = np.arange(2**10 + 1)
        for d, est in zip(deltas, rep.estimates):
            block = int(round(d / 2.0**-10))
            frozen = path[(idx // block) * block]
            oracle = 2.0**-10 * np.sum(np.sum((path - frozen) ** 2, axis=-1))
            assert est == pytest.approx(oracle, rel=1e-10)

    def test_monotone_in_delta_and_passes(self, heat):
        deltas = [2.0**-k for k in range(4, 9)]
        rep = increment_scaling(heat, 1e-2, deltas, 1.0, StepScheme(2.0**-10),
                                n_mc=32, seed=2, theta=0.55)
        assert rep.verdict == "pass"
        assert rep.slope - rep.slope_ci >= 0.8 * 0.55
        # finest delta gives the smallest integral; monotone across grid
        assert all(a > b for a, b in zip(rep.estimates, rep.estimates[1:]))

    def test_misaligned_delta_rejected(self, heat):
        # off the step grid, zero, negative, or rounding to zero steps
        for delta in (0.015, 0.0, -0.004, 1e-13):
            with pytest.raises(ConfigError):
                increment_scaling(heat, 1e-2, [delta], 0.1, StepScheme(1e-2),
                                  n_mc=2, seed=3)


class TestContraction:
    def test_heat_pathwise_bound(self, heat):
        rep = contraction_test(heat, (1.0, 2.0, 4.0), 0.01, n_mc=50, seed=4)
        assert rep.verdict == "pass"
        assert rep.extra["violations"] == 0
        # the mean-square decay beats the guaranteed rate
        assert rep.slope >= heat.spectral_gap

    def test_linear_case_exact_rate(self, heat):
        # F == 0: mode k of dY decays exactly at rate 2*lambda_k, so the
        # squared distance contracts at least at 2*lambda_1 (equality once
        # the higher modes are dead), far faster than the guaranteed gap
        cfg = replace(heat, drift_f=zero_drift)
        rep = contraction_test(cfg, (0.5, 1.0, 2.0), 0.01, n_mc=20, seed=5)
        assert rep.extra["violations"] == 0
        assert 2.0 * cfg.eigs.lambda_1 - 1e-6 <= rep.slope <= 2.2
        # every mode decays at least at 2*lambda_1 on the squared norm
        for t, worst in zip(rep.grid, rep.extra["worst_ratio"]):
            assert worst <= np.exp(-2.0 * cfg.eigs.lambda_1 * t) * (1 + 1e-12)

    @pytest.mark.parametrize("t_checks", [(0.1,), (0.1, 0.1), (), (0.0, 0.1)])
    def test_fewer_than_two_check_times_rejected(self, heat, t_checks):
        # one time fits no rate: the slope was NaN with verdict "pass"
        with pytest.raises(ConfigError, match="two distinct positive check times"):
            contraction_test(heat, t_checks, 0.02, 4, seed=9)

    def test_check_time_off_the_step_rejected(self, heat):
        # 0.105 was rounded to the step of 0.1, whose ratio then went missing
        with pytest.raises(ConfigError, match="check time"):
            contraction_test(heat, (0.1, 0.105), 0.02, 4, seed=9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_expansive_drift_fails(self, heat8, seed):
        # negative control: F = 2 sin(y) is 2-Lipschitz in y, above
        # lambda_1 = 1, while the declared l_f stays 0.5, so the distance
        # outlives the declared gap's bound e^{-0.5 t}
        cfg = replace(heat8, drift_f=parse_drift_expression("2*sin(y)"))
        rep = contraction_test(cfg, (1.0, 2.0, 4.0), 0.01, n_mc=16, seed=seed)
        assert rep.verdict == "fail"
        assert rep.extra["violations"] > 0

    def test_x_offset_plateau_constant_stable(self, heat):
        rep = contraction_test(heat, (1.0, 2.0, 4.0), 0.02, n_mc=32, seed=6,
                               x_offset_scales=(0.25, 0.5, 1.0))
        assert rep.extra["plateau_constant_spread"] < 4.0
        assert rep.verdict == "pass"


class TestAuxFastError:
    def test_slope_meets_target(self, heat):
        deltas = [2.0**-k for k in range(4, 9)]
        rep = aux_fast_error(heat, 1e-2, deltas, 1.0, StepScheme(2.0**-10),
                             n_mc=16, seed=7, theta=0.55)
        assert rep.verdict == "pass"
        assert rep.slope - rep.slope_ci >= 0.8 * 0.55 * heat.gamma

    def test_error_grows_with_delta(self, heat):
        deltas = [2.0**-k for k in range(5, 8)]
        rep = aux_fast_error(heat, 1e-2, deltas, 0.5, StepScheme(2.0**-10),
                             n_mc=8, seed=8, theta=0.55)
        assert rep.estimates[0] > rep.estimates[-1] > 0

    def test_null_model_identically_zero(self, heat):
        cfg = replace(heat, drift_f=lambda xg, yg: 0.5 * np.cos(np.abs(yg)))
        rep = aux_fast_error(cfg, 1e-2, [2.0**-k for k in range(4, 7)], 0.25,
                             StepScheme(2.0**-10), n_mc=4, seed=9)
        assert max(rep.estimates) == 0.0
        assert rep.verdict == "pass"


class TestCorrelationDecay:
    def test_rate_meets_bound(self, heat):
        rep = correlation_decay(heat, np.zeros(32), lag_max=16.0, n_mc=64,
                                seed=10)
        assert rep.verdict == "pass"
        assert rep.estimates[0] > 0  # lag-0 stationary variance
        assert rep.slope >= rep.target - rep.slope_ci

    def test_y_independent_drift_zero_covariance(self, heat):
        cfg = replace(heat, drift_b=lambda xg, yg: np.sin(np.sqrt(np.abs(xg))))
        rep = correlation_decay(cfg, np.zeros(32), lag_max=8.0, n_mc=16,
                                seed=11, window=16.0)
        assert max(abs(e) for e in rep.estimates) < 1e-12
        assert rep.verdict == "inconclusive"  # no decaying signal to fit


    @pytest.mark.parametrize("kw,name", [({"t_burn": 0.05}, "t_burn"),
                                         ({"window": 1.05}, "window")])
    def test_horizons_are_whole_steps(self, heat8, kw, name):
        # t_burn counts steps of 0.02, window sample intervals of 0.1
        with pytest.raises(ConfigError, match=name):
            correlation_decay(heat8, np.zeros(8), lag_max=0.5, n_mc=4, seed=1,
                              **{"t_burn": 0.1, "window": 1.0, **kw})


class TestMomentSweep:
    def test_uniform_fast_moments(self, heat):
        rep = moment_sweep(heat, (1e-1, 1e-2, 1e-3), 0.5, StepScheme(2e-3),
                           n_mc=64, seed=12)
        assert rep.verdict == "pass"
        assert rep.extra["spread_y"] < 0.2

    def test_initial_state_scaling(self, heat, rng):
        # sup_t E|Y|^2 <= C (1 + |y0|^2): doubling |y0| at most quadruples
        # the normalized constant
        y0 = rng.standard_normal(32)
        y0 *= 1.5 / np.linalg.norm(y0)
        consts = []
        for scale in (1.0, 2.0):
            rep = moment_sweep(heat, (1e-2,), 0.5, StepScheme(2e-3), n_mc=32,
                               seed=14, y0=scale * y0)
            norm2 = 1.0 + np.sum((scale * y0) ** 2)
            consts.append(max(rep.estimates) / norm2)
        assert consts[1] <= 4.0 * consts[0]

    def test_quiet_system_decays(self, heat, rng):
        from slowfast_spde.noise import derive_substream
        from slowfast_spde.simulate import simulate_slow_fast

        quiet = replace(heat, drift_b=zero_drift, drift_f=zero_drift,
                        q1=NoiseSpectrum(np.zeros(32)),
                        q2=NoiseSpectrum(np.zeros(32)))
        x0 = rng.standard_normal(32)
        w1 = derive_substream(13, 0, "W1", 32)
        w2 = derive_substream(13, 0, "W2", 32)
        xs, ys = simulate_slow_fast(quiet, 1e-1, x0, x0, 0.25,
                                    StepScheme(2e-3), w1, w2)
        for traj in (xs, ys):
            m2 = np.sum(traj.states**2, axis=-1)
            assert np.all(np.diff(m2) < 0.0)
            assert m2[0] == pytest.approx(np.sum(x0**2))


class TestStrongError:
    def test_decoupled_null_zero_error(self, heat):
        def b_null(xg, yg):
            return np.sin(np.sqrt(np.abs(xg)))

        cfg = replace(heat, drift_b=b_null)

        def bbar_exact(x):
            xg = coeffs_to_grid_values(x, cfg.m_points)
            return grid_values_to_coeffs(b_null(xg, xg), 32)

        rep = strong_error(cfg, [1e-1, 1e-2], 0.25, StepScheme(2e-3),
                           n_mc=8, seed=14, oracle=bbar_exact)
        assert max(rep.estimates) == 0.0
        assert rep.verdict == "pass"

    def test_small_run_monotone_and_positive_slope(self, heat):
        params = AveragingParams(t_burn=8.0, t_avg=16.0, dt=0.1, n_replicas=2)
        rep = strong_error(heat, [1e-1, 3e-2, 1e-2], 0.5, StepScheme(4e-3),
                           n_mc=32, seed=15, oracle_params=params)
        assert rep.verdict == "pass"
        assert rep.slope - rep.slope_ci > 0
        for d in rep.extra["paired_differences"]:
            assert d["mean_diff"] > -1.96 * d["stderr"]

    def test_two_eps_values_are_inconclusive(self, heat8):
        # two scales fit no slope CI: the curve is reported, with no verdict
        params = AveragingParams(t_burn=1.0, t_avg=2.0, dt=0.1, n_replicas=2)
        rep = strong_error(heat8, [1e-1, 1e-2], 0.02, StepScheme(2e-3),
                           n_mc=4, seed=3, oracle_params=params)
        assert max(rep.estimates) > 0.0
        assert rep.verdict == "inconclusive"
        assert np.isnan(rep.slope)


class ColdOracle:
    """Reference oracle without warm start: the k-th call estimates every
    row from y = 0 with the declared burn-in, on substream (seed, k)."""

    def __init__(self, config, params, seed):
        self.config, self.params, self.seed, self.k = config, params, seed, 0

    def __call__(self, x):
        n = self.config.n_modes
        values, _ = estimate_bbar_batch(
            self.config, x, self.params, self.seed,
            stream=derive_substream(self.seed, self.k, "bbar", n))
        self.k += 1
        return values


class TestStrongErrorWarmOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_warm_and_cold_oracles_agree(self, seed):
        # criterion 10's frozen horizons at a reduced scale: 50 macro
        # steps, so 49 warm calls after the cold first one
        heat8 = heat_example(0.1, 0.1, 8)
        params = AveragingParams(t_burn=8.0, t_avg=24.0, dt=0.1, n_replicas=2)
        eps, scheme = [1e-1, 3e-2, 1e-2], StepScheme(2e-3)
        warm = strong_error(heat8, eps, 0.1, scheme, n_mc=16, seed=seed,
                            oracle_params=params)
        cold = strong_error(heat8, eps, 0.1, scheme, n_mc=16, seed=seed,
                            oracle=ColdOracle(heat8, params, seed))
        for ew, sw, ec, sc in zip(warm.estimates, warm.stderrs, cold.estimates,
                                  cold.stderrs, strict=True):
            assert abs(ew - ec) <= 2.0 * np.hypot(sw, sc)
        # one cold call at the 16 identical x0 rows (80 burn-in and 240
        # sampled states), then 16 distinct rows of 240 sampled states
        stats = warm.extra["oracle_stats"]
        assert stats["batched_estimates"] == 50 and stats["warm_calls"] == 49
        assert stats["path_steps"] == 2 * (319 + 49 * 16 * 239)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("t_final", [0.04, 0.2])
    def test_wrong_effective_drift_does_not_pass(self, t_final, seed):
        # negative control: B(x, 0) projected, with no averaging over the
        # fast law, is not the effective drift, so the strong error of the
        # coupled paths must not be certified as converging
        heat8 = heat_example(0.1, 0.1, 8)

        def b_at_rest(x):
            xg = coeffs_to_grid_values(x, heat8.m_points)
            return grid_values_to_coeffs(heat8.drift_b(xg, np.zeros_like(xg)), 8)

        rep = strong_error(heat8, [1e-1, 3e-2, 1e-2, 3e-3], t_final,
                           StepScheme(2e-3), n_mc=32, seed=seed, oracle=b_at_rest)
        assert rep.verdict != "pass"


class TestErgodicAndHolder:
    def test_ergodic_consistency_small(self, heat):
        params = AveragingParams(t_burn=12.0, t_avg=32.0, dt=0.02, n_replicas=4)
        rep = ergodic_consistency(heat, params, seed=16, mixing_horizon=16.0,
                                  mixing_replicas=128)
        assert rep.verdict == "pass"
        assert rep.extra["difference"] <= 3.0 * rep.extra["combined_stderr"]

    def test_holder_quotient_small(self, heat):
        params = AveragingParams(t_burn=12.0, t_avg=32.0, dt=0.05, n_replicas=2)
        rep = averaged_drift_holder(heat, n_pairs=40, params=params, seed=17)
        assert np.isfinite(rep.estimates[1])
        assert rep.estimates[1] < 3.0  # bounded quotient


@pytest.mark.parametrize("run,drift", [
    (lambda cfg: contraction_test(cfg, (0.1, 0.2), 0.02, n_mc=4, seed=1,
                                  x_offset_scales=(0.5,)), "drift_f"),
    (lambda cfg: correlation_decay(cfg, np.zeros(8), lag_max=0.5, n_mc=4,
                                   seed=1, t_burn=0.1, window=1.0), "drift_f"),
    (lambda cfg: correlation_decay(cfg, np.zeros(8), lag_max=0.5, n_mc=4,
                                   seed=1, t_burn=0.1, window=1.0), "drift_b"),
    (lambda cfg: mixing_diagnostic(cfg, np.zeros(8), horizon=0.5,
                                   n_replicas=4, seed=1), "drift_f"),
    (lambda cfg: mixing_diagnostic(cfg, np.zeros(8), horizon=0.5,
                                   n_replicas=4, seed=1), "drift_b"),
], ids=["contraction-F", "correlation-F", "correlation-B", "mixing-F",
        "mixing-B"])
def test_non_finite_drift_raises_located_error(heat8, run, drift):
    """A drift with NaN at one grid point stops the experiment with the
    point named; no verdict or rate is computed from NaN paths."""
    good = getattr(heat8, drift)

    def bad(x_grid, y_grid):
        out = np.array(good(x_grid, y_grid))
        out[..., 3] = np.nan
        return out

    xi = grid_points(heat8.m_points)[3]
    with pytest.raises(IntegrationError, match=f"xi={xi:.6f}"):
        run(replace(heat8, **{drift: bad}))


_PARAMS = AveragingParams(t_burn=0.1, t_avg=0.1, dt=0.05, n_replicas=2)
_SCHEME = StepScheme(0.01)


@pytest.mark.parametrize("n,run", [
    ("n_mc", lambda cfg, n: strong_error(cfg, (0.1, 0.05, 0.01), 0.02, _SCHEME,
                                         n, seed=1)),
    ("n_mc", lambda cfg, n: increment_scaling(cfg, 0.1, (0.02, 0.04), 0.08,
                                              _SCHEME, n, seed=1)),
    ("n_mc", lambda cfg, n: contraction_test(cfg, (0.1, 0.2), 0.02, n, seed=1)),
    ("n_mc", lambda cfg, n: aux_fast_error(cfg, 0.1, (0.02, 0.04), 0.08,
                                           _SCHEME, n, seed=1)),
    ("n_mc", lambda cfg, n: correlation_decay(cfg, np.zeros(8), lag_max=0.5,
                                              n_mc=n, seed=1, t_burn=0.1,
                                              window=1.0)),
    ("n_mc", lambda cfg, n: moment_sweep(cfg, (0.1, 0.01), 0.02, _SCHEME, n,
                                         seed=1)),
    ("n_pairs", lambda cfg, n: averaged_drift_holder(cfg, n, _PARAMS, seed=1)),
], ids=["strong", "increments", "contraction", "aux-fast", "correlation",
        "moments", "holder"])
@pytest.mark.parametrize("count", [1, 0])
def test_fewer_than_two_paths_refused_before_stepping(heat8, monkeypatch, n,
                                                       run, count):
    """One path gives NaN standard errors, and with them a "pass" that
    nothing supports; the count is refused before any path is stepped."""
    def no_stepping(*args, **kwargs):
        raise AssertionError("a path was stepped")

    for name in ("simulate_slow_fast", "simulate_averaged",
                 "simulate_auxiliary_fast", "_frozen_fast",
                 "estimate_bbar_batch"):
        monkeypatch.setattr(f"slowfast_spde.experiments.{name}", no_stepping)
    with pytest.raises(ConfigError, match=f"{n} must be at least 2"):
        run(heat8, count)
