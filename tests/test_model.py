"""Heat model construction, assumption checker, empirical regularity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast_spde.errors import ConfigError, IntegrationError
from slowfast_spde.model import (_TAN_MIN_VALUES, ModelConfig,
                                 _holder_and_sup, _lambda_norm_integral,
                                 _sup_scaled_ou_factor, check_assumptions,
                                 empirical_holder,
                                 heat_drift_b, heat_drift_f, heat_example,
                                 sqrt_abs)
from slowfast_spde.noise import NoiseSpectrum, power_law_spectrum
from slowfast_spde.simulate import _drift_coeffs, _frozen_fast
from slowfast_spde.spectral import OperatorSpectrum, grid_points
from slowfast_spde.zvonkin import _log_quadrature_nodes


def make_broken_constant_spectrum(n=16):
    return ModelConfig(
        eigs=OperatorSpectrum(np.ones(n), growth_exponent=0.0),
        q1=power_law_spectrum(n, 0.1), q2=power_law_spectrum(n, 0.1),
        drift_b=heat_drift_b, drift_f=heat_drift_f,
        alpha=0.5, beta=0.5, gamma=0.5, l_f=0.5,
        bound_b=1.0, bound_f=0.5, n_modes=n, m_points=2 * n)


class TestHeatExample:
    def test_zero_inputs(self, heat8):
        zeros = np.zeros(16)
        assert np.all(heat8.drift_b(zeros, zeros) == 0.0)  # sin(0)
        assert np.all(heat8.drift_f(zeros, zeros) == 0.5)  # cos(0)/2

    def test_declared_constants(self, heat8):
        assert heat8.alpha == heat8.beta == heat8.gamma == 0.5
        assert heat8.l_f == 0.5
        assert heat8.bound_b == 1.0 and heat8.bound_f == 0.5
        assert heat8.eigs.eigenvalues[2] == 9.0  # k^2
        assert heat8.q1.q[1] == pytest.approx(2.0 ** (-0.2))

    def test_spectral_gap_positive(self, heat8):
        assert heat8.spectral_gap == pytest.approx(0.5)

    def test_no_modes_rejected(self):
        with pytest.raises(ConfigError, match="n_modes must be positive"):
            heat_example(0.1, 0.1, 0)

    @pytest.mark.parametrize("change,message", [
        ({"l_f": -0.1}, "l_f must be nonnegative"),
        ({"bound_b": math.inf}, "drift bounds must be finite"),
        ({"eigs": OperatorSpectrum(np.arange(1.0, 8.0) ** 2)},
         "operator spectrum shorter than n_modes"),
    ], ids=["negative-l_f", "infinite-bound", "short-spectrum"])
    def test_invalid_model_config_rejected(self, heat8, change, message):
        with pytest.raises(ConfigError, match=message):
            replace(heat8, **change)

    def test_r_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match=r"\(0, 1/7\)"):
            heat_example(0.2, 0.1, 8)
        with pytest.raises(ConfigError, match="r2"):
            heat_example(0.1, 1.0 / 7.0, 8)

    def test_scalar_drift_bounds(self, rng):
        # pointwise oracle for the one-dimensional Hoelder bounds:
        # |B(a,b)-B(a',b')| <= |sqrt|a|-sqrt|a'|| + |sqrt|b|-sqrt|b'||
        #                   <= sqrt|a-a'| + sqrt|b-b'|
        a, b = rng.uniform(-3, 3, (2, 20000))
        a2, b2 = rng.uniform(-3, 3, (2, 20000))
        db = np.abs(heat_drift_b(a, b) - heat_drift_b(a2, b2))
        bound = np.sqrt(np.abs(a - a2)) + np.sqrt(np.abs(b - b2))
        assert np.all(db <= bound + 1e-12)
        # |F(a,b)-F(a,b')| <= 0.5 |b-b'|
        df = np.abs(heat_drift_f(a, b) - heat_drift_f(a, b2))
        assert np.all(df <= 0.5 * np.abs(b - b2) + 1e-12)


def drift_arguments(x, y):
    """The arguments a of B = sin(a) and F = cos(a)/2, rounded as the drifts
    round them."""
    x_part = sqrt_abs(x)
    return x_part + np.sqrt(np.abs(y)), x_part + np.abs(y)


@st.composite
def drift_fields(draw, sizes):
    """Grid values x, y of a drawn size, |y| up to 1e3; every other value
    of y puts B's or F's argument at or next to a pole of the tangent it
    takes: a = (2k + 1) pi for both, and a = 3 pi/2 + 2 k pi for B's u."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(sizes)
    x = rng.uniform(-1.0, 1.0, size) * draw(st.sampled_from([1.0, 10.0, 1e3]))
    y = rng.uniform(-1.0, 1.0, size) * draw(st.sampled_from([1.0, 30.0, 1e3]))
    near = rng.uniform(0.0, 1.0, size) < 0.5
    pole = draw(st.sampled_from(["b", "b-u", "f"]))
    k = rng.integers(0, 5 if pole != "f" else 159, size)
    target = (2 * k + (1.5 if pole == "b-u" else 1.0)) * np.pi - sqrt_abs(x)
    target += rng.choice([0.0, 1e-15, -1e-15, 1e-9, -1e-6], size) * target
    target = np.maximum(target, 0.0)
    y[near] = (target**2 if pole != "f" else target)[near]
    return x, y * rng.choice([-1.0, 1.0], size)


class TestHeatDriftForms:
    """Above ``_TAN_MIN_VALUES`` values the heat drifts take their
    half-angle forms; below it they are np.sin and np.cos."""

    above = st.sampled_from([(_TAN_MIN_VALUES,), (_TAN_MIN_VALUES // 64, 64),
                             (40, 64), (3, 50, 16)])
    below = st.sampled_from([(1,), (64,), (_TAN_MIN_VALUES - 1,),
                             (_TAN_MIN_VALUES // 64 - 1, 64)])

    @settings(max_examples=60, deadline=None)
    @given(drift_fields(above))
    def test_tangent_forms_match_sin_and_cos(self, fields):
        x, y = fields
        a_b, a_f = drift_arguments(x, y)
        b, f = heat_drift_b(x, y), heat_drift_f(x, y)
        assert np.max(np.abs(b - np.sin(a_b))) <= 2e-15
        assert np.max(np.abs(f - 0.5 * np.cos(a_f))) <= 2e-15
        assert np.all(np.abs(b) <= 1.0) and np.all(np.abs(f) <= 0.5)
        # the frozen-x protocol writes the same values into ``out``
        for drift, values in ((heat_drift_b, b), (heat_drift_f, f)):
            out = np.empty_like(y)
            assert drift(None, y, x_part=sqrt_abs(x), out=out) is out
            assert np.array_equal(out, values)

    @settings(max_examples=30, deadline=None)
    @given(drift_fields(below))
    def test_small_fields_are_sin_and_cos_bit_for_bit(self, fields):
        x, y = fields
        a_b, a_f = drift_arguments(x, y)
        assert np.array_equal(heat_drift_b(x, y), np.sin(a_b))
        assert np.array_equal(heat_drift_f(x, y), np.multiply(np.cos(a_f), 0.5))

    def test_the_threshold_is_the_first_tangent_size(self, rng):
        # the half-angle forms round differently from np.sin and np.cos,
        # so a field of random values shows which form it took
        for size, tangent in ((_TAN_MIN_VALUES - 1, False), (_TAN_MIN_VALUES, True)):
            x, y = rng.uniform(-3.0, 3.0, (2, size))
            a_b, a_f = drift_arguments(x, y)
            assert np.array_equal(heat_drift_b(x, y), np.sin(a_b)) is not tangent
            assert np.array_equal(heat_drift_f(x, y),
                                  np.multiply(np.cos(a_f), 0.5)) is not tangent

    @pytest.mark.parametrize("rows", [_TAN_MIN_VALUES // 64 - 1, _TAN_MIN_VALUES // 64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["b", "f"])
    def test_non_finite_y_is_located(self, heat32, rows, bad, which):
        step = _frozen_fast(heat32, 0.02)(np.zeros((rows, 64)), rows)
        y_grid = np.zeros((rows, 64))
        y_grid[rows - 1, 37] = bad
        xi = grid_points(64)[37]
        with np.errstate(invalid="ignore"), pytest.raises(
                IntegrationError, match=f"xi={xi:.6f}"):
            if which == "f":
                step(np.zeros((rows, 32)), np.zeros((rows, 32)), y_grid)
            else:
                _drift_coeffs(step.drift_b(y_grid), heat32)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.booleans())
    def test_scalar_inputs_are_the_formula_bit_for_bit(self, x, y, zero_d):
        # without ``out`` the drifts allocate their own, so plain floats and
        # 0-d arrays work as the pointwise formula says
        args = (np.array(x), np.array(y)) if zero_d else (x, y)
        a = np.sqrt(np.abs(x))
        b, f = heat_drift_b(*args), heat_drift_f(*args)
        assert np.shape(b) == np.shape(f) == ()
        assert np.asarray(b).tobytes() == np.sin(a + np.sqrt(np.abs(y))).tobytes()
        assert np.asarray(f).tobytes() == (0.5 * np.cos(a + np.abs(y))).tobytes()

    def test_without_out_the_result_takes_the_broadcast_shape(self, rng):
        x, y = rng.standard_normal(5), rng.standard_normal((3, 1))
        a_b, a_f = drift_arguments(x, y)
        assert np.array_equal(heat_drift_b(x, y), np.sin(a_b))
        assert np.array_equal(heat_drift_f(x, y), np.multiply(np.cos(a_f), 0.5))
        assert heat_drift_b(x, y).shape == (3, 5)


class TestEmpiricalHolder:
    def test_constant_drift_zero_quotient(self, heat8):
        q = empirical_holder(lambda x, y: np.ones_like(x), 0.5, 0.5, 100,
                             8, heat8.m_points, seed=1)
        assert q == 0.0

    def test_identity_in_x_is_lipschitz_one(self, heat8):
        q = empirical_holder(lambda x, y: x, 1.0, 1.0, 500,
                             8, heat8.m_points, seed=2)
        assert q <= 1.0 + 1e-6

    def test_heat_drift_quotient_bounded(self, heat32):
        # |B(x,y)-B(x',y')| <= pi^(1/4) (|dx|^(1/2) + |dy|^(1/2)) in L^2,
        # via Cauchy-Schwarz on the pointwise bound; assert the looser
        # sqrt(pi) + 0.1 margin on 1e4 random low-mode pairs
        q = empirical_holder(heat_drift_b, 0.5, 0.5, 10_000, 32,
                             heat32.m_points, seed=3)
        assert q <= np.sqrt(np.pi) + 0.1
        assert q > 0.1  # nondegenerate

    @pytest.mark.parametrize("fn", [empirical_holder, _holder_and_sup])
    @pytest.mark.parametrize("n_modes", [0, -2])
    def test_fewer_than_one_mode_is_refused_before_any_draw(self, monkeypatch,
                                                            fn, n_modes):
        def no_draw(*args):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr("slowfast_spde.model._low_mode_fields", no_draw)
        with pytest.raises(ConfigError, match="n_modes must be >= 1, got"):
            fn(heat_drift_b, 0.5, 0.5, 10, n_modes, 16, 0)

    @pytest.mark.parametrize("seed", [True, 1.7, -1, 2**64])
    def test_seed_must_be_a_64_bit_integer(self, heat8, monkeypatch, seed):
        # numpy's own generator would take True as 1 and 2^64 as it is
        def no_draw(*args):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr("slowfast_spde.model._low_mode_fields", no_draw)
        match = r"seed must be an integer in \[0, 2\^64\)"
        with pytest.raises(ValueError, match=match):
            empirical_holder(heat_drift_b, 0.5, 0.5, 10, 8, heat8.m_points, seed)
        with pytest.raises(ValueError, match=match):
            check_assumptions(heat8, theta=0.55, seed=seed)

    def test_numpy_integer_seed_draws_the_python_seeds_fields(self, heat8):
        q = empirical_holder(heat_drift_b, 0.5, 0.5, 50, 8, heat8.m_points, 5)
        assert empirical_holder(heat_drift_b, 0.5, 0.5, 50, 8, heat8.m_points,
                                np.uint64(5)) == q

    def test_largest_seed_checks_f_on_the_fields_of_seed_zero(self, heat8):
        # F's pairs are drawn from seed + 1, which wraps at 2^64
        a1 = check_assumptions(heat8, theta=0.55,
                               seed=2**64 - 1)["A1_drift_regularity"]
        qf, _ = _holder_and_sup(heat8.drift_f, heat8.gamma, 1.0, 200,
                                heat8.n_modes, heat8.m_points, 0)
        assert a1.status == "holds" and a1.witness["f_max_quotient"] == qf


def reference_lambda_norm(t, a_lam, p_lam, p_q, extra=0.0):
    """||lambda^extra Q(t)^{-1/2} e^{tA}|| as the max over the discrete
    modes lambda_k = a_lam k^p_lam, q_k = k^-p_q, per time in ``t``: the
    checker's norm before A5 took its closed form."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    for i, ti in enumerate(t):
        lam_hi = 40.0 / ti
        k_hi = int(np.ceil((lam_hi / a_lam) ** (1.0 / p_lam))) + 8
        k_hi = min(max(k_hi, 64), 400_000)
        k = np.arange(1, k_hi + 1, dtype=float)
        lam = a_lam * k**p_lam
        q = k ** (-p_q)
        with np.errstate(divide="ignore"):
            vals = lam**extra * np.sqrt(2.0 * lam / q) * np.exp(-lam * ti)
            vals /= np.sqrt(-np.expm1(-2.0 * lam * ti))
        out[i] = np.max(vals)
    return out


def reference_lambda_norm_integral(a_lam, p_lam, p_q, power, extra=0.0):
    """The checker's A5 value before its closed form: the analytic head
    on [0, 1e-3], Gauss-Legendre on 40 log panels of [1e-3, 60] and the
    integrand at 60 as the tail."""
    rho = p_q / p_lam
    c = ((1.0 + rho) / 2.0 + extra) * power
    c0 = math.sqrt(2.0 / a_lam**rho) * _sup_scaled_ou_factor(rho, extra)
    t_split, t_max = 1e-3, 60.0
    head = c0**power * t_split ** (1.0 - c) / (1.0 - c)
    nodes, weights = _log_quadrature_nodes(t_split, t_max, 40, 8)
    vals = reference_lambda_norm(nodes, a_lam, p_lam, p_q, extra) ** power
    body = float(np.sum(weights * np.exp(-nodes) * vals))
    tail = float(reference_lambda_norm(t_max, a_lam, p_lam, p_q, extra)[0] ** power
                 * math.exp(-t_max))
    return head + body + tail


class TestLambdaNormIntegral:
    """A5's closed form c0^p Gamma(1 - c) against the discrete-mode norm."""

    # (a_lam, p_lam, p_q, power, extra), each with exponent c < 1; the
    # first two are the heat model's q1 integral at kappa1 = 3/4 and its
    # gradient integral
    ADMISSIBLE = [(1.0, 2.0, 0.2, 1.75, 0.0), (1.0, 2.0, 0.2, 1.0, 0.225),
                  (1.0, 2.0, 0.26, 1.75, 0.0), (0.5, 2.0, 0.5, 1.2, 0.0),
                  (2.0, 1.0, 0.3, 1.5, 0.0), (1.0, 1.5, 0.6, 1.0, 0.1),
                  (3.0, 2.0, 0.0, 1.9, 0.0), (1.0, 2.0, 1.0, 1.0, 0.1),
                  (1.0, 4.0, 0.4, 1.6, 0.0), (0.25, 1.2, 0.0, 1.0, 0.3)]

    @pytest.mark.parametrize("case", ADMISSIBLE)
    def test_bounds_a_dense_quadrature_of_the_mode_norm(self, case):
        # the integrand is positive, so its integral over [1e-3, 60] is
        # below the one over (0, inf)
        c, bound = _lambda_norm_integral(*case)
        assert c < 1.0
        nodes, weights = _log_quadrature_nodes(1e-3, 60.0, 400, 8)
        a_lam, p_lam, p_q, power, extra = case
        vals = reference_lambda_norm(nodes, a_lam, p_lam, p_q, extra) ** power
        assert bound >= float(np.sum(weights * np.exp(-nodes) * vals))

    @pytest.mark.parametrize("case", ADMISSIBLE)
    def test_sup_factor_is_the_dense_max_from_above(self, case):
        _, p_lam, p_q, _, extra = case
        rho = p_q / p_lam
        e = (1.0 + rho) / 2.0 + extra
        s = np.geomspace(1e-8, 60.0, 4_000_000)
        dense = float(np.max(s**e * np.exp(-s) / np.sqrt(-np.expm1(-2.0 * s))))
        sup = _sup_scaled_ou_factor(rho, extra)
        assert sup >= dense
        if e > 0.5:
            assert sup - dense <= 1e-11 * dense
        else:
            assert sup == math.sqrt(0.5)

    def test_sup_factor_is_infinite_below_one_half(self):
        # e = (1 + rho)/2 < 1/2: s^e / sqrt(1 - e^{-2s}) blows up at s = 0+
        assert _sup_scaled_ou_factor(-0.2, 0.0) == math.inf

    @pytest.mark.parametrize("case", ADMISSIBLE)
    def test_within_thirty_percent_of_the_quadrature_value(self, case):
        _, bound = _lambda_norm_integral(*case)
        assert bound <= 1.3 * reference_lambda_norm_integral(*case)

    def test_gamma_form(self):
        c, bound = _lambda_norm_integral(1.0, 2.0, 0.2, 1.75)
        c0 = math.sqrt(2.0) * _sup_scaled_ou_factor(0.1, 0.0)
        assert c == pytest.approx(0.9625)
        assert bound == c0**1.75 * math.gamma(1.0 - c)

    def test_divergent_exponent_gives_inf(self):
        c, bound = _lambda_norm_integral(1.0, 2.0, 0.26, 1.9)
        assert c == pytest.approx(1.0735) and bound == math.inf


def reference_a41_terms(k, a_lam, p_lam, pq1, theta):
    """A41's per-mode integrals over [0, T], T = 1, before the checker took
    them over [0, inf): q_k (2 lambda_k)^(theta-1) Gamma(1-theta)
    P(1-theta, 2 lambda_k T)."""
    from scipy.special import gammainc

    lam = a_lam * k**p_lam
    return (k ** -pq1 * (2.0 * lam) ** (theta - 1.0) * math.gamma(1.0 - theta)
            * gammainc(1.0 - theta, 2.0 * lam))


def reference_a42_terms(k, a_lam, p_lam, pq1, theta):
    """A42's per-mode integrals over [0, T], T = 1: lambda_k^theta q_k
    (1 - e^{-2 lambda_k T}) / (2 lambda_k)."""
    lam = a_lam * k**p_lam
    return lam**theta * k ** -pq1 * -np.expm1(-2.0 * lam) / (2.0 * lam)


# the checker cases pinned in data/frozen_reference.npz
PINNED_CHECKS = [("constant", 0.55, None)] + [
    (n, theta, kappa1) for n in (8, 32) for theta in (0.55, 0.65)
    for kappa1 in (None, 0.75)]


class TestChecker:
    def test_heat_model_passes_all(self, heat32):
        rep = check_assumptions(heat32, theta=0.55, kappa1=0.75)
        assert rep.all_hold
        w = rep["A5_gradient_integrability"].witness
        assert w["kappa1"] == 0.75
        assert np.isfinite(w["integral_q1"]) and np.isfinite(w["integral_q2"])
        assert rep["A6_spectral_gap"].witness["gap"] == pytest.approx(0.5)

    def test_a1_fails_on_non_finite_drift(self, heat8):
        from slowfast_spde.config import parse_drift_expression

        bad = replace(heat8, drift_b=parse_drift_expression("1/(x-x)"),
                      drift_f=parse_drift_expression("100*y*y"))
        with np.errstate(divide="ignore", invalid="ignore"):
            rep = check_assumptions(bad, theta=0.55)
        a1 = rep["A1_drift_regularity"]
        assert a1.status == "fails" and not rep.all_hold
        assert not np.isfinite(a1.witness["b_max_quotient"])

    @pytest.mark.parametrize("which", ["b", "f"])
    def test_a1_fails_above_declared_bound(self, heat8, which):
        # finite Hoelder quotients, but the sampled sup exceeds the bound
        name = f"drift_{which}"
        loud = replace(heat8, **{name: lambda xg, yg, f=getattr(heat8, name):
                                 3.0 * f(xg, yg)})
        a1 = check_assumptions(loud, theta=0.55)["A1_drift_regularity"]
        assert a1.status == "fails"
        assert np.isfinite(a1.witness[f"{which}_max_quotient"])
        assert a1.witness[f"{which}_sampled_sup"] > a1.witness[f"bound_{which}"]
        ok = check_assumptions(heat8, theta=0.55)["A1_drift_regularity"]
        assert ok.status == "holds"
        assert ok.witness[f"{which}_sampled_sup"] <= ok.witness[f"bound_{which}"]

    def test_admissible_theta_interval(self, heat32):
        rep = check_assumptions(heat32, theta=0.55)
        assert "(0, 0.6)" in rep["A41_weighted_trace"].detail

    def test_a41_fails_beyond_threshold(self, heat32):
        # theta >= r1 + 1/2 + margin: series exponent <= 1, divergence
        rep = check_assumptions(heat32, theta=0.65)
        assert rep["A41_weighted_trace"].status == "fails"
        w = rep["A41_weighted_trace"].witness
        assert w["partial_sum_2K"] > w["partial_sum_K"]  # divergence witness

    @pytest.mark.parametrize("case", PINNED_CHECKS)
    def test_a4_bounds_the_finite_horizon_sums(self, case):
        # each [0, inf) witness is at least the [0, 1] sum and at most that
        # sum times the first mode's ratio, the largest over the modes
        from scipy.special import gammainc

        model, theta, kappa1 = case
        config = (make_broken_constant_spectrum() if model == "constant"
                  else heat_example(0.1, 0.1, model))
        rep = check_assumptions(config, theta, kappa1=kappa1)
        a_lam = config.eigs.growth_coefficient
        p_lam = config.eigs.growth_exponent
        pq1 = 2.0 * config.q1.decay_exponent
        # the first mode's lambda_1 is a_lam under the declared law
        for name, terms, worst in (
                ("A41_weighted_trace", reference_a41_terms,
                 1.0 / gammainc(1.0 - theta, 2.0 * a_lam)),
                ("A42_smoothed_trace", reference_a42_terms,
                 1.0 / -math.expm1(-2.0 * a_lam))):
            w = rep[name].witness
            if rep[name].status == "holds":
                pairs = [(w["total"], w["K"], w["tail_bound"])]
            else:
                pairs = [(w["partial_sum_K"], w["K"], 0.0),
                         (w["partial_sum_2K"], 2 * w["K"], 0.0)]
            for value, k_max, tail in pairs:
                k = np.arange(1, k_max + 1, dtype=float)
                ref = float(np.sum(terms(k, a_lam, p_lam, pq1, theta))) + tail
                assert ref <= value <= ref * worst * (1.0 + 1e-12), name

    def test_single_mode_heat_model_holds_everywhere(self):
        # lambda_1 = lambda_N, yet the declared law k^2 is unbounded
        rep = check_assumptions(heat_example(0.1, 0.1, 1), theta=0.55)
        assert rep.all_hold, rep.summary()

    def test_slow_declared_growth_holds_a2_and_fails_a3(self, heat8):
        k = np.arange(1, 9, dtype=float)
        slow = replace(heat8, eigs=OperatorSpectrum(k**0.04, growth_exponent=0.04))
        rep = check_assumptions(slow, theta=0.55)
        assert rep["A2_diagonal_operator"].status == "holds"
        assert rep["A3_spectrum_summability"].status == "fails"

    def test_constant_spectrum_fails_a3(self):
        rep = check_assumptions(make_broken_constant_spectrum(), theta=0.55)
        assert rep["A3_spectrum_summability"].status == "fails"
        assert rep["A2_diagonal_operator"].status == "fails"
        assert not rep.all_hold

    @pytest.mark.parametrize("which", ["eigs", "q1", "q2"])
    def test_undeclared_power_law_is_config_error(self, heat8, which):
        # the checker sums its series from declared power laws, never a fit
        spectrum = getattr(heat8, which)
        if which == "eigs":
            bare = OperatorSpectrum(spectrum.eigenvalues)
        else:
            bare = NoiseSpectrum(spectrum.q)
        with pytest.raises(ConfigError, match="declared power laws"):
            check_assumptions(replace(heat8, **{which: bare}), theta=0.55)

    def test_kappa1_feasibility_depends_on_r(self):
        # kappa1 = 3/4 needs (1+r)(1+3/4)/2 < 1, i.e. r < 1/7
        rep = check_assumptions(heat_example(0.13, 0.13, 16), 0.55, kappa1=0.75)
        assert rep["A5_gradient_integrability"].status == "holds"
        c1, _ = rep["A5_gradient_integrability"].witness["singularity_exponents"]
        assert c1 < 1.0

    def test_a5_fails_past_the_kappa1_threshold(self):
        # (1 + r)(1 + kappa1)/2 = 0.565 * 1.9 = 1.0735 >= 1 at r = 0.13
        a5 = check_assumptions(heat_example(0.13, 0.13, 16), 0.55,
                               kappa1=0.9)["A5_gradient_integrability"]
        assert a5.status == "fails"
        c1, _ = a5.witness["singularity_exponents"]
        assert c1 == pytest.approx(1.0735)
        assert a5.witness["integral_q1"] == math.inf

    def test_a5_fails_without_a_kappa2(self, heat8):
        # q1 ~ k^-2 on lambda ~ k^2: rho1 = 1 leaves no kappa2 > 0
        rough = replace(heat8, q1=power_law_spectrum(8, 1.0))
        a5 = check_assumptions(rough, 0.55)["A5_gradient_integrability"]
        assert a5.status == "fails"
        assert a5.witness["kappa2"] == 0.0
        assert a5.witness["kappa2_admissible"] == (0.0, 0.0)
        assert a5.witness["integral_gradient"] == math.inf

    def test_truncation_stability(self, heat32):
        r1 = check_assumptions(heat32, 0.55, kappa1=0.75, k_trunc=20_000)
        r2 = check_assumptions(heat32, 0.55, kappa1=0.75, k_trunc=40_000)
        for key in ("A3_spectrum_summability", "A41_weighted_trace",
                    "A42_smoothed_trace", "A43_fast_trace"):
            a, b = r1[key].witness["total"], r2[key].witness["total"]
            assert abs(a - b) <= 1e-8 * abs(a)
            assert r1[key].status == r2[key].status == "holds"

    def test_report_serializes(self, heat8):
        rep = check_assumptions(heat8, theta=0.55)
        d = rep.to_dict()
        assert set(d) == set(rep.checks)
        assert all("status" in v for v in d.values())

    def test_theta_domain(self, heat8):
        with pytest.raises(ValueError):
            check_assumptions(heat8, theta=1.0)
