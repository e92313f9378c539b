"""Monte-Carlo verification harness for the averaging-principle bounds.

Each experiment maps one quantitative property of the two-scale system
to a reproducible measurement with error bars and a CI-aware verdict:

* :func:`strong_error` -- coupled strong error E sup_t |X^eps - Xbar|
  across an eps grid (the headline convergence statement).
* :func:`increment_scaling` -- E int |X_t - X_{t(delta)}|^2 dt vs the
  freezing block delta.
* :func:`contraction_test` -- pathwise contraction of the frozen
  dynamics under shared noise.
* :func:`aux_fast_error` -- E int |Y - Yhat|^2 dt for the blockwise
  frozen fast process.
* :func:`correlation_decay` -- stationary autocovariance of the drift
  observable B(x, Y_t) against the lag.
* :func:`moment_sweep` -- uniform-in-eps boundedness of second moments.
* :func:`ergodic_consistency` -- independence of the averaged drift
  estimate from the initial fast state, and the mixing rate.
* :func:`averaged_drift_holder` -- empirical Hoelder quotient of the
  averaged drift, stable under doubling the pair count.

Conventions: all randomness derives from one root seed, an integer in
[0, 2^64) as for :class:`~slowfast_spde.noise.NoiseStream` (any other
seed raises ValueError), so a report is bit-reproducible from (config,
seed); every estimate carries a standard error, so an experiment
refuses fewer than two Monte-Carlo paths (or pairs) before it
simulates anything; rate verdicts compare the fitted log-log slope
against 0.8x the theoretical exponent (the proved exponents are
upper-bound constructions, not claimed sharp); a curve that is
non-monotone beyond its confidence band yields "inconclusive", never a
silent pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .averaging import (AveragingParams, BbarOracle, _fit_log_decay, _line_fit,
                        derive_substream, estimate_bbar_batch, mixing_diagnostic)
from .errors import ConfigError
from .model import ModelConfig, _low_mode_fields
from .noise import _checked_seed
from .simulate import (StepScheme, _drift_coeffs, _frozen_fast, _whole_steps,
                       simulate_auxiliary_fast, simulate_averaged,
                       simulate_slow_fast)

__all__ = [
    "RateTarget",
    "RateFit",
    "ExperimentReport",
    "rate_fit",
    "strong_error",
    "increment_scaling",
    "contraction_test",
    "aux_fast_error",
    "correlation_decay",
    "moment_sweep",
    "ergodic_consistency",
    "averaged_drift_holder",
]


@dataclass(frozen=True)
class RateTarget:
    """Theoretical convergence exponent and block-size rule.

    With m = min(alpha, beta*gamma), the strong error closes at rate
    eps^(theta m / (theta m + 1)) under the block choice
    delta(eps) = eps^(1 / (theta m + 1)).
    """

    theta: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")

    @property
    def rough_index(self) -> float:
        return min(self.alpha, self.beta * self.gamma)

    @property
    def exponent(self) -> float:
        tm = self.theta * self.rough_index
        e = tm / (tm + 1.0)
        assert 0.0 < e < 1.0
        return e

    def delta_rule(self, eps: float) -> float:
        """Block size delta(eps) = eps^(1/(theta*m + 1)), in (eps, 1)."""
        return eps ** (1.0 / (self.theta * self.rough_index + 1.0))


@dataclass(frozen=True)
class RateFit:
    """Weighted log-log regression result."""

    slope: float
    intercept: float
    ci: float  # 95% half-width of the slope
    n_used: int
    n_dropped: int


def rate_fit(scales, estimates, stderrs=None) -> RateFit:
    """Weighted least squares of log(estimate) on log(scale).

    Weights follow the delta method (sigma_log = stderr/estimate);
    with all-zero stderrs the fit is unweighted.  Nonpositive
    estimates are dropped with a warning.  The CI is 1.96x the
    regression standard error of the slope.
    """
    scales = np.asarray(scales, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if stderrs is None:
        stderrs = np.zeros_like(estimates)
    stderrs = np.asarray(stderrs, dtype=float)
    keep = estimates > 0
    dropped = int(np.sum(~keep))
    if dropped:
        warnings.warn(f"rate_fit dropped {dropped} nonpositive estimate(s)")
    x, y, s = scales[keep], estimates[keep], stderrs[keep]
    if x.size < 3:
        raise ValueError("need at least 3 positive points for a rate fit")
    sig = np.where(y > 0, s / y, 0.0)
    w = 1.0 / sig**2 if np.all(sig > 0) else None
    slope, intercept, ci = _line_fit(np.log(x), np.log(y), w)
    return RateFit(slope=slope, intercept=intercept, ci=ci,
                   n_used=int(x.size), n_dropped=dropped)


def _no_fit(n_used: int, n_dropped: int) -> RateFit:
    """The fit of a curve with no slope to fit: NaN slope, infinite CI."""
    return RateFit(slope=math.nan, intercept=math.nan, ci=math.inf,
                   n_used=n_used, n_dropped=n_dropped)


@dataclass
class ExperimentReport:
    """Structured outcome of one verification experiment."""

    name: str
    grid: list
    estimates: list
    stderrs: list
    slope: float
    slope_ci: float
    target: float
    verdict: str
    seed: int
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Schema dict; it holds no timing, so a rerun with the same seed
        is bit-identical (timing lives in the run manifest)."""
        d = {
            "name": self.name,
            "grid": [float(g) for g in self.grid],
            "estimates": [float(v) for v in self.estimates],
            "stderrs": [float(v) for v in self.stderrs],
            "slope": float(self.slope),
            "slope_ci": float(self.slope_ci),
            "target": float(self.target),
            "verdict": self.verdict,
            "seed": int(self.seed),
        }
        if self.extra:
            d["extra"] = self.extra
        return d

    def csv_rows(self):
        yield ("scale", "estimate", "stderr")
        for g, e, s in zip(self.grid, self.estimates, self.stderrs):
            yield (repr(float(g)), repr(float(e)), repr(float(s)))


def _ci_verdict_geq(slope: float, ci: float, target: float) -> str:
    """CI-aware check of slope >= target."""
    if slope - ci >= target:
        return "pass"
    if slope + ci < target:
        return "fail"
    return "pass" if slope >= target else "inconclusive"


def _norms(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, axis=-1)


def _mean_stderr(per_path: np.ndarray) -> tuple[float, float]:
    """Mean of per-path values and its standard error."""
    return (float(np.mean(per_path)),
            float(np.std(per_path, ddof=1) / math.sqrt(per_path.shape[0])))


def _curve(per_path) -> tuple[list[float], list[float]]:
    """Means and standard errors of a sequence of per-path arrays."""
    points = [_mean_stderr(p) for p in per_path]
    return [m for m, _ in points], [se for _, se in points]


def _require_paths(count: int, name: str = "n_mc") -> None:
    """A standard error needs at least two Monte-Carlo paths."""
    if count < 2:
        raise ConfigError(f"{name} must be at least 2 for a standard error, "
                          f"got {count}")


def _coupled_steps(step_a, step_b, ya: np.ndarray, yb: np.ndarray, stream,
                   n_steps: int):
    """Synchronous coupling: steps ``ya`` by ``step_a`` and ``yb`` by
    ``step_b`` in place on one shared draw of ``stream`` per step, and
    yields the step count 1 .. n_steps after each step."""
    z = np.empty(ya.shape)
    for i in range(1, n_steps + 1):
        stream.standard_normals(ya.shape[0], out=z)
        step_a(ya, z)
        step_b(yb, z)
        yield i


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def strong_error(config: ModelConfig, eps_grid, t_final: float, scheme: StepScheme,
                 n_mc: int, seed: int, oracle=None,
                 oracle_params: AveragingParams | None = None,
                 theta: float = 0.55) -> ExperimentReport:
    """Coupled strong error E sup_t |X^eps_t - Xbar_t|^p, p = 1, per eps.

    The averaged path is computed once (it does not depend on eps) and
    every eps reuses the identical slow-noise stream, so per-path
    errors are coupled across the grid and the monotonicity check can
    use paired differences.  The theoretical exponent is reported
    alongside the fitted slope but not asserted as an equality: the
    proved rate is an upper-bound construction.  Without ``oracle`` the
    averaged drift comes from a :class:`BbarOracle` with ``oracle_params``
    (default: t_burn 10, t_avg 20, dt 0.05, 2 replicas), which the report
    records as ``extra["oracle_params"]`` (None for a caller's oracle).
    """
    _require_paths(n_mc)
    eps_grid = sorted(float(e) for e in eps_grid)  # ascending
    n = config.n_modes
    if oracle is None:
        if oracle_params is None:
            oracle_params = AveragingParams(t_burn=10.0, t_avg=20.0, dt=0.05,
                                            n_replicas=2)
        oracle = BbarOracle(config, oracle_params, seed=seed)
    else:
        oracle_params = None  # a caller's oracle: the report names no parameters
    target = RateTarget(theta=theta, alpha=config.alpha, beta=config.beta,
                        gamma=config.gamma)

    x0 = np.zeros((n_mc, n))
    y0 = np.zeros((n_mc, n))
    w1 = derive_substream(seed, 0, "W1", n)
    xbar = simulate_averaged(config, x0, t_final, scheme.dt_macro, w1, oracle)

    per_eps_paths = []
    for i, eps in enumerate(eps_grid):
        w1_eps = derive_substream(seed, 0, "W1", n)  # replay, exact coupling
        w2 = derive_substream(seed, 1 + i, "W2", n)
        xs, _ = simulate_slow_fast(config, eps, x0, y0, t_final, scheme, w1_eps, w2)
        per_eps_paths.append(np.max(_norms(xs.states - xbar.states), axis=0))

    ests, ses = _curve(per_eps_paths)

    # paired differences check monotone decrease as eps decreases
    monotone = True
    paired = []
    for i in range(len(eps_grid) - 1):
        # larger eps minus smaller
        md, sd = _mean_stderr(per_eps_paths[i + 1] - per_eps_paths[i])
        paired.append({"eps_small": eps_grid[i], "eps_large": eps_grid[i + 1],
                       "mean_diff": md, "stderr": sd})
        if md < -1.96 * sd:  # error grew when eps grew: non-monotone beyond CI
            monotone = False

    if max(ests) < 1e-12:
        # decoupled null model: the coupled paths coincide
        fit = _no_fit(0, len(ests))
        verdict = "pass"
    elif len(eps_grid) < 3:
        # too few scales for a slope CI: report the curve only
        fit = _no_fit(len(ests), 0)
        verdict = "inconclusive"
    else:
        fit = rate_fit(eps_grid, ests, ses)
        if not monotone:
            verdict = "inconclusive"
        elif fit.slope - fit.ci > 0.0:
            verdict = "pass"
        else:
            verdict = "fail"
    return ExperimentReport(
        name="strong-convergence", grid=eps_grid, estimates=ests, stderrs=ses,
        slope=fit.slope, slope_ci=fit.ci, target=target.exponent,
        verdict=verdict, seed=seed, extra={"paired_differences": paired, "p": 1.0,
               "delta_rule_examples": {repr(e): target.delta_rule(e)
                                       for e in eps_grid},
               "oracle_stats": getattr(oracle, "stats", None),
               "oracle_params": (None if oracle_params is None
                                 else asdict(oracle_params))},
    )


def increment_scaling(config: ModelConfig, eps: float, delta_grid, t_final: float,
                      scheme: StepScheme, n_mc: int, seed: int,
                      theta: float = 0.55, x0=None) -> ExperimentReport:
    """Time-integrated squared slow increments vs the freezing block.

    Measures E int_0^T |X_t - X_{t(delta)}|^2 dt on one simulated batch
    and reuses it for every delta (the deltas are dyadic multiples of
    the macro step, so the freeze grids align exactly).  The discrete
    integral samples at macro nodes, so delta should exceed the macro
    step for a nonzero estimate.  Verdict: fitted slope >= 0.8 * theta,
    CI-aware.
    """
    _require_paths(n_mc)
    n = config.n_modes
    dt = scheme.dt_macro
    blocks = [_whole_steps(d, dt, "delta") for d in delta_grid]
    if min(blocks) < 1:
        raise ConfigError("every delta must be a positive multiple of dt_macro")
    x0 = np.zeros((n_mc, n)) if x0 is None else np.broadcast_to(
        np.asarray(x0, dtype=float), (n_mc, n)).copy()
    y0 = np.zeros((n_mc, n))
    w1 = derive_substream(seed, 0, "W1", n)
    w2 = derive_substream(seed, 0, "W2", n)
    xs, _ = simulate_slow_fast(config, eps, x0, y0, t_final, scheme, w1, w2)
    idx = np.arange(len(xs))
    # per path: dt * sum_t |X_t - X_{t(delta)}|^2, the state frozen per block
    ests, ses = _curve(
        dt * np.sum(_norms(xs.states - xs.states[(idx // block) * block]) ** 2,
                    axis=0)
        for block in blocks)
    fit = rate_fit(list(delta_grid), ests, ses)
    target = 0.8 * theta
    return ExperimentReport(
        name="time-increment-scaling", grid=[float(d) for d in delta_grid],
        estimates=ests, stderrs=ses, slope=fit.slope, slope_ci=fit.ci,
        target=target, verdict=_ci_verdict_geq(fit.slope, fit.ci, target),
        seed=seed, extra={"eps": eps, "theta": theta},
    )


def contraction_test(config: ModelConfig, t_checks, dt: float, n_mc: int,
                     seed: int, x_offset_scales=None, tol: float = 0.1,
                     x_base=None) -> ExperimentReport:
    """Pathwise contraction of the frozen dynamics under shared noise.

    Part 1 (equal slow argument): per path a random unit initial offset
    of the fast variable; the squared distance must contract at least
    like e^{-(lambda_1 - L_F) t} pathwise (the shared noise cancels
    exactly), checked at each time in ``t_checks`` with slack ``tol``;
    the decay rate is fitted through them, so they must be at least two
    distinct positive multiples of ``dt``.
    Part 2 (optional, equal fast start): offsets of the slow argument
    leave a plateau bounded by C |dx|^{2 gamma}; the fitted C must be
    stable across offset scales.
    """
    _require_paths(n_mc)
    n = config.n_modes
    gap = config.spectral_gap
    rng = np.random.default_rng(_checked_seed(seed))
    x = np.zeros((n_mc, n)) if x_base is None else np.broadcast_to(
        np.asarray(x_base, dtype=float), (n_mc, n)).copy()
    dy = rng.standard_normal((n_mc, n))
    dy *= 1.0 / _norms(dy)[:, None]
    t_checks = sorted(float(t) for t in t_checks)
    check_steps = [_whole_steps(t, dt, "check time") for t in t_checks]
    if len(set(check_steps)) < 2 or check_steps[0] == 0:
        raise ConfigError("contraction_test fits a decay rate and needs at least "
                          f"two distinct positive check times, got {t_checks}")
    t_final, n_steps = t_checks[-1], check_steps[-1]

    stream = derive_substream(seed, 0, "W2", n)
    freeze = _frozen_fast(config, dt)
    step = freeze(x, n_mc)
    ya, yb = np.zeros((n_mc, n)), dy.copy()
    d0 = _norms(dy) ** 2
    ratios = {}
    for i in _coupled_steps(step, step, ya, yb, stream, n_steps):
        if i in check_steps:
            ratios[i] = _norms(ya - yb) ** 2 / d0

    per_check = [ratios[i] for i in check_steps]
    bounds = [math.exp(-gap * t) * (1.0 + tol) for t in t_checks]
    violations = sum(int(np.sum(r > b)) for r, b in zip(per_check, bounds))
    ests, ses = _curve(per_check)
    worst = [float(np.max(r)) for r in per_check]

    # fitted decay rate of the mean squared distance (semilog in t)
    rate = -_line_fit(t_checks, np.log(np.maximum(ests, 1e-300)))[0]

    extra = {"tol": tol, "violations": violations, "worst_ratio": worst,
             "bound": bounds}

    if x_offset_scales is not None:
        plateau_c = []
        for s_off in x_offset_scales:
            dx = rng.standard_normal(n)
            dx *= s_off / np.linalg.norm(dx)
            xa, xb = x[0], x[0] + dx
            step_a, step_b = (
                freeze(np.broadcast_to(xc, (n_mc, n)), n_mc) for xc in (xa, xb))
            ya2 = np.zeros((n_mc, n))
            yb2 = np.zeros((n_mc, n))
            acc, count = 0.0, 0
            for i in _coupled_steps(step_a, step_b, ya2, yb2,
                                    derive_substream(seed, 1, "W2", n), n_steps):
                if i * dt > 0.5 * t_final:
                    acc += float(np.mean(_norms(ya2 - yb2) ** 2))
                    count += 1
            plateau = acc / max(count, 1)
            plateau_c.append(plateau / s_off ** (2.0 * config.gamma))
        extra["plateau_constants"] = plateau_c
        extra["x_offset_scales"] = list(x_offset_scales)
        cmax, cmin = max(plateau_c), min(plateau_c)
        extra["plateau_constant_spread"] = cmax / max(cmin, 1e-300)

    verdict = "pass" if violations == 0 else "fail"
    return ExperimentReport(
        name="fast-contraction", grid=t_checks, estimates=ests, stderrs=ses,
        slope=rate, slope_ci=0.0, target=gap, verdict=verdict, seed=seed, extra=extra,
    )


def aux_fast_error(config: ModelConfig, eps: float, delta_grid, t_final: float,
                   scheme: StepScheme, n_mc: int, seed: int,
                   theta: float = 0.55) -> ExperimentReport:
    """E int |Y_t - Yhat_t|^2 dt for the blockwise-frozen fast process.

    The auxiliary process replays the identical fast noise, so the
    difference isolates the freezing of the slow argument.  Verdict:
    fitted slope >= 0.8 * theta * gamma, CI-aware.
    """
    _require_paths(n_mc)
    n = config.n_modes
    dt = scheme.dt_macro
    x0 = np.zeros((n_mc, n))
    y0 = np.zeros((n_mc, n))
    w1 = derive_substream(seed, 0, "W1", n)
    w2 = derive_substream(seed, 0, "W2", n)
    xs, ys = simulate_slow_fast(config, eps, x0, y0, t_final, scheme, w1, w2)

    def freeze_error(delta):  # per path: dt * sum_t |Y_t - Yhat_t|^2
        yhat = simulate_auxiliary_fast(config, eps, xs, delta, y0, scheme,
                                       w2.replay())
        return dt * np.sum(_norms(ys.states - yhat.states) ** 2, axis=0)

    ests, ses = _curve(freeze_error(float(d)) for d in delta_grid)
    target = 0.8 * theta * config.gamma
    if max(ests) < 1e-12:
        # drift independent of the slow argument: freezing changes nothing
        fit = _no_fit(0, len(ests))
        verdict = "pass"
    else:
        fit = rate_fit(list(delta_grid), ests, ses)
        verdict = _ci_verdict_geq(fit.slope, fit.ci, target)
    return ExperimentReport(
        name="fast-freeze-error", grid=[float(d) for d in delta_grid],
        estimates=ests, stderrs=ses, slope=fit.slope, slope_ci=fit.ci,
        target=target, verdict=verdict,
        seed=seed, extra={"eps": eps, "theta": theta, "gamma": config.gamma},
    )


def correlation_decay(config: ModelConfig, x, lag_max: float, n_mc: int,
                      seed: int, t_burn: float = 16.0, window: float = 64.0,
                      ) -> ExperimentReport:
    """Stationary autocovariance of B(x, Y_t) against the lag.

    After burn-in, records the drift observable along each replica and
    averages <b_{t+lag} - bbar, b_t - bbar> over time origins and
    replicas, stepping by 0.02 and sampling every 5 steps (``t_burn``
    and ``window`` must be whole multiples of these).  The fitted
    exponential rate must reach (lambda_1 - L_F) * beta / 2 within its
    CI; lags where the signal drops below twice its standard error are
    excluded from the fit.  ``lag_max`` must be finite and positive.
    """
    _require_paths(n_mc)
    if not 0.0 < lag_max < math.inf:
        raise ConfigError(f"lag_max must be finite and positive, got {lag_max}")
    n = config.n_modes
    dt, stride = 0.02, 5
    dt_s = dt * stride
    x = np.asarray(x, dtype=float)
    stream = derive_substream(seed, 0, "corr", n)
    step = _frozen_fast(config, dt)(np.broadcast_to(x, (n_mc, n)), n_mc)
    y = np.zeros((n_mc, n))
    for _ in step.states(y, stream, _whole_steps(t_burn, dt, "t_burn")):
        pass

    # one drift sample every stride steps, the first at the start
    n_keep = _whole_steps(window, dt_s, "window")
    n_steps = (n_keep - 1) * stride
    samples = np.empty((n_keep, n_mc, n))
    for i, y_grid in enumerate(step.states(y, stream, n_steps)):
        if i % stride == 0:
            samples[i // stride] = _drift_coeffs(step.drift_b(y_grid), config)

    n_lags = min(n_keep - 8, int(round(lag_max / dt_s)))
    fluct = samples - samples.mean(axis=(0, 1))
    lags = [li * dt_s for li in range(n_lags + 1)]
    # per replica: the time average of <b_{t+lag} - bbar, b_t - bbar>
    ests, ses = _curve(
        np.sum(fluct[li:] * fluct[: n_keep - li], axis=-1).mean(axis=0)
        for li in range(n_lags + 1))

    # the fit window ends where the signal drops below 2 ses = 4 * (ses / 2)
    fitted, ci, cut = _fit_log_decay(np.asarray(lags), np.asarray(ests),
                                     0.5 * np.asarray(ses))
    target = config.spectral_gap * config.beta / 2.0
    verdict = ("inconclusive" if cut < 4
               else "pass" if fitted >= target - ci else "fail")
    return ExperimentReport(
        name="correlation-decay", grid=lags, estimates=ests, stderrs=ses,
        slope=fitted, slope_ci=ci, target=target, verdict=verdict,
        seed=seed, extra={"fit_lags": cut, "lag_step": dt_s},
    )


def moment_sweep(config: ModelConfig, eps_grid, t_final: float,
                 scheme: StepScheme, n_mc: int, seed: int,
                 y0=None) -> ExperimentReport:
    """Uniform-in-eps bound on second moments of both components.

    Tabulates the time-sup of E|X_t|^2 and E|Y_t|^2 per eps, with the
    sup taken over 8 window averages rather than raw time
    nodes (a pointwise sup over many noisy node means carries an
    eps-dependent selection bias; window means are the robust
    statistic for a near-constant moment curve).  The uniformity claim
    is about the fast component: its spread (max-min)/mean across the
    eps grid must stay below 0.20.  The slow component is
    only required to stay bounded (its drift feels the fast mixing
    speed, so moderate eps-dependence is real); its spread is
    reported, not gated.
    """
    _require_paths(n_mc)
    n = config.n_modes
    eps_grid = [float(e) for e in eps_grid]
    spread_tol = 0.20
    x0 = np.zeros((n_mc, n))
    y0 = np.zeros((n_mc, n)) if y0 is None else np.broadcast_to(
        np.asarray(y0, dtype=float), (n_mc, n)).copy()

    def block_sup(states):
        sq = _norms(states) ** 2  # (n_times, n_mc)
        edges = np.linspace(0, sq.shape[0], 9).astype(int)  # 8 windows
        means, ses = _curve(sq[a:b].mean(axis=0)
                            for a, b in zip(edges[:-1], edges[1:]))
        top = int(np.argmax(means))
        return means[top], ses[top]

    sups = []  # per eps: sup_x, its stderr, sup_y, its stderr
    for i, eps in enumerate(eps_grid):
        w1 = derive_substream(seed, i, "W1", n)
        w2 = derive_substream(seed, i, "W2", n)
        xs, ys = simulate_slow_fast(config, eps, x0, y0, t_final, scheme, w1, w2)
        sups.append(block_sup(xs.states) + block_sup(ys.states))
    sup_x, se_x, sup_y, se_y = map(list, zip(*sups))

    def spread(v):
        return (max(v) - min(v)) / max(np.mean(v), 1e-300)

    sx, sy = spread(sup_x), spread(sup_y)
    unbounded = any(not math.isfinite(v) for v in sup_x + sup_y)
    verdict = "fail" if unbounded or sy >= spread_tol else "pass"
    return ExperimentReport(
        name="moment-uniformity", grid=eps_grid, estimates=sup_y,
        stderrs=se_y, slope=0.0, slope_ci=0.0, target=spread_tol,
        verdict=verdict, seed=seed,
        extra={"sup_x": sup_x, "stderr_x": se_x, "spread_x": sx, "spread_y": sy},
    )


def ergodic_consistency(config: ModelConfig, params: AveragingParams, seed: int,
                        mixing_horizon: float = 24.0,
                        mixing_replicas: int = 256) -> ExperimentReport:
    """Initial-condition independence of the averaged drift estimate.

    Estimates the averaged drift at x = 0 from two initial fast states,
    zero and a random state of norm 2; ergodicity demands agreement
    within 3 combined standard errors.  Also fits the relaxation rate of
    the frozen dynamics, which must be at least
    (lambda_1 - L_F) * beta / 2 within its CI.
    """
    n = config.n_modes
    xs = np.zeros((2, n))
    rng = np.random.default_rng(_checked_seed(seed))
    y_alt = rng.standard_normal(n)
    y_alt *= 2.0 / np.linalg.norm(y_alt)
    y0 = np.stack([np.zeros(n), y_alt])
    values, errs = estimate_bbar_batch(config, xs, params, seed, y0=y0)
    diff = float(np.linalg.norm(values[0] - values[1]))
    combined = float(math.hypot(errs[0], errs[1]))
    agree = diff <= 3.0 * combined

    diag = mixing_diagnostic(config, xs[0], horizon=mixing_horizon,
                             n_replicas=mixing_replicas,
                             seed=(seed + 1) % 2**64)
    target = config.spectral_gap * config.beta / 2.0
    rate_ok = (not diag.insufficient_data
               and diag.rate >= target - diag.rate_ci)
    verdict = "pass" if (agree and rate_ok) else "fail"
    return ExperimentReport(
        name="ergodic-consistency", grid=[0.0, 1.0],
        estimates=[float(np.linalg.norm(values[0])),
                   float(np.linalg.norm(values[1]))],
        stderrs=[float(errs[0]), float(errs[1])],
        slope=diag.rate, slope_ci=diag.rate_ci, target=target,
        verdict=verdict, seed=seed,
        extra={"difference": diff, "combined_stderr": combined,
               "agreement": agree, "mixing_rate_ok": rate_ok,
               "mixing_window": list(diag.window),
               "per_functional_rates": {k: list(v) for k, v
                                        in diag.per_functional.items()}},
    )


def averaged_drift_holder(config: ModelConfig, n_pairs: int,
                          params: AveragingParams, seed: int) -> ExperimentReport:
    """Empirical Hoelder quotient of the averaged drift.

    Samples ``2 * n_pairs`` random pairs in the first 8 modes at
    distances between 0.75 and 1.25 (the first half is a prefix of the
    full set), estimates the averaged drift at every endpoint in one
    batch, and reports the max quotient |Bbar(x) - Bbar(x')| / |x - x'|^m
    with m = ``config.rough_index``.  The max must be stable under
    doubling the pair count (relative change below 0.25).
    """
    _require_paths(n_pairs, "n_pairs")
    m = config.rough_index
    stability_tol = 0.25
    rng = np.random.default_rng(_checked_seed(seed))
    total = 2 * n_pairs
    base, direction = _low_mode_fields(rng, (2, total), config.n_modes)
    direction /= _norms(direction)[:, None]
    scales = np.exp(rng.uniform(math.log(0.75), math.log(1.25), size=(total, 1)))
    other = base + scales * direction

    points = np.concatenate([base, other], axis=0)
    values, errs = estimate_bbar_batch(config, points, params, seed)
    v1, v2 = values[:total], values[total:]
    e1, e2 = errs[:total], errs[total:]
    dist = _norms(base - other)
    quot = _norms(v1 - v2) / dist**m
    noise = np.sqrt(e1**2 + e2**2) / dist**m

    max_half = float(np.max(quot[:n_pairs]))
    max_full = float(np.max(quot))
    change = abs(max_full - max_half) / max(max_half, 1e-300)
    verdict = "pass" if (math.isfinite(max_full)
                         and change < stability_tol) else "fail"
    return ExperimentReport(
        name="averaged-drift-holder", grid=[float(n_pairs), float(total)],
        estimates=[max_half, max_full],
        stderrs=[float(np.max(noise[:n_pairs])), float(np.max(noise))],
        slope=0.0, slope_ci=0.0, target=stability_tol, verdict=verdict,
        seed=seed, extra={"exponent": m, "max_change": change,
               "median_quotient": float(np.median(quot)),
               "mean_noise_quotient": float(np.mean(noise))},
    )
