"""Model description and numerical assumption checking.

A :class:`ModelConfig` bundles every coefficient of the two-scale
system: the diagonal operator spectrum, the two noise spectra, the
pointwise (Nemytskii) drift evaluators B and F, and the declared
regularity constants (Hoelder exponents alpha, beta, gamma, the
y-Lipschitz constant of F, and sup bounds).  Drifts act pointwise on
grid values: ``drift(x_grid, y_grid) -> grid`` with broadcasting over
leading batch axes.

:func:`heat_example` builds the stochastic heat equation on (0, pi)
with fractional-Laplacian noise and the bounded trigonometric drifts

    B(x, y)(xi) = sin(sqrt(|x(xi)|) + sqrt(|y(xi)|)),
    F(x, y)(xi) = cos(sqrt(|x(xi)|) + |y(xi)|) / 2,

for which alpha = beta = gamma = 1/2 and L_F = 1/2 follow from the
scalar bounds |sin a - sin b| <= |a - b|, |cos a - cos b| <= |a - b|
and |sqrt(u) - sqrt(v)| <= sqrt(|u - v|).

:func:`check_assumptions` verifies the dissipativity/trace conditions
that the averaging theory needs.  For diagonal power-law spectra every
series and integral has a closed per-mode form; the checker stores a
finite witness for each "holds" verdict (partial sum plus an
Euler-Maclaurin tail bound, or a quadrature value with an analytic
head for the integrable singularity at t = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .noise import NoiseSpectrum, power_law_spectrum
from .spectral import MAX_TRANSFORM_SIZE, PI, OperatorSpectrum, coeffs_to_grid_values

__all__ = [
    "DriftFn",
    "ModelConfig",
    "AssumptionCheck",
    "AssumptionReport",
    "heat_example",
    "heat_drift_b",
    "heat_drift_f",
    "sqrt_abs",
    "check_assumptions",
    "empirical_holder",
    "low_mode_pair_sampler",
]

DriftFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def sqrt_abs(x_grid: np.ndarray) -> np.ndarray:
    """sqrt|x|, the x-part of both heat drifts."""
    return np.sqrt(np.abs(x_grid))


def heat_drift_b(x_grid: np.ndarray, y_grid: np.ndarray, *,
                 x_part: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Slow drift sin(sqrt|x| + sqrt|y|), bounded by 1."""
    if x_part is None:
        x_part = sqrt_abs(x_grid)
    # ``out`` is passed positionally throughout: a keyword costs each
    # ufunc call about 0.1 us, a tenth of a call at one path
    v = np.add(x_part, np.sqrt(np.abs(y_grid, out), out), out)
    return np.sin(v, v)


def heat_drift_f(x_grid: np.ndarray, y_grid: np.ndarray, *,
                 x_part: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Fast drift cos(sqrt|x| + |y|)/2, bounded by 1/2 and 1/2-Lipschitz in y."""
    if x_part is None:
        x_part = sqrt_abs(x_grid)
    v = np.add(x_part, np.abs(y_grid, out), out)
    return np.multiply(np.cos(v, v), 0.5, v)


# The frozen-x protocol (see ModelConfig): both drifts read x only through
# sqrt|x|, so a stepper with x frozen computes it once for the two.
heat_drift_b.x_part = sqrt_abs
heat_drift_f.x_part = sqrt_abs


@dataclass(frozen=True)
class ModelConfig:
    """All coefficients of the two-scale system; immutable after build.

    Drift evaluators must be pure and thread-safe.  A drift is any
    callable ``drift(x_grid, y_grid) -> grid values``.  It may also
    follow the frozen-x protocol, which the frozen-fast stepper uses to
    hold x fixed over many steps without reworking it: the callable
    carries an attribute ``x_part``, a function of ``x_grid`` alone,
    and accepts the keywords ``x_part=`` (that function's value, used
    in place of ``x_grid``, which the stepper then passes as None) and
    ``out=`` (a C-contiguous array of the result's shape that receives
    the values, which are returned).  Drifts whose ``x_part`` is the
    same function share one evaluation of it; the heat drifts share
    ``sqrt_abs``.  The stepper calls a drift without the attribute
    with two arguments, as before.  The regularity constants are
    declared (verification is analytic, not numerical);
    :func:`empirical_holder` spot-checks them on random fields.
    """

    eigs: OperatorSpectrum
    q1: NoiseSpectrum
    q2: NoiseSpectrum
    drift_b: DriftFn
    drift_f: DriftFn
    alpha: float
    beta: float
    gamma: float
    l_f: float
    bound_b: float
    bound_f: float
    n_modes: int
    m_points: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1], got {v}")
        if self.l_f < 0:
            raise ConfigError("l_f must be nonnegative")
        if not (math.isfinite(self.bound_b) and math.isfinite(self.bound_f)):
            raise ConfigError("drift bounds must be finite")
        if self.m_points < self.n_modes:
            raise ConfigError(
                f"m_points={self.m_points} must be >= n_modes={self.n_modes}"
            )
        if self.n_modes * self.m_points > MAX_TRANSFORM_SIZE:
            raise ConfigError(
                f"n_modes * m_points = {self.n_modes * self.m_points} exceeds "
                f"{MAX_TRANSFORM_SIZE}, past which the dense sine transforms are slow"
            )
        if self.eigs.n_modes < self.n_modes:
            raise ConfigError("operator spectrum shorter than n_modes")

    @property
    def spectral_gap(self) -> float:
        """Dissipativity gap lambda_1 - L_F; must be > 0 for ergodic averaging."""
        return self.eigs.lambda_1 - self.l_f

    @property
    def rough_index(self) -> float:
        """min(alpha, beta*gamma), the regularity index of the averaged drift."""
        return min(self.alpha, self.beta * self.gamma)


def heat_example(r1: float, r2: float, n_modes: int, m_points: int | None = None) -> ModelConfig:
    """Stochastic heat equation on (0, pi) with fractional noise.

    lambda_k = k^2, q_k^{(i)} = k^{-2 r_i}; requires r1, r2 in (0, 1/7)
    so that the strong-dissipativity and trace conditions hold with
    kappa_1 = 3/4.  Grid default is 2x padding (M = 2N) to control
    aliasing of the pointwise drifts.
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if not 0.0 < r < 1.0 / 7.0:
            raise ConfigError(
                f"{name} must lie in (0, 1/7) for the heat-example spectra, got {r}"
            )
    if n_modes < 1:
        raise ConfigError("n_modes must be positive")
    if m_points is None:
        m_points = 2 * n_modes
    k = np.arange(1, n_modes + 1, dtype=float)
    eigs = OperatorSpectrum(k**2, growth_exponent=2.0, growth_coefficient=1.0)
    return ModelConfig(
        eigs=eigs,
        q1=power_law_spectrum(n_modes, r1),
        q2=power_law_spectrum(n_modes, r2),
        drift_b=heat_drift_b,
        drift_f=heat_drift_f,
        alpha=0.5,
        beta=0.5,
        gamma=0.5,
        l_f=0.5,
        bound_b=1.0,
        bound_f=0.5,
        n_modes=n_modes,
        m_points=m_points,
    )


# ----------------------------------------------------------------------
# assumption checker
# ----------------------------------------------------------------------


@dataclass
class AssumptionCheck:
    """Verdict for one assumption with its stored numerical witness."""

    name: str
    status: str  # "holds" | "fails" | "not-checkable-numerically"
    witness: dict
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "detail": self.detail,
        }


@dataclass
class AssumptionReport:
    """Per-assumption verdicts; every "holds" is backed by a finite witness."""

    checks: dict[str, AssumptionCheck] = field(default_factory=dict)

    def __getitem__(self, name: str) -> AssumptionCheck:
        return self.checks[name]

    @property
    def all_hold(self) -> bool:
        return all(c.status == "holds" for c in self.checks.values())

    def to_dict(self) -> dict:
        return {name: c.to_dict() for name, c in sorted(self.checks.items())}

    def summary(self) -> str:
        lines = []
        for name in sorted(self.checks):
            c = self.checks[name]
            lines.append(f"{name}: {c.status}" + (f"  ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


def _fit_power_law(values: np.ndarray) -> tuple[float, float]:
    """Fit values_k ~ coef * k^p on the top half of the index range."""
    n = values.shape[0]
    lo = max(1, n // 2)
    k = np.arange(lo, n + 1, dtype=float)
    v = np.asarray(values[lo - 1 :], dtype=float)
    if np.any(v <= 0) or n < 4:
        return float(v[-1]) if v.size else 0.0, 0.0
    slope, intercept = np.polyfit(np.log(k), np.log(v), 1)
    return float(np.exp(intercept)), float(slope)


def _spectrum_rule(eigs: OperatorSpectrum) -> tuple[float, float]:
    """(coef, power) with lambda_k ~ coef * k^power, exact when declared."""
    if eigs.growth_exponent is not None:
        return float(eigs.growth_coefficient), float(eigs.growth_exponent)
    return _fit_power_law(eigs.eigenvalues)


def _noise_rule(spec: NoiseSpectrum) -> tuple[float, float]:
    """(coef, power) with q_k ~ coef * k^{-power}."""
    if spec.decay_exponent is not None:
        return 1.0, 2.0 * float(spec.decay_exponent)
    coef, p = _fit_power_law(spec.q)
    return coef, -p


def _power_series_tail(coef: float, p: float, k_from: int) -> float:
    """Euler-Maclaurin bound for sum_{k > k_from} coef * k^{-p}; inf if p <= 1."""
    if p <= 1.0:
        return math.inf
    x = float(k_from + 1)
    return coef * (x ** (1.0 - p) / (p - 1.0) + 0.5 * x ** (-p) + p * x ** (-p - 1.0) / 12.0)


def _sup_scaled_ou_factor(rho: float, extra: float = 0.0) -> float:
    """sup_{s>0} s^{(1+rho)/2 + extra} e^{-s} (1 - e^{-2s})^{-1/2}."""
    s = np.exp(np.linspace(np.log(1e-8), np.log(60.0), 4000))
    vals = s ** ((1.0 + rho) / 2.0 + extra) * np.exp(-s) / np.sqrt(-np.expm1(-2.0 * s))
    return float(np.max(vals))


def _lambda_norm(t: np.ndarray, a_lam: float, p_lam: float, a_q: float, p_q: float,
                 extra: float = 0.0) -> np.ndarray:
    """Operator norm of lambda^extra * Q(t)^{-1/2} e^{tA} for diagonal spectra.

    Per mode the value is lambda^extra * sqrt(2 lambda / q) * e^{-lambda t}
    / sqrt(1 - e^{-2 lambda t}); the norm is the max over modes, which for
    t > 0 is attained at lambda ~ O(1/t).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    for i, ti in enumerate(t):
        lam_hi = 40.0 / ti
        k_hi = int(np.ceil((lam_hi / a_lam) ** (1.0 / p_lam))) + 8
        k_hi = min(max(k_hi, 64), 400_000)
        k = np.arange(1, k_hi + 1, dtype=float)
        lam = a_lam * k**p_lam
        q = a_q * k ** (-p_q)
        with np.errstate(divide="ignore"):
            vals = lam**extra * np.sqrt(2.0 * lam / q) * np.exp(-lam * ti)
            vals /= np.sqrt(-np.expm1(-2.0 * lam * ti))
        out[i] = np.max(vals)
    return out


def _log_quadrature_nodes(t_min: float, t_max: float, n_panels: int = 40,
                          order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on log-spaced panels of [t_min, t_max]."""
    edges = np.exp(np.linspace(math.log(t_min), math.log(t_max), n_panels + 1))
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _lambda_norm_integral(a_lam, p_lam, a_q, p_q, power: float, extra: float = 0.0,
                          damp: float = 1.0) -> tuple[float, float]:
    """(small-t exponent c, value) of int_0^inf e^{-damp t} ||Lambda(t)||^power dt.

    The t -> 0 singularity has exponent c = ((1 + rho)/2 + extra) * power
    with rho = p_q / p_lam; the head integral over [0, t_split] is bounded
    analytically via the continuous-in-lambda sup, the rest by quadrature.
    Returns value = inf when c >= 1 (divergent).
    """
    rho = p_q / p_lam
    c = ((1.0 + rho) / 2.0 + extra) * power
    if c >= 1.0:
        return c, math.inf
    b_coef = a_q * a_lam**rho  # q(lambda) = b_coef * lambda^{-rho}
    g_sup = _sup_scaled_ou_factor(rho, extra)
    c0 = math.sqrt(2.0 / b_coef) * g_sup  # ||Lambda(t)|| <= c0 * t^{-c/power}
    t_split, t_max = 1e-3, 60.0
    head = (c0**power) * t_split ** (1.0 - c) / (1.0 - c)
    nodes, weights = _log_quadrature_nodes(t_split, t_max)
    vals = _lambda_norm(nodes, a_lam, p_lam, a_q, p_q, extra) ** power
    body = float(np.sum(weights * np.exp(-damp * nodes) * vals))
    tail = float(_lambda_norm(np.array([t_max]), a_lam, p_lam, a_q, p_q, extra)[0] ** power
                 * math.exp(-damp * t_max) / damp)
    return c, head + body + tail


def check_assumptions(config: ModelConfig, theta: float, kappa1: float | None = None,
                      kappa2: float | None = None, t_horizon: float = 1.0,
                      k_trunc: int = 20_000, holder_pairs: int = 200,
                      seed: int = 7) -> AssumptionReport:
    """Verify the structural assumptions for a diagonal model.

    ``theta`` is the time-regularity exponent used by the trace
    integrals (must lie in (0, 1)).  For power-law spectra all series
    are summed in closed per-mode form with tail bounds; a divergent
    series is reported as "fails" together with its partial sums as the
    divergence witness.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    for name, kappa in (("kappa1", kappa1), ("kappa2", kappa2)):
        if kappa is not None and not math.isfinite(kappa):
            raise ConfigError(f"{name} must be finite, got {kappa}")
    report = AssumptionReport()
    a_lam, p_lam = _spectrum_rule(config.eigs)
    aq1, pq1 = _noise_rule(config.q1)
    aq2, pq2 = _noise_rule(config.q2)

    # A1: boundedness/Hoelder continuity of the drifts (declared constants,
    # spot-checked empirically on random low-mode pairs); a non-finite
    # quotient or a sampled value above the declared bound refutes it.
    sampler = low_mode_pair_sampler(config.n_modes)
    qb = empirical_holder(config.drift_b, config.alpha, config.beta, holder_pairs,
                          sampler, config.m_points, seed=seed)
    qf = empirical_holder(config.drift_f, config.gamma, 1.0, holder_pairs,
                          sampler, config.m_points, seed=seed + 1)
    sup_b = _sampled_sup(config.drift_b, holder_pairs, sampler, config.m_points, seed)
    sup_f = _sampled_sup(config.drift_f, holder_pairs, sampler, config.m_points,
                         seed + 1)
    a1_holds = (math.isfinite(qb) and math.isfinite(qf)
                and sup_b <= config.bound_b and sup_f <= config.bound_f)
    report.checks["A1_drift_regularity"] = AssumptionCheck(
        "A1_drift_regularity", "holds" if a1_holds else "fails",
        {"b_max_quotient": qb, "f_max_quotient": qf,
         "b_sampled_sup": sup_b, "f_sampled_sup": sup_f,
         "bound_b": config.bound_b, "bound_f": config.bound_f,
         "alpha": config.alpha, "beta": config.beta, "gamma": config.gamma,
         "l_f": config.l_f},
        "declared constants; empirical max quotients and sup|B|, sup|F| over "
        f"{holder_pairs} random pairs",
    )

    # A2: positive, nondecreasing, unbounded spectrum.
    eig = config.eigs.eigenvalues
    unbounded = p_lam > 0.05 and eig[-1] > eig[0]
    report.checks["A2_diagonal_operator"] = AssumptionCheck(
        "A2_diagonal_operator", "holds" if unbounded else "fails",
        {"lambda_1": float(eig[0]), "lambda_N": float(eig[-1]),
         "growth_exponent": p_lam},
        "requires lambda_k increasing to infinity",
    )

    # A3: sum lambda_k^{zeta-1} < infinity for some zeta in (0, 1).
    k = np.arange(1, k_trunc + 1, dtype=float)
    if p_lam <= 1.0:
        s_k = float(np.sum((a_lam * k**p_lam) ** (0.5 - 1.0)))
        k2 = np.arange(1, 2 * k_trunc + 1, dtype=float)
        s_2k = float(np.sum((a_lam * k2**p_lam) ** (0.5 - 1.0)))
        report.checks["A3_spectrum_summability"] = AssumptionCheck(
            "A3_spectrum_summability", "fails",
            {"partial_sum_K": s_k, "partial_sum_2K": s_2k, "K": k_trunc,
             "zeta_tried": 0.5},
            "series diverges for every zeta < 1 (no spectral growth)",
        )
    else:
        zeta_max = 1.0 - 1.0 / p_lam
        zeta = 0.5 * zeta_max
        p_series = p_lam * (1.0 - zeta)
        partial = float(np.sum((a_lam * k**p_lam) ** (zeta - 1.0)))
        tail = _power_series_tail(a_lam ** (zeta - 1.0), p_series, k_trunc)
        report.checks["A3_spectrum_summability"] = AssumptionCheck(
            "A3_spectrum_summability", "holds",
            {"zeta": zeta, "admissible_zeta_interval": (0.0, zeta_max),
             "partial_sum": partial, "tail_bound": tail, "total": partial + tail,
             "K": k_trunc},
            f"sum lambda_k^(zeta-1) finite for zeta in (0, {zeta_max:g})",
        )

    # A4: the three trace integrals, in closed per-mode form.
    def series_check(name, coef_fn, tail_coef, k_exponent, detail):
        terms = coef_fn(k)
        partial = float(np.sum(terms))
        if k_exponent <= 1.0:
            k2 = np.arange(1, 2 * k_trunc + 1, dtype=float)
            report.checks[name] = AssumptionCheck(
                name, "fails",
                {"partial_sum_K": partial, "partial_sum_2K": float(np.sum(coef_fn(k2))),
                 "series_k_exponent": k_exponent, "K": k_trunc},
                detail + " diverges (index exponent <= 1)",
            )
        else:
            tail = _power_series_tail(tail_coef, k_exponent, k_trunc)
            report.checks[name] = AssumptionCheck(
                name, "holds",
                {"partial_sum": partial, "tail_bound": tail,
                 "total": partial + tail, "series_k_exponent": k_exponent,
                 "K": k_trunc},
                detail,
            )

    theta_max = min(1.0, 1.0 + (pq1 - 1.0) / p_lam) if p_lam > 0 else 0.0
    # imported here: scipy is most of the package's import time
    from scipy.special import gamma as gamma_fn
    from scipy.special import gammainc

    gamma_1mt = float(gamma_fn(1.0 - theta))

    def a41_terms(kk):
        lam = a_lam * kk**p_lam
        q = aq1 * kk ** (-pq1)
        return q * (2.0 * lam) ** (theta - 1.0) * gamma_1mt * gammainc(
            1.0 - theta, 2.0 * lam * t_horizon)

    series_check(
        "A41_weighted_trace", a41_terms,
        aq1 * (2.0 * a_lam) ** (theta - 1.0) * gamma_1mt,
        pq1 + p_lam * (1.0 - theta),
        f"int_0^T r^-theta ||e^(rA) sqrt(Q1)||_HS^2 dr, theta={theta:g}, "
        f"admissible theta in (0, {theta_max:g})",
    )

    def a42_terms(kk):
        lam = a_lam * kk**p_lam
        q = aq1 * kk ** (-pq1)
        return lam**theta * q * (-np.expm1(-2.0 * lam * t_horizon)) / (2.0 * lam)

    series_check(
        "A42_smoothed_trace", a42_terms,
        aq1 * a_lam ** (theta - 1.0) / 2.0,
        pq1 + p_lam * (1.0 - theta),
        "int_0^T ||(-A)^(theta/2) e^(rA) sqrt(Q1)||_HS^2 dr",
    )

    def a43_terms(kk):
        lam = a_lam * kk**p_lam
        return aq2 * kk ** (-pq2) / (2.0 * lam)

    series_check(
        "A43_fast_trace", a43_terms, aq2 / (2.0 * a_lam), pq2 + p_lam,
        "int_0^inf ||e^(rA) sqrt(Q2)||_HS^2 dr (stationary fast variance)",
    )

    # A5: integrability of the regularized inverse-covariance norms.
    required_k1 = max(min(config.alpha, config.beta, config.gamma),
                      1.0 - config.rough_index)
    if kappa1 is None:
        kappa1 = required_k1
    if aq1 <= 0 or aq2 <= 0 or p_lam <= 0:
        report.checks["A5_gradient_integrability"] = AssumptionCheck(
            "A5_gradient_integrability", "not-checkable-numerically",
            {"spectrum_growth": p_lam},
            "degenerate noise spectrum or no spectral growth",
        )
    else:
        c1, i1 = _lambda_norm_integral(a_lam, p_lam, aq1, pq1, 1.0 + kappa1)
        c2_, i2 = _lambda_norm_integral(a_lam, p_lam, aq2, pq2, 1.0 + kappa1)
        rho1 = pq1 / p_lam
        kappa2_max = min(0.5, (1.0 - rho1) / 2.0)
        if kappa2 is None:
            kappa2 = 0.5 * kappa2_max if kappa2_max > 0 else 0.0
        if 0.0 < kappa2 < kappa2_max:
            cg, ig = _lambda_norm_integral(a_lam, p_lam, aq1, pq1, 1.0, extra=kappa2)
        else:
            cg, ig = math.inf, math.inf
        ok = (kappa1 >= required_k1 and math.isfinite(i1) and math.isfinite(i2)
              and math.isfinite(ig))
        report.checks["A5_gradient_integrability"] = AssumptionCheck(
            "A5_gradient_integrability", "holds" if ok else "fails",
            {"kappa1": kappa1, "kappa1_required": required_k1,
             "integral_q1": i1, "integral_q2": i2,
             "singularity_exponents": (c1, c2_),
             "kappa2": kappa2, "kappa2_admissible": (0.0, kappa2_max),
             "integral_gradient": ig},
            "int e^(-t) ||Lambda_i(t)||^(1+kappa1) dt and the kappa2-weighted "
            "gradient integral must be finite",
        )

    # A6: strong dissipativity.
    gap = config.spectral_gap
    report.checks["A6_spectral_gap"] = AssumptionCheck(
        "A6_spectral_gap", "holds" if gap > 0 else "fails",
        {"lambda_1": config.eigs.lambda_1, "l_f": config.l_f, "gap": gap},
        "lambda_1 - L_F > 0",
    )
    return report


# ----------------------------------------------------------------------
# empirical regularity spot-checks
# ----------------------------------------------------------------------


def low_mode_pair_sampler(n_modes: int, active_modes: int = 8,
                          scales=(0.03, 0.1, 0.3, 1.0)):
    """Random low-mode field pairs at mixed perturbation scales.

    Returns a callable (rng, n) -> (x1, y1, x2, y2) of coefficient
    arrays shaped (n, n_modes), with the second pair member a
    perturbation of the first at a scale drawn from ``scales``.
    """
    act = min(active_modes, n_modes)
    k = np.arange(1, act + 1, dtype=float)

    def sample(rng: np.random.Generator, n: int):
        def fields():
            c = np.zeros((n, n_modes))
            c[:, :act] = rng.standard_normal((n, act)) / k
            return c

        x1, y1 = fields(), fields()
        s = np.asarray(scales)[rng.integers(0, len(scales), size=(n, 1))]
        dx = np.zeros((n, n_modes))
        dy = np.zeros((n, n_modes))
        dx[:, :act] = rng.standard_normal((n, act)) / k
        dy[:, :act] = rng.standard_normal((n, act)) / k
        return x1, y1, x1 + s * dx, y1 + s * dy

    return sample


def _on_grid(f: DriftFn, x_grid: np.ndarray, y_grid: np.ndarray) -> np.ndarray:
    """f's values at grid values x, y, broadcast to their shape (a drift
    may return one row, or a constant)."""
    return np.broadcast_to(f(x_grid, y_grid), x_grid.shape)


def _sampled_sup(f: DriftFn, n_pairs: int, sampler, m_points: int,
                 seed: int) -> float:
    """Max |f| on the grid over the fields :func:`empirical_holder` draws
    with the same seed; NaN if f returns a NaN anywhere."""
    fields = sampler(np.random.default_rng(seed), n_pairs)
    x1, y1, x2, y2 = (coeffs_to_grid_values(c, m_points) for c in fields)
    return float(max(np.max(np.abs(_on_grid(f, x1, y1))),
                     np.max(np.abs(_on_grid(f, x2, y2)))))


def empirical_holder(f: DriftFn, alpha: float, beta: float, n_pairs: int,
                     sampler, m_points: int, seed: int = 0) -> float:
    """Max quotient |f(x1,y1)-f(x2,y2)| / (|x1-x2|^alpha + |y1-y2|^beta).

    Norms of f-differences use the grid quadrature (the honest L^2
    estimate for non-band-limited outputs); input norms are spectral.
    A finite maximum that is stable as ``n_pairs`` grows is evidence,
    not proof, of the declared regularity.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    x1, y1, x2, y2 = sampler(rng, n_pairs)

    def g(c):
        return coeffs_to_grid_values(c, m_points)
    df = _on_grid(f, g(x1), g(y1)) - _on_grid(f, g(x2), g(y2))
    w = PI / (m_points + 1)
    num = np.sqrt(w * np.sum(df**2, axis=-1))
    den = (np.linalg.norm(x1 - x2, axis=-1) ** alpha
           + np.linalg.norm(y1 - y2, axis=-1) ** beta)
    mask = den > 1e-14
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / den[mask]))
