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

The frozen ensembles evaluate these drifts on fields of up to 2 * 10^5
values, where numpy's float64 sin and cos cost 11-16 ns a value and its
vector tan (on AVX-512) about 2.5 ns.  So a field of at least
``_TAN_MIN_VALUES`` values takes the half-angle forms, in place in
``out``:

    cos a / 2 = 1/(1 + t^2) - 1/2,   t = tan(a/2),
    sin a     = 2/(1 + u^2) - 1,     u = 1 - 2/(1 + t) = tan(a/2 - pi/4),

and a smaller one calls np.sin and np.cos, whose fewer ufunc calls cost
less there.  The forms agree with np.sin and np.cos to 2e-15 absolute
(measured: 6e-16 for B and 1.7e-16 for F, also next to the poles of t
and u and for |y| up to 1e3), and |B| <= 1, |F| <= 1/2 hold exactly.
Computing u from t, not from the shifted argument a/2 - pi/4, keeps
B's accuracy at every |a|: rounding that argument cost up to ulp(a/2),
5.7e-15 at a near 95.  The size rule was measured on one x86-64 host
with numpy 2.4; where np.tan has no AVX-512 loop (numpy's
``opt_func_info`` reports the target), it runs on the baseline loop and
the large-field forms may be the slower ones.

:func:`check_assumptions` verifies the dissipativity/trace conditions
that the averaging theory needs.  It reads the power laws that the
spectra declare (a spectrum without one is refused, and the spectra
refuse at construction a non-finite exponent or a growth coefficient
that is not finite and positive), for which every
series and integral has a closed per-mode form; the checker stores a
finite witness for each "holds" verdict: for a series coef * sum_k k^-s
(A41 and A42 integrate over [0, inf)) a partial sum plus an
Euler-Maclaurin tail bound, or A5's closed-form bounds c0^p Gamma(1 - c),
finite exactly when the exponent c < 1 that decides A5.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .noise import NoiseSpectrum, _checked_count, _checked_seed, power_law_spectrum
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
]

DriftFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def sqrt_abs(x_grid: np.ndarray) -> np.ndarray:
    """sqrt|x|, the x-part of both heat drifts."""
    return np.sqrt(np.abs(x_grid))


# Fields of at least this many values take the heat drifts' half-angle
# forms (see the module docstring).  Measured on 64-value rows, F's form
# is the faster one from about 1024 values and B's from about 2048.
_TAN_MIN_VALUES = 2048


def _one_plus_square(v: np.ndarray) -> np.ndarray:
    """v <- 1 + v^2, in place."""
    return np.add(np.multiply(v, v, v), 1.0, v)


def heat_drift_b(x_grid: np.ndarray, y_grid: np.ndarray, *,
                 x_part: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Slow drift sin(sqrt|x| + sqrt|y|), bounded by 1."""
    if x_part is None:
        x_part = sqrt_abs(x_grid)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x_part), np.shape(y_grid)))
    # ``out`` is passed positionally throughout: a keyword costs each
    # ufunc call about 0.1 us, a tenth of a call at one path
    v = np.add(x_part, np.sqrt(np.abs(y_grid, out), out), out)
    if v.size < _TAN_MIN_VALUES:
        return np.sin(v, v)
    # sin a = 2/(1 + u^2) - 1 with u = tan(a/2 - pi/4) = 1 - 2/(1 + tan(a/2)),
    # which rounds no shifted argument; tan(a/2) = -1 gives u = -inf, and
    # sin a = -1 as it should
    t = np.tan(np.multiply(v, 0.5, v), v)
    with np.errstate(divide="ignore"):
        u = np.subtract(1.0, np.divide(2.0, np.add(t, 1.0, t), t), t)
    return np.subtract(np.divide(2.0, _one_plus_square(u), u), 1.0, u)


def heat_drift_f(x_grid: np.ndarray, y_grid: np.ndarray, *,
                 x_part: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Fast drift cos(sqrt|x| + |y|)/2, bounded by 1/2 and 1/2-Lipschitz in y."""
    if x_part is None:
        x_part = sqrt_abs(x_grid)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x_part), np.shape(y_grid)))
    v = np.add(x_part, np.abs(y_grid, out), out)
    if v.size < _TAN_MIN_VALUES:
        return np.multiply(np.cos(v, v), 0.5, v)
    # cos a / 2 = 1/(1 + t^2) - 1/2 with t = tan(a/2)
    t = np.tan(np.multiply(v, 0.5, v), v)
    return np.subtract(np.divide(1.0, _one_plus_square(t), t), 0.5, t)


# The frozen-x protocol (see ModelConfig): both drifts read x only through
# sqrt|x|, so a stepper with x frozen computes it once for the two.
heat_drift_b.x_part = sqrt_abs
heat_drift_f.x_part = sqrt_abs


def _check_grid(n_modes: int, m_points: int):
    if m_points < n_modes:
        raise ConfigError(f"m_points={m_points} must be >= n_modes={n_modes}")
    if n_modes * m_points > MAX_TRANSFORM_SIZE:
        raise ConfigError(
            f"n_modes * m_points = {n_modes * m_points} exceeds "
            f"{MAX_TRANSFORM_SIZE}, past which the dense sine transforms are slow"
        )


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
        _check_grid(self.n_modes, self.m_points)
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
    aliasing of the pointwise drifts.  ``n_modes`` must be an integer >= 1.
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if not 0.0 < r < 1.0 / 7.0:
            raise ConfigError(
                f"{name} must lie in (0, 1/7) for the heat-example spectra, got {r}"
            )
    if _checked_count(n_modes, "n_modes", ConfigError) < 1:
        raise ConfigError("n_modes must be positive")
    if m_points is None:
        m_points = 2 * n_modes
    # before the spectra are allocated: a config can ask for 10^9 modes
    _check_grid(n_modes, m_points)
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


@dataclass
class AssumptionReport:
    """Per-assumption verdicts; every "holds" is backed by a finite witness."""

    checks: dict[str, AssumptionCheck] = field(default_factory=dict)

    def __getitem__(self, name: str) -> AssumptionCheck:
        return self.checks[name]

    def add(self, name: str, holds: bool, witness: dict, detail: str) -> None:
        """Record ``name`` as "holds" or "fails" by ``holds``."""
        self.checks[name] = AssumptionCheck(name, "holds" if holds else "fails",
                                            witness, detail)

    @property
    def all_hold(self) -> bool:
        return all(c.status == "holds" for c in self.checks.values())

    def to_dict(self) -> dict:
        return {name: asdict(c) for name, c in sorted(self.checks.items())}

    def summary(self) -> str:
        lines = []
        for name in sorted(self.checks):
            c = self.checks[name]
            lines.append(f"{name}: {c.status}" + (f"  ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


def _power_series_tail(coef: float, p: float, k_from: int) -> float:
    """Euler-Maclaurin bound for sum_{k > k_from} coef * k^{-p}, p > 1."""
    x = float(k_from + 1)
    return coef * (x ** (1.0 - p) / (p - 1.0) + 0.5 * x ** (-p) + p * x ** (-p - 1.0) / 12.0)


def _sup_scaled_ou_factor(rho: float, extra: float) -> float:
    """sup_{s>0} h(s) = s^e e^{-s} (1 - e^{-2s})^{-1/2}, e = (1+rho)/2 + extra.

    s times the log-derivative of h, e - s - s/(e^{2s} - 1), falls
    strictly from e - 1/2 at s = 0+.  So for e > 1/2 the sup is h at its
    root, which bisection on (0, e] finds; for e = 1/2 it is the limit
    1/sqrt(2) at s = 0+, and for e < 1/2 h is unbounded there.
    """
    e = (1.0 + rho) / 2.0 + extra
    if e <= 0.5:
        return math.sqrt(0.5) if e == 0.5 else math.inf
    lo, hi = 0.0, e
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if e - mid - mid / math.expm1(2.0 * mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid**e * math.exp(-mid) / math.sqrt(-math.expm1(-2.0 * mid))


def _lambda_norm_integral(a_lam, p_lam, p_q, power: float,
                          extra: float = 0.0) -> tuple[float, float]:
    """(small-t exponent c, bound) of int_0^inf e^{-t} ||Lambda(t)||^power dt
    for Lambda(t) = lambda^extra Q(t)^{-1/2} e^{tA} under the power laws
    lambda_k = a_lam k^p_lam and q_k = k^-p_q.

    Mode k's norm is sqrt(2 / a_lam^rho) t^{-c/power} g(lambda_k t), with
    rho = p_q / p_lam, c = ((1 + rho)/2 + extra) * power and g the function
    of :func:`_sup_scaled_ou_factor`.  So ||Lambda(t)|| <= c0 t^{-c/power},
    c0 = sqrt(2 / a_lam^rho) sup g, and the integral is at most
    c0^power Gamma(1 - c): finite exactly when c < 1, else inf.
    """
    rho = p_q / p_lam
    c = ((1.0 + rho) / 2.0 + extra) * power
    if c >= 1.0:
        return c, math.inf
    c0 = math.sqrt(2.0 / a_lam**rho) * _sup_scaled_ou_factor(rho, extra)
    return c, c0**power * math.gamma(1.0 - c)


def check_assumptions(config: ModelConfig, theta: float, kappa1: float | None = None,
                      k_trunc: int = 20_000, seed: int = 7) -> AssumptionReport:
    """Verify the structural assumptions for a diagonal model.

    The spectra must declare their power laws, lambda_k = c k^p
    (``growth_exponent`` and ``growth_coefficient``) and q_k = k^{-2r}
    (``decay_exponent``); a model without them raises ConfigError.
    ``theta`` is the time-regularity exponent of the trace integrals over
    [0, 1] (must lie in (0, 1)), each bounded by its integral over
    [0, inf).  Every series is coef * sum_k k^-s, summed with a tail bound;
    a divergent one (s <= 1) is reported as "fails" together with its
    partial sums as the divergence witness.
    A1 is spot-checked on 200 random field pairs drawn from ``seed``, an
    integer in [0, 2^64) (F's pairs from seed + 1 mod 2^64); A5
    takes kappa2 at half its admissible maximum, needs every gradient
    integral's exponent c below 1 and stores their closed-form bounds.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    seed = _checked_seed(seed)
    if kappa1 is not None and not math.isfinite(kappa1):
        raise ConfigError(f"kappa1 must be finite, got {kappa1}")
    if config.eigs.growth_exponent is None or None in (config.q1.decay_exponent,
                                                       config.q2.decay_exponent):
        raise ConfigError("check_assumptions needs declared power laws: the "
                          "operator spectrum's growth_exponent and both noise "
                          "spectra's decay_exponent")
    holder_pairs = 200
    report = AssumptionReport()
    # lambda_k = a_lam k^p_lam, q_k = k^-pq
    a_lam = float(config.eigs.growth_coefficient)
    p_lam = float(config.eigs.growth_exponent)
    pq1 = 2.0 * float(config.q1.decay_exponent)
    pq2 = 2.0 * float(config.q2.decay_exponent)

    # A1: boundedness/Hoelder continuity of the drifts (declared constants,
    # spot-checked empirically on random low-mode pairs); a non-finite
    # quotient or a sampled value above the declared bound refutes it.
    qb, sup_b = _holder_and_sup(config.drift_b, config.alpha, config.beta,
                                holder_pairs, config.n_modes, config.m_points, seed)
    qf, sup_f = _holder_and_sup(config.drift_f, config.gamma, 1.0, holder_pairs,
                                config.n_modes, config.m_points,
                                (seed + 1) % 2**64)
    report.add(
        "A1_drift_regularity",
        math.isfinite(qb) and math.isfinite(qf)
        and sup_b <= config.bound_b and sup_f <= config.bound_f,
        {"b_max_quotient": qb, "f_max_quotient": qf,
         "b_sampled_sup": sup_b, "f_sampled_sup": sup_f,
         "bound_b": config.bound_b, "bound_f": config.bound_f,
         "alpha": config.alpha, "beta": config.beta, "gamma": config.gamma,
         "l_f": config.l_f},
        "declared constants; empirical max quotients and sup|B|, sup|F| over "
        f"{holder_pairs} random pairs",
    )

    # A2: positive, nondecreasing (OperatorSpectrum enforces both) and
    # unbounded, which the declared law lambda_k = a_lam k^p_lam is when p_lam > 0.
    eig = config.eigs.eigenvalues
    report.add(
        "A2_diagonal_operator", p_lam > 0,
        {"lambda_1": float(eig[0]), "lambda_N": float(eig[-1]),
         "growth_exponent": p_lam},
        "requires lambda_k increasing to infinity",
    )

    k = np.arange(1, k_trunc + 1, dtype=float)

    def series_check(name, coef, s, detail, **witness):
        """coef * sum_k k^-s: "holds" with the partial sum to K and its
        tail bound if s > 1, else "fails" with the partial sums to K and 2K."""
        partial = coef * float(np.sum(k ** -s))
        if s > 1.0:
            tail = _power_series_tail(coef, s, k_trunc)
            witness.update(partial_sum=partial, tail_bound=tail, total=partial + tail)
        else:
            k2 = np.arange(1, 2 * k_trunc + 1, dtype=float)
            detail += " diverges (index exponent <= 1)"
            witness.update(partial_sum_K=partial,
                           partial_sum_2K=coef * float(np.sum(k2 ** -s)))
        witness.update(series_k_exponent=s, K=k_trunc)
        report.add(name, s > 1.0, witness, detail)

    # A3: sum lambda_k^{zeta-1} < infinity for some zeta in (0, 1), which
    # needs p_lam > 1; zeta is taken mid-interval.
    if p_lam > 1.0:
        zeta_max = 1.0 - 1.0 / p_lam
        zeta = 0.5 * zeta_max
        a3 = {"zeta": zeta, "admissible_zeta_interval": (0.0, zeta_max)}
        a3_detail = f"sum lambda_k^(zeta-1) finite for zeta in (0, {zeta_max:g})"
    else:
        zeta = 0.5
        a3 = {"zeta_tried": zeta}
        a3_detail = "sum lambda_k^(zeta-1) for every zeta < 1"
    series_check("A3_spectrum_summability", a_lam ** (zeta - 1.0),
                 p_lam * (1.0 - zeta), a3_detail, **a3)

    # A4: the three trace integrals over [0, inf), which bound A41's and
    # A42's [0, T] integrals and are finite exactly when those are.
    theta_max = min(1.0, 1.0 + (pq1 - 1.0) / p_lam) if p_lam > 0 else 0.0
    series_check(
        "A41_weighted_trace",
        (2.0 * a_lam) ** (theta - 1.0) * math.gamma(1.0 - theta),
        pq1 + p_lam * (1.0 - theta),
        f"int_0^inf r^-theta ||e^(rA) sqrt(Q1)||_HS^2 dr bounds the [0, T] "
        f"integral, theta={theta:g}, admissible theta in (0, {theta_max:g})",
    )
    series_check(
        "A42_smoothed_trace", a_lam ** (theta - 1.0) / 2.0,
        pq1 + p_lam * (1.0 - theta),
        "int_0^inf ||(-A)^(theta/2) e^(rA) sqrt(Q1)||_HS^2 dr bounds the "
        "[0, T] integral",
    )
    series_check(
        "A43_fast_trace", 1.0 / (2.0 * a_lam), pq2 + p_lam,
        "int_0^inf ||e^(rA) sqrt(Q2)||_HS^2 dr (stationary fast variance)",
    )

    # A5: integrability of the regularized inverse-covariance norms.
    required_k1 = max(min(config.alpha, config.beta, config.gamma),
                      1.0 - config.rough_index)
    if kappa1 is None:
        kappa1 = required_k1
    if p_lam <= 0:
        report.checks["A5_gradient_integrability"] = AssumptionCheck(
            "A5_gradient_integrability", "not-checkable-numerically",
            {"spectrum_growth": p_lam}, "no spectral growth",
        )
    else:
        c1, i1 = _lambda_norm_integral(a_lam, p_lam, pq1, 1.0 + kappa1)
        c2_, i2 = _lambda_norm_integral(a_lam, p_lam, pq2, 1.0 + kappa1)
        rho1 = pq1 / p_lam
        kappa2_max = min(0.5, (1.0 - rho1) / 2.0)
        kappa2 = 0.5 * kappa2_max if kappa2_max > 0 else 0.0
        if kappa2 > 0.0:
            cg, ig = _lambda_norm_integral(a_lam, p_lam, pq1, 1.0, extra=kappa2)
        else:
            cg, ig = math.inf, math.inf
        report.add(
            "A5_gradient_integrability",
            kappa1 >= required_k1 and math.isfinite(i1) and math.isfinite(i2)
            and math.isfinite(ig),
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
    report.add(
        "A6_spectral_gap", gap > 0,
        {"lambda_1": config.eigs.lambda_1, "l_f": config.l_f, "gap": gap},
        "lambda_1 - L_F > 0",
    )
    return report


# ----------------------------------------------------------------------
# empirical regularity spot-checks
# ----------------------------------------------------------------------


def _low_mode_fields(rng: np.random.Generator, shape: tuple,
                     n_modes: int) -> np.ndarray:
    """Coefficient arrays of ``shape + (n_modes,)`` with independent
    N(0, 1/k^2) entries in the first min(8, n_modes) modes k and zeros
    above, drawn in C order (so one call of shape (2, n) draws what two
    calls of shape (n,) would)."""
    act = min(8, n_modes)
    c = np.zeros(shape + (n_modes,))
    k = np.arange(1, act + 1, dtype=float)
    c[..., :act] = rng.standard_normal(shape + (act,)) / k
    return c


def _on_grid(f: DriftFn, x_grid: np.ndarray, y_grid: np.ndarray) -> np.ndarray:
    """f's values at grid values x, y, broadcast to their shape (a drift
    may return one row, or a constant)."""
    return np.broadcast_to(f(x_grid, y_grid), x_grid.shape)


def _holder_and_sup(f: DriftFn, alpha: float, beta: float, n_pairs: int,
                    n_modes: int, m_points: int, seed: int) -> tuple[float, float]:
    """:func:`empirical_holder`'s quotient and the max |f| on the grid over
    the same fields, from one evaluation of f per field (NaN on a NaN)."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_modes < 1:
        raise ConfigError(f"n_modes must be >= 1, got {n_modes}")
    rng = np.random.default_rng(_checked_seed(seed))
    x1, y1 = _low_mode_fields(rng, (2, n_pairs), n_modes)
    s = np.array([0.03, 0.1, 0.3, 1.0])[rng.integers(0, 4, size=(n_pairs, 1))]
    dx, dy = _low_mode_fields(rng, (2, n_pairs), n_modes)
    x2, y2 = x1 + s * dx, y1 + s * dy

    def g(c):
        return coeffs_to_grid_values(c, m_points)
    f1, f2 = _on_grid(f, g(x1), g(y1)), _on_grid(f, g(x2), g(y2))
    sup = float(max(np.max(np.abs(f1)), np.max(np.abs(f2))))
    w = PI / (m_points + 1)
    with np.errstate(all="ignore"):  # inf - inf is the NaN that A1 reports
        num = np.sqrt(w * np.sum((f1 - f2)**2, axis=-1))
    den = (np.linalg.norm(x1 - x2, axis=-1) ** alpha
           + np.linalg.norm(y1 - y2, axis=-1) ** beta)
    mask = den > 1e-14  # identical pairs have no quotient; none at all gives 0
    return float(np.max(num[mask] / den[mask], initial=0.0)), sup


def empirical_holder(f: DriftFn, alpha: float, beta: float, n_pairs: int,
                     n_modes: int, m_points: int, seed: int = 0) -> float:
    """Max quotient |f(x1,y1)-f(x2,y2)| / (|x1-x2|^alpha + |y1-y2|^beta).

    The pairs are random fields of ``n_modes`` coefficients, nonzero in
    the first 8 (see :func:`_low_mode_fields`); a pair's second member
    perturbs the first at a scale drawn from 0.03, 0.1, 0.3 and 1.
    Norms of f-differences use the grid quadrature (the honest L^2
    estimate for non-band-limited outputs); input norms are spectral.
    A finite maximum that is stable as ``n_pairs`` grows is evidence,
    not proof, of the declared regularity.  ``n_modes`` below 1 raises
    ConfigError and a seed outside the integers in [0, 2^64) ValueError,
    before any draw.
    """
    return _holder_and_sup(f, alpha, beta, n_pairs, n_modes, m_points, seed)[0]
