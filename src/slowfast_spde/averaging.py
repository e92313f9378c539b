"""Estimation of the averaged drift from the frozen dynamics.

The effective drift of the slow equation at a point x is the average
of B(x, .) against the invariant law of the fast equation frozen at x.
Under the spectral-gap condition lambda_1 - L_F > 0 that law is unique
and mixing is exponential, so a single long trajectory after burn-in
estimates the average (default strategy), with independent replicas
supplying error bars.  The burn-in default is derived from the mixing
bound: bias below ``bias_tol`` requires

    t_burn >= 2 / ((lambda_1 - L_F) * beta) * log(1 / bias_tol).

:class:`BbarOracle` wraps the estimator as a memoized callable for the
averaged-equation solver, keyed by quantized low-mode coordinates; the
averaged drift is Hoelder in x, so nearby states share a value.  The
cache uses last-writer-wins semantics on identical keys (any two
writers hold statistically equivalent values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ErgodicityError, IntegrationError
from .model import ModelConfig
from .noise import NoiseStream, derive_substream
from .simulate import _drift_coeffs, _frozen_fast
from .spectral import coeffs_to_grid_values, grid_values_to_coeffs

__all__ = [
    "AveragingParams",
    "BbarEstimate",
    "BbarOracle",
    "MixingDiagnostic",
    "estimate_bbar",
    "estimate_bbar_batch",
    "mixing_diagnostic",
]


@dataclass(frozen=True)
class AveragingParams:
    """Burn-in/averaging horizons, substep and replica count."""

    t_burn: float
    t_avg: float
    dt: float = 0.02
    n_replicas: int = 4
    strategy: str = "time-average"  # or "ensemble-at-horizon"

    def __post_init__(self):
        if self.t_burn < 0 or self.t_avg <= 0 or self.dt <= 0:
            raise ConfigError("horizons and dt must be positive")
        if self.n_replicas < 2:
            raise ConfigError("need at least 2 replicas for an error bar")
        if self.strategy not in ("time-average", "ensemble-at-horizon"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")

    @classmethod
    def for_model(cls, config: ModelConfig, bias_tol: float = 1e-3,
                  t_avg: float = 40.0, dt: float = 0.02, n_replicas: int = 4,
                  strategy: str = "time-average") -> "AveragingParams":
        """Burn-in from the exponential-mixing bound at target bias."""
        gap = config.spectral_gap
        if gap <= 0:
            raise ErgodicityError(
                f"spectral gap lambda_1 - L_F = {gap:g} is not positive"
            )
        t_burn = 2.0 / (gap * config.beta) * math.log(1.0 / bias_tol)
        return cls(t_burn=t_burn, t_avg=t_avg, dt=dt, n_replicas=n_replicas,
                   strategy=strategy)


@dataclass(frozen=True)
class BbarEstimate:
    """Monte-Carlo estimate of the averaged drift at one point."""

    x: np.ndarray
    value: np.ndarray
    stderr: float
    params: AveragingParams
    seed: int


def _require_gap(config: ModelConfig):
    if config.spectral_gap <= 0:
        raise ErgodicityError(
            "refusing to average: spectral gap lambda_1 - L_F = "
            f"{config.spectral_gap:g} <= 0, ergodicity of the frozen "
            "dynamics is not guaranteed"
        )


def estimate_bbar_batch(config: ModelConfig, xs: np.ndarray, params: AveragingParams,
                        seed: int, y0: np.ndarray | None = None,
                        stream: NoiseStream | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-drift estimates at a batch of points.

    ``xs`` has shape (P, N); returns (values (P, N), stderr (P,)).
    Each point gets ``n_replicas`` independent frozen trajectories; the
    replica spread yields the (scalar, L^2-scale) standard error.  The
    whole batch advances as one array, so P and R cost one vectorized
    step each.
    """
    _require_gap(config)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n_p, n = xs.shape
    if n != config.n_modes:
        raise ConfigError("point dimension does not match config")
    reps = params.n_replicas
    big = n_p * reps

    if y0 is None:
        y = np.zeros((big, n))
    else:
        y0 = np.asarray(y0, dtype=float)
        if y0.ndim == 1:
            y = np.broadcast_to(y0, (big, n)).copy()
        elif y0.shape == (n_p, n):
            y = np.repeat(y0, reps, axis=0)
        else:
            y = y0.reshape(big, n).copy()
    if stream is None:
        stream = derive_substream(seed, 0, "bbar", n)

    x_big = np.repeat(xs, reps, axis=0)
    x_grid = coeffs_to_grid_values(x_big, config.m_points)
    step = _frozen_fast(config, params.dt)
    n_burn = int(round(params.t_burn / params.dt))
    n_avg = max(1, int(round(params.t_avg / params.dt)))

    for _ in range(n_burn):
        y = step(x_grid, y, stream.standard_normals(big))

    # Projection is linear, so the window's drift is averaged on the grid
    # and projected once; NaN and inf survive the sum, so one check after
    # the window rejects a non-finite value on any step.
    if params.strategy == "time-average":
        b_grid = np.zeros((big, config.m_points))
        for _ in range(n_avg):
            y_grid = coeffs_to_grid_values(y, config.m_points)
            b_grid += config.drift_b(x_grid, y_grid)
            y = step(x_grid, y, stream.standard_normals(big), y_grid)
        b_grid /= n_avg
    else:  # ensemble-at-horizon: one sample per replica at the horizon
        b_grid = config.drift_b(x_grid, coeffs_to_grid_values(y, config.m_points))
    if not np.all(np.isfinite(b_grid)):
        raise IntegrationError("slow drift returned a non-finite value")
    per_replica = grid_values_to_coeffs(b_grid, n).reshape(n_p, reps, n)

    values = per_replica.mean(axis=1)
    dev = per_replica - values[:, None, :]
    stderr = np.sqrt(np.sum(dev**2, axis=(1, 2)) / (reps * (reps - 1)))
    return values, stderr


def estimate_bbar(config: ModelConfig, x, params: AveragingParams, seed: int,
                  y0=None) -> BbarEstimate:
    """Averaged drift at a single point; see :func:`estimate_bbar_batch`.

    The result is independent of the initial fast point up to the
    reported standard error (exponential ergodicity).
    """
    x = np.asarray(x, dtype=float)
    y0b = None if y0 is None else np.asarray(y0, dtype=float)
    values, stderr = estimate_bbar_batch(config, x[None, :], params, seed, y0=y0b)
    return BbarEstimate(x=x, value=values[0], stderr=float(stderr[0]),
                        params=params, seed=seed)


class BbarOracle:
    """Memoized averaged-drift callable for the averaged-equation solver.

    Keys quantize the first ``key_modes`` coefficients at ``resolution``
    (higher modes are ignored: the averaged drift is Hoelder in x, so
    it is insensitive to small perturbations).  Cache hits return the
    stored value; misses trigger one batched estimate per unique key.
    """

    def __init__(self, config: ModelConfig, params: AveragingParams, seed: int,
                 key_modes: int = 8, resolution: float = 1e-2):
        if resolution <= 0:
            raise ConfigError("cache resolution must be positive (0 would "
                              "memoize every float state, unbounded memory)")
        _require_gap(config)
        self.config = config
        self.params = params
        self.seed = int(seed)
        self.key_modes = min(key_modes, config.n_modes)
        self.resolution = float(resolution)
        self._cache: dict[tuple, tuple[np.ndarray, float]] = {}
        self._calls = 0
        self._hits = 0
        self._estimates = 0

    def _key(self, x_row: np.ndarray) -> tuple:
        q = np.round(x_row[: self.key_modes] / self.resolution).astype(np.int64)
        return tuple(q.tolist())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = x[None, :] if single else x
        self._calls += xb.shape[0]
        keys = [self._key(row) for row in xb]
        self._hits += sum(1 for k in keys if k in self._cache)
        missing: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            if key not in self._cache and key not in missing:
                missing[key] = i
        if missing:
            idx = np.fromiter(missing.values(), dtype=int)
            vals, errs = estimate_bbar_batch(
                self.config, xb[idx], self.params,
                seed=self.seed, stream=derive_substream(
                    self.seed, self._estimates, "bbar", self.config.n_modes))
            self._estimates += 1
            for key, v, e in zip(missing.keys(), vals, errs):
                self._cache[key] = (v, float(e))
        out = np.stack([self._cache[k][0] for k in keys])
        return out[0] if single else out

    def stderr_at(self, x: np.ndarray) -> float:
        """Standard error stored for the cache cell containing x."""
        key = self._key(np.asarray(x, dtype=float))
        if key not in self._cache:
            self(x)
        return self._cache[key][1]

    @property
    def stats(self) -> dict:
        return {"calls": self._calls, "cache_hits": self._hits,
                "cached_cells": len(self._cache),
                "batched_estimates": self._estimates}


@dataclass
class MixingDiagnostic:
    """Fitted exponential decay of observables of the frozen dynamics."""

    rate: float
    rate_ci: float
    per_functional: dict[str, tuple[float, float]]
    window: tuple[float, float]
    insufficient_data: bool
    times: np.ndarray
    signals: np.ndarray  # (n_times, n_functionals) distance to equilibrium
    stderrs: np.ndarray


def _line_fit(x, y, w=None) -> tuple[float, float, float]:
    """Weighted least squares of y on x (unit weights by default): (slope,
    intercept, 1.96x the slope's standard error, 0 below 3 points)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    w = np.ones_like(y) if w is None else w
    sw = np.sum(w)
    mx = np.sum(w * x) / sw
    my = np.sum(w * y) / sw
    sxx = np.sum(w * (x - mx) ** 2)
    slope = float(np.sum(w * (x - mx) * (y - my)) / sxx)
    intercept = float(my - slope * mx)
    resid = y - (slope * x + intercept)
    dof = x.size - 2
    s2 = float(np.sum(w * resid**2) / dof) if dof > 0 else 0.0
    return slope, intercept, 1.96 * math.sqrt(s2 / sxx)


def _fit_log_decay(times, signal, floor):
    """Decay rate of log(signal) on the initial window where signal > 4*floor."""
    ok = signal > 4.0 * np.maximum(floor, 1e-300)
    cut = int(np.argmin(ok)) if not ok.all() else len(ok)
    if cut < 4:
        return math.nan, math.inf, cut
    slope, _, ci = _line_fit(times[:cut], np.log(signal[:cut]))
    return -slope, ci, cut


def mixing_diagnostic(config: ModelConfig, x, horizon: float, n_replicas: int,
                      seed: int, dt: float = 0.02, displacement: float = 3.0,
                      n_track_modes: int = 3) -> MixingDiagnostic:
    """Measure the relaxation rate of the frozen dynamics at ``x``.

    Starts an ensemble displaced along the first mode and fits the
    exponential decay of |E phi(Y_t) - mu(phi)| for phi among the first
    mode coordinates and the matching components of B(x, .).  The
    equilibrium value mu(phi) is taken from the final quarter of the
    horizon.  A horizon shorter than the relaxation time (fewer than 4
    usable fit points) is flagged as insufficient data.
    """
    _require_gap(config)
    x = np.asarray(x, dtype=float)
    n = config.n_modes
    reps = int(n_replicas)
    y = np.zeros((reps, n))
    y[:, 0] = displacement
    stream = derive_substream(seed, 0, "mixing", n)
    x_grid = coeffs_to_grid_values(np.broadcast_to(x, (reps, n)), config.m_points)
    step = _frozen_fast(config, dt)
    n_steps = int(round(horizon / dt))
    k = n_track_modes
    names = [f"mode_{i+1}" for i in range(k)] + [f"B_mode_{i+1}" for i in range(k)]
    track_mean = np.empty((n_steps + 1, 2 * k))
    track_sq = np.empty((n_steps + 1, 2 * k))

    def record(i, y):
        y_grid = coeffs_to_grid_values(y, config.m_points)
        b = _drift_coeffs(config.drift_b, x_grid, y_grid, config)
        phi = np.concatenate([y[:, :k], b[:, :k]], axis=1)
        track_mean[i] = phi.mean(axis=0)
        track_sq[i] = (phi**2).mean(axis=0)
        return y_grid

    y_grid = record(0, y)
    for i in range(1, n_steps + 1):
        y = step(x_grid, y, stream.standard_normals(reps), y_grid)
        y_grid = record(i, y)

    times = np.arange(n_steps + 1) * dt
    var = np.maximum(track_sq - track_mean**2, 0.0) * reps / max(reps - 1, 1)
    se = np.sqrt(var / reps)
    tail = slice(max(1, 3 * (n_steps + 1) // 4), None)
    mu = track_mean[tail].mean(axis=0)
    signals = np.abs(track_mean - mu)

    per: dict[str, tuple[float, float]] = {}
    best = (math.nan, math.inf, -1.0)
    window_end = 0.0
    for j, name in enumerate(names):
        rate, ci, cut = _fit_log_decay(times, signals[:, j], se[:, j])
        per[name] = (rate, ci)
        if cut >= 4:
            dyn_range = signals[0, j] / max(float(se[-1, j]), 1e-300)
            if dyn_range > best[2]:
                best = (rate, ci, dyn_range)
                window_end = times[cut - 1]
    insufficient = not math.isfinite(best[1])
    return MixingDiagnostic(
        rate=best[0], rate_ci=best[1], per_functional=per,
        window=(0.0, window_end), insufficient_data=insufficient,
        times=times, signals=signals, stderrs=se,
    )
