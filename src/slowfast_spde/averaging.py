"""Estimation of the averaged drift from the frozen dynamics.

The effective drift of the slow equation at a point x is the average
of B(x, .) against the invariant law of the fast equation frozen at x.
Under the spectral-gap condition lambda_1 - L_F > 0 that law is unique
and mixing is exponential, so a single long trajectory after burn-in
estimates the average, with independent replicas
supplying error bars.  The burn-in default is derived from the mixing
bound: bias below ``bias_tol`` requires

    t_burn >= 2 / ((lambda_1 - L_F) * beta) * log(1 / bias_tol).

:class:`BbarOracle` wraps the estimator as a callable for the
averaged-equation solver: one batched estimate per call, over the
call's distinct rows.  Its first call burns in from y = 0; a later call
with as many query rows as the last one is warm, as in heterogeneous
multiscale methods: each row's replicas start from the final replica
states of the same row in the last call and run no burn-in, since the
slow state moves little between macro steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ErgodicityError
from .model import ModelConfig
from .noise import NoiseStream, _checked_seed, derive_substream
from .simulate import _drift_coeffs, _finite, _frozen_fast, _whole_steps
from .spectral import grid_values_to_coeffs

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
    """Burn-in/averaging horizons, substep and replica count; ``t_avg`` is
    a whole number of steps, ``t_burn`` is rounded to the nearest step."""

    t_burn: float
    t_avg: float
    dt: float = 0.02
    n_replicas: int = 4
    # Read-only: the averages are time averages along each replica.  Kept
    # as a constant because the benchmark's tracer reads it to count steps.
    strategy: ClassVar[str] = "time-average"

    def __post_init__(self):
        if not 0.0 <= self.t_burn < math.inf:
            raise ConfigError("t_burn must be finite and nonnegative, "
                              f"got {self.t_burn}")
        for name in ("t_avg", "dt"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {getattr(self, name)}")
        if _whole_steps(self.t_avg, self.dt, "t_avg") < 1:
            raise ConfigError(f"t_avg = {self.t_avg:g} is shorter than one step")
        if self.n_replicas < 2:
            raise ConfigError("need at least 2 replicas for an error bar")

    @classmethod
    def for_model(cls, config: ModelConfig, bias_tol: float = 1e-3,
                  t_avg: float = 40.0, dt: float = 0.02, n_replicas: int = 4,
                  ) -> "AveragingParams":
        """Burn-in from the exponential-mixing bound at target bias."""
        _require_gap(config)
        t_burn = 2.0 / (config.spectral_gap * config.beta) * math.log(1.0 / bias_tol)
        return cls(t_burn=t_burn, t_avg=t_avg, dt=dt, n_replicas=n_replicas)


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


def _state_counts(params: AveragingParams) -> tuple[int, int]:
    """Burn-in and sampled states of one frozen path; the path takes one
    step fewer than it has states."""
    return (int(round(params.t_burn / params.dt)),
            _whole_steps(params.t_avg, params.dt, "t_avg"))


def _initial_states(y0, n_p: int, reps: int, n: int) -> np.ndarray:
    """Fresh (P*R, N) starting states from ``y0`` of an accepted shape."""
    big = n_p * reps
    if y0 is None:
        return np.zeros((big, n))
    y0 = np.asarray(y0, dtype=float)
    if y0.shape == (n,):
        return np.broadcast_to(y0, (big, n)).copy()
    if y0.shape == (n_p, n):
        return np.repeat(y0, reps, axis=0)
    if y0.shape in ((big, n), (n_p, reps, n)):
        return y0.reshape(big, n).copy()
    raise ConfigError(
        f"y0 has shape {y0.shape}; accepted shapes are (N,), (P, N), "
        f"(P*R, N) and (P, R, N), here ({n},), ({n_p}, {n}), ({big}, {n}) "
        f"and ({n_p}, {reps}, {n})")


def estimate_bbar_batch(config: ModelConfig, xs: np.ndarray, params: AveragingParams,
                        seed: int, y0: np.ndarray | None = None,
                        stream: NoiseStream | None = None, *,
                        y_final: np.ndarray | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-drift estimates at a batch of points.

    ``xs`` has shape (P, N); returns (values (P, N), stderr (P,)).
    Each point gets ``n_replicas`` independent frozen trajectories; the
    replica spread yields the (scalar, L^2-scale) standard error.  The
    whole batch advances as one array, so P and R cost one vectorized
    step each.  The paths start at ``y0``: zeros by default, else of
    shape (N,) for every path, (P, N) per point, or (P*R, N) or
    (P, R, N) per path.  ``y_final``, if given, an array of shape
    (P*R, N), receives the paths' final states, point by point and
    replica by replica.
    """
    _require_gap(config)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n_p, n = xs.shape
    if n != config.n_modes:
        raise ConfigError("point dimension does not match config")
    reps = params.n_replicas
    big = n_p * reps
    y = _initial_states(y0, n_p, reps, n)
    if stream is None:
        stream = derive_substream(seed, 0, "bbar", n)

    step = _frozen_fast(config, params.dt)(np.repeat(xs, reps, axis=0), big)
    n_burn, n_avg = _state_counts(params)

    # States 0 .. n_burn + n_avg - 1 with one step between neighbours; the
    # last n_avg are sampled.  Projection is linear, so the drift is
    # averaged on the grid and projected once; NaN and inf survive the sum,
    # so one check after the loop rejects a non-finite value on any sample.
    b_grid = np.zeros((big, config.m_points))
    for i, y_grid in enumerate(step.states(y, stream, n_burn + n_avg - 1)):
        if i >= n_burn:
            b_grid += step.drift_b(y_grid)
    b_grid /= n_avg
    if y_final is not None:
        y_final[...] = y
    per_replica = grid_values_to_coeffs(_finite(b_grid, config, "slow drift"),
                                        n).reshape(n_p, reps, n)

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
    values, stderr = estimate_bbar_batch(config, x[None, :], params, seed, y0=y0)
    return BbarEstimate(x=x, value=values[0], stderr=float(stderr[0]),
                        params=params, seed=seed)


class BbarOracle:
    """Averaged-drift callable for the averaged-equation solver.

    The k-th call makes one :func:`estimate_bbar_batch` over its distinct
    rows (exact equality, first-occurrence order) on the substream
    ``(seed, k, "bbar")`` and returns each row its identical row's value.

    Warm start: the oracle keeps, for every query row of its last call,
    the final states of the replicas that estimated it (a row repeated in
    a call gets its first occurrence's states), shaped (rows, R, N).  A
    call with the same number of query rows is warm: each distinct row
    starts from the kept states of its first occurrence and runs
    ``params`` with ``t_burn = 0``.  The first call, and a call whose row
    count differs from the last call's, is cold: it starts at y = 0 and
    burns in for the declared ``t_burn``.  Row i of the averaged solver
    is one path, so its states follow that path's slow state from macro
    step to macro step.  The kept states live on this instance only; a
    fresh oracle reproduces a run bit for bit.

    ``stats``: ``calls`` rows queried, ``cache_hits`` rows answered by an
    identical row's estimate in the same call, ``cached_cells`` rows
    estimated, ``batched_estimates`` estimates made, ``warm_calls`` of
    them warm, ``path_steps`` frozen steps run, summed over replica paths.
    """

    def __init__(self, config: ModelConfig, params: AveragingParams, seed: int):
        _require_gap(config)
        self.config = config
        self.params = params
        self.seed = _checked_seed(seed)
        self._states: np.ndarray | None = None
        self._calls = 0
        self._rows_estimated = 0
        self._estimates = 0
        self._warm_calls = 0
        self._path_steps = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xb = np.atleast_2d(x)
        _, first, inverse = np.unique(xb, axis=0, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rows = first[order]
        warm = self._states is not None and self._states.shape[0] == xb.shape[0]
        params = replace(self.params, t_burn=0.0) if warm else self.params
        reps, n = params.n_replicas, self.config.n_modes
        final = np.empty((rows.size * reps, n))
        vals, _ = estimate_bbar_batch(
            self.config, xb[rows], params, seed=self.seed,
            y0=self._states[rows] if warm else None,
            stream=derive_substream(self.seed, self._estimates, "bbar", n),
            y_final=final)
        # each query row's index among the estimated rows
        slot = np.argsort(order)[inverse.reshape(-1)]
        self._states = final.reshape(rows.size, reps, n)[slot]
        n_burn, n_avg = _state_counts(params)
        self._calls += xb.shape[0]
        self._rows_estimated += rows.size
        self._estimates += 1
        self._warm_calls += warm
        self._path_steps += rows.size * reps * (n_burn + n_avg - 1)
        out = vals[slot]
        return out[0] if x.ndim == 1 else out

    @property
    def stats(self) -> dict:
        return {"calls": self._calls,
                "cache_hits": self._calls - self._rows_estimated,
                "cached_cells": self._rows_estimated,
                "batched_estimates": self._estimates,
                "warm_calls": self._warm_calls,
                "path_steps": self._path_steps}


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
                      seed: int) -> MixingDiagnostic:
    """Measure the relaxation rate of the frozen dynamics at ``x``.

    Starts an ensemble displaced by 3 along the first mode, steps it by
    0.02 (``horizon`` must be a whole number of steps) and fits the
    exponential decay of |E phi(Y_t) - mu(phi)| for phi among the first
    3 mode coordinates and the matching components of B(x, .).  The
    equilibrium value mu(phi) is taken from the final quarter of the
    horizon.  A horizon shorter than the relaxation time (fewer than 4
    usable fit points) is flagged as insufficient data.
    """
    _require_gap(config)
    reps = int(n_replicas)
    if reps < 2:
        raise ConfigError("need at least 2 replicas for an error bar")
    x = np.asarray(x, dtype=float)
    n = config.n_modes
    dt, k = 0.02, 3
    y = np.zeros((reps, n))
    y[:, 0] = 3.0
    stream = derive_substream(seed, 0, "mixing", n)
    step = _frozen_fast(config, dt)(np.broadcast_to(x, (reps, n)), reps)
    n_steps = _whole_steps(horizon, dt, "horizon")
    names = [f"mode_{i+1}" for i in range(k)] + [f"B_mode_{i+1}" for i in range(k)]
    track_mean = np.empty((n_steps + 1, 2 * k))
    track_var = np.empty((n_steps + 1, 2 * k))

    for i, y_grid in enumerate(step.states(y, stream, n_steps)):
        b = _drift_coeffs(step.drift_b(y_grid), config)
        phi = np.concatenate([y[:, :k], b[:, :k]], axis=1)
        track_mean[i] = phi.mean(axis=0)
        # two passes about the first replica: replicas that agree give
        # exactly 0, where E[phi^2] - E[phi]^2 leaves rounding noise
        track_var[i] = np.var(phi - phi[:1], axis=0, ddof=1)

    times = np.arange(n_steps + 1) * dt
    se = np.sqrt(track_var / reps)
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
