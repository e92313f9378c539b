"""Mild (exponential-Euler) integrators for the two-scale system.

All integrators share one scheme: over a step the linear part and the
stochastic convolution are applied exactly per mode (see
:mod:`slowfast_spde.noise`) while the nonlinear drift is held at the
step start and evaluated pseudospectrally (to grid, pointwise, back).
Every observed error therefore comes from the drift freezing and from
the time-scale separation, never from the linear part or the noise.

Every loop of the package over the frozen fast equation (the coupled
substeps, the frozen and auxiliary integrators, the averaged-drift
estimator and the frozen-dynamics experiments) steps with one private
stepper, :func:`_frozen_fast`; its drift guard raises
:class:`IntegrationError` naming the grid point of a non-finite value.

Four integrators are provided:

* :func:`simulate_slow_fast` -- the coupled system; the fast equation
  is resolved with substeps h_f = eps * h_tilde, so the relaxation is
  resolved uniformly in eps.  Within a macro step the slow argument of
  the fast drift is frozen at the macro-step start.
* :func:`simulate_frozen` -- the fast equation with the slow argument
  held fixed, run at its own time scale.
* :func:`simulate_averaged` -- the effective slow equation driven by an
  averaged-drift callable; consumes the slow noise stream in exactly
  the same order as :func:`simulate_slow_fast` (one draw per macro
  step), which is the coupling contract behind every strong-error
  comparison.
* :func:`simulate_auxiliary_fast` -- the fast equation with the slow
  argument frozen blockwise at X_{k delta}, driven by a replay of the
  same fast noise stream.

States are coefficient arrays with the mode axis last; a leading batch
axis propagates through, so a Monte-Carlo ensemble is one array.  One
trajectory (or batch) owns its streams; nothing here shares mutable
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import ModelConfig
from .noise import NoiseStream, conv_increment_law
from .spectral import coeffs_to_grid_values, grid_points, grid_values_to_coeffs

__all__ = [
    "StepScheme",
    "SlowFastState",
    "Trajectory",
    "step_slow_fast",
    "simulate_slow_fast",
    "simulate_frozen",
    "simulate_averaged",
    "simulate_auxiliary_fast",
]


@dataclass(frozen=True)
class StepScheme:
    """Macro step and fast-substep rule h_f = eps * fast_substep_factor.

    The substep count per macro step is ceil(dt_macro / (eps * factor)),
    so the fast relaxation time O(eps) is always resolved; the substep
    is then dt_macro / n_sub exactly.
    """

    dt_macro: float
    fast_substep_factor: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.dt_macro < math.inf:
            raise ConfigError("dt_macro must be finite and positive, "
                              f"got {self.dt_macro}")
        if not 0.0 < self.fast_substep_factor <= 1.0:
            raise ConfigError("fast_substep_factor must lie in (0, 1]")

    def n_substeps(self, eps: float) -> int:
        return max(1, math.ceil(self.dt_macro / (eps * self.fast_substep_factor)))


@dataclass
class SlowFastState:
    """Slow/fast coefficient arrays at time t for scale ratio eps."""

    x: np.ndarray
    y: np.ndarray
    t: float
    eps: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if self.x.shape != self.y.shape:
            raise ConfigError("slow and fast fields must share a shape")


@dataclass(frozen=True)
class Trajectory:
    """Time grid and coefficient history, states[i] at times[i]."""

    times: np.ndarray
    states: np.ndarray  # (n_times, ..., n_modes)

    def __len__(self):
        return self.times.shape[0]


def _finite(vals: np.ndarray, config: ModelConfig, what: str = "drift") -> np.ndarray:
    """Drift values on the grid, or IntegrationError naming a bad point."""
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(np.atleast_2d(vals)))[0]
        xi = grid_points(config.m_points)[bad[-1]]
        raise IntegrationError(f"{what} returned a non-finite value at xi={xi:.6f}")
    return vals


def _drift_coeffs(drift, x_grid, y_grid, config: ModelConfig) -> np.ndarray:
    """Pointwise drift on the grid, checked finite, projected to coefficients."""
    return grid_values_to_coeffs(_finite(drift(x_grid, y_grid), config),
                                 config.n_modes)


def _frozen_fast(config: ModelConfig, h: float):
    """Mild exponential-Euler step of the fast equation, slow argument frozen.

    Returns ``step(x_grid, y, normals, y_grid=None)``: y -> e^{A h}(y +
    h F(x, y)) + the exact increment of sqrt(Q2) dW2 over fast time h,
    its law computed once here.  The caller supplies the normals (two
    ensembles may share a draw) and may pass the grid values of y it
    already holds.  A closure, not an object, so a substep adds one
    Python call; a coupled path at small eps makes about 10^5 of them.
    """
    decay, std = conv_increment_law(h, config.q2, config.eigs)

    def step(x_grid, y, normals, y_grid=None):
        if y_grid is None:
            y_grid = coeffs_to_grid_values(y, config.m_points)
        # vals stays referenced through the update: freed before it,
        # glibc trims and re-faults about 3 MB of heap on every step of
        # a 3200-row ensemble, about 20 times the page faults
        vals = _finite(config.drift_f(x_grid, y_grid), config)
        f = grid_values_to_coeffs(vals, config.n_modes)
        return decay * (y + h * f) + std * normals

    return step


class _MacroLaws(NamedTuple):
    """Per-macro-step constants of the coupled scheme at fixed eps."""

    dt: float
    slow: tuple[np.ndarray, np.ndarray]  # (decay, std) over dt
    n_sub: int
    fast: Callable  # one substep, in fast time (see _frozen_fast)


def _macro_laws(scheme: StepScheme, eps: float, config: ModelConfig) -> _MacroLaws:
    dt = scheme.dt_macro
    n_sub = scheme.n_substeps(eps)
    return _MacroLaws(dt, conv_increment_law(dt, config.q1, config.eigs),
                      n_sub, _frozen_fast(config, dt / n_sub / eps))


def step_slow_fast(state: SlowFastState, scheme: StepScheme, w1: NoiseStream,
                   w2: NoiseStream, config: ModelConfig, *,
                   laws: _MacroLaws | None = None) -> SlowFastState:
    """Advance the coupled system by one macro step.

    Slow update: x -> e^{A dt}(x + dt * B(x, y)) + exact convolution
    increment of sqrt(Q1) dW1.  Fast update: n_sub substeps of the fast
    equation in its own time (time-change identity: stepping (A/eps,
    Q2/eps) over h_f equals stepping (A, Q2) over h_f/eps), with the
    slow argument frozen at the macro-step start.  Draw order per macro
    step: one W1 vector, then n_sub W2 vectors.  ``laws`` lets a caller
    that takes many steps at the same (scheme, eps) pass the noise laws
    computed once; by default they are computed here.
    """
    if laws is None:
        laws = _macro_laws(scheme, state.eps, config)
    n_paths = None if state.x.ndim == 1 else state.x.shape[0]
    dt = laws.dt
    decay1, std1 = laws.slow
    x_grid = coeffs_to_grid_values(state.x, config.m_points)

    y_grid = coeffs_to_grid_values(state.y, config.m_points)
    b = _drift_coeffs(config.drift_b, x_grid, y_grid, config)
    x_new = decay1 * (state.x + dt * b) + std1 * w1.standard_normals(n_paths)

    y = state.y
    for _ in range(laws.n_sub):  # the first substep reuses y_grid
        y = laws.fast(x_grid, y, w2.standard_normals(n_paths), y_grid)
        y_grid = None

    return SlowFastState(x=x_new, y=y, t=state.t + dt, eps=state.eps)


def _whole_steps(span: float, dt: float, name: str) -> int:
    """span / dt as a step count; ``span`` must be a nonnegative multiple
    of ``dt`` to 1e-9 relative, so no horizon is silently rounded."""
    ratio = span / dt
    n = round(ratio)
    if span < 0 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ConfigError(f"{name} = {span:g} is not a nonnegative multiple of "
                          f"the step {dt:g}")
    return int(n)


def _check_initial(coeffs, config) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1] != config.n_modes:
        raise ConfigError(
            f"initial field has {c.shape[-1]} modes, config expects {config.n_modes}"
        )
    return c


def simulate_slow_fast(config: ModelConfig, eps: float, x0, y0, t_final: float,
                       scheme: StepScheme, w1: NoiseStream, w2: NoiseStream,
                       ) -> tuple[Trajectory, Trajectory]:
    """Integrate the coupled system on [0, T]; returns (slow, fast) paths.

    T must be a multiple of dt (to 1e-9 relative), else
    :class:`ConfigError`; trajectories are stored at every macro node.
    The noise laws of a macro step are computed once per call, as dt,
    eps and the spectra are fixed along the path.
    Reruns with equal seeds and schemes are bit-identical.
    """
    x = _check_initial(x0, config)
    y = _check_initial(y0, config)
    n_steps = _whole_steps(t_final, scheme.dt_macro, "t_final")
    times = np.arange(n_steps + 1) * scheme.dt_macro
    xs = np.empty((n_steps + 1,) + x.shape)
    ys = np.empty((n_steps + 1,) + y.shape)
    xs[0], ys[0] = x, y
    state = SlowFastState(x=x, y=y, t=0.0, eps=eps)
    laws = _macro_laws(scheme, eps, config)
    for i in range(1, n_steps + 1):
        state = step_slow_fast(state, scheme, w1, w2, config, laws=laws)
        xs[i], ys[i] = state.x, state.y
    return Trajectory(times, xs), Trajectory(times, ys)


def simulate_frozen(config: ModelConfig, x, y0, t_final: float, dt: float,
                    w2: NoiseStream) -> Trajectory:
    """Fast equation with the slow argument held fixed at ``x``.

    Runs in the fast variable's own time; same exponential-Euler rule
    as the coupled integrator.  ``t_final`` must be a multiple of ``dt``.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    y = _check_initial(y0, config)
    x = _check_initial(x, config)
    x_grid = coeffs_to_grid_values(x, config.m_points)
    n_paths = None if y.ndim == 1 else y.shape[0]
    step = _frozen_fast(config, dt)
    n_steps = _whole_steps(t_final, dt, "t_final")
    times = np.arange(n_steps + 1) * dt
    ys = np.empty((n_steps + 1,) + y.shape)
    ys[0] = y
    for i in range(1, n_steps + 1):
        y = step(x_grid, y, w2.standard_normals(n_paths))
        ys[i] = y
    return Trajectory(times, ys)


def simulate_averaged(config: ModelConfig, x0, t_final: float, dt: float,
                      w1: NoiseStream, bbar) -> Trajectory:
    """Effective slow equation with drift callable ``bbar``.

    ``bbar`` maps coefficient arrays (..., N) -> (..., N).  One W1 draw
    per step, in the same order as :func:`simulate_slow_fast`, so a
    stream derived from the same key couples the two solutions
    pathwise.  ``t_final`` must be a multiple of ``dt``.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    x = _check_initial(x0, config)
    n_paths = None if x.ndim == 1 else x.shape[0]
    decay, std = conv_increment_law(dt, config.q1, config.eigs)
    n_steps = _whole_steps(t_final, dt, "t_final")
    times = np.arange(n_steps + 1) * dt
    xs = np.empty((n_steps + 1,) + x.shape)
    xs[0] = x
    for i in range(1, n_steps + 1):
        drift = np.asarray(bbar(x), dtype=float)
        if not np.all(np.isfinite(drift)):
            raise IntegrationError("averaged drift returned a non-finite value")
        x = decay * (x + dt * drift) + std * w1.standard_normals(n_paths)
        xs[i] = x
    return Trajectory(times, xs)


def simulate_auxiliary_fast(config: ModelConfig, eps: float, slow_traj: Trajectory,
                            delta: float, y0, scheme: StepScheme,
                            w2: NoiseStream) -> Trajectory:
    """Fast dynamics with the slow argument frozen blockwise.

    On [k delta, (k+1) delta) the drift argument is the slow state at
    the block start, taken from ``slow_traj`` (sampled at the macro
    grid).  ``w2`` must be a replay of the stream that drove the true
    fast component: the two processes then share their noise exactly
    and differ only through the freezing rule.  ``delta`` must be a
    positive multiple of the macro step.
    """
    dt = scheme.dt_macro
    block = _whole_steps(delta, dt, "delta")
    if block < 1:
        raise ConfigError("delta must be a positive multiple of dt_macro")
    n_steps = len(slow_traj) - 1
    y = _check_initial(y0, config)
    n_paths = None if y.ndim == 1 else y.shape[0]
    n_sub = scheme.n_substeps(eps)
    step = _frozen_fast(config, dt / n_sub / eps)
    times = slow_traj.times
    ys = np.empty((n_steps + 1,) + y.shape)
    ys[0] = y
    x_grid = None
    for i in range(n_steps):
        if i % block == 0:
            x_grid = coeffs_to_grid_values(slow_traj.states[i], config.m_points)
        for _ in range(n_sub):
            y = step(x_grid, y, w2.standard_normals(n_paths))
        ys[i + 1] = y
    return Trajectory(times, ys)
