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
stepper, :func:`_frozen_fast`, in two stages: ``freeze(x_grid, rows)``
binds a frozen slow state once (the drifts' x-parts, the noise law, the
step's buffers and its sine products), and the returned
``step(y, normals, y_grid=None)`` overwrites y in place without
allocating; ``step.states`` runs it over a noise stream.  Its drift
guard raises :class:`IntegrationError` naming the grid point of a
non-finite value.

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
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import ModelConfig
from .noise import NoiseStream, conv_increment_law
from .spectral import (_product, _sine_matrices, coeffs_to_grid_values,
                       grid_points, grid_values_to_coeffs)

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


def _drift_coeffs(vals: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Drift values on the grid, checked finite, projected to coefficients."""
    return grid_values_to_coeffs(_finite(vals, config), config.n_modes)


def _bind(drift, x_grid: np.ndarray, x_parts: dict, vals: np.ndarray):
    """``drift`` with x frozen, as a callable of y_grid returning ``vals``.

    A drift with an ``x_part`` attribute (the protocol of
    :class:`ModelConfig`) gets that part, computed once per x-part
    function and shared through ``x_parts``, in place of ``x_grid``
    (passed as None, so the evaluator does not keep it alive), and
    writes into ``vals``.  Any other drift is called with the two grids,
    and its values, of any shape that broadcasts to ``vals`` (a constant
    included), are copied into ``vals``.
    """
    part = getattr(drift, "x_part", None)
    if part is None:
        def bound(y_grid):
            np.copyto(vals, drift(x_grid, y_grid))
            return vals
        return bound
    if part not in x_parts:
        x_parts[part] = part(x_grid)
    return partial(drift, None, x_part=x_parts[part], out=vals)


def _frozen_fast(config: ModelConfig, h: float):
    """Mild exponential-Euler step of the fast equation, slow argument frozen.

    Returns ``freeze(x_grid, rows)``, which binds one frozen slow state
    (grid values ``x_grid``) for fields of ``rows`` paths (None: one
    field of shape (N,)) and returns ``step(y, normals, y_grid=None)``.
    The step overwrites y with e^{A h}(y + h F(x, y)) + std * normals,
    the exact increment of sqrt(Q2) dW2 over fast time h, its law
    computed once here, and returns y.  The caller owns y and supplies
    the normals (two ensembles may share a draw; they are only read),
    and may pass the grid values of y it already holds.

    Freezing computes the drifts' x-parts once (see :class:`ModelConfig`),
    allocates the buffers the step writes (drift values, grid values of
    y, projected drift, scaled noise) and binds the two sine products of
    :func:`.spectral._product` for this row count, the only place that
    knows the block rule.  A step then runs a fixed sequence of ``out=``
    products and ufuncs and allocates no array (a drift outside the
    protocol allocates its own values, which are copied into the buffer).
    ``step.drift_b`` evaluates B(x, y) at given grid values with the
    same frozen x, into the drift-value buffer (valid until the next
    step or evaluation).  ``step.states(y, stream, n_steps)`` yields the
    grid values of y at states 0..n_steps (the grid buffer, valid until
    the next state), stepping y in place on one ``stream`` draw between
    them.  Closures, not objects, so a substep adds one Python call; a
    coupled path at small eps makes about 10^5 of them.  A frozen state
    holds no reference cycle, so dropping the step frees its buffers.
    """
    decay, std = conv_increment_law(h, config.q2, config.eigs)
    m, n = config.m_points, config.n_modes
    evaluate, project = _sine_matrices(n, m)

    def freeze(x_grid: np.ndarray, rows: int | None):
        lead = () if rows is None else (rows,)
        drift_values = np.empty(lead + (m,))
        grid = np.empty(lead + (m,))
        coeffs = np.empty(lead + (n,))
        noise = np.empty(lead + (n,))
        to_grid, to_coeffs = _product(evaluate, rows), _product(project, rows)
        x_parts: dict = {}
        drift_f = _bind(config.drift_f, x_grid, x_parts, drift_values)

        def advance(y, normals, y_grid=None):
            vals = drift_f(to_grid(y, grid) if y_grid is None else y_grid)
            # the sum is not finite if a value is not, and otherwise only
            # on overflow, which the exact check then lets pass; one
            # reduction costs less than isfinite(vals).all()
            if not math.isfinite(np.add.reduce(vals, None)):
                _finite(vals, config)
            # the ufuncs and operands of decay * (y + h * f) + std * normals,
            # so the result is bit-identical to that expression
            f = np.multiply(to_coeffs(vals, coeffs), h, coeffs)
            y = np.multiply(np.add(y, f, y), decay, y)
            return np.add(y, np.multiply(std, normals, noise), y)

        def states(y, stream: NoiseStream, n_steps: int):
            normals = np.empty(lead + (n,))
            yield to_grid(y, grid)
            for _ in range(n_steps):
                advance(y, stream.standard_normals(rows, out=normals), grid)
                yield to_grid(y, grid)

        # the attributes hang on a partial, not on ``advance``, which
        # ``states`` refers to: no reference cycle, so a frozen state's
        # buffers are freed as soon as the caller drops the step, not at
        # the next cyclic collection
        step = partial(advance)
        step.drift_b = _bind(config.drift_b, x_grid, x_parts, drift_values)
        step.states = states
        return step

    return freeze


# Largest number of normals one block draw of the substeps takes (512 KiB).
_BLOCK_NORMALS = 1 << 16


def _substeps(step, y: np.ndarray, w2: NoiseStream, n_paths: int | None,
              n_sub: int, y_grid: np.ndarray | None = None) -> np.ndarray:
    """``n_sub`` frozen steps of y in place; the first may reuse ``y_grid``.

    The W2 vectors are drawn in blocks of whole substeps, the macro
    step's n_sub at once unless that exceeds ``_BLOCK_NORMALS``; a block
    holds the numbers of as many single draws, in the same order.
    """
    per_draw = (1 if n_paths is None else n_paths) * y.shape[-1]
    chunk = max(1, min(n_sub, _BLOCK_NORMALS // per_draw))
    for k in range(0, n_sub, chunk):
        for z in w2.standard_normals(n_paths, min(chunk, n_sub - k)):
            step(y, z, y_grid)
            y_grid = None
    return y


class _MacroLaws(NamedTuple):
    """Per-macro-step constants of the coupled scheme at fixed eps."""

    dt: float
    slow: tuple[np.ndarray, np.ndarray]  # (decay, std) over dt
    n_sub: int
    freeze_fast: Callable  # the substep, in fast time (see _frozen_fast)


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
    step: one W1 vector, then n_sub W2 vectors (in blocks, see
    :func:`_substeps`).  ``laws`` lets a caller that takes many steps
    at the same (scheme, eps) pass the noise laws computed once; by
    default they are computed here.  ``state`` is not modified.
    ``state.x`` and ``state.y`` must share a shape, as at construction,
    else :class:`ConfigError`.
    """
    if state.x.shape != state.y.shape:
        raise ConfigError("slow and fast fields must share a shape")
    if laws is None:
        laws = _macro_laws(scheme, state.eps, config)
    n_paths = None if state.x.ndim == 1 else state.x.shape[0]
    decay1, std1 = laws.slow
    x_grid = coeffs_to_grid_values(state.x, config.m_points)
    y_grid = coeffs_to_grid_values(state.y, config.m_points)
    step = laws.freeze_fast(x_grid, n_paths)
    b = _drift_coeffs(step.drift_b(y_grid), config)
    x_new = decay1 * (state.x + laws.dt * b) + std1 * w1.standard_normals(n_paths)
    # the first substep reuses y_grid
    y = _substeps(step, state.y.copy(), w2, n_paths, laws.n_sub, y_grid)
    return SlowFastState(x=x_new, y=y, t=state.t + laws.dt, eps=state.eps)


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
    y = _check_initial(y0, config).copy()
    x = _check_initial(x, config)
    n_paths = None if y.ndim == 1 else y.shape[0]
    step = _frozen_fast(config, dt)(coeffs_to_grid_values(x, config.m_points),
                                     n_paths)
    n_steps = _whole_steps(t_final, dt, "t_final")
    ys = np.empty((n_steps + 1,) + y.shape)
    for i, _ in enumerate(step.states(y, w2, n_steps)):
        ys[i] = y
    return Trajectory(np.arange(n_steps + 1) * dt, ys)


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
            k = np.argwhere(~np.isfinite(np.atleast_2d(drift)))[0][-1] + 1
            raise IntegrationError("averaged drift returned a non-finite value "
                                   f"at t={times[i - 1]:.6f} in mode {k}")
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
    y = _check_initial(y0, config).copy()
    n_paths = None if y.ndim == 1 else y.shape[0]
    n_sub = scheme.n_substeps(eps)
    freeze = _frozen_fast(config, dt / n_sub / eps)
    times = slow_traj.times
    ys = np.empty((n_steps + 1,) + y.shape)
    ys[0] = y
    step = None
    for i in range(n_steps):
        if i % block == 0:
            step = freeze(coeffs_to_grid_values(slow_traj.states[i], config.m_points),
                          n_paths)
        ys[i + 1] = _substeps(step, y, w2, n_paths, n_sub)
    return Trajectory(times, ys)
