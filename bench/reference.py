"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls the package's numerics.  The heat model is rebuilt
from its defining constants, fields move between sine coefficients and
the collocation grid through a dense sine matrix (not the DST), and the
frozen fast dynamics are stepped by a separate exponential-Euler loop.
The only thing shared with the package is the documented noise contract
of :func:`replay_coupled_prefix`, which must replay the package's own
``derive_substream`` streams to reproduce a path draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The heat model every workload uses: lambda_k = k^2, q_k = k^(-2r),
# N = 32 modes on an M = 64 point grid (configs/heat.cfg).
HEAT = {"r1": 0.1, "r2": 0.1, "n_modes": 32, "m_points": 64,
        "fast_substep_factor": 0.1}


def heat_b(x_grid: np.ndarray, y_grid: np.ndarray) -> np.ndarray:
    return np.sin(np.sqrt(np.abs(x_grid)) + np.sqrt(np.abs(y_grid)))


def heat_f(x_grid: np.ndarray, y_grid: np.ndarray) -> np.ndarray:
    return 0.5 * np.cos(np.sqrt(np.abs(x_grid)) + np.abs(y_grid))


@dataclass(frozen=True)
class SineBasis:
    """Dense sine matrix S[j, k] = sqrt(2/pi) sin((k+1) xi_j), xi_j = (j+1) pi/(M+1)."""

    n_modes: int
    m_points: int

    @property
    def matrix(self) -> np.ndarray:
        xi = np.arange(1, self.m_points + 1) * (math.pi / (self.m_points + 1))
        k = np.arange(1, self.n_modes + 1)
        return math.sqrt(2.0 / math.pi) * np.sin(np.outer(xi, k))

    def operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(to_grid, from_grid) matrices acting on row vectors."""
        s = self.matrix
        return s.T.copy(), (math.pi / (self.m_points + 1)) * s


def exact_law(eigenvalues: np.ndarray, q: np.ndarray, h: float):
    """Per-mode mean decay and std of the exact OU transition over h."""
    decay = np.exp(-eigenvalues * h)
    std = np.sqrt(q * -np.expm1(-2.0 * eigenvalues * h) / (2.0 * eigenvalues))
    return decay, std


def _heat_spectra(n: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1, n + 1, dtype=float)
    return k**2, k ** (-2.0 * r)


def reference_bbar(xs: np.ndarray, t_burn: float, t_avg: float, dt: float,
                   n_replicas: int, rng: np.random.Generator,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Time-average estimate of the averaged drift at each row of ``xs``.

    Same estimator as the package documents: the fast field starts at 0,
    runs round(t_burn/dt) burn-in steps, then B(x, y) is averaged over
    the next round(t_avg/dt) step-start states; the replica spread gives
    the L^2-scale standard error.  Returns (values (P, N), stderr (P,)).
    """
    n, m = HEAT["n_modes"], HEAT["m_points"]
    to_grid, from_grid = SineBasis(n, m).operators()
    lam, q2 = _heat_spectra(n, HEAT["r2"])
    decay, std = exact_law(lam, q2, dt)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n_p = xs.shape[0]
    x_grid = np.repeat(xs @ to_grid, n_replicas, axis=0)
    y = np.zeros((n_p * n_replicas, n))
    n_burn = int(round(t_burn / dt))
    n_avg = max(1, int(round(t_avg / dt)))
    acc = np.zeros_like(x_grid)
    for i in range(n_burn + n_avg):
        y_grid = y @ to_grid
        if i >= n_burn:
            acc += heat_b(x_grid, y_grid)
        f = heat_f(x_grid, y_grid) @ from_grid
        y = decay * (y + dt * f) + std * rng.standard_normal(y.shape)
    per_replica = ((acc / n_avg) @ from_grid).reshape(n_p, n_replicas, n)
    values = per_replica.mean(axis=1)
    dev = per_replica - values[:, None, :]
    stderr = np.sqrt(np.sum(dev**2, axis=(1, 2)) / (n_replicas * (n_replicas - 1)))
    return values, stderr


def agreement(values, n_replicas: int, ref_values, ref_stderrs, ref_replicas: int,
              n_sigma: float = 4.0):
    """Per point: (|value - ref|, n_sigma * combined stderr).

    ``values`` are the package's estimates from ``n_replicas`` replicas.
    Their standard error is taken from the reference's replica spread,
    ref_stderr * sqrt(ref_replicas / n_replicas): the same estimator has
    the same replica variance, and the spread of 32 replicas is a far
    steadier estimate than that of the package's own 2 or 4.
    """
    diff = np.linalg.norm(np.asarray(values) - np.asarray(ref_values), axis=-1)
    ref_stderrs = np.asarray(ref_stderrs)
    combined = ref_stderrs * math.sqrt(1.0 + ref_replicas / n_replicas)
    return diff, n_sigma * combined


def replay_coupled_prefix(derive_substream, seed: int, eps: float, dt: float,
                          n_steps: int) -> np.ndarray:
    """Slow states of the coupled heat system over the first macro steps.

    Follows the documented scheme and draw order of one coupled path
    started at x = y = 0: per macro step one "W1" vector, then n_sub
    "W2" vectors, n_sub = ceil(dt / (eps * factor)); the slow argument of
    both drifts is frozen at the macro-step start.  Returns the slow
    coefficients at steps 0..n_steps, shape (n_steps + 1, N).
    """
    n, m = HEAT["n_modes"], HEAT["m_points"]
    to_grid, from_grid = SineBasis(n, m).operators()
    lam, q1 = _heat_spectra(n, HEAT["r1"])
    _, q2 = _heat_spectra(n, HEAT["r2"])
    n_sub = max(1, math.ceil(dt / (eps * HEAT["fast_substep_factor"])))
    h = dt / n_sub / eps
    decay1, std1 = exact_law(lam, q1, dt)
    decay2, std2 = exact_law(lam, q2, h)
    w1 = derive_substream(seed, 0, "W1", n)
    w2 = derive_substream(seed, 0, "W2", n)
    x, y = np.zeros(n), np.zeros(n)
    xs = [x]
    for _ in range(n_steps):
        x_grid = x @ to_grid
        b = heat_b(x_grid, y @ to_grid) @ from_grid
        x_next = decay1 * (x + dt * b) + std1 * w1.standard_normals()
        for _ in range(n_sub):
            f = heat_f(x_grid, y @ to_grid) @ from_grid
            y = decay2 * (y + h * f) + std2 * w2.standard_normals()
        x = x_next
        xs.append(x)
    return np.array(xs)
