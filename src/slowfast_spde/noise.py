"""Exact per-mode sampling of stochastic convolutions.

For a diagonal pair (A, Q) the stochastic convolution
int_0^t e^{(t-s)A} sqrt(Q) dW_s is an independent scalar
Ornstein-Uhlenbeck integral per mode, so one macro step of the mild
solution can consume the exact transition

    x_k(t + dt) = exp(-lambda_k dt) * x_k(t) + drift part + std_k * zeta,

with zeta ~ N(0,1) and std_k^2 = q_k (1 - exp(-2 lambda_k dt)) / (2 lambda_k).
There is no discretization error in the linear part or the noise.

Randomness comes from counter-based Philox generators keyed by hashing
(root seed, trajectory index, role tag).  The same key always replays
the same Gaussian sequence, which is what makes shared-noise coupling
between the two-scale system and the averaged equation possible: both
solvers re-derive the identical "W1" stream and consume it in the same
order.  A stream is single-owner mutable state; independent
trajectories (or trajectory batches) should use independently derived
streams.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .spectral import OperatorSpectrum, _check_finite

__all__ = [
    "NoiseSpectrum",
    "NoiseStream",
    "power_law_spectrum",
    "derive_substream",
    "conv_increment_law",
    "sample_increments",
]


@dataclass(frozen=True)
class NoiseSpectrum:
    """Per-mode noise intensities q_k >= 0, each finite.

    ``decay_exponent`` declares r for the power law q_k = k^{-2r} of the
    built-in heat model; the assumption checker sums its series with it
    and refuses a spectrum that declares none.  A declared r must be
    finite.
    """

    q: np.ndarray
    decay_exponent: float | None = None

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 1:
            raise ValueError("q must be one-dimensional")
        if np.any(q < 0.0):
            raise ValueError("noise intensities must be nonnegative")
        _check_finite(q, "q")
        if self.decay_exponent is not None and not math.isfinite(self.decay_exponent):
            raise ValueError(
                f"decay_exponent must be finite, got {self.decay_exponent}")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n_modes(self) -> int:
        return self.q.shape[0]


def power_law_spectrum(n_modes: int, r: float) -> NoiseSpectrum:
    """Spectrum q_k = k^{-2r} of the fractional covariance (-Laplace)^{-r}."""
    k = np.arange(1, n_modes + 1, dtype=float)
    return NoiseSpectrum(k ** (-2.0 * r), decay_exponent=r)


def _checked_seed(seed) -> int:
    """``seed`` as an int, if it is a Python or numpy integer in [0, 2^64);
    anything else (a float, a bool, a string) raises ValueError."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _role_code(role: str) -> int:
    return zlib.crc32(role.encode("utf-8"))


class NoiseStream:
    """Seeded Gaussian source for one trajectory (or trajectory batch).

    Identical (seed, index, role) and draw order give bit-identical
    output.  Distinct (index, role) pairs yield statistically
    independent streams; the role tag separates the driving noises of
    the slow and fast equations.  The seed is a Python or numpy integer
    in [0, 2^64); any other value is refused, not truncated or reduced
    modulo 2^64.
    """

    __slots__ = ("seed", "index", "role", "n_modes", "_gen", "draws")

    def __init__(self, seed: int, n_modes: int, index: int = 0, role: str = "W1"):
        if n_modes < 1:
            raise ValueError("n_modes must be positive")
        self.seed = _checked_seed(seed)
        self.index = int(index)
        self.role = str(role)
        self.n_modes = int(n_modes)
        entropy = (self.seed, self.index, _role_code(self.role))
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        self.draws = 0

    def standard_normals(self, n_paths: int | None = None,
                         block: int | None = None, *,
                         out: np.ndarray | None = None) -> np.ndarray:
        """One N(0,1) vector per mode; shape (N,) or (n_paths, N).

        ``block=k`` makes k consecutive draws in one call, stacked along
        a new leading axis of length k: the numbers and their order equal
        those of k single calls, since the generator fills an array in C
        order.  ``out`` receives the numbers in place of a new array; it
        must be C-contiguous float64 of the drawn shape.
        """
        shape = (self.n_modes,) if n_paths is None else (n_paths, self.n_modes)
        if block is not None:
            shape = (block,) + shape
        if out is not None and out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, the draw {shape}")
        self.draws += 1 if block is None else block
        if out is None:
            return self._gen.standard_normal(shape)
        return self._gen.standard_normal(out=out)

    def replay(self) -> "NoiseStream":
        """A fresh stream with the same key, rewound to the start."""
        return NoiseStream(self.seed, self.n_modes, self.index, self.role)

    def __repr__(self):
        return (
            f"NoiseStream(seed={self.seed}, index={self.index}, "
            f"role={self.role!r}, n_modes={self.n_modes}, draws={self.draws})"
        )


def derive_substream(root_seed: int, index: int, role: str, n_modes: int) -> NoiseStream:
    """Derive an independent stream for (trajectory index, role tag)."""
    return NoiseStream(root_seed, n_modes, index=index, role=role)


def _ou_law(lam: np.ndarray, q: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Mean decay exp(-lambda t) and std sqrt(q (1 - exp(-2 lambda t)) /
    (2 lambda)) of the exact Ornstein-Uhlenbeck transition over t."""
    decay = np.exp(-lam * t)
    # -expm1 keeps full precision for lambda*t << 1
    var = q * (-np.expm1(-2.0 * lam * t)) / (2.0 * lam)
    return decay, np.sqrt(var)


def conv_increment_law(
    delta: float, spectrum: NoiseSpectrum, eigs: OperatorSpectrum
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean-decay and std of the mild update over a step.

    Returns per-mode arrays (decay, std) with

        decay_k = exp(-lambda_k * delta),
        std_k   = sqrt(q_k * (1 - exp(-2 lambda_k delta)) / (2 lambda_k)),

    the parameters of the exact one-step Ornstein-Uhlenbeck transition
    x_k -> decay_k * x_k + drift + std_k * zeta.
    """
    if delta <= 0.0:
        raise ValueError("step size must be positive")
    n = min(spectrum.n_modes, eigs.n_modes)
    return _ou_law(eigs.eigenvalues[:n], spectrum.q[:n], delta)


def sample_increments(
    stream: NoiseStream,
    delta: float,
    spectrum: NoiseSpectrum,
    eigs: OperatorSpectrum,
    n_paths: int | None = None,
) -> np.ndarray:
    """Draw one vector of exact stochastic-convolution increments.

    Advances the stream deterministically; shape (N,) or (n_paths, N).
    """
    _, std = conv_increment_law(delta, spectrum, eigs)
    return std * stream.standard_normals(n_paths)
