"""Sine-basis spectral representation of fields on (0, pi).

A field u in H = L^2(0, pi) with Dirichlet boundary conditions is stored
as its first N coefficients against the orthonormal eigenbasis

    e_k(xi) = sqrt(2/pi) * sin(k * xi),        k = 1, 2, ...

of the Dirichlet Laplacian.  The physical-space mirror lives on the
interior grid xi_j = j*pi/(M+1), j = 1..M, where the sampled sine basis
is an exact orthogonal map between the two representations.  All
coefficient arrays put the mode axis last, so a batch of fields is
simply an array of shape (..., N).

Both directions are dense products with the (N, M) sine matrix
S[k, j] = e_k(xi_j): ``coeffs @ S`` evaluates on the grid and
``values @ S.T * pi/(M+1)`` projects back.  At the sizes the package
uses (N <= 32, M = 2N) one product costs about a tenth of a type-I DST
call.  The matrices are built on first use per (N, M), kept read-only
in a small bounded cache, and never built at import.  Batches are
multiplied in row blocks of at most 2^19 multiply-adds, because
OpenBLAS hands a product of about 2^20 or more to a second thread: on
two CPUs that thread spins, so CPU time rises faster than wall time
falls.  A batch within one block is one ``np.dot`` call, bit-identical
to the ``np.matmul`` it replaced (checked on 1-D vectors and on 1-300
rows at N = 32, M = 64) and without the ufunc machinery.  The product
factory ``_product(matrix, rows)`` is the only place that knows this
rule: the public transforms build one per call, and the frozen-fast
stepper binds one per direction when it freezes a slow state, for every
row count, so its steps skip the transforms' checks and reshapes.
The dense pair is 3-50x faster than a type-I DST up to N = 128
(M = 2N), within 1.5x of it at N = 256 and 3.5-180x slower at N = 512,
so ``ModelConfig`` rejects models with N*M > MAX_TRANSFORM_SIZE = 2^17
(N = 256 at M = 2N); the cached matrices of one (N, M) then hold at
most 2 MB.  Direct calls on larger sizes still work, only slowly.

The semigroup e^{tA}, fractional powers (-A)^{s/2} and Sobolev-type
norms ||u||_s = |(-A)^{s/2} u| are diagonal in this basis and are
implemented coefficient-wise.  Everything in this module is pure and
operates on immutable inputs; instances can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PI",
    "MAX_TRANSFORM_SIZE",
    "SpectralField",
    "GridField",
    "OperatorSpectrum",
    "grid_points",
    "basis_field",
    "from_grid",
    "to_grid",
    "grid_values_to_coeffs",
    "coeffs_to_grid_values",
    "h_norm",
    "semigroup_apply",
    "frac_power_apply",
    "smoothing_constant",
    "time_increment_constant",
]

PI = np.pi


def _check_finite(a: np.ndarray, name: str, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` and the first mode (1-indexed) of
    the one-dimensional ``a`` whose entry is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise error(f"{name} must be finite, got {a[bad[0]]} at mode {bad[0] + 1}")


def _frozen_array(x, name: str) -> np.ndarray:
    a = np.array(x, dtype=float)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ValueError(f"{name} must have at least one entry along the last axis")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralField:
    """Field as sine-basis coefficients; last axis indexes modes 1..N.

    Parseval holds exactly: |u|^2 = sum_k u_k^2.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs, "coeffs"))

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[-1]

    def norm(self):
        """L^2 norm |u| (reduces the mode axis only)."""
        return np.linalg.norm(self.coeffs, axis=-1)


@dataclass(frozen=True)
class GridField:
    """Point values on the interior grid xi_j = j*pi/(M+1), j = 1..M."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, "values"))

    @property
    def m_points(self) -> int:
        return self.values.shape[-1]

    def quadrature_inner(self, other: "GridField"):
        """Trapezoidal-free quadrature (pi/(M+1)) * sum u_j v_j.

        Exact against the spectral inner product for band-limited pairs.
        """
        if other.m_points != self.m_points:
            raise ValueError("grid sizes differ")
        w = PI / (self.m_points + 1)
        return w * np.sum(self.values * other.values, axis=-1)


@dataclass(frozen=True)
class OperatorSpectrum:
    """Eigenvalues lambda_k > 0 of -A, nondecreasing in k.

    ``growth_exponent`` p and ``growth_coefficient`` c declare the power
    law lambda_k = c k^p that the assumption checker sums its series
    with; for the built-in heat model it is exact (p = 2, c = 1).  The
    checker refuses a spectrum that declares none; a declared p must be
    finite and c finite and positive.  Every eigenvalue must be finite.
    """

    eigenvalues: np.ndarray
    growth_exponent: float | None = None
    growth_coefficient: float = 1.0

    def __post_init__(self):
        eig = _frozen_array(self.eigenvalues, "eigenvalues")
        if eig.ndim != 1:
            raise ValueError("eigenvalues must be one-dimensional")
        if np.any(eig <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(eig) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")
        _check_finite(eig, "eigenvalues")
        if self.growth_exponent is not None and not math.isfinite(self.growth_exponent):
            raise ValueError(
                f"growth_exponent must be finite, got {self.growth_exponent}")
        if not 0.0 < self.growth_coefficient < math.inf:
            raise ValueError("growth_coefficient must be finite and positive, "
                             f"got {self.growth_coefficient}")
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_1(self) -> float:
        return float(self.eigenvalues[0])


def grid_points(m_points: int) -> np.ndarray:
    """Interior collocation points xi_j = j*pi/(M+1), j = 1..M."""
    if m_points < 1:
        raise ValueError("m_points must be positive")
    return np.arange(1, m_points + 1) * (PI / (m_points + 1))


def basis_field(k: int, n_modes: int) -> SpectralField:
    """The k-th basis element e_k as a SpectralField (1-indexed)."""
    if not 1 <= k <= n_modes:
        raise ValueError("mode index out of range")
    c = np.zeros(n_modes)
    c[k - 1] = 1.0
    return SpectralField(c)


# Largest N*M a model may use (see the module docstring).  The package's
# other dense-operator cap is zvonkin.MAX_PICARD_NODES = 2^11 grid nodes,
# which bounds the assembled Picard sweep maps to 128 MiB at d = 3.
MAX_TRANSFORM_SIZE = 1 << 17

# Largest product (rows x inner x outer multiply-adds) handed to BLAS in
# one call; OpenBLAS starts its second thread at about twice this.
_BLOCK_MADDS = 1 << 19


@lru_cache(maxsize=8)
def _sine_matrices(n_modes: int, m_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N, M) evaluation and (M, N) projection matrices."""
    j = np.arange(1, m_points + 1)
    k = np.arange(1, n_modes + 1)
    # reduce k*j modulo the period 2(M+1) before scaling, so every sine
    # argument lies in [0, 2 pi) and is exact to one rounding
    phase = np.outer(k, j) % (2 * (m_points + 1))
    evaluate = np.sqrt(2.0 / PI) * np.sin(phase * (PI / (m_points + 1)))
    project = np.ascontiguousarray(evaluate.T) * (PI / (m_points + 1))
    evaluate.setflags(write=False)
    project.setflags(write=False)
    return evaluate, project


def _rows_per_product(n_in: int, n_out: int) -> int:
    """The block rule: the most rows of an (n_in, n_out) product that go
    to BLAS in one call (at least one)."""
    return max(1, _BLOCK_MADDS // (n_in * n_out))


def _product(matrix: np.ndarray, rows: int | None):
    """``product(a, out)``: ``a @ matrix`` for ``rows`` rows (None: one
    vector) into ``out`` (C-contiguous), in the row blocks of the block
    rule; returns ``out``.  The only place that applies the rule."""
    block = _rows_per_product(*matrix.shape)
    if rows is None or rows <= block:
        def product(a, out):
            return np.dot(a, matrix, out)
    else:
        slices = [slice(i, i + block) for i in range(0, rows, block)]

        def product(a, out):
            for s in slices:
                np.matmul(a[s], matrix, out[s])
            return out
    return product


def _apply(a: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``a @ matrix`` over the last axis, in single-threaded row blocks."""
    rows = a.reshape(-1, matrix.shape[0])
    out = np.empty((rows.shape[0], matrix.shape[1]))
    _product(matrix, rows.shape[0])(rows, out)
    return out.reshape(a.shape[:-1] + (matrix.shape[1],))


def grid_values_to_coeffs(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Fast path of ``from_grid`` on raw arrays (mode axis last)."""
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    if m < n_modes:
        raise ValueError(f"grid too coarse: M={m} < N={n_modes}")
    return _apply(values, _sine_matrices(n_modes, m)[1])


def coeffs_to_grid_values(coeffs: np.ndarray, m_points: int) -> np.ndarray:
    """Fast path of ``to_grid`` on raw arrays (mode axis last)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[-1]
    if m_points < n:
        raise ValueError(f"grid too coarse: M={m_points} < N={n}")
    return _apply(coeffs, _sine_matrices(n, m_points)[0])


def from_grid(grid: GridField, n_modes: int) -> SpectralField:
    """Project grid samples onto the first ``n_modes`` sine modes.

    The transform pair is orthogonal: composing with :func:`to_grid`
    is the identity (to round-off) for fields supported on modes
    1..N, and Parseval is preserved exactly.  Requires M >= N.
    """
    return SpectralField(grid_values_to_coeffs(grid.values, n_modes))


def to_grid(u: SpectralField, m_points: int) -> GridField:
    """Evaluate the field at the M interior grid points (M >= N)."""
    return GridField(coeffs_to_grid_values(u.coeffs, m_points))


def h_norm(u: SpectralField, s: float, eigs: OperatorSpectrum):
    """Fractional Sobolev norm ||u||_s = sqrt(sum_k lambda_k^s u_k^2).

    s = 0 reduces to the plain L^2 norm.
    """
    c = u.coeffs
    if eigs.n_modes < c.shape[-1]:
        raise ValueError("spectrum has fewer modes than the field")
    lam = eigs.eigenvalues[: c.shape[-1]]
    return np.sqrt(np.sum(lam**s * c**2, axis=-1))


def semigroup_apply(u: SpectralField, t: float, eigs: OperatorSpectrum) -> SpectralField:
    """Apply the heat semigroup e^{tA}: u_k -> exp(-lambda_k t) u_k.

    Satisfies, with explicit constants (see the test suite):
    contraction |e^{tA}u| <= exp(-lambda_1 t)|u|; smoothing
    ||e^{tA}u||_theta <= C_theta t^{-theta/2}|u|; and the two Hoelder
    estimates in space and time.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    lam = eigs.eigenvalues[: u.n_modes]
    return SpectralField(np.exp(-lam * t) * u.coeffs)


def frac_power_apply(u: SpectralField, s: float, eigs: OperatorSpectrum) -> SpectralField:
    """Apply (-A)^{s/2}: u_k -> lambda_k^{s/2} u_k."""
    lam = eigs.eigenvalues[: u.n_modes]
    return SpectralField(lam ** (s / 2.0) * u.coeffs)


def smoothing_constant(theta: float) -> float:
    """Sharp per-mode constant in ||e^{tA}u||_theta <= C t^{-theta/2} |u|.

    C = (theta/(2e))^{theta/2}, from sup_{l>0} (l t)^{theta/2} e^{-l t}.
    """
    if theta == 0.0:
        return 1.0
    return (theta / (2.0 * np.e)) ** (theta / 2.0)


def time_increment_constant(theta: float) -> float:
    """Constant in |e^{tA}u - e^{sA}u| <= C (t-s)^theta s^{-theta} |u|.

    C = (theta/e)^theta, from sup_{l>0} l^theta e^{-l s} = (theta/(e s))^theta.
    """
    if theta == 0.0:
        return 1.0
    return (theta / np.e) ** theta
