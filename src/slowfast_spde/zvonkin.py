"""Elliptic equation lambda*U - L*U = G at truncated dimension d <= 3.

L is the generator of the linear-plus-averaged-drift diffusion; the
solution is constructed exactly as the fixed point of

    U(x) = int_0^inf e^{-lambda t} T_t( <Bbar, DU> + G )(x) dt,

where T_t is the transition semigroup of the drift-free
Ornstein-Uhlenbeck process dZ = AZ dt + sqrt(Q1) dW.  On a truncated
set of d modes T_t has an explicit Gaussian kernel, evaluated here by
tensor Gauss-Hermite quadrature; gradients DT_t use Gaussian
integration by parts (per-axis scalar weights in the diagonal case),
which stays finite for rough integrands.  Functions of the truncated
state live on tensor grids with multilinear interpolation
(:func:`_hat`, exact at the nodes); queries outside the box clamp to
the boundary (U and DU are bounded, so clamping is consistent).

The iteration starts from U_0 = 0 and contracts once lambda is large
enough; the time integral is truncated at T_max = 40 / min(lambda,
lambda_1) on log-spaced Gauss-Legendre panels
(:func:`_log_quadrature_nodes`, here), so the damped tail is below
e^{-lambda T_max} <= e^{-40} of the integrand bound for every lambda.
:func:`picard_solve` is the resolvent solve for one lambda, and
:func:`dlambda_curve` calls it once per lambda.  Non-finite G or Bbar
values, and a non-finite f in the single applies, are refused with
:class:`IntegrationError` naming the grid node.

A sweep is linear in psi = G + <Bbar, DU>, and its transition
operators do not depend on the iterate, so :func:`picard_solve`
assembles the whole sweep once per solve as dense maps on the G grid
nodes: A (G x G) for U and B (d x G x G) for DU, with the same
Gauss-Hermite points and integration-by-parts weights as the single
applies.  The tensor rule factors per axis, so the maps are built from
per-axis 1-D matrices (Kronecker products per time node for d >= 2);
every sweep is then two matrix products.  The 1-D matrices
(:func:`_axis_matrices`) locate their points in grid-index space with
one ``np.interp`` (:func:`_locate`) rather than through :func:`_hat`,
so their clamped hat weights equal _hat's up to rounding.  The maps
hold (d + 1) * 8 * G^2 bytes, so picard_solve refuses grids of more
than MAX_PICARD_NODES = 2^11 nodes (128 MiB at d = 3) with
:class:`ConfigError`: 45 points per axis at d = 2 and 12 at d = 3.
:func:`ou_semigroup_apply` and :func:`ou_gradient_apply` are single
applies on grids of any size: they contract f with the same 1-D
transitions one axis at a time, gathering f at the points
:func:`_locate` finds, in chunks of Hermite nodes, without forming a
matrix or a point of the tensor rule (:func:`_kernel_apply`).

This module exists to verify the construction (fixed point, decay of
the resolvent norm in lambda, gradient bounds) at desk scale, not for
production use in the simulator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError, PicardDivergenceError
from .noise import _ou_law
from .spectral import _check_finite

__all__ = [
    "OuKernel",
    "TruncatedFunction",
    "ZvonkinSolution",
    "box_axes",
    "ou_semigroup_apply",
    "ou_gradient_apply",
    "picard_solve",
    "dlambda_curve",
    "check_lambdas",
    "check_picard_grid",
    "MAX_PICARD_NODES",
]

# Largest grid picard_solve accepts: its d + 1 dense sweep operators hold
# (d + 1) * 8 * G^2 bytes, 128 MiB at d = 3.
MAX_PICARD_NODES = 1 << 11

# Time nodes per assembly chunk, to bound the temporaries.
_CHUNK_NODES = 16

# Gathered values per Hermite-node chunk of a single apply (at least one
# node per chunk), to bound its temporaries: 128 KiB an array.
_CHUNK_POINTS = 1 << 14

# picard_solve's time quadrature (see its docstring)
_N_PANELS = 30
_GL_ORDER = 8
_T_MIN = 1e-8


@dataclass(frozen=True)
class OuKernel:
    """Diagonal OU transition parameters on d retained modes: finite
    lambda > 0 and q >= 0, held as read-only copies of the inputs."""

    eigenvalues: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float, ndmin=1)
        q = np.array(self.q, dtype=float, ndmin=1)
        if lam.shape != q.shape or lam.ndim != 1:
            raise ConfigError("eigenvalues and q must be 1-d arrays of equal length")
        if np.any(lam <= 0) or np.any(q < 0):
            raise ConfigError("need lambda > 0 and q >= 0")
        _check_finite(lam, "eigenvalues", ConfigError)
        _check_finite(q, "q", ConfigError)
        lam.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def transition(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean decay e^{-lambda t} and std of the t-transition, per axis."""
        return _ou_law(self.eigenvalues, self.q, t)

    def stationary_std(self) -> np.ndarray:
        return np.sqrt(self.q / (2.0 * self.eigenvalues))


@dataclass
class TruncatedFunction:
    """Tensor-grid samples with multilinear interpolation and clamping.

    ``values`` has shape grid_shape + out_shape; evaluation accepts
    points shaped (..., d) and returns (..., *out_shape).
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if not all(a.ndim == 1 and a.size >= 2 and np.all(np.diff(a) > 0)
                   for a in self.axes):
            raise ConfigError("each axis must be strictly increasing, of at least 2 points")
        if self.values.shape[: self.dim] != tuple(a.size for a in self.axes):
            raise ConfigError("values do not match the grid shape")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def out_shape(self) -> tuple:
        return self.values.shape[self.dim:]

    @property
    def grid_shape(self) -> tuple:
        return self.values.shape[: self.dim]

    def grid_points(self) -> np.ndarray:
        """All grid nodes as an array of shape (n_nodes, d)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        hats = [_hat(ax, pts[..., j]) for j, ax in enumerate(self.axes)]
        out = 0.0
        for corner in itertools.product((0, 1), repeat=self.dim):
            idx, weight = [], 1.0
            for (left, frac), c in zip(hats, corner):
                idx.append(left + c)
                weight = weight * (frac if c else 1.0 - frac)
            out = out + (self.values[tuple(idx)].T * weight.T).T
        return out

    def sup_norm(self) -> float:
        """Max over grid nodes of the euclidean norm over output axes.

        A node whose largest entry lies outside [2^-481, 2^480), where
        the squares could underflow or overflow, is scaled by a power of
        two, exactly, before its norm is taken and back after; every
        other node's norm is numpy's, unscaled."""
        flat = self.values.reshape(self.grid_shape + (-1,))
        _, e = np.frexp(np.max(np.abs(flat), axis=-1))
        e = np.where(np.abs(e) > 480, e, 0)
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            norms = np.ldexp(np.linalg.norm(np.ldexp(flat, -e[..., None]), axis=-1), e)
        return float(np.max(norms))

    @classmethod
    def from_callable(cls, fn, axes) -> "TruncatedFunction":
        # the axes are checked before fn, which may be costly, is called
        grid = cls(axes, np.empty([np.size(a) for a in axes]))
        vals = np.asarray(fn(grid.grid_points()), dtype=float)
        return cls(grid.axes, vals.reshape(grid.grid_shape + vals.shape[1:]))


def _hat(axis: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped linear hat weights: p, clamped to ``axis``, lies at fraction
    frac of the cell [axis[left], axis[left + 1]]; returns (left, frac)."""
    p = np.clip(p, axis[0], axis[-1])
    left = np.clip(np.searchsorted(axis, p) - 1, 0, axis.shape[0] - 2)
    return left, (p - axis[left]) / (axis[left + 1] - axis[left])


def box_axes(kernel: OuKernel, n_per_axis: int = 257,
             radius_mult: float = 4.0) -> tuple[np.ndarray, ...]:
    """Per-axis grids covering radius_mult stationary deviations; an axis
    with q = 0 gets the unit radius.  radius_mult must be finite and
    positive."""
    if n_per_axis < 2:
        raise ConfigError(f"need at least 2 points per axis, got {n_per_axis}")
    if not 0.0 < radius_mult < math.inf:
        raise ConfigError(f"radius_mult must be finite and positive, got {radius_mult}")
    radii = radius_mult * kernel.stationary_std()
    radii = np.where(radii > 0, radii, 1.0)
    return tuple(np.linspace(-r, r, n_per_axis) for r in radii)


def _hermite_1d(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal Gauss-Hermite rule on one axis: nodes, weights."""
    z, w = np.polynomial.hermite_e.hermegauss(order)
    return z, w / math.sqrt(2.0 * math.pi)


def _check_quadrature(f: TruncatedFunction, kernel: OuKernel, order: int,
                      name: str) -> None:
    """Refuse an f of another dimension than the kernel's, or an order < 3."""
    if f.dim != kernel.dim:
        raise ConfigError(f"{name} and kernel dimensions differ")
    if order < 3:
        raise ValueError("quadrature order must be >= 3")


def _locate(axis: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell and fraction of each point of ``pts`` on ``axis``, in grid-index
    space: (cell, frac), both shaped like ``pts``.

    One ``np.interp`` onto the node indices 0..n-1 gives each point's index
    u: it clamps to the box, and along a sorted last axis of ``pts`` its
    search starts from the previous point's cell.  The point lies in cell
    min(floor(u), n - 2) at fraction u - cell, with no search, clip or
    gather of its own.  That fraction is the one :func:`_hat` computes in
    coordinates, but it passes through u, which spends bits on the cell
    index, so it differs from _hat's by at most a few ulps of n - 1.
    """
    n = axis.shape[0]
    frac = np.interp(pts, axis, np.arange(n, dtype=float))  # the index u
    cell = np.minimum(frac.astype(np.intp), n - 2)
    frac -= cell
    return cell, frac


def _axis_apply(jobs, a: int, axis: np.ndarray, decay: float, std: float,
                z: np.ndarray) -> list[list[np.ndarray]]:
    """Contract grid axis ``a`` of arrays with the 1-D transition.

    Each job is (values, weight vectors), values of shape grid_shape +
    out_shape; each weight vector u gives, at node i of ``axis``,
    sum_q u_q f(x_i decay + z_q std), with f the values interpolated along
    axis a by clamped linear hat weights.  Returns, per job, one array of
    the values' shape per weight vector.  The points are located once
    (:func:`_locate`) for every job, in chunks of Hermite nodes of at most
    _CHUNK_POINTS gathered values, and each job's values are interpolated
    there once, (1 - frac) f[cell] + frac f[cell + 1], for all its weights.
    """
    n = axis.shape[0]
    flat = [np.moveaxis(v, a, 0).reshape(n, -1) for v, _ in jobs]
    rest = flat[0].shape[1]
    sums = [[np.zeros((n, rest)) for _ in ws] for _, ws in jobs]
    step = max(1, _CHUNK_POINTS // max(n * rest, 1))
    for s in range(0, z.shape[0], step):
        # row q holds the images of the nodes under Hermite node q: sorted
        cell, frac = _locate(axis, decay * axis + (std * z[s:s + step])[:, None])
        lo = (1.0 - frac)[:, :, None]
        frac = frac[:, :, None]
        right = cell + 1
        for vals, (_, ws), acc in zip(flat, jobs, sums):
            interp = vals[cell]
            interp *= lo
            hi = vals[right]
            hi *= frac
            interp += hi
            for u, out in zip(ws, acc):
                out += np.tensordot(u[s:s + step], interp, 1)
    shape = np.moveaxis(jobs[0][0], a, 0).shape
    return [[np.moveaxis(out.reshape(shape), 0, a) for out in acc] for acc in sums]


def _kernel_apply(f: TruncatedFunction, t: float, kernel: OuKernel, order: int,
                  want_gradient: bool) -> np.ndarray:
    """T_t f, or with ``want_gradient`` D T_t f, sampled on f's own grid:
    values of shape grid_shape + out_shape (+ (d,) for the gradient).

    The tensor Gauss-Hermite rule, the diagonal kernel and multilinear
    interpolation factor per axis, so T_t f = V_0 ... V_{d-1} f, and the
    gradient on axis b takes D_b in place of V_b, with V_a and D_a the 1-D
    matrices of :func:`_axis_matrices` (weights w_q and w_q z_q decay_a /
    std_a).  They are applied one axis at a time by :func:`_axis_apply`
    without being formed; on each axis, the partial V-contraction gives
    both the next one and D_a.
    """
    decay, std = kernel.transition(t)
    if want_gradient and np.any(std == 0.0):
        raise ValueError("gradient weights are singular for a degenerate axis")
    z, w = _hermite_1d(order)
    # f contracted on the axes done so far: V on each (mean), or D on axis
    # b and V on the others (grads[b]); the gradient leaves the last mean
    # unused, which costs one weighted sum of values gathered anyway
    mean, grads = f.values, []
    for a, axis in enumerate(f.axes):
        weights = [w, w * z * (decay[a] / std[a])] if want_gradient else [w]
        (mean, *grad_a), *rest = _axis_apply(
            [(mean, weights)] + [(g, [w]) for g in grads], a, axis, decay[a], std[a], z)
        grads = [outs[0] for outs in rest] + grad_a
    return np.stack(grads, axis=-1) if want_gradient else mean


def ou_semigroup_apply(f: TruncatedFunction, t: float, kernel: OuKernel,
                       order: int = 24) -> TruncatedFunction:
    """(T_t f)(x) = E f(Z_t^x) by tensor Gauss-Hermite quadrature.

    t = 0 returns f unchanged, and t = inf the stationary mean; a negative
    or NaN t raises ValueError.  f must have the kernel's dimension, and
    the quadrature must be at least cubic (order >= 3).  A value of f that
    is not finite raises :class:`IntegrationError` naming its grid node.
    All are checked before any quadrature node is built.
    """
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    _check_quadrature(f, kernel, order, "f")
    _require_finite("f", f.values, f.axes)
    if t == 0.0:
        return TruncatedFunction(f.axes, f.values.copy())
    return TruncatedFunction(f.axes, _kernel_apply(f, t, kernel, order,
                                                   want_gradient=False))


def ou_gradient_apply(f: TruncatedFunction, t: float, kernel: OuKernel,
                      order: int = 24) -> TruncatedFunction:
    """Gradient D(T_t f) via Gaussian integration by parts.

    Output gains a trailing axis of length d.  t must be positive (the
    reweighting is singular at t = 0), and a NaN t raises ValueError; the
    estimate needs only bounded f, no smoothness (order, dimension and
    finite values: see :func:`ou_semigroup_apply`).
    """
    if not t > 0:
        raise ValueError(f"gradient of the transition requires t > 0, got {t}")
    _check_quadrature(f, kernel, order, "f")
    _require_finite("f", f.values, f.axes)
    return TruncatedFunction(f.axes, _kernel_apply(f, t, kernel, order,
                                                   want_gradient=True))


@dataclass
class ZvonkinSolution:
    """Fixed point U with its gradient field and convergence record."""

    u: TruncatedFunction
    du: TruncatedFunction  # Jacobian, out_shape (d_out, d)
    lam: float
    residual: float
    iterations: int
    converged: bool
    change_history: list[float]

    def table_row(self) -> dict:
        """lambda, sup|U|, sup|DU|, residual and iterations of the solve."""
        return {
            "lambda": float(self.lam),
            "sup_u": self.u.sup_norm(),
            "sup_du": self.du.sup_norm(),
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _pair_drift(bbar_vals: np.ndarray, du_vals: np.ndarray) -> np.ndarray:
    """<Bbar, DU>: directional derivative of each output along Bbar."""
    return np.einsum("...j,...cj->...c", bbar_vals, du_vals)


def check_lambdas(lambdas) -> None:
    """Reject lambdas that are not finite, positive and strictly increasing."""
    if not all(0.0 < lam < math.inf for lam in lambdas):
        raise ConfigError(f"lambdas must be finite and positive, got {lambdas}")
    if any(b <= a for a, b in zip(lambdas[:-1], lambdas[1:])):
        raise ConfigError("lambdas must be increasing")


def check_picard_grid(grid_shape) -> None:
    """Reject grids whose assembled sweep operators exceed the node cap."""
    n_nodes = math.prod(grid_shape)
    if n_nodes > MAX_PICARD_NODES:
        raise ConfigError(
            f"picard_solve takes at most {MAX_PICARD_NODES} grid nodes, got "
            f"{n_nodes} ({' x '.join(map(str, grid_shape))}); use a coarser grid"
        )


def _log_quadrature_nodes(t_min: float, t_max: float, n_panels: int,
                          order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on log-spaced panels of [t_min, t_max],
    for the time integral of :func:`picard_solve`."""
    edges = np.exp(np.linspace(math.log(t_min), math.log(t_max), n_panels + 1))
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _axis_matrices(axis: np.ndarray, decay: np.ndarray, std: np.ndarray,
                   z: np.ndarray, w: np.ndarray, damp: np.ndarray | None = None):
    """Per-node 1-D transition matrices on one axis, or their damped sum.

    For time nodes with per-axis ``decay`` and ``std`` (both (T,)),
    matrix V[t] sends samples f on ``axis`` to
    sum_q w_q f(x_i decay_t + z_q std_t), with f interpolated by clamped
    linear hat weights, as TruncatedFunction does; D[t] uses the
    integration-by-parts weights w_q z_q decay_t / std_t instead.
    Returns (V, D) stacked as (T, n, n), or, given ``damp`` (T,), the
    sums over t of damp_t V[t] and damp_t D[t] as (n, n).

    The quadrature points are laid out as (T, Q, n), so that along the
    last axis they are the images of neighbouring nodes and sorted, and
    :func:`_locate` finds all their cells and fractions with one
    ``np.interp`` onto the node indices.  So each weight differs from
    :func:`_hat`'s by at most a few ulps of n - 1 times w_q (times |z_q|
    decay_t / std_t in D).  Point evaluation keeps _hat, which is exact at
    the nodes.
    """
    n, n_t = axis.shape[0], decay.shape[0]
    pts = decay[:, None, None] * axis + (std[:, None] * z)[:, :, None]  # (T, Q, n)
    cell, hi = _locate(axis, pts)
    lo = 1.0 - hi
    cell += np.arange(0, n * n, n)  # row i of the node's own image
    if damp is None:
        cell += np.arange(0, n_t * n * n, n * n)[:, None, None]
        wq, out = w[:, None], (n_t, n, n)
    else:
        wq, out = (damp[:, None] * w)[:, :, None], (n, n)
    lo *= wq
    hi *= wq
    cell = cell.ravel()
    size = math.prod(out)

    def scatter():
        # hi goes to column left + 1: the bins of cell, shifted by one
        # (a cell is at most size - 2, so the last bin is empty)
        m = np.bincount(cell, lo.ravel(), minlength=size)
        m[1:] += np.bincount(cell, hi.ravel(), minlength=size)[:-1]
        return m.reshape(out)

    value = scatter()
    zr = (z * (decay / std)[:, None])[:, :, None]
    lo *= zr
    hi *= zr
    return value, scatter()


def _sweep_operators(axes, kernel: OuKernel, order: int, nodes: np.ndarray,
                     damp: np.ndarray, head: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense maps of one Picard sweep on the tensor grid ``axes``.

    Returns A (G, G) and B (d, G, G) with new_U = A psi and new_DU[..., b]
    = B[b] psi for psi sampled on the G grid nodes (C order), where
    A = head I + sum_t damp_t K_t and K_t is the Gauss-Hermite transition
    operator at time node t, which :func:`_kernel_apply` applies to a
    single function one axis at a time.  The tensor rule, the diagonal
    kernel and multilinear interpolation all factor per axis, so K_t is
    the Kronecker product of 1-D matrices (B[b] takes the gradient
    matrix on axis b).  Time nodes are taken in chunks.  For d = 1,
    where an axis has the most points, ``bincount`` scatters the damped
    sum over t directly, so no (T, n, n) stack is built; for d >= 2 it
    scatters the per-node matrices, and the damped Khatri-Rao product
    over t of the leading axes times the last axis' matrices is one
    matrix product per chunk.
    """
    d = kernel.dim
    shape = tuple(a.shape[0] for a in axes)
    z, w = _hermite_1d(order)
    decay, std = kernel.transition(nodes[:, None])  # (T, d)
    if np.any(std == 0.0):
        raise ValueError("gradient weights are singular for a degenerate axis")
    g_nodes = math.prod(shape)
    ops = np.zeros((d + 1, g_nodes, g_nodes))  # A, then B[0..d-1]
    # each operator seen with axes (i0, j0, i1, j1, ...), where the
    # Kronecker factors of one time node sit side by side
    interleave = tuple(a + off for a in range(d) for off in (0, d))
    views = [op.reshape(shape + shape).transpose(interleave) for op in ops]
    for s in range(0, nodes.shape[0], _CHUNK_NODES):
        sl = slice(s, s + _CHUNK_NODES)
        if d == 1:
            value, grad = _axis_matrices(axes[0], decay[sl, 0], std[sl, 0], z, w,
                                         damp[sl])
            ops[0] += value
            ops[1] += grad
            continue
        n_t = nodes[sl].shape[0]
        mats = [[m.reshape(n_t, -1) for m in
                 _axis_matrices(axes[a], decay[sl, a], std[sl, a], z, w)]
                for a in range(d)]
        for k, view in enumerate(views):  # k = 0: values; else gradient on axis k-1
            kr = damp[sl, None]
            for a in range(d - 1):
                m = mats[a][int(k == a + 1)]
                kr = (kr[:, :, None] * m[:, None, :]).reshape(n_t, -1)
            view += (kr.T @ mats[d - 1][int(k == d)]).reshape(view.shape)
    a_op = ops[0]
    a_op[np.diag_indices(g_nodes)] += head
    return a_op, ops[1:]


def _require_finite(name: str, vals: np.ndarray, axes) -> None:
    """IntegrationError naming the first node (C order) of the tensor grid
    ``axes`` where ``vals`` (grid shape first) is not finite."""
    shape = tuple(a.shape[0] for a in axes)
    bad = ~np.all(np.isfinite(vals.reshape(math.prod(shape), -1)), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        node = np.unravel_index(i, shape)
        where = ", ".join(f"{a[j]:.6g}" for a, j in zip(axes, node))
        raise IntegrationError(
            f"{name} is not finite at grid node {i}, x = ({where})")


def picard_solve(g: TruncatedFunction, bbar, lam: float, kernel: OuKernel,
                 order: int = 24, max_iter: int = 60) -> ZvonkinSolution:
    """Solve lambda*U - L*U = G by iterating the damped integral map.

    Starting from U_0 = 0, each sweep evaluates
    U_n = int e^{-lambda t} T_t(<Bbar, DU_{n-1}> + G) dt on g's grid,
    with the gradient computed by the integration-by-parts weights at
    the same time nodes.  The sweep is linear in psi = G + <Bbar, DU>,
    so its dense operators are assembled once per call and every sweep
    is two matrix products.  ``order`` is the Gauss-Hermite order per
    axis, >= 3.  The time integral takes T_t = Id on [0, _T_MIN] and
    _GL_ORDER-point Gauss-Legendre rules on _N_PANELS log-spaced panels
    of [_T_MIN, T_max] (:func:`_log_quadrature_nodes`; _T_MIN = 1e-8,
    _GL_ORDER = 8, _N_PANELS = 30), where T_max = 40 / min(lambda,
    lambda_1) leaves a tail of at most e^{-40} of the integral.  Stops
    when the sup-norm change of (U, DU) falls below 1e-3 * sup|G|;
    growth of the change across three consecutive sweeps raises
    :class:`PicardDivergenceError` (increase lambda).  Grids of more
    than :data:`MAX_PICARD_NODES` nodes raise :class:`ConfigError`, and
    a G or Bbar that is not finite at a grid node raises
    :class:`IntegrationError` naming the node, before any assembly;
    ``max_iter`` < 1 raises :class:`ConfigError` before any work.
    """
    check_lambdas([lam])
    _check_quadrature(g, kernel, order, "g")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    d = kernel.dim
    check_picard_grid(g.grid_shape)
    t_max = 40.0 / min(lam, float(kernel.eigenvalues[0]))
    if t_max == math.inf:
        raise ConfigError(f"lambda={lam:g} is too small for a finite time horizon")
    out = g.out_shape
    x = g.grid_points()
    _require_finite("G", g.values, g.axes)
    bbar_vals = np.asarray(bbar(x), dtype=float).reshape(g.grid_shape + (d,))
    _require_finite("Bbar", bbar_vals, g.axes)
    tol = 1e-3 * max(g.sup_norm(), 1e-12)

    nodes, weights = _log_quadrature_nodes(_T_MIN, t_max, _N_PANELS, _GL_ORDER)
    with np.errstate(over="ignore"):  # lam * t may reach inf: e^-inf = 0
        damp = weights * np.exp(-lam * nodes)
    head = -math.expm1(-lam * _T_MIN) / lam  # int_0^tmin e^{-lam t} dt, T_t ~ Id
    a_op, b_op = _sweep_operators(g.axes, kernel, order, nodes, damp, head)

    u_shape, du_shape = g.grid_shape + out, g.grid_shape + out + (d,)
    u_vals, du_vals = np.zeros(u_shape), np.zeros(du_shape)

    def sweep(du_vals):
        psi = (g.values + _pair_drift(bbar_vals, du_vals)).reshape(a_op.shape[0], -1)
        new_u = (a_op @ psi).reshape(u_shape)
        new_du = np.moveaxis(b_op @ psi, 0, -1).reshape(du_shape)
        return new_u, new_du

    history: list[float] = []
    converged = False
    grew = 0
    for it in range(1, max_iter + 1):
        new_u, new_du = sweep(du_vals)
        change = max(float(np.max(np.abs(new_u - u_vals))),
                     float(np.max(np.abs(new_du - du_vals))))
        u_vals, du_vals = new_u, new_du
        history.append(change)
        if change < tol:
            converged = True
            break
        if len(history) >= 2 and history[-1] > history[-2]:
            grew += 1
            if grew >= 3:
                raise PicardDivergenceError(
                    f"fixed-point sweeps are expanding at lambda={lam:g}; "
                    "increase lambda"
                )
        else:
            grew = 0

    resid_u, _ = sweep(du_vals)
    residual = float(np.max(np.linalg.norm(
        (resid_u - u_vals).reshape(g.grid_shape + (-1,)), axis=-1)))
    u = TruncatedFunction(g.axes, u_vals)
    du = TruncatedFunction(g.axes, du_vals)
    return ZvonkinSolution(u=u, du=du, lam=lam, residual=residual,
                           iterations=len(history), converged=converged,
                           change_history=history)


def dlambda_curve(g: TruncatedFunction, bbar, kernel: OuKernel,
                  lambdas, order: int = 24) -> list[dict]:
    """Resolvent norms across increasing lambda.

    Returns one :meth:`ZvonkinSolution.table_row` per lambda: sup|U|,
    sup|DU| (Frobenius per point) and the fixed-point residual; the sup
    norms decay as lambda grows.  The lambdas must strictly increase.
    """
    lambdas = list(lambdas)
    check_lambdas(lambdas)
    return [picard_solve(g, bbar, lam, kernel, order=order).table_row()
            for lam in lambdas]
