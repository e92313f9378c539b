"""The frozen-fast stepper works in place: one drift-value buffer per
frozen state, callers' arrays left alone, plain drifts as before, and no
allocation per step."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slowfast_spde.averaging import AveragingParams, estimate_bbar_batch
from slowfast_spde.errors import ConfigError
from slowfast_spde.experiments import contraction_test
from slowfast_spde.model import heat_example
from slowfast_spde.noise import conv_increment_law, derive_substream
from slowfast_spde.simulate import (SlowFastState, StepScheme, _frozen_fast,
                                    simulate_auxiliary_fast, simulate_frozen,
                                    simulate_slow_fast, step_slow_fast)
from slowfast_spde import simulate
from slowfast_spde.spectral import (_rows_per_product, coeffs_to_grid_values,
                                    grid_values_to_coeffs)

PARAMS = AveragingParams(t_burn=0.2, t_avg=0.3, dt=0.02, n_replicas=2)
N_BURN, N_AVG = 10, 15  # PARAMS in steps


@pytest.fixture(scope="module")
def heat():
    return heat_example(0.1, 0.1, 8)


@pytest.fixture()
def fields():
    rng = np.random.default_rng(31)
    return lambda *shape: rng.standard_normal(shape) / np.arange(1, 9)


def streams(seed=1):
    return derive_substream(seed, 0, "W1", 8), derive_substream(seed, 0, "W2", 8)


def recording(drift, seen):
    """``drift`` under the frozen-x protocol, noting the address of each
    ``out`` it is handed (None when it gets none)."""
    def wrapped(x_grid, y_grid, *, x_part=None, out=None):
        seen.append(None if out is None else out.ctypes.data)
        return drift(x_grid, y_grid, x_part=x_part, out=out)

    wrapped.x_part = drift.x_part
    return wrapped


def plain(drift):
    """``drift`` as a plain two-argument callable, outside the protocol."""
    return lambda x_grid, y_grid: drift(x_grid, y_grid)


class TestOneDriftBuffer:
    def test_every_estimate_step_writes_one_buffer(self, heat, fields):
        seen = []
        cfg = replace(heat, drift_f=recording(heat.drift_f, seen),
                      drift_b=recording(heat.drift_b, seen))
        xs = fields(3, 8)
        values, stderr = estimate_bbar_batch(cfg, xs, PARAMS, seed=4)
        # F on every step between the N_BURN + N_AVG states, B on the last N_AVG
        assert len(seen) == (N_BURN + N_AVG - 1) + N_AVG
        assert None not in seen and len(set(seen)) == 1
        ref_values, ref_stderr = estimate_bbar_batch(heat, xs, PARAMS, seed=4)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(stderr, ref_stderr)

    @pytest.mark.parametrize("n_paths", [None, 3])
    def test_every_substep_of_a_macro_step_writes_one_buffer(self, heat, fields,
                                                            n_paths):
        seen = []
        cfg = replace(heat, drift_f=recording(heat.drift_f, seen),
                      drift_b=recording(heat.drift_b, seen))
        shape = (8,) if n_paths is None else (n_paths, 8)
        state = SlowFastState(x=fields(*shape), y=fields(*shape), t=0.0, eps=1e-2)
        scheme = StepScheme(1e-2)
        new = step_slow_fast(state, scheme, *streams(5), cfg)
        assert scheme.n_substeps(1e-2) == 10
        assert len(seen) == 1 + 10  # B once, F on every substep
        assert None not in seen and len(set(seen)) == 1
        ref = step_slow_fast(state, scheme, *streams(5), heat)
        assert np.array_equal(new.x, ref.x) and np.array_equal(new.y, ref.y)


class TestCallerArraysUnchanged:
    def test_step_slow_fast(self, heat, fields):
        x, y = fields(4, 8), fields(4, 8)
        state = SlowFastState(x=x, y=y, t=0.0, eps=1e-2)
        x0, y0 = x.copy(), y.copy()
        new = step_slow_fast(state, StepScheme(1e-2), *streams(), heat)
        assert state.x is x and state.y is y
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
        assert not np.array_equal(new.y, y0)

    @pytest.mark.parametrize("shapes", [((4, 8), (8,)), ((8,), (4, 8))])
    def test_step_slow_fast_refuses_mixed_shapes(self, heat, fields, shapes):
        state = SlowFastState(x=fields(8), y=fields(8), t=0.0, eps=1e-2)
        state.x, state.y = fields(*shapes[0]), fields(*shapes[1])
        with pytest.raises(ConfigError, match="share a shape"):
            step_slow_fast(state, StepScheme(1e-2), *streams(), heat)

    def test_simulate_slow_fast(self, heat, fields):
        x, y = fields(8), fields(8)
        x0, y0 = x.copy(), y.copy()
        simulate_slow_fast(heat, 1e-2, x, y, 0.02, StepScheme(1e-2), *streams())
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    def test_simulate_frozen(self, heat, fields):
        x, y = fields(8), fields(5, 8)
        x0, y0 = x.copy(), y.copy()
        traj = simulate_frozen(heat, x, y, 0.2, 0.02, streams()[1])
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
        assert np.array_equal(traj.states[0], y0)
        assert not np.array_equal(traj.states[1], y0)

    def test_simulate_auxiliary_fast(self, heat, fields):
        scheme = StepScheme(1e-2)
        w1, w2 = streams()
        xs, _ = simulate_slow_fast(heat, 1e-2, np.zeros(8), np.zeros(8), 0.04,
                                   scheme, w1, w2)
        slow = xs.states.copy()
        y = fields(8)
        y0 = y.copy()
        simulate_auxiliary_fast(heat, 1e-2, xs, 0.02, y, scheme, w2.replay())
        assert np.array_equal(y, y0) and np.array_equal(xs.states, slow)

    @pytest.mark.parametrize("y0_shape", [(8,), (3, 8), (6, 8)],
                             ids=["one-field", "per-point", "per-path"])
    def test_estimate_y0(self, heat, fields, y0_shape):
        xs, y0 = fields(3, 8), fields(*y0_shape)
        xs0, y00 = xs.copy(), y0.copy()
        estimate_bbar_batch(heat, xs, PARAMS, seed=2, y0=y0)
        assert np.array_equal(xs, xs0) and np.array_equal(y0, y00)

    def test_contraction_test(self, heat, fields):
        x_base = fields(8)
        x0 = x_base.copy()
        contraction_test(heat, (0.1, 0.2), 0.02, n_mc=4, seed=3,
                         x_offset_scales=(0.1, 0.2), x_base=x_base)
        assert np.array_equal(x_base, x0)

    def test_shared_normals_are_only_read(self, heat, fields):
        # two ensembles stepped on one draw, as contraction_test does
        step = _frozen_fast(heat, 0.02)(
            coeffs_to_grid_values(fields(5, 8), heat.m_points), 5)
        z, y = fields(5, 8), fields(5, 8)
        z0 = z.copy()
        ya, yb = y.copy(), y.copy()
        assert step(ya, z) is ya
        step(yb, z)
        assert np.array_equal(z, z0) and np.array_equal(ya, yb)


class TestPlainDrifts:
    """Drifts without the protocol give the same numbers, bit for bit."""

    @pytest.fixture()
    def plain_heat(self, heat):
        return replace(heat, drift_f=plain(heat.drift_f),
                       drift_b=plain(heat.drift_b))

    def test_estimate(self, heat, plain_heat, fields):
        xs = fields(3, 8)
        got = estimate_bbar_batch(plain_heat, xs, PARAMS, seed=6)
        ref = estimate_bbar_batch(heat, xs, PARAMS, seed=6)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_coupled_path(self, heat, plain_heat, fields):
        x0, y0 = fields(2, 8), fields(2, 8)
        got = simulate_slow_fast(plain_heat, 1e-2, x0, y0, 0.03, StepScheme(1e-2),
                                 *streams(7))
        ref = simulate_slow_fast(heat, 1e-2, x0, y0, 0.03, StepScheme(1e-2),
                                 *streams(7))
        assert all(np.array_equal(a.states, b.states) for a, b in zip(got, ref))

    def test_mixed_with_protocol_drift(self, heat, fields):
        cfg = replace(heat, drift_b=plain(heat.drift_b))
        xs = fields(3, 8)
        got = estimate_bbar_batch(cfg, xs, PARAMS, seed=6)
        ref = estimate_bbar_batch(heat, xs, PARAMS, seed=6)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_values_of_a_broadcast_shape(self, heat, fields):
        # a y-free drift at one x returns one row for a batch of paths;
        # the step projects that row and broadcasts it, as it always did
        def f_one_row(x_grid, y_grid):
            return np.cos(np.sqrt(np.abs(x_grid)))

        def f_every_row(x_grid, y_grid):
            return np.broadcast_to(f_one_row(x_grid, y_grid), y_grid.shape).copy()

        x, y0 = fields(8), fields(4, 8)
        got, ref = (simulate_frozen(replace(heat, drift_f=f), x, y0, 0.1, 0.02,
                                    streams()[1]).states
                    for f in (f_one_row, f_every_row))
        assert got.shape == ref.shape == (6, 4, 8)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-14)


class TestBoundProducts:
    """At most 256 paths of N = 32, M = 64 (one BLAS product per transform)
    the step multiplies by the sine matrices bound at freeze; above that it
    calls the public transforms.  Either way the numbers are those of the
    public transforms and ``decay * (y + h * f) + std * z``, bit for bit."""

    H = 0.02

    def reference_steps(self, cfg, x_grid, y, zs):
        decay, std = conv_increment_law(self.H, cfg.q2, cfg.eigs)
        for z in zs:
            y_grid = coeffs_to_grid_values(y, cfg.m_points)
            f = grid_values_to_coeffs(cfg.drift_f(x_grid, y_grid), cfg.n_modes)
            y = decay * (y + self.H * f) + std * z
        return y

    def public_calls(self, monkeypatch):
        calls = []
        for name in ("coeffs_to_grid_values", "grid_values_to_coeffs"):
            def counting(*args, _public=getattr(simulate, name), **kwargs):
                calls.append(None)
                return _public(*args, **kwargs)
            monkeypatch.setattr(simulate, name, counting)
        return calls

    def test_256_rows_is_the_last_single_product(self, heat32):
        assert _rows_per_product(heat32.n_modes, heat32.m_points) == 256

    @pytest.mark.parametrize("rows,bound", [(None, True), (1, True), (256, True),
                                            (257, False), (400, False)])
    def test_steps_match_the_public_transforms(self, heat32, monkeypatch, rows,
                                               bound):
        rng = np.random.default_rng(53)
        shape = (32,) if rows is None else (rows, 32)
        scale = np.arange(1, 33)
        x_grid = coeffs_to_grid_values(rng.standard_normal(shape) / scale, 64)
        y0 = rng.standard_normal(shape) / scale
        zs = rng.standard_normal((4,) + shape)
        ref = self.reference_steps(heat32, x_grid, y0, zs)
        calls = self.public_calls(monkeypatch)
        step = _frozen_fast(heat32, self.H)(x_grid, rows)
        y = y0.copy()
        for z in zs:
            assert step(y, z) is y
        assert np.array_equal(y, ref)
        assert len(calls) == (0 if bound else 2 * len(zs))

    def test_values_of_a_broadcast_shape_take_the_public_path(self, heat,
                                                             fields, monkeypatch):
        def f_one_row(x_grid, y_grid):
            return np.cos(np.sqrt(np.abs(x_grid)))

        cfg = replace(heat, drift_f=f_one_row)
        x_grid = coeffs_to_grid_values(fields(8), heat.m_points)
        y0, zs = fields(4, 8), fields(3, 4, 8)
        ref = self.reference_steps(cfg, x_grid, y0, zs)
        calls = self.public_calls(monkeypatch)
        step = _frozen_fast(cfg, self.H)(x_grid, 4)
        y = y0.copy()
        for z in zs:
            step(y, z)
        assert np.array_equal(y, ref)
        assert len(calls) == len(zs)  # the projection of the one row


class TestNoAllocationPerStep:
    @pytest.mark.parametrize("rows", [None, 1, 4096])
    def test_step_allocates_no_array(self, heat, fields, rows):
        # At 4096 paths one field is 256 KiB.  Besides a few small objects,
        # tracemalloc sees only numpy's iteration buffer for the per-mode
        # factors broadcast over the paths, which is freed within the call
        # and holds at most 8192 values (64 KiB) whatever the batch.
        shape = (8,) if rows is None else (rows, 8)
        step = _frozen_fast(heat, 0.02)(
            coeffs_to_grid_values(fields(*shape), heat.m_points), rows)
        y, z = fields(*shape), fields(*shape)
        y_grid = coeffs_to_grid_values(y, heat.m_points)
        step(y, z)  # the first call without y_grid allocates the grid buffer
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(3):
                step(y, z)
                step(y, z, y_grid)
                step.drift_b(y_grid)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 4096
        assert peak - before < (4096 if rows is None else 96 * 1024)
