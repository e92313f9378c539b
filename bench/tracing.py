"""Span tracer that times the package's layers from outside.

:meth:`Tracer.install` replaces each traced function with a timing
wrapper in every namespace that binds it.  The package imports names
into its modules (``from .spectral import coeffs_to_grid_values``), so
a function is wrapped in each module that holds it, not only where it
is defined; methods are wrapped on their class.  Every call records a
span (group, start, end, parent) in flat in-memory arrays, and the
self time of a group is its spans' durations minus the time covered by
their child spans.  Counters (rows, values, normals, ...) are taken
from the arguments and results at the same boundaries.  Spans are
written out only at the end, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Groups that own spans; each gets "<group>.calls" and "<group>.s".
GROUPS = (
    "spectral.to_grid", "spectral.from_grid",
    "model.drift_f", "model.drift_b",
    "noise.draw", "noise.law",
    "simulate",
    "averaging.estimate", "averaging.oracle",
    "zvonkin.picard", "zvonkin.interp", "zvonkin.apply", "zvonkin.tabulate",
    "experiments",
    "cli",
)


def _rows(a) -> int:
    return math.prod(np.shape(a)[:-1])


class Tracer:
    """Collects spans and counters for the calls made while installed."""

    def __init__(self):
        self.group_ids = {g: i for i, g in enumerate(GROUPS)}
        self.starts = array("d")
        self.ends = array("d")
        self.group = array("i")
        self.parent = array("i")
        self._open: list[int] = []       # span ids of the open call stack
        self._child: list[float] = []    # child time covered, per open span
        self.self_s = [0.0] * len(GROUPS)
        self.calls = [0] * len(GROUPS)
        self.counts: dict[str, float] = defaultdict(float)
        self.oracles: list = []
        self._estimated: set = set()
        self._estimate = None

    # -- recording -------------------------------------------------------

    def wrap(self, fn, group: str, count=None):
        """Timing wrapper around ``fn``; ``count(tracer, args, kwargs, result)``."""
        gid = self.group_ids[group]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.starts)
            self.parent.append(self._open[-1] if self._open else -1)
            self.group.append(gid)
            self.ends.append(math.nan)
            self._open.append(sid)
            self._child.append(0.0)
            t0 = perf_counter()
            self.starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.ends[sid] = t1
                self._open.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += t1 - t0
                self.self_s[gid] += t1 - t0 - child
                self.calls[gid] += 1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    # -- counters --------------------------------------------------------

    @staticmethod
    def _count_size(name, of=lambda result: result):
        def count(tracer, args, kwargs, result):
            tracer.counts[name] += np.size(of(result))
        return count

    @staticmethod
    def _count_rows(name, of=lambda result: result):
        def count(tracer, args, kwargs, result):
            tracer.counts[name] += _rows(of(result))
        return count

    def _count_estimate(self, args, kwargs, result):
        """Frozen paths, path-steps, and paths re-estimated at a point
        already estimated with equal parameters and seed."""
        bound = inspect.signature(self._estimate).bind(*args, **kwargs).arguments
        xs = np.atleast_2d(np.asarray(bound["xs"], dtype=float))
        params, seed = bound["params"], bound["seed"]
        paths = xs.shape[0] * params.n_replicas
        n_burn = int(round(params.t_burn / params.dt))
        n_avg = max(1, int(round(params.t_avg / params.dt)))
        steps = n_burn + (n_avg if params.strategy == "time-average" else 0)
        self.counts["averaging.estimate.rows"] += paths
        self.counts["averaging.estimate.row_steps"] += paths * steps
        for row in xs:
            key = (row.tobytes(), params, int(seed))
            if key in self._estimated:
                self.counts["averaging.estimate.repeat_rows"] += params.n_replicas
            else:
                self._estimated.add(key)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the package's layer functions wherever a module binds them."""
        import slowfast_spde as package
        from slowfast_spde import (averaging, cli, config, experiments, model,
                                   noise, simulate, spectral, zvonkin)

        modules = (package, spectral, noise, model, simulate, averaging,
                   zvonkin, experiments, cli, config)

        def everywhere(fn, group, count=None):
            wrapped = self.wrap(fn, group, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)

        def on_class(cls, name, group, count=None):
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self.wrap(raw.__func__, group, count)))
            else:
                setattr(cls, name, self.wrap(raw, group, count))

        c, rows = self._count_size, self._count_rows
        everywhere(spectral.coeffs_to_grid_values, "spectral.to_grid",
                   rows("spectral.to_grid.rows"))
        everywhere(spectral.to_grid, "spectral.to_grid",
                   rows("spectral.to_grid.rows", lambda r: r.values))
        everywhere(spectral.grid_values_to_coeffs, "spectral.from_grid",
                   rows("spectral.from_grid.rows"))
        everywhere(spectral.from_grid, "spectral.from_grid",
                   rows("spectral.from_grid.rows", lambda r: r.coeffs))
        # heat_example reads these module globals when it builds a config,
        # so every ModelConfig built after install carries the wrappers.
        everywhere(model.heat_drift_b, "model.drift_b", c("model.drift_b.values"))
        everywhere(model.heat_drift_f, "model.drift_f", c("model.drift_f.values"))
        on_class(noise.NoiseStream, "standard_normals", "noise.draw",
                 c("noise.normals"))
        everywhere(noise.conv_increment_law, "noise.law")

        def count_macro(t, a, k, r):
            t.counts["simulate.macro_steps"] += 1

        def count_averaged(t, a, k, r):
            t.counts["simulate.macro_steps"] += len(r) - 1

        everywhere(simulate.step_slow_fast, "simulate", count_macro)
        everywhere(simulate.simulate_averaged, "simulate", count_averaged)
        for fn in (simulate.simulate_slow_fast, simulate.simulate_frozen,
                   simulate.simulate_auxiliary_fast):
            everywhere(fn, "simulate")

        self._estimate = averaging.estimate_bbar_batch
        everywhere(averaging.estimate_bbar_batch, "averaging.estimate",
                   Tracer._count_estimate)
        everywhere(averaging.estimate_bbar, "averaging.estimate")
        on_class(averaging.BbarOracle, "__call__", "averaging.oracle")
        oracle_init = averaging.BbarOracle.__init__

        @functools.wraps(oracle_init)
        def register(oracle, *args, **kwargs):
            oracle_init(oracle, *args, **kwargs)
            self.oracles.append(oracle)

        averaging.BbarOracle.__init__ = register

        def count_sweeps(t, a, k, r):
            t.counts["zvonkin.picard.sweeps"] += r.iterations + 1  # + residual sweep

        everywhere(zvonkin.picard_solve, "zvonkin.picard", count_sweeps)
        everywhere(zvonkin.dlambda_curve, "zvonkin.picard")

        def count_points(t, a, k, r):
            t.counts["zvonkin.interp.points"] += _rows(a[1])

        on_class(zvonkin.TruncatedFunction, "__call__", "zvonkin.interp",
                 count_points)
        everywhere(zvonkin.ou_semigroup_apply, "zvonkin.apply")
        everywhere(zvonkin.ou_gradient_apply, "zvonkin.apply")
        on_class(zvonkin.TruncatedFunction, "from_callable", "zvonkin.tabulate")

        for name in experiments.__all__:
            fn = getattr(experiments, name)
            if callable(fn) and not isinstance(fn, type):
                everywhere(fn, "experiments")
        everywhere(cli.main, "cli")

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, self seconds and counters of every group, plus oracle stats."""
        out: dict[str, float] = {}
        for g, gid in self.group_ids.items():
            out[f"{g}.calls"] = self.calls[gid]
            out[f"{g}.s"] = self.self_s[gid]
        for name in ("spectral.to_grid.rows", "spectral.from_grid.rows",
                     "model.drift_f.values", "model.drift_b.values",
                     "noise.normals", "simulate.macro_steps",
                     "averaging.estimate.rows", "averaging.estimate.row_steps",
                     "averaging.estimate.repeat_rows", "zvonkin.picard.sweeps",
                     "zvonkin.interp.points"):
            out[name] = self.counts.get(name, 0)
        out["noise.draws"] = out.pop("noise.draw.calls")
        stats = [o.stats for o in self.oracles]
        calls = sum(s["calls"] for s in stats)
        hits = sum(s["cache_hits"] for s in stats)
        out["averaging.oracle.calls"] = calls
        out["averaging.oracle.hits"] = hits
        out["averaging.oracle.hit_ratio"] = hits / calls if calls else 0.0
        out["averaging.oracle.cells"] = sum(s["cached_cells"] for s in stats)
        return out

    def attributed_s(self) -> float:
        """Seconds covered by spans of named layers (sum of self times)."""
        return float(sum(self.self_s))

    def save(self, path) -> None:
        """Write every span as flat arrays (.npz) with the group names."""
        np.savez_compressed(
            path, start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
            group=np.frombuffer(self.group, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            groups=np.array(GROUPS))
