"""The benchmark's four workloads: their operations, inputs and checks.

Every workload uses the heat model of ``configs/heat.cfg`` (N = 32,
M = 64, r1 = r2 = 0.1, theta = 0.55) and derives all of its inputs from
the workload seed.  A round is the workload's fixed list of operations,
each a call into the package's public API; the same seed makes every
round compute bit-identical outputs.  The checks compare those outputs
with independent computations (``reference.py``) or with properties the
method must have; none of them compares with stored output.

Operations look up package functions on their modules at call time, so
a tracer installed after import sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slowfast_spde import averaging, cli, experiments, model, noise, zvonkin
from slowfast_spde.averaging import AveragingParams
from slowfast_spde.simulate import StepScheme

from reference import (HEAT, agreement, reference_bbar,
                       replay_coupled_prefix)

THETA = 0.55
ROOT = Path(__file__).resolve().parents[1]


def out_dir() -> Path:
    """Where runs write their files (ignored by git)."""
    d = ROOT / ".bench_out"
    d.mkdir(exist_ok=True)
    return d


def build_model():
    return model.heat_example(HEAT["r1"], HEAT["r2"], HEAT["n_modes"])


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _rng(seed: int, tag: int) -> np.random.Generator:
    """Benchmark-side randomness (probe choice, reference noise), apart
    from every stream the package derives from the same seed."""
    return np.random.default_rng([seed, 0xBE9C, tag])


# ----------------------------------------------------------------------
# checks shared by workloads
# ----------------------------------------------------------------------


def check_reference(values, n_replicas, ref_values, ref_stderrs,
                    ref_replicas) -> Check:
    """Program and reference estimates agree within 4 combined stderrs."""
    diff, tol = agreement(values, n_replicas, ref_values, ref_stderrs,
                          ref_replicas)
    worst = float(np.max(diff / tol))
    return Check("agrees with reference estimator within 4 combined stderr",
                 bool(np.all(diff <= tol)), f"max |diff|/tol = {worst:.3f}")


# ----------------------------------------------------------------------
# strong-convergence
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StrongScale:
    eps_grid: tuple = (1e-1, 3e-2, 1e-2, 3e-3)
    dt: float = 2e-3
    t_final: float = 0.01
    n_mc: int = 200
    t_burn: float = 8.0
    t_avg: float = 24.0
    dt_frozen: float = 0.1
    replicas: int = 2
    probe_calls: tuple = (2, 3, 4)   # oracle calls whose states are checked
    probe_rows: int = 2
    ref_replicas: int = 32


class OracleProbe:
    """Averaged-drift callable that forwards to a BbarOracle and keeps a
    few of the states it was queried at, with the values it returned."""

    def __init__(self, oracle, calls, rows_per_call: int, rng):
        self.oracle = oracle
        self.calls = set(calls)
        self.rows_per_call = rows_per_call
        self.rng = rng
        self.n = 0
        self.xs: list[np.ndarray] = []
        self.values: list[np.ndarray] = []

    def __call__(self, x):
        out = self.oracle(x)
        if self.n in self.calls:
            rows = self.rng.choice(x.shape[0], self.rows_per_call, replace=False)
            self.xs.extend(np.array(x[rows]))
            self.values.extend(np.array(out[rows]))
        self.n += 1
        return out

    @property
    def stats(self):
        return self.oracle.stats


def check_errors(estimates, stderrs) -> Check:
    e, s = np.asarray(estimates), np.asarray(stderrs)
    ok = bool(np.all(np.isfinite(e)) and np.all(e > 0) and np.all(np.isfinite(s)))
    return Check("strong errors positive and finite", ok,
                 "errors = " + ", ".join(f"{v:.4g}" for v in e))


def check_monotone(paired) -> Check:
    ok = all(d["mean_diff"] > -1.96 * d["stderr"] for d in paired)
    return Check("paired differences monotone in eps", ok,
                 "min diff/stderr = "
                 f"{min(d['mean_diff'] / d['stderr'] for d in paired):.2f}")


def check_slope(verdict, slope, slope_ci) -> Check:
    ok = verdict == "pass" and slope - slope_ci > 0.0
    return Check("slope 95% CI excludes 0", ok,
                 f"slope = {slope:.4f} +/- {slope_ci:.4f}, verdict {verdict}")


class StrongConvergence:
    """experiments.strong_error at criterion 10's settings, horizon 0.01."""

    name = "strong-convergence"

    def __init__(self, model_cfg, seed: int, scale: StrongScale = StrongScale()):
        self.model, self.seed, self.scale = model_cfg, seed, scale

    def params(self) -> AveragingParams:
        s = self.scale
        return AveragingParams(t_burn=s.t_burn, t_avg=s.t_avg, dt=s.dt_frozen,
                               n_replicas=s.replicas)

    def operations(self):
        def strong_error(out):
            s = self.scale
            oracle = OracleProbe(averaging.BbarOracle(self.model, self.params(),
                                                      seed=self.seed),
                                 s.probe_calls, s.probe_rows, _rng(self.seed, 1))
            report = experiments.strong_error(
                self.model, s.eps_grid, t_final=s.t_final,
                scheme=StepScheme(s.dt), n_mc=s.n_mc, seed=self.seed,
                oracle=oracle, theta=THETA)
            return {"report": report, "probe": oracle}

        return [("strong_error", strong_error)]

    def fingerprint(self, out):
        r = out["strong_error"]["report"]
        return (r.estimates, r.stderrs, r.slope, r.slope_ci)

    def probes(self, out):
        """Queried states and the oracle's values there."""
        probe = out["strong_error"]["probe"]
        return np.array(probe.xs), np.array(probe.values)

    def reference(self, xs):
        s = self.scale
        return reference_bbar(xs, s.t_burn, s.t_avg, s.dt_frozen,
                              s.ref_replicas, _rng(self.seed, 2))

    def checks(self, out):
        r = out["strong_error"]["report"]
        xs, values = self.probes(out)
        ref_values, ref_stderrs = self.reference(xs)
        s = self.scale
        return [check_errors(r.estimates, r.stderrs),
                check_monotone(r.extra["paired_differences"]),
                check_slope(r.verdict, r.slope, r.slope_ci),
                check_reference(values, s.replicas, ref_values, ref_stderrs,
                                s.ref_replicas)]


# ----------------------------------------------------------------------
# holder-batch
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HolderScale:
    n_pairs: int = 200
    t_burn: float = 4.0
    t_avg: float = 4.0
    dt: float = 0.02
    replicas: int = 4
    probe_points: int = 6
    ref_replicas: int = 32


class BatchRecorder:
    """Stands in for experiments.estimate_bbar_batch during one call and
    keeps the points, values and stderrs it returned."""

    def __init__(self, inner):
        self.inner = inner
        self.last = None

    def __call__(self, config, xs, params, seed, **kwargs):
        values, stderrs = self.inner(config, xs, params, seed, **kwargs)
        self.last = (np.asarray(xs), values, stderrs)
        return values, stderrs


def check_holder_verdict(report) -> Check:
    ok = report.verdict == "pass" and bool(np.all(np.isfinite(report.estimates)))
    return Check("Hoelder quotient maximum stable under doubling", ok,
                 f"max = {report.estimates}, change = "
                 f"{report.extra['max_change']:.4f}, verdict {report.verdict}")


def check_bbar_bound(values, bound_b: float) -> Check:
    """|Bbar(x)| <= sqrt(pi) * bound_b: |B| <= bound_b pointwise on (0, pi)."""
    norms = np.linalg.norm(values, axis=-1)
    limit = math.sqrt(math.pi) * bound_b
    return Check("every |Bbar(x)| <= sqrt(pi) * bound_b",
                 bool(np.all(norms <= limit)),
                 f"max |Bbar| = {float(np.max(norms)):.4f} <= {limit:.4f}")


class HolderBatch:
    """experiments.averaged_drift_holder: 800 points x 4 replicas in one batch."""

    name = "holder-batch"

    def __init__(self, model_cfg, seed: int, scale: HolderScale = HolderScale()):
        self.model, self.seed, self.scale = model_cfg, seed, scale

    def operations(self):
        def holder(out):
            s = self.scale
            params = AveragingParams(t_burn=s.t_burn, t_avg=s.t_avg, dt=s.dt,
                                     n_replicas=s.replicas)
            recorder = BatchRecorder(experiments.estimate_bbar_batch)
            experiments.estimate_bbar_batch = recorder
            try:
                report = experiments.averaged_drift_holder(
                    self.model, n_pairs=s.n_pairs, params=params, seed=self.seed)
            finally:
                experiments.estimate_bbar_batch = recorder.inner
            xs, values, stderrs = recorder.last
            return {"report": report, "xs": xs, "values": values,
                    "stderrs": stderrs}

        return [("averaged_drift_holder", holder)]

    def fingerprint(self, out):
        o = out["averaged_drift_holder"]
        return (o["values"].tobytes(), o["stderrs"].tobytes(),
                o["report"].estimates)

    def probe_index(self, n_points: int):
        return _rng(self.seed, 3).choice(n_points, self.scale.probe_points,
                                         replace=False)

    def reference(self, xs):
        s = self.scale
        return reference_bbar(xs, s.t_burn, s.t_avg, s.dt, s.ref_replicas,
                              _rng(self.seed, 4))

    def checks(self, out):
        o = out["averaged_drift_holder"]
        idx = self.probe_index(o["xs"].shape[0])
        ref_values, ref_stderrs = self.reference(o["xs"][idx])
        return [check_holder_verdict(o["report"]),
                check_bbar_bound(o["values"], self.model.bound_b),
                check_reference(o["values"][idx], self.scale.replicas,
                                ref_values, ref_stderrs, self.scale.ref_replicas)]


# ----------------------------------------------------------------------
# zvonkin-1d
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZvonkinScale:
    grid: int = 257
    radius_mult: float = 8.0
    t_burn: float = 4.0
    t_avg: float = 8.0
    dt: float = 0.05
    replicas: int = 2
    lambdas: tuple = (1.0, 10.0, 100.0)
    order: int = 24
    fd_points: int = 8193


G_CONST, LAM_CLOSED = 1.3, 2.0


def check_constant(u_values) -> Check:
    """lambda U - L U = c with zero drift: U = c / lambda."""
    err = float(np.max(np.abs(u_values - G_CONST / LAM_CLOSED)))
    return Check("constant closed form to 1e-6", err < 1e-6, f"err = {err:.2e}")


def check_linear(u_values, x, core) -> Check:
    """lambda U - L U = x on the first mode: U = x / (lambda + lambda_1)."""
    err = float(np.max(np.abs(u_values[core, 0] - x[core] / (LAM_CLOSED + 1.0))))
    return Check("linear closed form to 1e-6", err < 1e-6, f"err = {err:.2e}")


def check_gradient(semigroup_values, gradient_values, grid) -> Check:
    """D T_t f by integration by parts against central differences of T_t f."""
    h = grid[1] - grid[0]
    fd = (semigroup_values[2:, 0] - semigroup_values[:-2, 0]) / (2.0 * h)
    mask = np.abs(grid[1:-1]) <= 1.5
    err = float(np.max(np.abs(gradient_values[1:-1, 0, 0][mask] - fd[mask])))
    return Check("gradient vs finite differences to 1e-4", err < 1e-4,
                 f"err = {err:.2e}")


def check_residual(rows, sup_g: float) -> Check:
    rel = rows[0]["residual"] / sup_g
    return Check("fixed-point residual < 1e-2 sup|G|", rel < 1e-2,
                 f"residual/sup|G| = {rel:.2e}")


def check_decreasing(rows) -> Check:
    u = [r["sup_u"] for r in rows]
    du = [r["sup_du"] for r in rows]
    ok = all(a > b for a, b in zip(u, u[1:])) and all(a > b for a, b in zip(du, du[1:]))
    return Check("sup|U| and sup|DU| decreasing in lambda", ok,
                 f"sup|U| = {[round(v, 5) for v in u]}, "
                 f"sup|DU| = {[round(v, 5) for v in du]}")


def check_resolvent_bound(rows, sup_g: float, sup_bbar: float) -> Check:
    """Maximum principle: lambda sup|U| <= sup|G + <Bbar, DU>|."""
    ratios = [r["sup_u"] * r["lambda"] / (sup_g + sup_bbar * r["sup_du"])
              for r in rows]
    return Check("sup|U| <= (sup|G| + sup|Bbar| sup|DU|) / lambda",
                 all(q <= 1.0 for q in ratios),
                 "ratios = " + ", ".join(f"{q:.4f}" for q in ratios))


class Zvonkin1d:
    """Criterion 11's pipeline: closed forms, gradient check, d = 1 solve."""

    name = "zvonkin-1d"

    def __init__(self, model_cfg, seed: int, scale: ZvonkinScale = ZvonkinScale()):
        self.model, self.seed, self.scale = model_cfg, seed, scale
        self.kernel = zvonkin.OuKernel(model_cfg.eigs.eigenvalues[:1],
                                       model_cfg.q1.q[:1])
        self.axes = zvonkin.box_axes(self.kernel, n_per_axis=scale.grid,
                                     radius_mult=scale.radius_mult)
        r = scale.radius_mult * float(self.kernel.stationary_std()[0])
        self.fine = (np.linspace(-r, r, scale.fd_points),)
        self.f = zvonkin.TruncatedFunction.from_callable(
            lambda p: np.sin(p) * np.exp(-p**2 / 8.0), self.fine)

    def bbar_truncated(self, points):
        s = self.scale
        params = AveragingParams(t_burn=s.t_burn, t_avg=s.t_avg, dt=s.dt,
                                 n_replicas=s.replicas)
        pts = np.atleast_2d(points)
        xs = np.zeros((pts.shape[0], self.model.n_modes))
        xs[:, :1] = pts
        values, _ = averaging.estimate_bbar_batch(self.model, xs, params,
                                                  self.seed)
        return values[:, :1]

    @staticmethod
    def zero_bbar(points):
        return np.zeros((np.atleast_2d(points).shape[0], 1))

    def operations(self):
        tf, k, s = zvonkin.TruncatedFunction, self.kernel, self.scale

        def constant(out):
            g = tf.from_callable(lambda p: np.full((p.shape[0], 1), G_CONST),
                                 self.axes)
            return zvonkin.picard_solve(g, self.zero_bbar, LAM_CLOSED, k,
                                        order=24).u.values

        def linear(out):
            g = tf.from_callable(lambda p: p.copy(), self.axes)
            return zvonkin.picard_solve(g, self.zero_bbar, LAM_CLOSED, k,
                                        order=40).u.values

        def semigroup(out):
            return zvonkin.ou_semigroup_apply(self.f, 0.4, k, order=40).values

        def gradient(out):
            return zvonkin.ou_gradient_apply(self.f, 0.4, k, order=40).values

        def drift_grid(out):
            return tf.from_callable(self.bbar_truncated, self.axes)

        def dlambda(out):
            return zvonkin.dlambda_curve(out["averaged_drift_grid"],
                                         self.bbar_truncated, k, s.lambdas,
                                         order=s.order)

        return [("closed_form_constant", constant),
                ("closed_form_linear", linear),
                ("semigroup", semigroup),
                ("gradient", gradient),
                ("averaged_drift_grid", drift_grid),
                ("dlambda_curve", dlambda)]

    def fingerprint(self, out):
        arrays = [out[k] for k in ("closed_form_constant", "closed_form_linear",
                                   "semigroup", "gradient")]
        arrays.append(out["averaged_drift_grid"].values)
        return (tuple(a.tobytes() for a in arrays),
                json.dumps(out["dlambda_curve"]))

    def checks(self, out):
        x = self.axes[0]
        core = np.abs(x) <= float(self.kernel.stationary_std()[0])
        g = out["averaged_drift_grid"]
        rows = out["dlambda_curve"]
        sup_g = g.sup_norm()
        return [check_constant(out["closed_form_constant"]),
                check_linear(out["closed_form_linear"], x, core),
                check_gradient(out["semigroup"], out["gradient"], self.fine[0]),
                check_residual(rows, sup_g),
                check_decreasing(rows),
                # G is the tabulated averaged drift, so sup|Bbar| = sup|G|
                check_resolvent_bound(rows, sup_g, sup_g)]


# ----------------------------------------------------------------------
# coupled-path
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledScale:
    eps: float = 1e-4
    t_final: float = 0.5
    dt: float = 1e-3
    prefix_steps: int = 50


def read_trajectory(csv_bytes: bytes):
    """(header, float rows) of a `simulate` CSV."""
    reader = csv.reader(io.StringIO(csv_bytes.decode("utf-8")))
    header = next(reader)
    rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def check_rows(header, rows, n_expected: int) -> Check:
    modes = [f"x_mode_{k}" for k in range(1, 5)]
    ok = (all(m in header for m in modes) and rows.ndim == 2
          and rows.shape == (n_expected, len(header))
          and bool(np.all(np.isfinite(rows))))
    return Check(f"CSV has round(T/dt) + 1 = {n_expected} finite rows", ok,
                 f"shape = {rows.shape}")


def check_manifest(manifest: dict, csv_bytes: bytes, scale: CoupledScale) -> Check:
    digest = hashlib.sha256(csv_bytes).hexdigest()
    cfg = manifest.get("config", {})
    expected = {"r1": HEAT["r1"], "r2": HEAT["r2"], "n_modes": HEAT["n_modes"],
                "m_points": HEAT["m_points"],
                "fast_substep_factor": HEAT["fast_substep_factor"],
                "eps": scale.eps, "dt": scale.dt, "t_final": scale.t_final}
    ok = (list(manifest.get("outputs", {}).values()) == [digest]
          and all(cfg.get(k) == v for k, v in expected.items()))
    return Check("manifest records the CSV digest and the replayed config", ok)


def check_prefix(header, rows, replay) -> Check:
    cols = [header.index(f"x_mode_{k}") for k in range(1, 5)]
    n = replay.shape[0]
    err = float(np.max(np.abs(rows[:n, cols] - replay[:, :4])))
    return Check(f"first {n - 1} macro steps replay to 1e-9", err <= 1e-9,
                 f"max |x_mode - replay| = {err:.2e}")


class CoupledPath:
    """`slowfast-spde simulate` through cli.main: one path, 500 macro steps."""

    name = "coupled-path"

    def __init__(self, model_cfg, seed: int, scale: CoupledScale = CoupledScale()):
        self.model, self.seed, self.scale = model_cfg, seed, scale

    def operations(self):
        def simulate(out):
            s = self.scale
            work = Path(tempfile.mkdtemp(prefix="coupled-", dir=out_dir()))
            csv_path = work / "trajectory.csv"
            code = cli.main(["simulate", "--config", str(ROOT / "configs" / "heat.cfg"),
                             "--eps", repr(s.eps), "--T", repr(s.t_final),
                             "--dt", repr(s.dt), "--seed", str(self.seed),
                             "--out", str(csv_path)])
            if code != 0:
                raise RuntimeError(f"simulate exited with code {code}")
            return work

        return [("simulate", simulate)]

    def collect(self, out) -> None:
        """Read the run's files into memory and remove them (untimed)."""
        work = out.pop("simulate", None)
        if work is None:
            return
        csv_path = work / "trajectory.csv"
        out["csv"] = csv_path.read_bytes()
        manifest = Path(str(csv_path) + ".manifest.json").read_bytes()
        out["manifest"] = json.loads(manifest)
        out["bytes_written"] = len(out["csv"]) + len(manifest)
        shutil.rmtree(work)

    def fingerprint(self, out):
        return out["csv"]

    def checks(self, out):
        s = self.scale
        header, rows = read_trajectory(out["csv"])
        n_steps = int(round(s.t_final / s.dt))
        replay = replay_coupled_prefix(noise.derive_substream, self.seed, s.eps,
                                       s.dt, min(s.prefix_steps, n_steps))
        return [check_rows(header, rows, n_steps + 1),
                check_manifest(out["manifest"], out["csv"], s),
                check_prefix(header, rows, replay)]


WORKLOADS = {w.name: w for w in (StrongConvergence, HolderBatch, Zvonkin1d,
                                 CoupledPath)}

TINY = {
    "strong-convergence": StrongScale(n_mc=40, t_final=0.01, t_burn=2.0,
                                      t_avg=4.0, probe_calls=(2, 4)),
    "holder-batch": HolderScale(n_pairs=12, t_burn=2.0, t_avg=2.0),
    "zvonkin-1d": ZvonkinScale(grid=65, t_burn=2.0, t_avg=4.0),
    "coupled-path": CoupledScale(eps=1e-2, t_final=0.05, prefix_steps=20),
}


def make(name: str, model_cfg, seed: int, tiny: bool = False):
    kwargs = {"scale": TINY[name]} if tiny else {}
    return WORKLOADS[name](model_cfg, seed, **kwargs)
