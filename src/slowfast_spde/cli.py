"""Command-line interface: config parsing, dispatch, run manifests.

Subcommands: ``simulate`` (coupled trajectory to CSV), ``average``
(averaged-drift estimate at a point), ``check`` (assumption report),
``converge`` (strong-convergence experiment), ``verify --lemma <name>``
(one named verification experiment), ``zvonkin`` (truncated elliptic
solve).  Exit codes: 0 pass, 1 verdict failure, 2 usage/config error;
the JSON ``verdict`` field and the exit code always agree.

Every run that writes a file (``check`` only with ``--out``) emits a
manifest next to its primary output.  :func:`main` alone parses the
config, resolves the seed, times the run and writes the manifest, which
records the resolved configuration (every flag that names a config key,
such as ``--Ta`` for ``t_avg``, overrides that key there), the other
flags, the seed used, the package version, the wall clock and the
SHA-256 digest of each output file.  Reruns with an equal manifest
reproduce equal digests: all randomness flows from the single seed,
taken from ``--seed``, else the environment variable ``SPDE_SEED``,
else the config.  Outputs
are CSV (RFC 4180, header row, ``.`` decimal) and JSON (UTF-8, sorted
keys); there are no binary formats.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, averaging
from .averaging import AveragingParams, estimate_bbar
from .config import _KEYS, ResolvedConfig, parse_config
from .errors import ConfigError, SlowFastError
from .experiments import (ExperimentReport, aux_fast_error,
                          averaged_drift_holder, contraction_test,
                          correlation_decay, ergodic_consistency,
                          increment_scaling, moment_sweep, strong_error)
from .model import check_assumptions
from .noise import derive_substream
from .simulate import simulate_slow_fast
from .spectral import SpectralField, h_norm
from .zvonkin import (OuKernel, TruncatedFunction, box_axes, check_lambdas,
                      check_picard_grid, picard_solve)

_ENV_SEED = "SPDE_SEED"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _emit_manifest(args, rc: ResolvedConfig, seed: int, wall_clock_s: float,
                   outputs: list[Path]) -> None:
    _write_json(Path(str(outputs[0]) + ".manifest.json"), {
        "subcommand": args.subcommand,
        "config": rc.echo,
        "flags": {k: v for k, v in vars(args).items()
                  if k not in _KEYS and k not in ("subcommand", "handler")},
        "seed": seed,
        "version": __version__,
        "wall_clock_s": wall_clock_s,
        "outputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in outputs if p.exists()},
    })


def _resolve_seed(args, rc: ResolvedConfig) -> int:
    """The run's seed, from the first of ``--seed``, $SPDE_SEED and the
    config that sets one: an integer in [0, 2^64), the range the noise
    streams key on without aliasing."""
    env = os.environ.get(_ENV_SEED)
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif env is not None:
        source = f"${_ENV_SEED}"
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{source} must be an integer, got {env!r}") from None
    else:
        seed, source = rc.seed, "config key seed"
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{source} must be an integer in [0, 2^64), got {seed}")
    return seed


def _float_list(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of a list-valued flag."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _write_report(report: ExperimentReport, out: Path) -> tuple[list[Path], int]:
    _write_json(out, report.to_json_dict())
    csv_path = out.with_suffix(".csv")
    _write_csv(csv_path, report.csv_rows())
    print(f"{report.name}: {report.verdict} "
          f"(slope={report.slope:.4g} +/- {report.slope_ci:.4g}, "
          f"target={report.target:.4g})")
    return [out, csv_path], 0 if report.verdict == "pass" else 1


def cmd_simulate(args, rc: ResolvedConfig, seed: int):
    eps = _eps(rc)
    n = rc.model.n_modes
    w1 = derive_substream(seed, 0, "W1", n)
    w2 = derive_substream(seed, 0, "W2", n)
    xs, ys = simulate_slow_fast(rc.model, eps, np.zeros(n), np.zeros(n),
                                rc.t_final, rc.scheme, w1, w2)
    k_show = min(4, n)
    header = (["t", "x_norm", f"x_hnorm_theta_{rc.theta:g}", "y_norm"]
              + [f"x_mode_{k}" for k in range(1, k_show + 1)])
    rows = [header]
    for i, t in enumerate(xs.times):
        u = SpectralField(xs.states[i])
        rows.append([repr(float(t)),
                     repr(float(np.linalg.norm(xs.states[i]))),
                     repr(float(h_norm(u, rc.theta, rc.model.eigs))),
                     repr(float(np.linalg.norm(ys.states[i])))]
                    + [repr(float(v)) for v in xs.states[i][:k_show]])
    out = Path(args.out)
    _write_csv(out, rows)
    print(f"wrote {len(xs.times)} macro states to {out}")
    return [out], 0


def _averaging_params(rc: ResolvedConfig, fallback_t_burn: float | None
                      ) -> AveragingParams:
    """The averaged-drift estimates' parameters: the configured burn-in,
    else ``fallback_t_burn``, else AveragingParams.for_model's.  The
    burn-in used is the manifest's ``t_burn``."""
    t_burn = rc.t_burn if rc.t_burn is not None else fallback_t_burn
    if t_burn is None:
        t_burn = AveragingParams.for_model(rc.model).t_burn
    rc.echo["t_burn"] = t_burn
    return AveragingParams(t_burn=t_burn, t_avg=rc.t_avg, dt=rc.dt_frozen,
                           n_replicas=rc.replicas)


def _eps(rc: ResolvedConfig) -> float:
    if rc.eps is None:
        raise ConfigError("eps is required (flag --eps or config key eps)")
    return rc.eps


def _n_mc(rc: ResolvedConfig) -> int:
    if rc.n_mc < 2:
        raise ConfigError(
            f"n_mc must be at least 2 for an error bar, got {rc.n_mc}")
    return rc.n_mc


def cmd_average(args, rc: ResolvedConfig, seed: int):
    params = _averaging_params(rc, None)
    n = rc.model.n_modes
    if args.x == "zero":
        x = np.zeros(n)
    else:
        x = np.loadtxt(args.x, delimiter=",", ndmin=1)
        if x.ndim != 1 or x.shape[0] > n or not np.all(np.isfinite(x)):
            raise ConfigError(f"--x takes one row or column of at most {n} finite values")
        x = np.pad(x, (0, n - x.shape[0]))
    est = estimate_bbar(rc.model, x, params, seed)
    rows = [("mode", "bbar_coeff", "stderr")]
    for k, v in enumerate(est.value, start=1):
        rows.append((str(k), repr(float(v)), repr(est.stderr)))
    out = Path(args.out)
    _write_csv(out, rows)
    print(f"averaged drift at |x|={np.linalg.norm(x):.4g}: "
          f"|Bbar|={np.linalg.norm(est.value):.6g} +/- {est.stderr:.2g}")
    return [out], 0


def cmd_check(args, rc: ResolvedConfig, seed: int):
    report = check_assumptions(rc.model, rc.theta, kappa1=args.kappa1, seed=seed)
    print(report.summary())
    outputs = []
    if args.out:
        out = Path(args.out)
        _write_json(out, report.to_dict())
        outputs.append(out)
    return outputs, 0 if report.all_hold else 1


def cmd_converge(args, rc: ResolvedConfig, seed: int):
    eps_grid = _float_list(args.eps_grid, "--eps-grid")
    if (len(eps_grid) < 3 or len(set(eps_grid)) < len(eps_grid)
            or not all(0.0 < eps < 1.0 for eps in eps_grid)):
        raise ConfigError("--eps-grid needs at least 3 values for a rate fit, "
                          f"distinct and in (0, 1), got {args.eps_grid!r}")
    report = strong_error(rc.model, eps_grid, rc.t_final, rc.scheme,
                          _n_mc(rc), seed, theta=rc.theta)
    return _write_report(report, Path(args.out))


def _block_lemma(experiment, rc: ResolvedConfig, seed: int) -> ExperimentReport:
    """increments or aux-fast, freezing blocks of 64, 32, 16, 8 and 4
    macro steps."""
    n_mc = _n_mc(rc)
    deltas = [rc.scheme.dt_macro * 2.0**k for k in range(6, 1, -1)]
    return experiment(rc.model, _eps(rc), deltas, rc.t_final, rc.scheme, n_mc,
                      seed, theta=rc.theta)


# verify's lemmas: name -> report of (rc, seed).  The lambdas look the
# experiments up as module globals when they run.
_LEMMAS = {
    "contraction": lambda rc, seed: contraction_test(
        rc.model, t_checks=(1.0, 2.0, 4.0), dt=0.01, n_mc=_n_mc(rc), seed=seed),
    "increments": lambda rc, seed: _block_lemma(increment_scaling, rc, seed),
    "aux-fast": lambda rc, seed: _block_lemma(aux_fast_error, rc, seed),
    "correlation": lambda rc, seed: correlation_decay(
        rc.model, np.zeros(rc.model.n_modes), lag_max=16.0, n_mc=_n_mc(rc),
        seed=seed),
    "moments": lambda rc, seed: moment_sweep(
        rc.model, (1e-1, 1e-2, 1e-3), rc.t_final, rc.scheme, _n_mc(rc), seed),
    # ergodicity takes no Monte-Carlo count, so its n_mc is never checked
    "ergodicity": lambda rc, seed: ergodic_consistency(
        rc.model, _averaging_params(rc, None), seed),
    "holder": lambda rc, seed: averaged_drift_holder(
        rc.model, n_pairs=_n_mc(rc), params=_averaging_params(rc, 16.0),
        seed=seed),
}


def cmd_verify(args, rc: ResolvedConfig, seed: int):
    return _write_report(_LEMMAS[args.lemma](rc, seed), Path(args.out))


def cmd_zvonkin(args, rc: ResolvedConfig, seed: int):
    d = args.dim
    if not 1 <= d <= 3:
        raise ConfigError("dim must be 1, 2 or 3")
    model = rc.model
    kernel = OuKernel(model.eigs.eigenvalues[:d], model.q1.q[:d])
    axes = box_axes(kernel, n_per_axis=args.grid)
    check_picard_grid(tuple(a.shape[0] for a in axes))
    lambdas = sorted(_float_list(args.lam, "--lambda"))
    check_lambdas(lambdas)
    params = _averaging_params(rc, 16.0)

    def bbar_truncated(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        xs = np.zeros((pts.shape[0], model.n_modes))
        xs[:, :d] = pts
        values, _ = averaging.estimate_bbar_batch(model, xs, params, seed)
        return values[:, :d]

    # The solvers read the drift only at g's nodes, where the table
    # returns its values exactly: one Monte-Carlo estimate serves all.
    g = TruncatedFunction.from_callable(bbar_truncated, axes)
    solutions = [picard_solve(g, g, lam, kernel) for lam in lambdas]
    rows = [s.table_row() for s in solutions]
    sol = solutions[0]

    out = Path(args.out)
    csv_rows = [tuple(f"x_{j+1}" for j in range(d))
                + tuple(f"u_{c+1}" for c in range(d))
                + tuple(f"du_{c+1}_{j+1}" for c in range(d) for j in range(d))]
    pts = sol.u.grid_points()
    uv = sol.u.values.reshape(-1, d)
    dv = sol.du.values.reshape(-1, d * d)
    for i in range(pts.shape[0]):
        csv_rows.append(tuple(repr(float(v)) for v in pts[i])
                        + tuple(repr(float(v)) for v in uv[i])
                        + tuple(repr(float(v)) for v in dv[i]))
    _write_csv(out, csv_rows)
    summary = {"lambda_table": rows, "residual": sol.residual,
               "iterations": sol.iterations, "converged": sol.converged}
    json_path = out.with_suffix(".json")
    _write_json(json_path, summary)
    print(f"residual={sol.residual:.3g}, lambda table: "
          + ", ".join(f"{r['lambda']:g}: |U|={r['sup_u']:.4g}" for r in rows))
    return [out, json_path], 0


# flag -> (config key, help) of every flag that overrides a config key;
# the flag takes its key's type from config._KEYS
_KEY_FLAGS = {
    "--eps": ("eps", None),
    "--T": ("t_final", None),
    "--dt": ("dt", None),
    "--theta": ("theta", None),
    "--Tb": ("t_burn", "burn-in time of the averaged-drift estimate"),
    "--Ta": ("t_avg", "averaging time"),
    "--dt-frozen": ("dt_frozen", None),
    "--replicas": ("replicas", None),
    "--n-mc": ("n_mc", None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowfast-spde",
        description="Simulate and verify a two-scale stochastic heat "
                    "equation with rough drifts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, text, handler, out_default, *key_flags):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, default=None,
                       help=f"root seed (overrides config and ${_ENV_SEED})")
        p.add_argument("--out", default=out_default, help="output path")
        for flag in key_flags:
            key, flag_help = _KEY_FLAGS[flag]
            p.add_argument(flag, dest=key, type=_KEYS[key][0], help=flag_help)
        p.set_defaults(handler=handler)
        return p

    command("simulate", "integrate one coupled trajectory", cmd_simulate,
            "trajectory.csv", "--eps", "--T", "--dt")
    p = command("average", "estimate the averaged drift at a point", cmd_average,
                "bbar.csv", "--Tb", "--Ta", "--dt-frozen", "--replicas")
    p.add_argument("--x", default="zero", help="'zero' or a one-row or one-column CSV "
                   "of at most n_modes finite coefficients, padded with zeros")
    p = command("check", "run the assumption checker", cmd_check, None, "--theta")
    p.add_argument("--kappa1", type=float, default=None)
    p = command("converge", "strong-convergence experiment", cmd_converge,
                "strong_error.json", "--T", "--dt", "--n-mc")
    p.add_argument("--eps-grid", dest="eps_grid", default="1e-1,3e-2,1e-2,3e-3")
    p = command("verify", "run one named verification experiment", cmd_verify,
                "verify.json", "--eps", "--n-mc", "--Tb", "--Ta")
    p.add_argument("--lemma", required=True, choices=_LEMMAS)
    p = command("zvonkin", "solve the truncated elliptic equation", cmd_zvonkin,
                "zvonkin.csv", "--Tb")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--lambda", dest="lam", default="1,10,100",
                   help="comma-separated increasing resolvent parameters")
    p.add_argument("--grid", type=int, default=129, help="points per axis")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    try:
        out_dir = None if args.out is None else Path(args.out).parent
        if out_dir is not None and not out_dir.is_dir():
            raise ConfigError(f"output directory {out_dir} does not exist")
        # every flag named after a config key overrides it; the seed keeps
        # its own precedence (flag, then $SPDE_SEED, then config)
        rc = parse_config(args.config, overrides={
            k: v for k, v in vars(args).items() if k in _KEYS and k != "seed"})
        seed = _resolve_seed(args, rc)
        outputs, code = args.handler(args, rc, seed)
        if outputs:
            _emit_manifest(args, rc, seed, time.perf_counter() - t_start,
                           outputs)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlowFastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
