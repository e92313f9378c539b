"""Small committed reference outputs of the frozen-fast dynamics.

``data/frozen_reference.npz`` holds the outputs of every integrator and
experiment that steps the fast equation with a frozen slow argument,
the log-linear fits and reduced-scale reports of the other Monte-Carlo
experiments, on the N = 8 heat model at short horizons, and the
assumption checker's statuses and witness values on the heat models of
N = 8 and N = 32 and on a constant spectrum.
A refactor that is meant to leave the numbers alone must reproduce
them to 1e-12 of each array's scale.  Regenerate the file with
``PYTHONPATH=src python tests/test_reference.py`` only for a change
that is meant to move them, and say why in CHANGES.md.
"""

from pathlib import Path

import numpy as np

from slowfast_spde.averaging import (AveragingParams, estimate_bbar_batch,
                                     mixing_diagnostic)
from slowfast_spde.experiments import (aux_fast_error, averaged_drift_holder,
                                       contraction_test, correlation_decay,
                                       ergodic_consistency, increment_scaling,
                                       moment_sweep, rate_fit, strong_error)
from slowfast_spde.model import _TAN_MIN_VALUES, check_assumptions, heat_example
from slowfast_spde.noise import derive_substream
from slowfast_spde.simulate import (StepScheme, simulate_auxiliary_fast,
                                    simulate_frozen, simulate_slow_fast)
from test_model import make_broken_constant_spectrum

DATA = Path(__file__).resolve().parent / "data" / "frozen_reference.npz"
LARGE_PATHS = 256


def reference_outputs() -> dict[str, np.ndarray]:
    """Every stored output, recomputed by the current code."""
    heat = heat_example(0.1, 0.1, 8)
    rng = np.random.default_rng(20261018)
    xs = rng.standard_normal((3, 8)) * 0.5
    y0 = rng.standard_normal(8) * 0.3
    x = xs[0]
    out = {}

    params = AveragingParams(t_burn=0.4, t_avg=0.6, dt=0.02, n_replicas=3)
    values, stderrs = estimate_bbar_batch(heat, xs, params, seed=11, y0=y0)
    out["bbar_time-average_values"] = values
    out["bbar_time-average_stderrs"] = stderrs

    # 256 paths of 16 grid values: fields this large take the heat
    # drifts' tangent forms (model._TAN_MIN_VALUES)
    xs_large = rng.standard_normal((LARGE_PATHS, 8)) * 0.5
    params = AveragingParams(t_burn=0.4, t_avg=0.6, dt=0.02, n_replicas=8)
    values, stderrs = estimate_bbar_batch(heat, xs_large[:32], params, seed=17)
    out["bbar_large_values"] = values
    out["bbar_large_stderrs"] = stderrs
    slow, fast = simulate_slow_fast(heat, 0.1, xs_large, np.zeros((LARGE_PATHS, 8)),
                                    0.05, StepScheme(0.01),
                                    derive_substream(18, 0, "W1", 8),
                                    derive_substream(18, 0, "W2", 8))
    out["coupled_large_slow"] = slow.states[-1]
    out["coupled_large_fast"] = fast.states[-1]

    diag = mixing_diagnostic(heat, x, horizon=4.0, n_replicas=64, seed=12)
    out["mixing_fit"] = np.array([diag.rate, diag.rate_ci, *diag.window])
    out["mixing_per_functional"] = np.array(list(diag.per_functional.values()))
    out["mixing_signals"] = diag.signals
    out["mixing_stderrs"] = diag.stderrs

    rep = contraction_test(heat, (0.5, 1.0, 2.0), 0.02, n_mc=16, seed=13,
                           x_offset_scales=(0.5, 1.0), x_base=x)
    out["contraction_estimates"] = np.array(rep.estimates)
    out["contraction_stderrs"] = np.array(rep.stderrs)
    out["contraction_worst"] = np.array(rep.extra["worst_ratio"])
    out["contraction_plateau"] = np.array(rep.extra["plateau_constants"])
    out["contraction_slope"] = np.array([rep.slope])

    rep = correlation_decay(heat, x, lag_max=2.0, n_mc=16, seed=14,
                            t_burn=1.0, window=8.0)
    out["correlation_estimates"] = np.array(rep.estimates)
    out["correlation_stderrs"] = np.array(rep.stderrs)
    out["correlation_fit"] = np.array([rep.slope, rep.slope_ci,
                                       rep.extra["fit_lags"]])

    scheme = StepScheme(0.01)
    w1 = derive_substream(15, 0, "W1", 8)
    w2 = derive_substream(15, 0, "W2", 8)
    slow, fast = simulate_slow_fast(heat, 0.1, xs, np.zeros((3, 8)), 0.05,
                                    scheme, w1, w2)
    out["coupled_slow"] = slow.states
    out["coupled_fast"] = fast.states
    aux = simulate_auxiliary_fast(heat, 0.1, slow, 0.02, np.zeros((3, 8)),
                                  scheme, w2.replay())
    out["auxiliary_fast"] = aux.states
    frozen = simulate_frozen(heat, x, np.tile(y0, (3, 1)), 0.2, 0.02,
                             derive_substream(16, 0, "W2", 8))
    out["frozen"] = frozen.states

    scales = np.array([0.5, 0.25, 0.125, 0.0625])
    ests = np.array([0.31, 0.17, 0.095, 0.049])
    for name, errs in (("weighted", ests * 0.1 * (1.0 + scales)),
                       ("unweighted", None)):
        fit = rate_fit(scales, ests, errs)
        out[f"rate_fit_{name}"] = np.array([fit.slope, fit.intercept, fit.ci])

    out.update(_experiment_outputs(heat))
    out.update(_checker_outputs())
    return out


def _report_arrays(name: str, rep, *extra_keys) -> dict[str, np.ndarray]:
    """A report's estimates, standard errors, fit and named extras."""
    out = {f"{name}_estimates": np.array(rep.estimates),
           f"{name}_stderrs": np.array(rep.stderrs),
           f"{name}_fit": np.array([rep.slope, rep.slope_ci, rep.target])}
    for key in extra_keys:
        out[f"{name}_{key}"] = np.array(rep.extra[key], dtype=float)
    return out


def _experiment_outputs(heat) -> dict[str, np.ndarray]:
    """Reduced-scale reports of the Monte-Carlo experiments and the
    assumption checker's A1 witnesses."""
    out = {}
    scheme = StepScheme(0.01)
    params = AveragingParams(t_burn=0.2, t_avg=0.4, dt=0.02, n_replicas=2)
    rep = strong_error(heat, [0.1, 0.05, 0.025], 0.04, scheme, n_mc=6, seed=21,
                       oracle_params=params)
    out.update(_report_arrays("strong_error", rep))
    out["strong_error_paired"] = np.array(
        [[d["mean_diff"], d["stderr"]] for d in rep.extra["paired_differences"]])
    out["strong_error_delta_rule"] = np.array(
        list(rep.extra["delta_rule_examples"].values()))

    deltas = [0.02, 0.04, 0.08]
    rep = increment_scaling(heat, 0.1, deltas, 0.16, scheme, n_mc=6, seed=22)
    out.update(_report_arrays("increment_scaling", rep))
    rep = aux_fast_error(heat, 0.1, deltas, 0.16, scheme, n_mc=6, seed=23)
    out.update(_report_arrays("aux_fast_error", rep))

    rep = moment_sweep(heat, (0.1, 0.05), 0.16, scheme, n_mc=6, seed=24)
    out.update(_report_arrays("moment_sweep", rep, "sup_x", "stderr_x",
                              "spread_x", "spread_y"))

    rep = ergodic_consistency(heat, params, seed=25, mixing_horizon=1.0,
                              mixing_replicas=16)
    out.update(_report_arrays("ergodic_consistency", rep, "difference",
                              "combined_stderr", "mixing_window"))

    rep = averaged_drift_holder(heat, n_pairs=4, params=params, seed=26)
    out.update(_report_arrays("averaged_drift_holder", rep, "max_change",
                              "median_quotient", "mean_noise_quotient"))

    witnesses = ("b_max_quotient", "f_max_quotient", "b_sampled_sup",
                 "f_sampled_sup")
    for seed in (7, 27):
        a1 = check_assumptions(heat, 0.5, seed=seed).checks["A1_drift_regularity"]
        out[f"a1_witnesses_seed_{seed}"] = np.array([a1.witness[k] for k in witnesses])
    return out


_STATUSES = ("holds", "fails", "not-checkable-numerically")
# Every numeric witness entry of each check, in a fixed order; a check
# stores those its status reports.
_WITNESS_KEYS = {
    "A1_drift_regularity": ("b_max_quotient", "f_max_quotient", "b_sampled_sup",
                            "f_sampled_sup", "bound_b", "bound_f", "alpha",
                            "beta", "gamma", "l_f"),
    "A2_diagonal_operator": ("lambda_1", "lambda_N", "growth_exponent"),
    "A3_spectrum_summability": ("zeta", "admissible_zeta_interval", "zeta_tried",
                                "partial_sum", "tail_bound", "total",
                                "partial_sum_K", "partial_sum_2K", "K"),
    **{name: ("partial_sum", "tail_bound", "total", "partial_sum_K",
              "partial_sum_2K", "series_k_exponent", "K")
       for name in ("A41_weighted_trace", "A42_smoothed_trace", "A43_fast_trace")},
    "A5_gradient_integrability": ("kappa1", "kappa1_required", "integral_q1",
                                  "integral_q2", "singularity_exponents", "kappa2",
                                  "kappa2_admissible", "integral_gradient",
                                  "spectrum_growth"),
    "A6_spectral_gap": ("lambda_1", "l_f", "gap"),
}


def _checker_outputs() -> dict[str, np.ndarray]:
    """Per check of check_assumptions: its status index in _STATUSES, then
    its witness values in _WITNESS_KEYS order."""
    cases = {"constant_spectrum": (make_broken_constant_spectrum(), 0.55, None)}
    for n in (8, 32):
        for theta in (0.55, 0.65):
            for kappa1 in (None, 0.75):
                cases[f"n{n}_theta{theta}_kappa1_{kappa1}"] = (
                    heat_example(0.1, 0.1, n), theta, kappa1)
    out = {}
    for case, (config, theta, kappa1) in cases.items():
        report = check_assumptions(config, theta, kappa1=kappa1)
        for name, check in report.checks.items():
            w = check.witness
            out[f"check_{case}_{name}"] = np.concatenate(
                [[_STATUSES.index(check.status)]]
                + [np.ravel(w[k]) for k in _WITNESS_KEYS[name] if k in w]
            ).astype(float)
    return out


def test_large_runs_take_the_tangent_forms():
    # both large runs step fields of LARGE_PATHS paths of m_points values
    assert LARGE_PATHS * heat_example(0.1, 0.1, 8).m_points >= _TAN_MIN_VALUES


def test_outputs_match_reference():
    outputs = reference_outputs()
    with np.load(DATA) as data:
        stored = dict(data)
    assert sorted(outputs) == sorted(stored)
    off = {}
    for name, ref in stored.items():
        new = outputs[name]
        assert new.shape == ref.shape, name
        # an unfitted functional stores rate nan and CI inf
        fin = np.isfinite(ref)
        assert np.array_equal(new[~fin], ref[~fin], equal_nan=True), name
        scale = max(float(np.max(np.abs(ref[fin]), initial=0.0)), 1e-300)
        err = float(np.max(np.abs(new[fin] - ref[fin]), initial=0.0)) / scale
        if not err <= 1e-12:
            off[name] = err
    assert not off, f"relative deviation from the reference: {off}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(DATA, **reference_outputs())
    print(f"wrote {DATA}")
