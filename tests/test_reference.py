"""Small committed reference outputs of the frozen-fast dynamics.

``data/frozen_reference.npz`` holds the outputs of every integrator and
experiment that steps the fast equation with a frozen slow argument,
plus the log-linear fits, on the N = 8 heat model at short horizons.
A refactor that is meant to leave the numbers alone must reproduce
them to 1e-12 of each array's scale.  Regenerate the file with
``PYTHONPATH=src python tests/test_reference.py`` only for a change
that is meant to move them, and say why in CHANGES.md.
"""

from pathlib import Path

import numpy as np

from slowfast_spde.averaging import (AveragingParams, estimate_bbar_batch,
                                     mixing_diagnostic)
from slowfast_spde.experiments import (contraction_test, correlation_decay,
                                       rate_fit)
from slowfast_spde.model import heat_example
from slowfast_spde.noise import derive_substream
from slowfast_spde.simulate import (StepScheme, simulate_auxiliary_fast,
                                    simulate_frozen, simulate_slow_fast)

DATA = Path(__file__).resolve().parent / "data" / "frozen_reference.npz"


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
    return out


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
