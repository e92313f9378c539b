"""The benchmark's own tests: tiny-scale runs, metric names, and checks
that reject perturbed outputs.

    python3 -m pytest -q bench/tests
"""

import copy
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as wl
from reference import SineBasis, agreement

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEED = 11
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(name: str):
    return wl.make(name, wl.build_model(), SEED, tiny=True)


def run_once(workload) -> dict:
    out = {}
    for name, op in workload.operations():
        out[name] = op(out)
    if hasattr(workload, "collect"):
        workload.collect(out)
    return out


# ----------------------------------------------------------------------
# the command and its printed metrics
# ----------------------------------------------------------------------


def test_spec_lists_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_untraced_run_prints_end_to_end_metrics(workload):
    line = run_bench(workload, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_run_prints_per_layer_metrics(workload):
    line = run_bench(workload, trace=1)
    assert line["correct"] is True and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["trace.attributed_share"] >= 0.9
    if workload == "coupled-path":
        # tiny scale: 50 macro steps, one fast substep each (eps = 1e-2)
        assert values["simulate.macro_steps"] == 50
        assert values["noise.draws"] == 50 * 2
        assert values["model.drift_b.calls"] == 50
        assert values["model.drift_f.calls"] == 50
        assert values["cli.calls"] == 1 and values["cli.bytes_written"] > 0
    if workload == "zvonkin-1d":
        # the 65-point drift grid, 2 replicas, is estimated 4 times
        assert values["averaging.estimate.calls"] == 4
        assert values["averaging.estimate.repeat_rows"] == 3 * 65 * 2
    if workload == "strong-convergence":
        assert values["averaging.oracle.calls"] == 5 * 40
        assert values["averaging.oracle.hit_ratio"] == (
            values["averaging.oracle.hits"] / values["averaging.oracle.calls"])


def test_bare_directory_fails_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coupled-path",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


# ----------------------------------------------------------------------
# the reference computations
# ----------------------------------------------------------------------


def test_dense_sine_basis_is_the_spectral_transform_pair():
    from slowfast_spde.spectral import (coeffs_to_grid_values,
                                        grid_values_to_coeffs)

    to_grid, from_grid = SineBasis(32, 64).operators()
    c = np.random.default_rng(0).standard_normal((5, 32))
    assert np.allclose(c @ to_grid, coeffs_to_grid_values(c, 64), atol=1e-13)
    v = c @ to_grid
    assert np.allclose(v @ from_grid, grid_values_to_coeffs(v, 32), atol=1e-13)


# ----------------------------------------------------------------------
# every check rejects a perturbed output
# ----------------------------------------------------------------------


def shifted_by_sigmas(values, replicas, ref_values, ref_stderrs, ref_replicas,
                      n_sigma):
    """Move each value n_sigma combined stderrs further from the reference."""
    d = values - ref_values
    unit = d / np.linalg.norm(d, axis=-1, keepdims=True)
    _, tol = agreement(values, replicas, ref_values, ref_stderrs, ref_replicas,
                       n_sigma=1.0)
    return values + n_sigma * tol[:, None] * unit


@pytest.fixture(scope="module")
def strong():
    w = tiny("strong-convergence")
    return w, run_once(w)


def test_strong_convergence_checks_pass(strong):
    w, out = strong
    assert all(c.ok for c in w.checks(out))


def test_strong_convergence_checks_reject_perturbations(strong):
    w, out = strong
    r = out["strong_error"]["report"]
    assert not wl.check_errors([0.0] + r.estimates[1:], r.stderrs).ok
    assert not wl.check_errors(r.estimates, [math.nan] + r.stderrs[1:]).ok
    paired = copy.deepcopy(r.extra["paired_differences"])
    paired[0]["mean_diff"] = -3.0 * paired[0]["stderr"]
    assert not wl.check_monotone(paired).ok
    assert not wl.check_slope("pass", r.slope, r.slope + 1e-3).ok
    assert not wl.check_slope("inconclusive", r.slope, r.slope_ci).ok

    xs, values = w.probes(out)
    ref_values, ref_stderrs = w.reference(xs)
    reps = (w.scale.replicas, ref_values, ref_stderrs, w.scale.ref_replicas)
    assert wl.check_reference(values, *reps).ok
    assert not wl.check_reference(shifted_by_sigmas(values, *reps, 5.0), *reps).ok


@pytest.fixture(scope="module")
def holder():
    w = tiny("holder-batch")
    return w, run_once(w)


def test_holder_batch_checks_pass(holder):
    w, out = holder
    assert all(c.ok for c in w.checks(out))


def test_holder_batch_checks_reject_perturbations(holder):
    w, out = holder
    o = out["averaged_drift_holder"]
    report = o["report"]
    assert not wl.check_holder_verdict(
        dataclasses.replace(report, verdict="fail")).ok
    assert not wl.check_holder_verdict(
        dataclasses.replace(report, estimates=[report.estimates[0], math.inf])).ok
    values = o["values"].copy()
    values[3] *= 1.01 * math.sqrt(math.pi) / np.linalg.norm(values[3])
    assert not wl.check_bbar_bound(values, 1.0).ok

    idx = w.probe_index(o["xs"].shape[0])
    ref_values, ref_stderrs = w.reference(o["xs"][idx])
    reps = (w.scale.replicas, ref_values, ref_stderrs, w.scale.ref_replicas)
    assert wl.check_reference(o["values"][idx], *reps).ok
    shifted = shifted_by_sigmas(o["values"][idx], *reps, 5.0)
    assert not wl.check_reference(shifted, *reps).ok


@pytest.fixture(scope="module")
def zvonkin():
    w = tiny("zvonkin-1d")
    return w, run_once(w)


def test_zvonkin_checks_pass(zvonkin):
    w, out = zvonkin
    assert all(c.ok for c in w.checks(out))


def test_zvonkin_checks_reject_perturbations(zvonkin):
    w, out = zvonkin
    x = w.axes[0]
    core = np.abs(x) <= float(w.kernel.stationary_std()[0])
    assert not wl.check_constant(1.1 * out["closed_form_constant"]).ok
    assert not wl.check_linear(1.1 * out["closed_form_linear"], x, core).ok
    assert not wl.check_gradient(out["semigroup"], 1.1 * out["gradient"],
                                 w.fine[0]).ok

    rows = out["dlambda_curve"]
    sup_g = out["averaged_drift_grid"].sup_norm()
    bad = copy.deepcopy(rows)
    bad[0]["residual"] = 0.02 * sup_g
    assert not wl.check_residual(bad, sup_g).ok
    bad = copy.deepcopy(rows)
    bad[1]["sup_u"], bad[2]["sup_u"] = bad[2]["sup_u"], bad[1]["sup_u"]
    assert not wl.check_decreasing(bad).ok
    bad = copy.deepcopy(rows)
    r = bad[-1]
    r["sup_u"] = 1.1 * (sup_g + sup_g * r["sup_du"]) / r["lambda"]
    assert not wl.check_resolvent_bound(bad, sup_g, sup_g).ok


@pytest.fixture(scope="module")
def coupled():
    w = tiny("coupled-path")
    return w, run_once(w)


def test_coupled_path_checks_pass(coupled):
    w, out = coupled
    assert all(c.ok for c in w.checks(out))


def _alter_csv(csv_bytes: bytes, row: int, col: int, new: str) -> bytes:
    lines = csv_bytes.decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = new
    lines[row] = ",".join(cells)
    return ("\r\n".join(lines) + "\r\n").encode()


def test_coupled_path_checks_reject_perturbations(coupled):
    w, out = coupled
    header, _ = wl.read_trajectory(out["csv"])
    col = header.index("x_mode_2")
    value = float(out["csv"].decode().splitlines()[6].split(",")[col])
    altered = dict(out, csv=_alter_csv(out["csv"], 6, col, repr(value + 1e-6)))
    failed = {c.name for c in w.checks(altered) if not c.ok}
    assert any("replay" in name for name in failed)
    assert any("manifest" in name for name in failed)

    h, rows = wl.read_trajectory(_alter_csv(out["csv"], 30, col, "nan"))
    assert not wl.check_rows(h, rows, rows.shape[0]).ok
    h, rows = wl.read_trajectory(out["csv"])
    assert not wl.check_rows(h, rows[:-1], rows.shape[0]).ok

    manifest = copy.deepcopy(out["manifest"])
    manifest["config"]["eps"] = 2 * manifest["config"]["eps"]
    assert not wl.check_manifest(manifest, out["csv"], w.scale).ok


@pytest.mark.parametrize("name", ["strong", "holder", "zvonkin", "coupled"])
def test_fingerprint_sees_a_changed_output(name, request):
    w, out = request.getfixturevalue(name)
    changed = copy.deepcopy({k: v for k, v in out.items() if k != "strong_error"})
    if name == "strong":
        r = out["strong_error"]["report"]
        changed["strong_error"] = {"report": dataclasses.replace(
            r, estimates=[r.estimates[0] * (1 + 1e-9)] + r.estimates[1:])}
    elif name == "holder":
        changed["averaged_drift_holder"]["values"][0, 0] += 1e-9
    elif name == "zvonkin":
        changed["gradient"][0] += 1e-9
    else:
        changed["csv"] = out["csv"].replace(b"0", b"1", 1)
    assert w.fingerprint(changed) != w.fingerprint(out)
