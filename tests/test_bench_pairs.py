"""The statistics of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values, name="m"):
    return [{"metrics": {name: {"value": v}}} for v in values]


@pytest.fixture()
def spec(bench_pairs, monkeypatch):
    """One end-to-end metric ``m`` whose better direction a test sets."""
    def make(better):
        monkeypatch.setattr(bench_pairs, "SPEC", {"end_to_end": [
            {"name": "m", "unit": "s", "better": better, "bound": 0.25}]})
    return make


def test_quartiles_are_inclusive(bench_pairs):
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench_pairs.quartiles(list(range(1, 11))) == (3.25, 5.5, 7.75)
    assert bench_pairs.quartiles([4, 1, 3, 2, 5]) == (2, 3, 4)


@pytest.mark.parametrize("shift,exceeds", [(5.0, True), (1.0, False)])
def test_lower_is_better(bench_pairs, spec, shift, exceeds):
    spec("lower")
    parent = [10.0 + i for i in range(10)]  # median 14.5, IQR 16.75 - 12.25
    change = [p - shift for p in parent]
    m = bench_pairs.summarize(runs(parent), runs(change))["m"]
    assert (m["parent_q1"], m["parent_median"], m["parent_q3"]) == (12.25, 14.5, 16.75)
    assert (m["change_q1"], m["change_median"], m["change_q3"]) == (
        12.25 - shift, 14.5 - shift, 16.75 - shift)
    assert m["parent_iqr"] == 4.5
    assert m["ratio"] == (14.5 - shift) / 14.5
    assert (m["pairs_won"], m["pairs"]) == (10, 10)
    assert m["gain_exceeds_parent_iqr"] is exceeds
    assert m["parent"] == parent and m["change"] == change
    assert (m["unit"], m["better"], m["bound"]) == ("s", "lower", 0.25)


@pytest.mark.parametrize("shift,exceeds", [(5.0, True), (1.0, False)])
def test_higher_is_better(bench_pairs, spec, shift, exceeds):
    spec("higher")
    parent = [1.0 + i for i in range(10)]  # median 5.5, IQR 4.5
    change = [p + shift for p in parent]
    m = bench_pairs.summarize(runs(parent), runs(change))["m"]
    assert m["ratio"] == (5.5 + shift) / 5.5
    assert m["pairs_won"] == 10
    assert m["gain_exceeds_parent_iqr"] is exceeds
    # the same runs read the other way round win nothing and gain nothing
    back = bench_pairs.summarize(runs(change), runs(parent))["m"]
    assert back["pairs_won"] == 0
    assert back["gain_exceeds_parent_iqr"] is False


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_pairs_are_won_pair_by_pair_and_ties_lose(bench_pairs, spec, better):
    spec(better)
    parent = [5.0, 5.0, 5.0, 5.0, 5.0]
    worse, better_value = (6.0, 4.0) if better == "lower" else (4.0, 6.0)
    change = [better_value, better_value, worse, 5.0, better_value]
    m = bench_pairs.summarize(runs(parent), runs(change))["m"]
    assert m["pairs_won"] == 3
    assert m["parent_iqr"] == 0.0
    # the medians differ by 1, more than the parent's IQR of 0
    assert m["gain_exceeds_parent_iqr"] is True


def test_every_end_to_end_metric_of_the_benchmark_is_summarized(bench_pairs):
    names = [metric["name"] for metric in bench_pairs.SPEC["end_to_end"]]
    line = {"metrics": {name: {"value": 1.0} for name in names}}
    out = bench_pairs.summarize([line] * 4, [line] * 4)
    assert sorted(out) == sorted(names)
    assert all(m["ratio"] == 1.0 and m["pairs_won"] == 0 for m in out.values())


@pytest.fixture()
def offline(bench_pairs, monkeypatch, tmp_path):
    """``main`` with one workload ``w`` and every subprocess stubbed out;
    returns the calls ``bench_run`` received."""
    monkeypatch.setattr(bench_pairs, "SPEC", {
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.25}]})
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "unpack_revision",
                        lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "copy_checkout", lambda dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "source_digest", lambda checkout: "")
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    monkeypatch.setattr(bench_pairs, "fingerprints",
                        lambda checkout: {"w/1": "same"})
    calls = []

    def bench_run(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        if (checkout.name, seed) == ("change", bench_pairs.SEED0 + 1):
            return 3, None
        return 0, {"correct": True, "failed": 0,
                   "metrics": {"wall_s": {"value": 1.0 + seed % 10}}}

    monkeypatch.setattr(bench_pairs, "bench_run", bench_run)
    return calls


def test_a_failed_run_is_recorded_and_the_pairs_go_on(bench_pairs, offline,
                                                       tmp_path):
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "HEAD", "--pairs", "4",
                             "--out", str(out)]) == 1
    assert len(offline) == 8  # every run of every pair was made
    result = json.loads(out.read_text())
    assert result["failed_runs"] == [{"side": "change", "workload": "w",
                                      "seed": bench_pairs.SEED0 + 1,
                                      "exit_code": 3}]
    assert result["all_runs_correct"] is False
    w = result["workloads"]["w"]
    assert w["complete_pairs"] == 3
    assert w["metrics"]["wall_s"]["pairs"] == 3
    assert w["metrics"]["wall_s"]["parent"] == [1.0, 3.0, 4.0]


def test_unknown_workload_exits_2_before_any_work(bench_pairs, offline,
                                                   monkeypatch, tmp_path):
    def no_work(rev, dest):
        raise AssertionError("the parent was unpacked")

    monkeypatch.setattr(bench_pairs, "unpack_revision", no_work)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--workload", "nope",
                          "--out", str(out)])
    assert exc.value.code == 2
    assert not offline and not out.exists()


def test_environment_records_the_trig_dispatch_targets(bench_pairs):
    import numpy

    dispatch = bench_pairs.environment()["float64_dispatch"]
    if int(numpy.__version__.split(".")[0]) < 2:
        assert dispatch is None
    else:
        assert sorted(dispatch) == ["cos", "sin", "tan"]
        assert all(isinstance(target, str) and target
                   for target in dispatch.values())


def test_trig_dispatch_is_null_without_introspection(bench_pairs, monkeypatch):
    # numpy before 2.0 has no numpy.lib.introspect
    monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
    assert bench_pairs.trig_dispatch() is None
    assert bench_pairs.environment()["float64_dispatch"] is None


def test_scipy_is_null_where_it_is_not_installed(bench_pairs, monkeypatch):
    # numpy is the only runtime dependency; scipy is recorded if present
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert bench_pairs.scipy_version() is None
    assert bench_pairs.environment()["scipy"] is None
