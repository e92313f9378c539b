"""Paired benchmark runs of a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent REV --pairs 10 --out BENCH_<n>.json \
        [--workload NAME ...]

Both sides run from sibling directories of one temporary directory, so
that where a tree lies on disk favours neither: ``parent``, the files
of REV unpacked from ``git archive``, and ``change``, a copy of this checkout's
tracked and untracked, not ignored files as they stand (the change may
be uncommitted edits on top of a commit).  For every workload it makes
``--pairs`` pairs of ``bench/run.py`` runs of ``run_seconds`` (from
BENCHMARK.json), one per side, with seed ``SEED0 + 100 j + i`` for pair
i of workload j; the order inside a pair alternates, so a host that
drifts in speed favours neither side.  Then it computes every
workload's ``workload.fingerprint`` at ``FINGERPRINT_SEEDS`` on both
sides, one round each through ``bench/worker.py``'s ``run_round``.  The
temporary directory is removed at the end.

The JSON it writes identifies each side by its path and a sha256 over
its ``src`` and ``bench`` sources and holds, per workload and end-to-end
metric, the values of every run, median and quartiles per side, the
change/parent median ratio, the pairs the change won, the parent's IQR
and whether the medians differ by more than that IQR; whether each
fingerprint is equal; whether every run was correct without failed
operations; and the Python, numpy, scipy and BLAS versions, the SIMD
targets of numpy's float64 sin, cos and tan, and the CPU.  A speedup
counts when the change wins at least 9 of 10 pairs and its median is
better by more than the parent's IQR.

A run that exits non-zero is recorded under ``failed_runs`` (side,
workload, seed, exit code) and the pairs go on; the statistics of a
workload take its pairs whose two runs both succeeded.  Exit code 0
when every run succeeded and was correct and every fingerprint is
equal, 1 otherwise, and 2 (before any work) for an unknown
``--workload``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED0 = 1000
FINGERPRINT_SEEDS = (1, 2, 3)

# Run in a checkout: sha256 of each workload's fingerprint per seed after
# one round, or None when an operation of the round failed.
FINGERPRINT = """
import hashlib, json, pickle, sys
sys.path[:0] = ["src", "bench"]
import worker, workloads
model = workloads.build_model()
out = {}
for name in workloads.WORKLOADS:
    for seed in json.loads(sys.argv[1]):
        w = workloads.make(name, model, seed)
        res, failed, _, _ = worker.run_round(w)
        out[f"{name}/{seed}"] = None if failed else hashlib.sha256(
            pickle.dumps(w.fingerprint(res), protocol=4)).hexdigest()
print(json.dumps(out))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", dest="workloads",
                   choices=[w["name"] for w in SPEC["workloads"]],
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def unpack_revision(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` to ``dest``, leaving the repository's
    own metadata alone (no worktree to register or remove)."""
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(dest, filter="data")


def copy_checkout(dest: Path) -> None:
    """Copy this checkout's tracked and untracked, not ignored files."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in sorted(set(filter(None, listed.split("\0")))):
        src = ROOT / rel
        if src.is_file():  # a tracked file may be deleted in the work tree
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def bench_run(checkout: Path, workload: str, seed: int) -> tuple[int, dict | None]:
    """(exit code, last output line as JSON); the line is None unless the
    run exited 0 with output."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", repr(float(SPEC["run_seconds"])), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None
    return 0, json.loads(lines[-1])


def source_digest(checkout: Path) -> str:
    """sha256 over the package and benchmark sources a checkout runs."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")) + sorted(
            (checkout / "bench").glob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprints(checkout: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", FINGERPRINT, json.dumps(list(FINGERPRINT_SEEDS))],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        pv = [r["metrics"][name]["value"] for r in parent]
        cv = [r["metrics"][name]["value"] for r in change]
        lower = metric["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        pq, cq = quartiles(pv), quartiles(cv)
        iqr = pq[2] - pq[0]
        gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": pv, "change": cv,
            "parent_median": pq[1], "parent_q1": pq[0], "parent_q3": pq[2],
            "change_median": cq[1], "change_q1": cq[0], "change_q3": cq[2],
            "ratio": cq[1] / pq[1], "pairs_won": won, "pairs": len(pv),
            "parent_iqr": iqr, "gain_exceeds_parent_iqr": gain > iqr,
        }
    return out


def trig_dispatch() -> dict | None:
    """The SIMD target numpy runs float64 sin, cos and tan on (the heat
    drifts' cost depends on it), or None before numpy 2.0, which cannot
    report it."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name="^(sin|cos|tan)$", signature="float64")
    return {name: info.get(name, {}).get("dd", {}).get("current")
            for name in ("sin", "cos", "tan")}


def scipy_version() -> str | None:
    """scipy's version, or None where it is not installed (the package
    and the benchmark need only numpy)."""
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version(), "float64_dispatch": trig_dispatch(),
            "blas": {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")},
            "platform": platform.platform(), "cpu": cpu,
            "cpus": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    args = parse_args(argv)
    names = args.workloads or [w["name"] for w in SPEC["workloads"]]
    parent_rev = git("rev-parse", args.parent)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent_dir, change_dir = work / "parent", work / "change"
    try:
        unpack_revision(parent_rev, parent_dir)
        copy_checkout(change_dir)
        result = {
            "parent": parent_rev, "parent_dir": str(parent_dir),
            "parent_sources": source_digest(parent_dir),
            "change_base": git("rev-parse", "HEAD"),
            "change_has_uncommitted_edits": bool(git("status", "--porcelain")),
            "change_dir": str(change_dir),
            "change_sources": source_digest(change_dir),
            "command": (f"python3 bench/run.py --workload W --seed S "
                        f"--seconds {SPEC['run_seconds']:g} --trace 0"),
            "environment": environment(), "workloads": {},
        }
        all_correct = True
        failed_runs = []
        for j, name in enumerate(names):
            pairs = []
            seeds = []
            for i in range(args.pairs):
                seed = SEED0 + 100 * j + i
                seeds.append(seed)
                order = [("parent", parent_dir), ("change", change_dir)]
                pair = {}
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    code, line = bench_run(checkout, name, seed)
                    if line is None:
                        failed_runs.append({"side": side, "workload": name,
                                            "seed": seed, "exit_code": code})
                        all_correct = False
                        status = f"exit {code}"
                    else:
                        pair[side] = line
                        all_correct &= line["correct"] and line["failed"] == 0
                        status = f"wall_s {line['metrics']['wall_s']['value']:.3f}"
                    print(f"{name} pair {i + 1}/{args.pairs} {side}: {status}",
                          file=sys.stderr, flush=True)
                if len(pair) == 2:
                    pairs.append(pair)
            # the statistics take the pairs both of whose runs succeeded
            result["workloads"][name] = {
                "seeds": seeds, "complete_pairs": len(pairs),
                "metrics": summarize([p["parent"] for p in pairs],
                                     [p["change"] for p in pairs])
                if len(pairs) >= 2 else None}
        result["all_runs_correct"] = all_correct
        result["failed_runs"] = failed_runs
        fp_parent, fp_change = fingerprints(parent_dir), fingerprints(change_dir)
        result["fingerprint_seeds"] = list(FINGERPRINT_SEEDS)
        result["fingerprints_equal"] = {
            k: fp_parent[k] is not None and fp_parent[k] == fp_change.get(k)
            for k in fp_parent}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0 if all_correct and all(result["fingerprints_equal"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
