"""Benchmark of the slowfast-spde verification toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: strong-convergence,
holder-batch, zvonkin-1d, coupled-path (see bench/README.md).  Every run
happens in a fresh Python process (``worker.py``), so ``setup_s`` and
``peak_rss_mb`` belong to that run; ``setup_s`` is the median over that
process and a few set-up-only processes.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced round:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 when the result line was printed, 1 when the run broke
down, 2 when the checkout lacks the package or its config.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("strong-convergence", "holder-batch", "zvonkin-1d", "coupled-path")
SETUP_PROBES = 2
DEADLINE_S = 170.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the benchmark's own tests")
    return p.parse_args(argv)


def spawn(extra: list[str], deadline: float) -> dict:
    """Start a worker process, wait for it and return its result line."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--t-spawn", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    missing = [str(p) for p in (ROOT / "src" / "slowfast_spde" / "__init__.py",
                                ROOT / "configs" / "heat.cfg") if not p.is_file()]
    if missing:
        print("not a slowfast-spde checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # the package's seeds are non-negative
    try:
        result = spawn(["--workload", args.workload, "--seed", str(seed),
                        "--seconds", repr(args.seconds), "--trace", str(args.trace),
                        "--scale", args.scale], deadline)
        setups = [result["setup_s"]]
        if not args.trace:
            setups += [spawn(["--setup-only"], deadline)["setup_s"]
                       for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, ok, detail in result["checks"]:
        print(f"[{'PASS' if ok else 'FAIL'}] {args.workload}: {name}"
              + (f" ({detail})" if detail else ""))
    if args.trace:
        values = result["layers"]
    else:
        print(f"timed rounds: {len(result['wall_s'])}, round wall times: "
              + ", ".join(f"{w:.3f}" for w in result["wall_s"]))
        # The mean over the timed rounds: the host's speed drifts over
        # minutes, and the mean uses every round to average it out.
        values = {"wall_s": statistics.fmean(result["wall_s"]),
                  "cpu_s": statistics.fmean(result["cpu_s"]),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
    if set(values) != set(units):
        print("metrics differ from BENCHMARK.json: "
              + ", ".join(sorted(set(values) ^ set(units))), file=sys.stderr)
        return 1
    line = {"correct": all(ok for _, ok, _ in result["checks"]),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
