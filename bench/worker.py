"""One benchmark run in a fresh Python process, started by ``run.py``.

The process imports the package from the checkout's ``src``, builds the
heat model and parses ``configs/heat.cfg`` (the set-up that ``setup_s``
times, from process start), then runs whole rounds of the workload's
operations, moving to the next allowed CPU before each round, up to
the round boundary nearest to ``--seconds``, after one untimed warm-up
round at the tiny scale.  With ``--trace 1`` it runs one untraced
round, installs the tracer and runs one traced round; the difference
of the two wall times is the tracing overhead.  Outputs are checked after
timing stops.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def run_round(workload):
    """Run every operation once; returns (outputs, failed, wall_s, cpu_s)."""
    out, failed = {}, 0
    t0, c0 = time.perf_counter(), time.process_time()
    for name, op in workload.operations():
        try:
            out[name] = op(out)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if hasattr(workload, "collect"):
        workload.collect(out)
    return out, failed, wall, cpu


def run_checks(workload, out, same_outputs: bool):
    import workloads as wl

    try:
        checks = workload.checks(out)
    except KeyError as exc:  # an operation failed, its output is missing
        checks = [wl.Check("checks skipped", True, f"missing output {exc}")]
    checks.append(wl.Check("rounds reproduce bit-identical outputs", same_outputs))
    return [[c.name, bool(c.ok), c.detail] for c in checks]


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import slowfast_spde  # noqa: F401  (set-up: the whole package)
    from slowfast_spde import cli  # noqa: F401
    from slowfast_spde.config import parse_config

    import workloads as wl

    model_cfg = wl.build_model()
    parse_config(ROOT / "configs" / "heat.cfg")
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = wl.make(args.workload, model_cfg, args.seed,
                       tiny=args.scale == "tiny")
    n_ops = len(workload.operations())
    result = {"setup_s": setup_s}

    if args.trace:
        from tracing import Tracer

        out_plain, failed_plain, wall_plain, _ = run_round(workload)
        tracer = Tracer()
        tracer.install()
        workload.model = wl.build_model()  # its drifts are now wrapped
        out, failed, wall, _ = run_round(workload)
        layers = tracer.metrics()
        layers["cli.bytes_written"] = out.get("bytes_written", 0)
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = wall - wall_plain
        layers["trace.attributed_share"] = tracer.attributed_s() / wall
        result["layers"] = layers
        same = (failed == failed_plain == 0
                and workload.fingerprint(out) == workload.fingerprint(out_plain))
        result.update(attempted=2 * n_ops, failed=failed + failed_plain,
                      checks=run_checks(workload, out, same))
        tracer.save(wl.out_dir() / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        # Warm-up: one untimed round of the same operations at the tiny
        # scale, so that first-call costs stay out of the timed rounds.
        warm = wl.make(args.workload, model_cfg, args.seed, tiny=True)
        _, failed, _, _ = run_round(warm)
        attempted = len(warm.operations())
        walls, cpus = [], []
        first = first_print = None
        same = True
        cpu_ids = sorted(os.sched_getaffinity(0))
        t_start = time.perf_counter()
        while True:
            # Each CPU of a shared host drifts in speed on its own over
            # minutes; rounds that take turns on every CPU make the run's
            # mean vary less from run to run.
            os.sched_setaffinity(0, {cpu_ids[len(walls) % len(cpu_ids)]})
            out, f, wall, cpu = run_round(workload)
            walls.append(wall)
            cpus.append(cpu)
            attempted += n_ops
            failed += f
            if first is None:
                first = out
                first_print = workload.fingerprint(out) if f == 0 else None
            elif f == 0 and first_print is not None:
                same = same and workload.fingerprint(out) == first_print
            # Stop at the round boundary nearest to --seconds.
            if time.perf_counter() - t_start + 0.5 * wall >= args.seconds:
                break
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(wall_s=walls, cpu_s=cpus, peak_rss_mb=peak,
                      attempted=attempted, failed=failed,
                      checks=run_checks(workload, first, same))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
