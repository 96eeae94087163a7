"""Benchmark of perfectsim's two backward samplers and its diagnostics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own single-threaded process (``worker.py``).
With ``--trace 0`` the end-to-end metrics are measured and ``setup_s`` is
the median over several processes of the time from spawning the process
to its first timed operation.  With ``--trace 1`` the per-layer metrics
are measured instead.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("spontaneous", "spontaneous-deep", "coupled", "diagnose")
SETUP_RUNS = 6  # set-up-only processes timed, besides the workload's own
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
PACKAGE = os.path.join("src", "perfectsim", "__init__.py")


def spawn(args, env, timeout):
    """(monotonic time at spawn, the worker's JSON result)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return t0, json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"no {PACKAGE}: run from the root of a perfectsim checkout",
              file=sys.stderr)
        return 2

    # monotonic clocks agree between processes on Linux, so set-up is
    # measured from the spawn in this process to the ready mark in the worker
    env = dict(
        os.environ,
        PYTHONPATH=os.path.abspath("src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        spawn(common + ["--seconds", "0", "--setup-only"], env, 120)  # warm-up
        for _ in range(SETUP_RUNS):
            t0, res = spawn(common + ["--seconds", "0", "--setup-only"], env, 120)
            setups.append(res["ready"] - t0)
    t0, res = spawn(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env,
        args.seconds + 150,
    )
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["ready"] - t0)
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for note in res["notes"]:
        print(note)
    print(f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
