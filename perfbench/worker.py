"""One workload in one process: set up, run whole rounds for the given
seconds, check the outputs, and report one JSON line to ``run.py``.

A round is the workload's fixed set of operations.  The operations are
fixed by the stream seeds below; ``--seed`` only shuffles their order, so
every seed measures the same work (a coupled draw's cost varies by two
orders of magnitude with its keys).  With ``--trace 1`` the process
alternates untraced and traced rounds, then runs the layer probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from time import perf_counter

from perfectsim import StreamKey, run_algorithm1, run_algorithm2, uniform_at
from perfectsim.coalescence import prepare_coalescence
from perfectsim.gallery import GALLERY, build_kernel

import checks
import tracing
from probes import run_probes
from run import WORKLOADS

MIN_ROUNDS = 3
TAIL_BEYOND = 10  # draws above the reported tail percentile
OUT_DIR = os.path.join("perfbench", "out")
REKEY_SEED = 424244


class Sampling:
    """Exact draws X0 (k = 0), replications 0..draws-1 of one stream seed."""

    def __init__(self, kernel, params, algo, draws, stream_seed, order_seed):
        self.kernel = build_kernel(kernel, params)
        self.params = params
        self.coupled = algo == "algo2"
        # the plan is set-up work: resolve it before the first timed draw
        self.plan = prepare_coalescence(self.kernel) if self.coupled else None
        self.stream_seed = stream_seed
        self.ops = draws
        self.order = random.Random(order_seed).sample(range(draws), draws)

    def _draw(self, kernel, sampler, key, **kw):
        if self.coupled:
            kw["plan"] = self.plan
        syms, rec = sampler(kernel, 0, key, **kw)
        return tuple(syms), rec.T, rec.rounds_used, rec.uniforms_consumed

    def run_round(self, tracer=None):
        """(seconds per draw, outputs), both indexed by replication."""
        sampler = run_algorithm2 if self.coupled else run_algorithm1
        kernel = self.kernel
        if tracer is not None:
            kernel = tracer.kernel(self.kernel)
            count = tracing.count_algorithm2 if self.coupled else tracing.count_algorithm1
            sampler = tracer.span(
                "coalescence" if self.coupled else "backward", sampler, count
            )
        times = [0.0] * self.ops
        outputs = [None] * self.ops
        for r in self.order:
            key = StreamKey(seed=self.stream_seed, replication=r)
            kw = {} if tracer is None else {"uniforms": tracer.uniforms(key)}
            t0 = perf_counter()
            try:
                outputs[r] = self._draw(kernel, sampler, key, **kw)
            except Exception:  # a failed draw is counted, not fatal
                traceback.print_exc()
            times[r] = perf_counter() - t0
        return times, outputs

    def check(self, outputs):
        if self.coupled:
            return checks.check_coupled([o and o[0][-1] for o in outputs])
        q = float(self.params["theta"].partition(":")[2])
        return checks.check_spontaneous(
            [o and (o[0][-1], -o[1][0]) for o in outputs], q, self.params["delta"]
        )

    def check_once(self, outputs):
        """Coupled route: re-key every uniform older than the certified cut
        -(rounds_used + 1) n0 + 1 to another seed; the draw must not change."""
        if not self.coupled:
            return []
        rerun = []
        for r, out in enumerate(outputs):
            if out is None:
                rerun.append(None)
                continue
            key = StreamKey(seed=self.stream_seed, replication=r)
            rekey = StreamKey(seed=REKEY_SEED, replication=r)
            cut = -(out[2] + 1) * self.plan.n0 + 1
            uniforms = rekeyed(key, rekey, cut)
            rerun.append(self._draw(self.kernel, run_algorithm2, key, uniforms=uniforms))
        return checks.mismatches(
            [o and o[:3] for o in outputs], [o and o[:3] for o in rerun], "re-keyed re-run"
        )


def rekeyed(key, rekey, cut):
    return lambda t, pid: uniform_at((key if t >= cut else rekey).at(t, pid))


# (artifact label, kernel, parameters): the 8 gallery kernels with default
# parameters, plus the unrestricted three-letter kernel, the negative control
# that the default (alternating) form is not
DIAGNOSE_RUNS = [(name, name, {}) for name in GALLERY] + [
    ("three-letter-alternating-unrestricted", "three-letter-alternating",
     {"restrict": "false"})
]
ARTIFACTS = {"json": ".json", "rho": "-rho.csv", "tail": "-tail.csv", "gaps": "-gaps.csv"}


class Diagnose:
    """``perfectsim diagnose`` through ``cli.main``, once per kernel; a draw
    is one exact draw of its Monte Carlo batches."""

    def __init__(self, order_seed):
        from perfectsim import cli  # only this workload's set-up imports the CLI

        self.cli = cli
        self.ops = len(DIAGNOSE_RUNS)
        self.order = random.Random(order_seed).sample(range(self.ops), self.ops)
        self.out = os.path.join(OUT_DIR, "diagnose")
        os.makedirs(self.out, exist_ok=True)

    def _invoke(self, main, i):
        label, kernel, params = DIAGNOSE_RUNS[i]
        prefix = os.path.join(self.out, label)
        for suffix in ARTIFACTS.values():
            if os.path.exists(prefix + suffix):
                os.remove(prefix + suffix)
        argv = ["diagnose", "--kernel", kernel, "--out", prefix]
        for k, v in params.items():
            argv += ["--param", f"{k}={v}"]
        try:
            code = main(argv)
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc()
            return None
        files = {}
        for part, suffix in ARTIFACTS.items():
            if os.path.exists(prefix + suffix):
                with open(prefix + suffix, "rb") as fh:
                    files[part] = fh.read()
        return code, files

    def run_round(self, tracer=None):
        """(seconds per exact draw, outputs by run): outputs are the exit
        code and the artifact bytes."""
        cli = self.cli
        outputs = [None] * self.ops
        times = []
        if tracer is None:
            orig = cli.run_algorithm1

            def timed(*args, **kw):
                t0 = perf_counter()
                result = orig(*args, **kw)
                times.append(perf_counter() - t0)
                return result

            cli.run_algorithm1 = timed
            try:
                for i in self.order:
                    outputs[i] = self._invoke(cli.main, i)
            finally:
                cli.run_algorithm1 = orig
        else:
            with tracing.traced_cli(tracer) as main:
                for i in self.order:
                    outputs[i] = self._invoke(main, i)
                    if outputs[i] is not None:
                        tracer.counts["cli.artifact_bytes"] += sum(
                            len(b) for b in outputs[i][1].values()
                        )
        return times, outputs

    def check(self, outputs):
        problems = []
        for i, out in enumerate(outputs):
            if out is None:
                continue
            code, files = out
            label = DIAGNOSE_RUNS[i][0]
            if code != 0:
                problems.append((i, f"{label}: exit code {code}"))
            else:
                problems += [(i, f"{label}: {m}") for m in checks.check_diagnose(label, files)]
        return problems

    def check_once(self, outputs):
        return []


def make_workload(name, order_seed):
    # every draw uses k = 0; stream seed 1, replications 0..draws-1
    if name == "spontaneous":
        return Sampling("autoregressive", {"theta": "geometric:0.5", "delta": 0.3},
                        "algo1", 10_000, 1, order_seed)
    if name == "spontaneous-deep":
        return Sampling("autoregressive", {"theta": "geometric:0.8", "delta": 0.3},
                        "algo1", 1_000, 1, order_seed)
    if name == "coupled":
        # geometric:0.4, not 0.5: at 0.5 a single draw can take 20 s
        return Sampling("cyclic4", {"theta": "geometric:0.4"}, "algo2", 40, 1, order_seed)
    if name == "diagnose":
        return Diagnose(order_seed)
    raise ValueError(f"unknown workload {name!r}")


def smooth_median(s):
    """Harrell-Davis median of the sorted values ``s``: the mean of the order
    statistics weighted by Beta((n+1)/2, (n+1)/2), here in its normal
    approximation (sd 1/(2 sqrt(n+2))).  Spontaneous draw times form one
    cluster per stopping depth, and half the draws stop at once, so the
    plain median sits on the flank of the second cluster and jumps with
    small shifts of it; this estimate moves with them smoothly."""
    n = len(s)
    scale = 0.5 / math.sqrt(n + 2) * math.sqrt(2.0)
    cdf = [0.5 * (1.0 + math.erf((i / n - 0.5) / scale)) for i in range(n + 1)]
    weights = [b - a for a, b in zip(cdf, cdf[1:])]
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def draw_stats(per_round):
    """(median, tail, tail percentile) over the draws, each draw taken at its
    median time over the rounds (every round repeats the same draws).  The
    tail is the highest percentile with TAIL_BEYOND draws above it."""
    s = sorted(statistics.median(times) for times in zip(*per_round))
    n = len(s)
    return smooth_median(s), s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Rounds:
    """Outputs and failures of successive rounds of one workload."""

    def __init__(self, wl):
        self.wl = wl
        self.first = None
        self.once = set()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, tracer=None):
        gc.collect()
        t0 = perf_counter()
        times, outputs = self.wl.run_round(tracer)
        wall = perf_counter() - t0
        found = self.wl.check(outputs)
        if self.first is None:
            self.first = outputs
            found += self.wl.check_once(outputs)
            self.once = {i for i, _ in found}
        else:
            found += checks.mismatches(self.first, outputs, "replay")
        bad = {i for i, _ in found} | self.once
        failed_ops = set(range(self.wl.ops)) if None in bad else bad
        failed_ops |= {i for i, o in enumerate(outputs) if o is None}
        self.attempted += self.wl.ops
        self.failed += len(failed_ops)
        self.problems += [m for _, m in found if m not in self.problems]
        return wall, times


def untraced(wl, seconds):
    rounds = Rounds(wl)
    walls, draws = [], []
    start = perf_counter()
    while len(walls) < MIN_ROUNDS or perf_counter() - start < seconds:
        wall, times = rounds.run()
        walls.append(wall)
        draws.append(array("d", times))
    p50, tail, pct = draw_stats(draws)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "draw_ms_p50": (p50 * 1e3, "ms"),
        "draw_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(draws[0])
    notes = [
        f"rounds: {len(walls)}; {wl.ops} operations and {n} draws each",
        f"draw_ms_tail is p{pct:.4g} of {n} draws, each at its median over "
        f"{len(walls)} rounds",
    ]
    return rounds, metrics, notes


def traced(wl, seconds, name):
    rounds = Rounds(wl)
    tracer = tracing.Tracer()
    plain, walls, per_round = [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        plain.append(rounds.run()[0])
        first = len(tracer.spans)
        before = dict(tracer.counts), dict(tracer.seconds)
        walls.append(rounds.run(tracer)[0])
        counts = {k: v - before[0].get(k, 0) for k, v in tracer.counts.items()}
        # the longest context is a maximum, not a sum over the round
        counts["coalescence.max_context"] = tracer.counts["coalescence.max_context"]
        secs = {k: v - before[1].get(k, 0.0) for k, v in tracer.seconds.items()}
        secs.update(tracer.self_seconds(first))
        per_round.append((counts, secs))
    if any(c != per_round[0][0] for c, _ in per_round):
        print("counts differ between traced rounds", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"{name}.spans.tsv"))

    metrics = {}
    for m, unit in COUNT_METRICS.items():
        metrics[m] = (per_round[0][0].get(m, 0), unit)
    for m in SECOND_METRICS:
        metrics[m] = (statistics.median(s.get(m, 0.0) for _, s in per_round), "s")
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain), "s")
    metrics.update(run_probes())
    notes = [f"rounds: {len(plain)} untraced, {len(walls)} traced"]
    return rounds, metrics, notes


COUNT_METRICS = {
    "streams.uniform_calls": "count",
    "gallery.alpha_calls": "count",
    "gallery.alpha_letters": "count",
    "backward.rounds": "count",
    "coalescence.windows": "count",
    "coalescence.uniforms": "count",
    "coalescence.max_context": "count",
    "cli.artifact_bytes": "bytes",
}
SECOND_METRICS = (
    "streams.uniform_s",
    "gallery.alpha_s",
    *tracing.SPAN_LAYERS.values(),
)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = make_workload(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        rounds, metrics, notes = traced(wl, args.seconds, args.workload)
    else:
        rounds, metrics, notes = untraced(wl, args.seconds)
    for m in rounds.problems[:20]:
        print("check failed:", m, file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
        "notes": notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
