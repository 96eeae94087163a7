"""Spans and counters recorded from outside the program.

The traced run wraps the program's public seams instead of editing it: a
kernel copy whose ``alpha`` is timed (the default ``beta`` then scans the
wrapper too), the samplers' ``uniforms=`` hook, and the names that
``perfectsim.cli`` and ``perfectsim.diagnostics`` import.

Spans (name, start, end, parent) are kept in memory and written once at
the end.  ``alpha`` and ``uniform_at`` run millions of times in one round,
so they are not spans of their own: each call adds its count and time to
the open span, whose self time then excludes it.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter
from time import perf_counter

from perfectsim.streams import uniform_at

# span name -> layer whose self time it is
SPAN_LAYERS = {
    "backward": "backward.self_s",
    "coalescence": "coalescence.self_s",
    "diagnostics.conditions": "diagnostics.conditions_s",
    "diagnostics.tail": "diagnostics.tail_s",
    "diagnostics.renewal": "diagnostics.renewal_s",
    "cli": "cli.self_s",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.covered = []  # per span: seconds spent in its children
        self.open = []  # indices of the spans now open, innermost last
        self.counts = Counter()
        self.seconds = Counter()

    def span(self, name, fn, count=None):
        """``fn`` wrapped in a span; ``count(result)`` adds counters."""

        def wrapped(*args, **kwargs):
            parent = self.open[-1] if self.open else -1
            i = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            self.covered.append(0.0)
            self.open.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.open.pop()
                self.spans[i][1:3] = (t0, t1)
                if parent >= 0:
                    self.covered[parent] += t1 - t0
            if count is not None:
                count(self.counts, result)
            return result

        return wrapped

    def _leaf(self, dt):
        if self.open:
            self.covered[self.open[-1]] += dt

    def kernel(self, kernel):
        """Copy of ``kernel`` whose alpha counts calls, context letters and time."""
        alpha = kernel.alpha
        counts, seconds = self.counts, self.seconds

        def traced_alpha(g, w):
            t0 = perf_counter()
            a = alpha(g, w)
            dt = perf_counter() - t0
            counts["gallery.alpha_calls"] += 1
            counts["gallery.alpha_letters"] += len(w)
            seconds["gallery.alpha_s"] += dt
            if self.open and self.spans[self.open[-1]][0] == "coalescence":
                if len(w) > counts["coalescence.max_context"]:
                    counts["coalescence.max_context"] = len(w)
            self._leaf(dt)
            return a

        return dataclasses.replace(kernel, alpha=traced_alpha, beta=None)

    def uniforms(self, key):
        """The samplers' default stream for ``key``, timed per call; takes
        ``(t)`` for the spontaneous route and ``(t, pid)`` for the coupled one."""
        counts, seconds = self.counts, self.seconds

        def one(t, pid=None):
            t0 = perf_counter()
            u = uniform_at(key.at(t, pid))
            dt = perf_counter() - t0
            counts["streams.uniform_calls"] += 1
            seconds["streams.uniform_s"] += dt
            self._leaf(dt)
            return u

        return one

    def self_seconds(self, first=0):
        """Self time per layer over the spans recorded since index ``first``."""
        out = Counter()
        for i in range(first, len(self.spans)):
            name, t0, t1, _ = self.spans[i]
            layer = SPAN_LAYERS.get(name)
            if layer is not None:
                out[layer] += t1 - t0 - self.covered[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0!r}\t{t1!r}\t{parent}\n")


def count_algorithm1(counts, result):
    counts["backward.rounds"] += result[1].rounds_used + 1


def count_joint_tableau(counts, result):
    # one round per start time, from the top target down to the last start
    _, T = result
    counts["backward.rounds"] += max(T) - min(T.values()) + 1


def count_algorithm2(counts, result):
    rec = result[1]
    counts["coalescence.windows"] += rec.rounds_used + 1
    counts["coalescence.uniforms"] += rec.uniforms_consumed


@contextlib.contextmanager
def traced_cli(tracer):
    """Point the names ``perfectsim.cli`` and ``perfectsim.diagnostics``
    import at timing wrappers; restore them on exit."""
    from perfectsim import cli, diagnostics

    make = cli.build_kernel

    def build_kernel(name, params):
        return tracer.kernel(make(name, params))

    run1 = tracer.span("backward", cli.run_algorithm1, count_algorithm1)

    def run_algorithm1(kernel, k, key, **kw):
        return run1(kernel, k, key, uniforms=tracer.uniforms(key), **kw)

    patches = {
        (cli, "build_kernel"): build_kernel,
        (cli, "run_algorithm1"): run_algorithm1,
        (cli, "check_theorem_conditions"): tracer.span(
            "diagnostics.conditions", cli.check_theorem_conditions
        ),
        (cli, "exact_T0_tail"): tracer.span("diagnostics.tail", cli.exact_T0_tail),
        (cli, "renewal_diagnostic"): tracer.span(
            "diagnostics.renewal", cli.renewal_diagnostic
        ),
        (diagnostics, "run_joint_tableau"): tracer.span(
            "backward", diagnostics.run_joint_tableau, count_joint_tableau
        ),
    }
    saved = {target: getattr(*target) for target in patches}
    try:
        for (module, name), fn in patches.items():
            setattr(module, name, fn)
        yield tracer.span("cli", cli.main)
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)
