"""Layer probes: public calls of each module timed on fixed inputs.

Windows are cut from realized paths: an exact stationary draw of 1000
letters under the probe seed (autoregressive through the joint tableau,
cyclic4 through the coupled sampler; graph-walk's default graph is the
4-cycle, the same law, so it reuses the cyclic4 path).  Windows are
newest-first; a starred window hides every third letter from the newest
one on, keeping the oldest letter known so the length stays.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from perfectsim import (
    STAR,
    StreamKey,
    run_algorithm2,
    run_joint_tableau,
    sample_symbol,
    sample_symbol_increment,
    uniform_at,
)
from perfectsim.coalescence import prepare_coalescence
from perfectsim.diagnostics import exact_T0_tail, rho_exact, rho_tilde_exact
from perfectsim.gallery import build_kernel

PROBE_SEED = 7
LENGTHS = (1, 10, 100, 1000)
REPEATS = 3
MIN_SECONDS = 0.02
RHO_N = 12  # rho_exact on autoregressive: 2**12 letter strings
RHO_TILDE_N = 6  # rho_tilde_exact on cyclic4: 4 class windows x 4**6 strings
TAIL_N = 3  # exact_T0_tail on imitation by enumeration, as diagnose runs it
TABLEAU_TOP = 20_000


def per_call(fn, inputs):
    """Median over REPEATS of the mean seconds of one ``fn(*x)``, cycling
    through ``inputs`` until at least MIN_SECONDS have passed."""
    results = []
    for _ in range(REPEATS):
        calls = 0
        t0 = perf_counter()
        while True:
            for x in inputs:
                fn(*x)
            calls += len(inputs)
            dt = perf_counter() - t0
            if dt >= MIN_SECONDS:
                break
        results.append(dt / calls)
    return statistics.median(results)


def starred(w):
    return tuple(
        STAR if j % 3 == 0 and (j == 0 or j < len(w) - 1) else x
        for j, x in enumerate(w)
    )


def realized_paths():
    """name -> (kernel, 1000-letter newest-first path)."""
    key = StreamKey(seed=PROBE_SEED)
    ar = build_kernel("autoregressive", {})
    vals, _ = run_joint_tableau(ar, LENGTHS[-1] - 1, key)
    cy = build_kernel("cyclic4", {})
    syms, _ = run_algorithm2(cy, LENGTHS[-1] - 1, key)
    cy_path = tuple(reversed(syms))
    return {
        "autoregressive": (ar, tuple(vals[t] for t in range(LENGTHS[-1] - 1, -1, -1))),
        "cyclic4": (cy, cy_path),
        "graph-walk": (build_kernel("graph-walk", {}), cy_path),
    }


def run_probes():
    """Every probe metric, by name: (value, unit)."""
    out = {}
    base = StreamKey(seed=PROBE_SEED)
    keys = [(base.at(-t),) for t in range(1000)]
    out["streams.uniform_at_us"] = (per_call(uniform_at, keys) * 1e6, "us")
    out["streams.key_at_us"] = (
        per_call(base.at, [(-t,) for t in range(1000)]) * 1e6,
        "us",
    )

    paths = realized_paths()
    for name, (kernel, path) in paths.items():
        for n in LENGTHS:
            for kind, w in (("starfree", path[:n]), ("starred", starred(path[:n]))):
                calls = [(g, w) for g in kernel.alphabet]
                out[f"gallery.alpha_us.{name}.{n}.{kind}"] = (
                    per_call(kernel.alpha, calls) * 1e6,
                    "us",
                )

    # the oldest letter revealed: the refinement step both samplers repeat
    cy, w_new = paths["cyclic4"]
    w_old = w_new[:-1]
    thr = cy.beta(w_old)
    rng = random.Random(PROBE_SEED)
    us = [rng.random() for _ in range(20)]
    out["kernels.sample_symbol_us"] = (
        per_call(sample_symbol, [(cy, u, w_new) for u in us]) * 1e6,
        "us",
    )
    out["kernels.sample_symbol_increment_us"] = (
        per_call(
            sample_symbol_increment,
            [(cy, thr + (1.0 - thr) * u, w_new, w_old, thr) for u in us],
        )
        * 1e6,
        "us",
    )

    ar = paths["autoregressive"][0]
    out["backward.joint_tableau_s"] = (
        per_call(run_joint_tableau, [(ar, TABLEAU_TOP, base)]),
        "s",
    )
    # the cached entry point would return the first plan; time its body
    out["coalescence.plan_s"] = (per_call(prepare_coalescence.__wrapped__, [(cy,)]), "s")
    plan = prepare_coalescence(cy)
    out["diagnostics.rho_exact_s"] = (per_call(rho_exact, [(ar, RHO_N)]), "s")
    out["diagnostics.rho_tilde_exact_s"] = (
        per_call(rho_tilde_exact, [(cy, plan.analysis, RHO_TILDE_N)]),
        "s",
    )
    imitation = build_kernel("imitation", {})
    out["diagnostics.exact_tail_s"] = (per_call(exact_T0_tail, [(imitation, TAIL_N)]), "s")
    return out
