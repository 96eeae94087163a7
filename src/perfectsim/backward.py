"""Backward perfect sampler driven by spontaneous symbols.

Round n opens the tableau at time -n: the time's uniform either produces
a letter from the context-free masses (a spontaneous symbol) or the round
fails.  After a success the update cascades forward through the still
unknown times, each one re-reading its original uniform against the mass
that the newly revealed letters added.  A letter, once written, is final;
repeating rounds deeper into the past eventually fills the whole target
window, and the result is an exact draw from the stationary law.

Per-time thresholds are chained: each time remembers the cumulative mass
its uniform has already cleared, so a later round only stacks the fresh
increments on top.  This is exactly equivalent to recomputing the whole
cumulative sum (the increments telescope) but keeps the float comparisons
identical across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import STAR, KernelContractViolation, KernelSpec, _scan, _scan_increment
from .streams import StreamKey, keyed_uniforms


class BetaZeroForAlgo1(Exception):
    """The kernel has no context-free mass: no spontaneous symbols exist."""


class MaxRoundsExceeded(Exception):
    """Backward search ran out of budget; carries the partial tableau."""

    def __init__(self, message, tableau=None):
        super().__init__(message)
        self.tableau = tableau


@dataclass
class SimulationTableau:
    """Current-round snapshot of the triangular array."""

    temp: dict  # time -> symbol (letters are final; STAR = still unknown)
    round: int
    target_lo: int
    target_hi: int


@dataclass
class StoppingRecord:
    """Resolution certificate: T[m] is the round start that fixed time m.

    The sampled value at time m depends only on the uniforms at times
    T[m], ..., m; perturbing anything older cannot change it.
    """

    T: dict
    rounds_used: int
    uniforms_consumed: int

    def t_min(self, m: int, n: int) -> int:
        return min(self.T[t] for t in range(m, n + 1))


def threshold_violation(kernel, t, u, threshold) -> KernelContractViolation:
    """The error for a still-unknown time whose uniform sits below its
    chained threshold.  Every scan that leaves a time unknown returns a total its
    uniform has cleared, so only a kernel mass that poisons the sums (NaN)
    gets here; a raise, unlike an assert, still runs under ``python -O``."""
    return KernelContractViolation(
        f"{kernel.name}: uniform {u!r} at time {t} fell below its chained "
        f"threshold {threshold!r}"
    )


def run_algorithm1(
    kernel: KernelSpec,
    k: int,
    key: StreamKey,
    max_rounds: int = 10**6,
    uniforms=None,
):
    """Sample X_{-k}, ..., X_0 exactly from the stationary law.

    Returns (symbols, record): symbols is the length-(k+1) list ordered
    oldest first, record the StoppingRecord over the target times.
    ``uniforms`` may override the keyed stream (callable time -> u in
    [0,1)); the default, ``keyed_uniforms(key)``, reads
    ``uniform_at(key.at(t))``.

    Requires beta(empty) > 0: some letter must be producible with no
    context, else no round can ever succeed.
    """
    if k < 0:
        raise ValueError("k >= 0 required")
    if uniforms is None:
        uniforms = keyed_uniforms(key)
    if kernel.beta(()) <= 0.0:
        raise BetaZeroForAlgo1(
            f"{kernel.name}: beta(empty) = {kernel.beta(())}; "
            "the spontaneous-symbol route needs it positive"
        )

    temp: dict = {}
    thr: dict = {}
    ucache: dict = {}
    T: dict = {}

    def _u(t):
        if t not in ucache:
            ucache[t] = uniforms(t)
        return ucache[t]

    n = 0
    while True:
        if n > max_rounds:
            raise MaxRoundsExceeded(
                f"no coalescence within {max_rounds} rounds",
                SimulationTableau(dict(temp), n - 1, -k, 0),
            )
        t0 = -n
        prev = dict(temp)  # values of the previous round's tableau
        sym, total = _scan(kernel, _u(t0), ())
        if sym is STAR:
            # failed round: everything copies over (the deeper star adds no
            # information), but the uniform at -n is burned
            temp[t0] = STAR
            thr[t0] = total
        else:
            temp[t0] = sym
            T[t0] = t0
            for m in range(t0 + 1, 1):
                if temp[m] is not STAR:
                    continue
                w_new = tuple(temp[j] for j in range(m - 1, t0 - 1, -1))
                w_old = tuple(prev[j] for j in range(m - 1, t0, -1))
                um = _u(m)
                threshold_old = thr[m]
                # a still-unknown time has, by construction, a uniform that
                # already cleared every mass scanned for it so far
                if not um >= threshold_old:
                    raise threshold_violation(kernel, m, um, threshold_old)
                s2, acc = _scan_increment(kernel, um, w_new, w_old, threshold_old)
                if s2 is STAR:
                    thr[m] = acc
                else:
                    temp[m] = s2
                    T[m] = t0
        if all(temp.get(t, STAR) is not STAR for t in range(-k, 1)):
            record = StoppingRecord(
                T={t: T[t] for t in range(-k, 1)},
                rounds_used=n,
                uniforms_consumed=len(ucache),
            )
            return [temp[t] for t in range(-k, 1)], record
        n += 1


def run_auxiliary_chain(kernel: KernelSpec, n: int, key: StreamKey, uniforms=None):
    """Forward chain fed by the same masses: Y_j drawn against (Y_{j-1},...,Y_0).

    Stars are legitimate values here (the escape mass stays unassigned);
    the marginal law of Y_j matches the law of the backward tableau's
    value at the target after j+1 rounds, which is what makes this chain
    the measuring stick for the tail probabilities P(|T[0]| > j).
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    if uniforms is None:
        uniforms = keyed_uniforms(key)
    ys: list = []
    for j in range(n + 1):
        w = tuple(reversed(ys))
        ys.append(_scan(kernel, uniforms(j), w)[0])
    return ys


def run_joint_tableau(
    kernel: KernelSpec, top: int, key: StreamKey, max_extra_rounds: int = 10**6
):
    """One coupled backward pass resolving every time 0..top at once.

    Returns (vals, T): vals[t] letters for all targets, T[t] the start
    time of the resolving round (== the per-time stopping time).  Needs
    an additive kernel: closed_forms["additive_weight"](g, lag, letter)
    must give alpha's exact per-position contribution, so each round can
    stack only the mass the newly revealed letters added instead of
    re-evaluating whole windows.  Same nested-interval construction as
    run_algorithm1, hence the same per-time stopping law.
    """
    weight = kernel.closed_forms.get("additive_weight")
    if weight is None:
        raise ValueError(f"{kernel.name} exposes no additive_weight hook")
    if kernel.beta(()) <= 0.0:
        raise BetaZeroForAlgo1(f"{kernel.name}: beta(empty) must be positive")
    letters = kernel.alphabet
    uniforms = keyed_uniforms(key)

    vals: dict = {}
    thr: dict = {}
    T: dict = {}
    unresolved: list = []  # ascending still-star times
    pending_targets = top + 1

    s = top
    while pending_targets:
        if s < top - max_extra_rounds:
            raise MaxRoundsExceeded(
                f"no coalescence within {max_extra_rounds} rounds below {top}",
                SimulationTableau(dict(vals), top - s, 0, top),
            )
        u = uniforms(s)
        sym, total = _scan(kernel, u, ())
        if sym is STAR:
            vals[s] = STAR
            thr[s] = total
            unresolved.insert(0, s)
            s -= 1
            continue
        vals[s] = sym
        T[s] = s
        if s >= 0:
            pending_targets -= 1
        newly = [(s, sym)]
        still = []
        for t in unresolved:
            ut = uniforms(t)
            acc = thr[t]
            if not ut >= acc:
                raise threshold_violation(kernel, t, ut, acc)
            hit = None
            for g in letters:
                d = 0.0
                for src, v in reversed(newly):  # ascending lag order
                    d += weight(g, t - src, v)
                acc += d
                if ut < acc:
                    hit = g
                    break
            if hit is None:
                thr[t] = acc
                still.append(t)
            else:
                vals[t] = hit
                T[t] = s
                if t >= 0:
                    pending_targets -= 1
                newly.append((t, hit))
        unresolved = still
        s -= 1
    return vals, T
