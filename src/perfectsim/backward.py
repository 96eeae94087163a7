"""Backward perfect sampler driven by spontaneous symbols.

Round n opens the tableau n steps below the newest target (at time -n
for targets -k..0): the time's uniform either produces a letter from the
context-free masses (a spontaneous symbol) or the round fails.  After a
success the update cascades forward through the still unknown times,
each re-reading its original uniform against the mass that the newly
revealed letters added.  A letter, once written, is final; repeating
rounds deeper into the past eventually fills the whole target window,
and the result is an exact draw from the stationary law.

Per-time thresholds are chained: each time remembers the cumulative mass
its uniform has already cleared, and a later round stacks only the fresh
increments on top (they telescope to the whole cumulative sum).
``run_algorithm1`` and ``run_joint_tableau`` run this one pass
(``_backward``) on a ``BackwardPlan``: ``prepare_backward`` scans the empty
window, checks beta(empty) and picks the increment step once per kernel,
and a loop of runs passes its plan to each (a run given none prepares its
own).  A kernel publishing ``closed_forms["additive_weight"]`` has alpha
equal to its context-free mass plus one weight per known lag, so a
re-read gains exactly the newly revealed letters' weights, folded in
ascending lag order; being no difference of two ascending-order sums,
that fold can leave a threshold a few ulps off a window scan's.  Other
kernels scan alpha on the new window against the masses kept from the
last scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .kernels import (
    STAR,
    KernelContractViolation,
    KernelSpec,
    _pick,
    _scan,
    _stack,
    _table,
)
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


class BackwardPlan(NamedTuple):
    """What every spontaneous-symbol run on ``kernel`` shares.

    ``empty`` is the empty window's table, which opens every round and
    seeds every open time's first re-read; ``beta`` is its total, beta(empty)
    > 0; ``fold`` is the additive fold (see the module docstring), or None
    when runs scan alpha, each through its own ``_cached_increment``.  No
    run writes into the plan.
    """

    kernel: KernelSpec
    empty: tuple
    beta: float
    fold: Optional[Callable]


def prepare_backward(kernel: KernelSpec) -> BackwardPlan:
    """Resolve a kernel's route-1 plan: one scan of the empty window.
    Raises BetaZeroForAlgo1 if beta(empty) = 0, when no round can succeed."""
    return BackwardPlan(kernel, *_prepare(kernel))


def _prepare(kernel):
    """The plan's (empty, beta, fold), without the plan object, which a run
    given no plan does not need."""
    empty = _table(kernel, ())
    beta = empty[1][-1] if empty[1] else 0.0  # the table's total
    if beta <= 0.0:
        raise BetaZeroForAlgo1(
            f"{kernel.name}: beta(empty) = {beta}; "
            "the spontaneous-symbol route needs it positive"
        )
    return empty, beta, _fold(kernel)


def _backward(kernel, lo, hi, uniforms, max_rounds, step=None, plan=None):
    """The round loop both spontaneous-symbol samplers share.

    Round r opens time hi - r with a pick from the empty window's table,
    which the plan holds (``plan=None`` prepares one for this run).  A
    spontaneous letter there re-reads every still-unknown newer time,
    oldest first, through ``step(temp, t, u, threshold, newly)``: the scan
    of the mass this round's letters added, stacked on t's chained
    threshold, returning (symbol, new threshold).  ``newly`` lists this
    round's (time, letter) pairs so far, oldest first.  ``step=None`` takes
    the plan's step: its fold, or a ``_cached_increment`` of this run over
    the plan's empty table.  Returns (temp, T, rounds, uniforms consumed)
    once lo..hi are all known.
    """
    if plan is None:
        empty, _, fold = _prepare(kernel)
    elif plan.kernel is kernel:
        empty, fold = plan.empty, plan.fold
    else:
        raise ValueError(
            f"the plan was prepared for another kernel object "
            f"({plan.kernel.name!r}), not this {kernel.name!r}"
        )
    if step is None:
        step = fold or _cached_increment(kernel, empty)
    temp: dict = {}
    thr: dict = {}
    us: dict = {}  # each time's uniform, read once when its round opens
    T: dict = {}
    unresolved: list = []  # ascending still-unknown times
    pending = hi - lo + 1

    r = 0
    while True:
        if r > max_rounds:
            raise MaxRoundsExceeded(
                f"no coalescence within {max_rounds} rounds",
                SimulationTableau(dict(temp), r - 1, lo, hi),
            )
        s = hi - r
        us[s] = uniforms(s)
        sym, total = _pick(empty, us[s])
        if sym is STAR:
            # failed round: the deeper star adds no information, but the
            # uniform at s is burned
            temp[s] = STAR
            thr[s] = total
            unresolved.insert(0, s)
        else:
            temp[s] = sym
            T[s] = s
            pending -= s >= lo
            newly = [(s, sym)]
            still = []
            for t in unresolved:
                u = us[t]
                threshold = thr[t]
                # a still-unknown time has, by construction, a uniform that
                # already cleared every mass scanned for it so far
                if not u >= threshold:
                    raise threshold_violation(kernel, t, u, threshold)
                g, thr[t] = step(temp, t, u, threshold, newly)
                if g is STAR:
                    still.append(t)
                else:
                    temp[t] = g
                    T[t] = s
                    pending -= t >= lo
                    newly.append((t, g))
            unresolved = still
        if not pending:
            return temp, T, r, len(us)
        r += 1


def _cached_increment(kernel, empty):
    """The scan step: ``_stack`` of alpha on the window back to the round
    start over the masses of t's start-of-round view.  Up to trailing stars
    that view is the window t scanned at its previous step, or the empty
    window (the cascade runs oldest first and failed rounds only add older
    stars), whose masses start as a copy of the plan's table ``empty``:
    ``_stack`` stores a letter it finds missing into the masses it is given,
    and that store stays in this run.  On a countable alphabet the view's
    positive letters ride along with its masses, as ``positive_letters``
    returned them (the empty window's are the table's letters), so a step
    asks only the new window for its letters.  So only the new window is
    evaluated, on the same alpha values and letters as ``_scan_increment``,
    and thresholds and symbols agree with it to the bit.
    """
    start = ((), dict(empty[2]), empty[0])
    # open time -> (window of its last scan, masses by letter, its letters)
    cache: dict = {}

    def step(temp, t, u, threshold, newly):
        # the oldest entry is this round's spontaneous letter, so the window
        # carries no trailing star.  tuple(list), not tuple(iterator): a
        # tuple grown from an iterator is resized, and freed ones pile up in
        # the interpreter's free lists (+3.6 MB peak over 1 000 deep runs)
        w_new = tuple([temp[j] for j in range(t - 1, newly[0][0] - 1, -1)])
        w_old, old, old_letters = cache.pop(t, start)
        g, acc, new, letters = _stack(
            kernel, u, threshold, w_new, w_old, old, old_letters
        )
        if g is STAR:
            cache[t] = (w_new, new, letters)
        return g, acc

    return step


def _fold(kernel):
    """The additive fold step on ``kernel`` (see the module docstring), or
    None without an ``additive_weight`` hook over a finite alphabet."""
    weight, letters = kernel.closed_forms.get("additive_weight"), kernel.alphabet
    if weight is None or letters is None:
        return None

    def fold(temp, t, u, acc, newly):
        for g in letters:
            d = 0.0
            for src, v in reversed(newly):  # ascending lag order
                d += weight(g, t - src, v)
            acc += d
            if u < acc:
                return g, acc
        return STAR, acc

    return fold


def run_algorithm1(
    kernel: KernelSpec,
    k: int,
    key: StreamKey,
    max_rounds: int = 10**6,
    uniforms=None,
    plan: BackwardPlan | None = None,
):
    """Sample X_{-k}, ..., X_0 exactly from the stationary law.

    Returns (symbols, record): symbols is the length-(k+1) list ordered
    oldest first, record the StoppingRecord over the target times.
    ``uniforms`` may override the keyed stream (callable time -> u in
    [0,1)); the default, ``keyed_uniforms(key)``, reads
    ``uniform_at(key.at(t))``.  ``plan`` is ``prepare_backward(kernel)``
    for this very kernel object (ValueError otherwise); a loop of runs
    passes one, and a run given none prepares its own.

    Requires beta(empty) > 0: some letter must be producible with no
    context, else no round can ever succeed (BetaZeroForAlgo1).  With
    ``additive_weight`` the cascade folds the revealed letters' weights
    (exact, alpha being additive over known lags; its floats may differ from
    an alpha scan's in the last bits); other kernels scan alpha
    (``_cached_increment``).
    """
    if k < 0:
        raise ValueError("k >= 0 required")
    if uniforms is None:
        uniforms = keyed_uniforms(key)
    temp, T, rounds, consumed = _backward(
        kernel, -k, 0, uniforms, max_rounds, plan=plan
    )
    record = StoppingRecord(
        T={t: T[t] for t in range(-k, 1)},
        rounds_used=rounds,
        uniforms_consumed=consumed,
    )
    return [temp[t] for t in range(-k, 1)], record


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
    kernel: KernelSpec,
    top: int,
    key: StreamKey,
    max_extra_rounds: int = 10**6,
    plan: BackwardPlan | None = None,
):
    """One backward pass resolving every time 0..top at once.

    Returns (vals, T): vals[t] letters for all targets, T[t] the start
    time of the resolving round (== the per-time stopping time).  It is
    run_algorithm1 over targets -top..0 on the stream shifted up by top,
    in the 0..top frame, for kernels with the additive_weight hook only;
    a ``MaxRoundsExceeded`` tableau counts rounds below ``top``.  ``plan``
    is as for ``run_algorithm1``.
    """
    if "additive_weight" not in kernel.closed_forms:
        raise ValueError(f"{kernel.name} exposes no additive_weight hook")
    return _backward(
        kernel, 0, top, keyed_uniforms(key), max_extra_rounds, plan=plan
    )[:2]
