"""Backward perfect sampler without spontaneous symbols.

When no letter can be produced context-free, the backward route couples
one trajectory per admissible length-n̂ past inside fixed time windows of
length n₀.  Phase 1 runs the coupled trajectories through a fresh window;
a position becomes known when every trajectory agrees on the same letter.
Phase 2 then revisits newer windows whose left n̂-context has become fully
known and re-reads that context's own uniform against the freshly added
mass, exactly as the single-stream sampler does, so earlier decisions are
never contradicted.  The re-read has one rule: each still-unknown time
keeps the threshold, window and masses of its last scan (at first, those
of the true past's phase-1 scan) and stacks the new window's increment
on them.

The trajectories share one uniform per time whenever the plan's exact
phase-1 agreement probability under that coupling is positive; otherwise
each past reads its own uniform stream.  Under the shared coupling each
phase-1 time lays [0, 1) out as a multigamma coupler (Murdoch & Green
1998): first the mass that every live context gives each letter, in one
common segment, then each context's remainder, then STAR.  A uniform in
the common segment gives every past the same letter.  The breakpoints of
a layout cut [0, 1) into cells on which every past's letter is constant;
the plan's agreement walk links each cell to the next time's layout, so
a run's phase 1 follows that graph with one bisect per time.  The shared
coupling is an extension: the paper's abstract, the only part of the
paper at hand, does not say which coupling it uses.

n̂ is the smallest order whose Markov lower-bound chain (transition mass
alpha(g|w)/beta(w) on admissible windows) has a unique closed aperiodic
class, and n₀ the smallest horizon at which every admissible past can
have produced every window of the closed class — the window length that
makes phase-1 agreement possible at all under per-past streams.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice, product
from operator import sub
from typing import NamedTuple

from .backward import (
    MaxRoundsExceeded,
    SimulationTableau,
    StoppingRecord,
    threshold_violation,
)
from .kernels import (
    STAR,
    KernelContractViolation,
    KernelSpec,
    _pick,
    _stack,
    _table,
    canon,
)
from .streams import StreamKey, keyed_uniforms


class AssumptionViolated(Exception):
    """The finite-alphabet / unique-closed-class route does not apply."""


class BetaNZero(Exception):
    """Some admissible window carries zero envelope mass at this order."""

    def __init__(self, n, witness):
        super().__init__(f"beta_{n} = 0 (witness window {witness!r})")
        self.order = n
        self.witness = witness


class NotFoundWithin(Exception):
    """Exact-length reachability did not saturate within the budget."""


class ExplosionGuard(Exception):
    """An enumeration would cost more than the budget allows."""


@dataclass
class NotFound:
    """Returned by find_nhat when no usable order exists up to n_max."""

    n_max: int
    reports: dict  # order -> reason string


@dataclass
class MarkovAnalysis:
    order: int
    beta_n: float
    states: tuple  # admissible star-free windows of length `order`
    matrix: dict  # window -> {letter: alpha(g,w)/beta(w)}
    scc_decomposition: tuple
    closed_classes: tuple
    period: int | None  # period of the closed class when it is unique
    nhat_found: bool


def _shift(w: tuple, g) -> tuple:
    """New window after emitting g: g becomes newest, oldest falls off."""
    return (g,) + w[: len(w) - 1]


def _tarjan_scc(nodes, succ):
    """Iterative Tarjan; components in reverse topological order."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    onstack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                comps.append(tuple(comp))
    return tuple(comps)


def _class_period(comp, succ) -> int:
    """gcd of cycle lengths inside one strongly connected component."""
    members = set(comp)
    root = comp[0]
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v in members and v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in comp:
        for v in succ[u]:
            if v in members:
                g = math.gcd(g, depth[u] + 1 - depth[v])
    return abs(g) if g else 1


def build_markov_analysis(kernel: KernelSpec, n: int) -> MarkovAnalysis:
    """Order-n lower-bound chain on admissible windows, with its structure.

    States are the star-free length-n windows passing admissible_window;
    transition mass alpha(g,w)/beta(w); edges wherever alpha(g,w) > 0.
    Raises BetaNZero when some admissible window has no envelope mass at
    this order (the chain is then undefined).
    """
    if n < 1:
        raise ValueError("order n >= 1 required")
    if kernel.alphabet is None:
        raise AssumptionViolated(f"{kernel.name}: finite alphabet required")
    states = tuple(
        w for w in product(kernel.alphabet, repeat=n) if kernel.admissible_window(w)
    )
    if not states:
        raise AssumptionViolated(f"{kernel.name}: no admissible windows at order {n}")

    tables = {w: _table(kernel, w) for w in states}  # beta(w) is the total
    betas = {w: tab[1][-1] for w, tab in tables.items()}
    beta_n = min(betas.values())
    if beta_n <= 0.0:
        witness = min(states, key=lambda w: betas[w])
        raise BetaNZero(n, witness)

    state_set = set(states)
    matrix = {}
    succ = {}
    for w in states:
        row = {}
        out = []
        for g, a in tables[w][2].items():
            row[g] = a / betas[w]
            if a > 0.0:
                w2 = _shift(w, g)
                if w2 not in state_set:
                    raise KernelContractViolation(
                        f"{kernel.name}: positive mass from {w!r} to {g!r} lands "
                        f"on inadmissible window {w2!r}"
                    )
                out.append(w2)
        matrix[w] = row
        succ[w] = out

    comps = _tarjan_scc(states, succ)
    closed = tuple(
        comp
        for comp in comps
        if all(v in set(comp) for u in comp for v in succ[u])
    )
    period = _class_period(closed[0], succ) if len(closed) == 1 else None
    return MarkovAnalysis(
        order=n,
        beta_n=beta_n,
        states=states,
        matrix=matrix,
        scc_decomposition=comps,
        closed_classes=closed,
        period=period,
        nhat_found=len(closed) == 1 and period == 1,
    )


def find_nhat(kernel: KernelSpec, n_max: int):
    """Smallest usable order, or NotFound(n_max, per-order reasons)."""
    reports = {}
    for n in range(1, n_max + 1):
        try:
            analysis = build_markov_analysis(kernel, n)
        except BetaNZero as e:
            reports[n] = str(e)
            continue
        if analysis.nhat_found:
            return n, analysis
        reports[n] = (
            f"{len(analysis.closed_classes)} closed classes"
            if len(analysis.closed_classes) != 1
            else f"closed class has period {analysis.period}"
        )
    return NotFound(n_max, reports)


def compute_n0(analysis: MarkovAnalysis, m_max: int = 64) -> int:
    """Smallest m >= n̂ with exact-m walks from every window to every target.

    Boolean reachability on the positive-support shift graph: after m
    emissions the window state is the last n̂ letters, so requiring the
    closed class to be reachable in exactly m steps from every admissible
    start is the positivity the windowed coupling needs.  The support
    graph understates alpha against longer histories, so the result can
    be conservative (never too small).  Minimality holds by construction:
    m is the first order >= n̂ at which the check passes.
    """
    if not analysis.nhat_found:
        raise AssumptionViolated("compute_n0 needs a unique aperiodic closed class")
    succ = {
        w: {_shift(w, g) for g, p in analysis.matrix[w].items() if p > 0.0}
        for w in analysis.states
    }
    targets = set(analysis.closed_classes[0])
    reach = {w: {w} for w in analysis.states}
    for m in range(1, m_max + 1):
        reach = {
            w: set().union(*(succ[v] for v in rs)) if rs else set()
            for w, rs in reach.items()
        }
        if m >= analysis.order and all(
            targets <= rs for rs in reach.values()
        ):
            return m
    raise NotFoundWithin(
        f"no exact-length horizon up to {m_max} reaches the closed class "
        "from every admissible window"
    )


# cells phase1_agreement may visit before it gives up, counting a tuple
# of live contexts again at each visit, and the cells past a disagreement
# at the n̂ newest times too (so n̂ >= 2 walks reach it sooner): graph-walk
# path:7 with geometric:0.5 weights (n̂ = 1, n₀ = 6), the largest planned
# walk, visits 96 306 and keeps 14 217 layouts; path:8 passes the budget,
# as each further vertex multiplies the count by about 7
PHASE1_MAX_CELLS = 200_000


class Layout(NamedTuple):
    """The multigamma layout of [0, 1) at one phase-1 time, cut into cells.

    ``common`` is the cumulative common mass m(g) = min over the live
    contexts ``ctxs`` of max(alpha(g|ctx), 0), letter by letter in
    alphabet order (``letters``), ending at M; ``rests[i]`` is context i's
    cumulative remainder alpha(g|ctx) - m(g), stacked from M in the same
    order and ending at its total; STAR takes the rest of [0, 1).
    ``masses[i]`` holds context i's alpha on ``letters_for``, as ``_table``
    scans and bounds-checked it, a letter missing there having mass 0.

    The breakpoints of ``common`` and ``rests`` below 1 cut [0, 1) into
    cells; ``cuts`` holds them ascending, the left edges of every cell but
    the first, so u lies in cell ``bisect_right(cuts, u)``.  Every bisect
    ``_letter_at`` makes counts breakpoints, so each context's letter is
    constant on a cell.  ``agreed[c]`` is the letter every context draws
    on cell c, or STAR when they differ or one draws STAR; ``links[c]`` is
    the layout of the next time's live contexts after cell c's letters,
    None at a window's last time.
    """

    letters: tuple
    common: array
    rests: list
    masses: list
    ctxs: tuple
    cuts: array
    agreed: tuple
    links: list


def _layout(kernel: KernelSpec, ctxs: tuple, scans: dict):
    """The ``Layout`` of the live contexts ``ctxs``, with no links, and the
    letters of every context on each of its cells.

    ``scans`` (context -> masses and their clamped values in alphabet
    order, filled in place) keeps each context's ``_table`` scan for the
    next layout that needs it.
    """
    letters = kernel.alphabet
    masses, pos = [], []
    for c in ctxs:
        scan = scans.get(c)
        if scan is None:
            row = _table(kernel, c)[2]
            scan = scans[c] = row, [max(row.get(g, 0.0), 0.0) for g in letters]
        masses.append(scan[0])
        pos.append(scan[1])
    mins = list(map(min, zip(*pos)))
    common = array("d", accumulate(mins))
    top = common[-1]
    # arrays, not lists of floats: a large plan holds a million of these
    rests = [
        array("d", islice(accumulate(map(sub, p, mins), initial=top), 1, None))
        for p in pos
    ]
    cuts = sorted(
        {0.0, 1.0}
        | {min(c, 1.0) for c in common}
        | {min(c, 1.0) for rest in rests for c in rest}
    )
    lay = Layout(letters, common, rests, masses, ctxs, array("d", cuts[1:-1]), (), ())
    syms = [[_letter_at(lay, i, lo)[0] for i in range(len(ctxs))] for lo in cuts[:-1]]
    agreed = tuple(
        s[0] if s[0] is not STAR and s.count(s[0]) == len(s) else STAR
        for s in syms
    )
    return lay._replace(agreed=agreed, links=[None] * len(syms)), syms


def _letter_at(layout: Layout, i: int, u):
    """(letter, boundary) of context i of ``layout`` at uniform u.

    Below M one bisect of the common segment picks the letter every
    context draws; above it the context bisects its own remainders, and u
    past its total gives (STAR, that total), the float boundary phase 2
    stacks on.
    """
    cum = layout.common
    if not u < cum[-1]:
        cum = layout.rests[i]
    j = bisect_right(cum, u)
    return (layout.letters[j], cum[j]) if j < len(cum) else (STAR, cum[-1])


def phase1_agreement(
    kernel: KernelSpec,
    analysis: MarkovAnalysis,
    n0: int,
    layouts: dict | None = None,
) -> float:
    """Exact probability that phase 1 under one shared uniform per time
    fixes a window's n̂ newest positions.

    Every past's trajectory reads the same n₀ uniforms, laid out at each
    time by ``_layout`` over the live contexts, on whose cells every
    trajectory's letter is constant.  The walk refines the window time by
    time, oldest first, and sums the products of cell lengths over the
    paths on which all trajectories draw the same letter, not STAR, at each
    of the n̂ newest times.

    Each tuple of live contexts is laid out once, with its cells and the
    letters its contexts agree on; a later visit follows the links of the
    first.  The walk goes on from every cell but those of the window's
    last time, past a disagreement too (whose paths add nothing), and
    links it to the next time's layout, so the layouts form a graph from
    the root ``analysis.states`` that holds every tuple a run can reach,
    which a phase-1 run follows with one bisect per time.  ``layouts`` (a
    dict, filled in place) receives every layout, keyed by its tuple of live
    contexts: the past's contexts in ``analysis.states`` order, each
    newest letter first.  The walk raises ExplosionGuard once it has
    visited more than ``PHASE1_MAX_CELLS`` cells, which bounds its time and
    the size of ``layouts``.
    """
    nhat = analysis.order
    if layouts is None:
        layouts = {}
    scans: dict = {}
    cells = 0

    def walk(j, ctxs):
        """(layout of ``ctxs`` at time j, sum over its cells)."""
        nonlocal cells
        lay = layouts.get(ctxs)
        syms = None  # a visited layout's links give the next ones
        if lay is None:
            lay, syms = _layout(kernel, ctxs, scans)
            layouts[ctxs] = lay
        cells += len(lay.agreed)
        if cells > PHASE1_MAX_CELLS:
            raise ExplosionGuard(
                f"{kernel.name}: phase-1 agreement walk visits more than "
                f"{PHASE1_MAX_CELLS} cells (nhat = {nhat}, n0 = {n0})"
            )
        edges = [0.0, *lay.cuts, 1.0]
        total = 0.0
        for c, sym in enumerate(lay.agreed):
            adds = j < n0 - nhat or sym is not STAR
            if j == n0 - 1:
                if adds:
                    total += edges[c + 1] - edges[c]
                continue
            nxt = (
                lay.links[c].ctxs
                if syms is None
                else tuple((g,) + x for g, x in zip(syms[c], ctxs))
            )
            lay.links[c], below = walk(j + 1, nxt)
            if adds:
                total += (edges[c + 1] - edges[c]) * below
        return lay, total

    return walk(0, tuple(analysis.states))[1]


@dataclass
class CoalescencePlan:
    """A kernel's resolved (n̂, n₀), coupling and phase-1 cell graph.

    ``root`` is the first time's ``Layout`` of the graph that
    ``phase1_agreement`` built while ``make_plan`` walked the window.
    Each layout carries its cells, the letter its contexts agree on in
    each, and links to the next time's layouts.  ``run_algorithm2``'s
    shared phase 1 follows those links from the root and never writes to the
    graph, so it is bounded by that walk's cell budget and shared by every
    run (and by copies made with ``dataclasses.replace``).  ``pairs`` holds
    the ordered letter pairs (newer, older) that ``admissible_window``
    accepts, against which runs check the letters they write.
    """

    nhat: int
    n0: int
    analysis: MarkovAnalysis
    index: dict  # window in C -> past_id for the per-past uniform streams
    agreement: float  # phase1_agreement under the shared coupling
    shared: bool  # phase 1 reads one uniform per time for every past
    pairs: frozenset  # admissible (newer, older) letter pairs
    root: Layout = field(compare=False, repr=False)

    @property
    def coupling(self) -> str:
        return "shared" if self.shared else "per-past"

    @property
    def expected_windows(self) -> float | None:
        """Mean windows until one fully agrees under the shared coupling:
        agreements are i.i.d. across windows, so 1/agreement.  None under
        per-past streams, where the plan does not know it."""
        return 1.0 / self.agreement if self.shared and self.agreement > 0 else None


def make_plan(
    kernel: KernelSpec, analysis: MarkovAnalysis, n0: int
) -> CoalescencePlan:
    """Plan for a resolved (n̂ analysis, n₀): shared uniforms whenever they
    can make phase 1 agree, per-past streams otherwise.  The plan keeps
    the phase-1 cell graph its agreement walk built, which that walk's
    ExplosionGuard budget bounds, and the admissible letter pairs.  n₀
    must be at least n̂, so that a window's left context lies in the
    next-older window alone."""
    if n0 < analysis.order:
        raise ValueError(f"n0 = {n0} is below the order n̂ = {analysis.order}")
    layouts: dict = {}
    agreement = phase1_agreement(kernel, analysis, n0, layouts)
    letters = kernel.alphabet
    return CoalescencePlan(
        nhat=analysis.order,
        n0=n0,
        analysis=analysis,
        index={w: i for i, w in enumerate(analysis.states)},
        agreement=agreement,
        shared=agreement > 0.0,
        pairs=frozenset(
            w for w in product(letters, letters) if kernel.admissible_window(w)
        ),
        root=layouts[analysis.states],
    )


@lru_cache(maxsize=32)
def prepare_coalescence(
    kernel: KernelSpec, nhat_max: int = 8, n0_max: int = 64
) -> CoalescencePlan:
    """Resolve (n̂, n₀) and the coupling once per kernel; raises
    AssumptionViolated if no usable order exists."""
    found = find_nhat(kernel, nhat_max)
    if isinstance(found, NotFound):
        raise AssumptionViolated(
            f"{kernel.name}: no usable order <= {found.n_max}: {found.reports}"
        )
    _, analysis = found
    return make_plan(kernel, analysis, compute_n0(analysis, n0_max))


def run_algorithm2(
    kernel: KernelSpec,
    k: int,
    key: StreamKey,
    max_rounds: int = 10**4,
    plan: CoalescencePlan | None = None,
    uniforms=None,
    trace=None,
):
    """Sample X_{-k}, ..., X_0 exactly via windowed coupled trajectories.

    Returns (symbols oldest-first, StoppingRecord) where the record's T
    map holds the window index T̃[t] whose round resolved each target:
    the output depends only on uniforms at times >= l(T̃min), nothing
    older.  ``uniforms`` may override the keyed streams (callable
    (time, past_id) -> u, called with past_id None under the shared
    coupling); ``trace`` receives (round, merged snapshot) after every
    round.

    The plan fixes the coupling.  Under the shared one (``plan.shared``)
    phase 1 reads one uniform per time, ``uniforms(t, None)``, for every
    past and picks each past's letter from the multigamma ``Layout`` of
    the live contexts: the mass they all share first, then each
    context's remainder, then STAR.  Phase 2 re-reads that same value.
    Otherwise every past reads its own stream ``uniforms(t, past_id)``
    against its own context's ``_table``, and phase 2 the stream of the
    window's true left context.  Either way the output is exact.  Let b
    be the true left context of window z:

    - the uniforms the b-trajectory reads in z are i.i.d. and independent
      of every older window.  Under per-past streams its letters follow
      the kernel at once.  Under the shared one, the uniforms drawn
      earlier in the window fix the set of live contexts; given that set
      and b, u(t) is still uniform and each context's letter masses do
      not change (the layout only moves where a letter's mass lies), so
      b's trajectory still follows the kernel;
    - if all pasts agree on a letter, that letter is b's letter;
    - STAR is [total_b, 1) under both layouts, and the trajectory keeps
      the float boundary its layout used (under the shared one
      M + sum(alpha - m), not b's own cumulative sum), so phase 2 stacks
      increments on exactly the value b's scan stopped at, with the same
      uniform, and only extends that scan.

    The couplings differ in termination.  n₀-positivity makes phase-1
    agreement possible for independent streams only; under the shared
    coupling the plan's exact ``agreement > 0`` (the probability that a
    window's n̂ newest positions all agree, the same for every window
    and independent across windows) takes its place, and the plan falls
    back to per-past streams where it is 0.

    Shared phase 1 follows the plan's cell graph, which the plan's
    agreement walk built and no run writes, so the plan must be this
    kernel's own.  It starts each window at the root layout; at each time
    one bisect finds u's cell, whose agreed letter phase 1 writes, and the
    cell's link gives the next time's layout.  The window keeps the
    layout of each time, and its first phase-2 sweep reads b's letter,
    boundary, context and masses from them.  Within a cell every bisect
    of the layout's own arrays counts the same breakpoints, so this reads
    exactly what laying out the live contexts at each time would.  The
    walk links every cell a run can reach, so no run lays contexts out;
    per-past phase 1's ``_table`` scans are this run's own.

    Phase 2 re-reads an open time t against what it last scanned: t keeps
    the threshold, window and masses of its last scan, and a sweep stacks
    alpha on the new window over them (``_stack``), so only the new window
    is evaluated.  A window's first sweep takes trajectory b's letters and
    opens each of b's STAR times on b's phase-1 boundary, context and
    masses.  That is the window a direct sweep would compare against:
    letters are written by phase 1, in the oldest window, or by the pass
    below, which runs oldest window first and ascending within a window,
    so a letter written at a time older than t is followed in the same
    round by the sweep of t's window; t's start-of-round view equals the
    window it last scanned up to trailing stars, and both give the same
    alpha bits.

    Phase 2 is one pass per round.  A letter changes the view of newer
    windows only, so if phase 1 fixes no letter no view changed and
    nothing is swept; if it fixes one, every open window whose left
    n̂-context is known is swept once, oldest first, including a window
    whose context the sweep of the next-older one completes.  That is
    behaviourally identical to sweeping every window each round (the
    skipped sweeps would add nothing) but keeps long runs (k in the tens
    of thousands) close to linear.

    When the kernel publishes a float-exact memory horizon H
    (``closed_forms["exact_horizon"]``: letters at lags >= H change no
    alpha bit, only which paths are feasible), the phase-2 contexts read
    from the tableau stop at the first known letter at or past position
    H-1, which screens off everything older; the output is bit-identical
    and a context costs O(H) instead of O(depth).  That screening needs
    the tableau's letters to lie on an admissible path, so every written
    letter is checked against its known neighbours.
    """
    if k < 0:
        raise ValueError("k >= 0 required")
    if plan is None:
        plan = prepare_coalescence(kernel)
    if uniforms is None:
        uniforms = keyed_uniforms(key)
    nhat, n0, shared, pairs = plan.nhat, plan.n0, plan.shared, plan.pairs
    horizon = kernel.closed_forms.get("exact_horizon")
    C = plan.analysis.states
    idx = plan.index  # C[i] -> i: the past ids of the per-past streams

    def l(z):  # oldest time of window z (z = 0 is the newest window)
        return -(z + 1) * n0 + 1

    def r(z):
        return -z * n0

    temp: dict = {}
    last: dict = {}  # open time -> (threshold, window, masses) of its last scan
    ucache: dict = {}
    ttil: dict = {}
    # window z -> its phase-1 record, kept until its first phase-2 sweep:
    # the layout of each time under the shared coupling, else
    # [{time: (symbol, boundary, context, masses)} per past id]
    traj: dict = {}
    local: dict = {}  # per-past phase 1's tables, this run only
    unresolved: dict = {}  # open window z -> count of its STAR positions
    b_ready: dict = {}  # window z -> its completed left context
    targets_left = k + 1

    def _u(t, pid):
        # the stream id: one uniform per time under the shared coupling
        kk = (t, None) if shared else (t, pid)
        u = ucache.get(kk)
        if u is None:
            u = ucache[kk] = uniforms(*kk)
        return u

    def _resolved(t):
        """Bookkeeping after temp[t] turned into a letter."""
        nonlocal targets_left
        if -k <= t <= 0:
            targets_left -= 1
        zt = (-t) // n0
        unresolved[zt] -= 1
        if unresolved[zt] == 0:
            del unresolved[zt]
            traj.pop(zt, None)
        # n̂ <= n₀, so window zt - 1's left context is the n̂ newest times
        # of window zt, and t may be its last missing letter
        z = zt - 1
        if z >= 0 and z not in b_ready and t > r(zt) - nhat:
            b = tuple(temp.get(j, STAR) for j in range(r(zt), r(zt) - nhat, -1))
            if any(x is STAR for x in b):
                return
            if b not in idx:
                raise KernelContractViolation(
                    f"{kernel.name}: completed context {b!r} is not an "
                    "admissible window"
                )
            b_ready[z] = b

    def _set_letter(t, sym, tt):
        newer = temp.get(t + 1, STAR)
        older = temp.get(t - 1, STAR)
        if (newer is not STAR and (newer, sym) not in pairs) or (
            older is not STAR and (sym, older) not in pairs
        ):
            raise KernelContractViolation(
                f"{kernel.name}: letter {sym!r} at time {t} makes an "
                f"inadmissible pair with its neighbours ({newer!r}, {older!r})"
            )
        temp[t] = sym
        ttil[t] = tt
        _resolved(t)

    def _context(t, stop):
        # letters at times t-1 down to stop, newest first; with a horizon,
        # positions 0..H-1 and then on to the first known letter only
        cut = stop if horizon is None else max(stop, t - horizon)
        out = [temp[j] for j in range(t - 1, cut - 1, -1)]
        j = cut - 1
        while j >= stop and out[-1] is STAR:
            out.append(temp[j])
            j -= 1
        return tuple(out)

    n = 0
    while True:
        if n > max_rounds:
            msg = f"no coalescence within {max_rounds} windows"
            if plan.expected_windows is not None:
                msg += (
                    f"; the plan's phase-1 agreement is {plan.agreement:.3g}, "
                    f"so about {plan.expected_windows:.0f} windows are expected "
                    "before one fully agrees"
                )
            raise MaxRoundsExceeded(msg, SimulationTableau(dict(temp), n - 1, -k, 0))
        lo, hi = l(n), r(n)

        # phase 1: coupled trajectories through the fresh window z = n
        unresolved[n] = n0
        if shared:
            lays = traj[n] = []
            lay = plan.root
            for t in range(lo, hi + 1):
                c = bisect_right(lay.cuts, _u(t, None))
                lays.append(lay)
                sym = lay.agreed[c]
                if sym is STAR:
                    temp[t] = STAR
                else:
                    _set_letter(t, sym, -n)
                lay = lay.links[c]
        else:
            tvals = traj[n] = [{} for _ in C]
            for pid, (tv, ctx) in enumerate(zip(tvals, C)):
                for t in range(lo, hi + 1):
                    tab = local.get(ctx)
                    if tab is None:
                        tab = local[ctx] = _table(kernel, ctx)
                    sym, acc = _pick(tab, _u(t, pid))
                    tv[t] = (sym, acc, ctx, tab[2])
                    ctx = (sym,) + ctx
            for t in range(lo, hi + 1):
                syms = {tv[t][0] for tv in tvals}
                if len(syms) == 1 and STAR not in syms:
                    _set_letter(t, syms.pop(), -n)
                else:
                    temp[t] = STAR

        # phase 2: one pass, oldest window first, if phase 1 fixed a letter;
        # a window resolved earlier in the pass, or whose left context is
        # still unknown, is skipped
        fixed = unresolved.get(n, 0) < n0
        for z in sorted(unresolved, reverse=True) if fixed else ():
            if z not in unresolved or z not in b_ready:
                continue
            b = b_ready[z]
            pid = idx[b]
            tz = traj.pop(z, None)
            if tz is not None:
                # the window's first sweep: trajectory b's letters stand (the
                # merge only failed because another past disagreed), and each
                # of its STAR times opens on the boundary, context and masses
                # of b's phase-1 scan
                for i, t in enumerate(range(l(z), r(z) + 1)):
                    if temp[t] is not STAR:
                        continue
                    if shared:
                        lay = tz[i]
                        sym, acc = _letter_at(lay, pid, _u(t, None))
                        ctx, masses = lay.ctxs[pid], lay.masses[pid]
                    else:
                        sym, acc, ctx, masses = tz[pid][t]
                    if sym is STAR:
                        # a copy: the plan's layouts share these masses
                        last[t] = (acc, ctx, dict(masses))
                    else:
                        _set_letter(t, sym, -n)
            for t in range(l(z), r(z) + 1):
                if temp[t] is not STAR:
                    continue
                u = _u(t, pid)
                base, w_old, old = last.pop(t)
                if not u >= base:
                    raise threshold_violation(kernel, t, u, base)
                w_new = canon(_context(t, lo))
                sym, acc, new, _ = _stack(kernel, u, base, w_new, w_old, old)
                if sym is STAR:
                    last[t] = (acc, w_new, new)
                else:
                    _set_letter(t, sym, -n)

        if trace is not None:
            trace(n, dict(temp))
        if targets_left == 0:
            record = StoppingRecord(
                T={t: ttil[t] for t in range(-k, 1)},
                rounds_used=n,
                uniforms_consumed=len(ucache),
            )
            return [temp[t] for t in range(-k, 1)], record
        n += 1
