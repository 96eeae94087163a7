"""Ready-made kernels: the families the samplers and diagnostics are run on.

Every constructor returns a :class:`~perfectsim.kernels.KernelSpec` whose
``alpha`` is the exact adversarial infimum over unknown (star) positions
and over the unseen infinite past, computed so that refining a window can
never decrease any alpha — not just mathematically but in exact float
arithmetic (all sums fold in ascending lag order; minima only ever shrink
their candidate sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .kernels import STAR, KernelSpec, Window, canon


# ---------------------------------------------------------------------------
# weight families theta_0, theta_1, ... (nonnegative, summing to 1)


@dataclass(frozen=True)
class ThetaWeights:
    """Memory-weight family with exact tail sums s(n) = sum_{j>=n} theta_j."""

    theta: Callable[[int], float]
    s: Callable[[int], float]
    support: Optional[int]  # largest j with theta_j > 0; None = infinite
    label: str
    # smallest n with s(n) < eps, for eps > 0; s is non-increasing, so every
    # later tail sum and every theta_j with j >= n is below eps too.  None
    # for families whose tail falls below a float's resolution too late to
    # be of use (polynomial).
    tail_below: Optional[Callable[[float], int]] = None


def theta_geometric(q: float) -> ThetaWeights:
    """theta_j = (1-q) q^j; s(n) = q^n."""
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")

    def tail_below(eps):
        # start just under log(eps)/log(q), then settle on the exact float
        # answer (q**n is non-increasing in n)
        n = max(0, int(math.log(eps) / math.log(q)) - 2)
        while q**n >= eps:
            n += 1
        while n > 0 and q ** (n - 1) < eps:
            n -= 1
        return n

    return ThetaWeights(
        theta=lambda j: (1.0 - q) * q**j,
        s=lambda n: q**n,
        support=None,
        label=f"geometric:{q}",
        tail_below=tail_below,
    )


def theta_polynomial(eps: float) -> ThetaWeights:
    """s(n) = (1-eps)/n for n >= 1; theta_j = (1-eps)/(j(j+1)) for j >= 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")

    def s(n):
        return 1.0 if n <= 0 else (1.0 - eps) / n

    def theta(j):
        if j == 0:
            return eps
        return (1.0 - eps) / (j * (j + 1))

    return ThetaWeights(theta=theta, s=s, support=None, label=f"polynomial:{eps}")


def theta_list(values) -> ThetaWeights:
    """Finite raw weights theta_0..theta_m; must sum to 1."""
    vals = tuple(float(v) for v in values)
    if not vals or not all(v >= 0 for v in vals):  # NaN fails too
        raise ValueError("weights must be a nonempty nonnegative list")
    if not abs(math.fsum(vals) - 1.0) <= 1e-9:
        raise ValueError(f"weights sum to {math.fsum(vals)}, not 1")
    # store exact suffix sums once so s(n) is reproducible
    sfx = [0.0] * (len(vals) + 1)
    for j in range(len(vals) - 1, -1, -1):
        sfx[j] = vals[j] + sfx[j + 1]

    def tail_below(eps):
        n = len(vals)  # sfx[len(vals)] == 0.0
        while n > 0 and sfx[n - 1] < eps:
            n -= 1
        return n

    return ThetaWeights(
        theta=lambda j: vals[j] if 0 <= j < len(vals) else 0.0,
        s=lambda n: sfx[n] if 0 <= n < len(sfx) else (sfx[0] if n < 0 else 0.0),
        support=len(vals) - 1,
        label="list:" + ",".join(repr(v) for v in vals),
        tail_below=tail_below,
    )


def parse_theta(label: str) -> ThetaWeights:
    """Parse 'geometric:0.5' | 'polynomial:0.2' | 'list:0.5,0.25,0.25'."""
    kind, _, rest = label.partition(":")
    if kind == "geometric":
        return theta_geometric(float(rest))
    if kind == "polynomial":
        return theta_polynomial(float(rest))
    if kind == "list":
        return theta_list(float(x) for x in rest.split(","))
    raise ValueError(f"unknown weight family {label!r}")


def _beta_known_prefix(theta: ThetaWeights) -> Callable[[int], float]:
    """beta of any fully known n-window when each lag's weight goes to
    exactly one letter: theta_0 + ... + theta_n, summed exactly."""
    return lambda n: math.fsum(theta.theta(j) for j in range(n + 1))


# ---------------------------------------------------------------------------
# binary autoregressive kernel


def make_autoregressive(theta: ThetaWeights, delta: float) -> KernelSpec:
    """Binary chain that replays its own past.

    p(1 | x) = theta_0 (1-delta) + sum_j theta_j 1{x_{-j} = 1}, and
    symmetrically for 0 with weight delta.  The adversarial infimum just
    drops every unknown position, so alpha(g, w) is the base mass plus the
    matching known lags — an ascending-order partial sum, monotone under
    refinement bit-for-bit.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta in [0,1] required")
    t0 = theta.theta(0)
    base = {0: t0 * delta, 1: t0 * (1.0 - delta)}
    lag_weights = []  # lag_weights[j] = theta_{j+1}, grown to the longest lag used

    def grow(n):
        lag_weights.extend(theta.theta(j + 1) for j in range(len(lag_weights), n))

    def alpha(g, w: Window) -> float:
        if g not in (0, 1):
            return 0.0
        n = len(w)
        if len(lag_weights) < n:
            grow(n)
        acc = base[g]
        for x, wt in zip(w, lag_weights):  # STAR never equals a letter
            if x == g:
                acc += wt
        return acc

    def rho(n):
        out = 1.0
        for j in range(1, n + 1):
            out *= 1.0 - theta.s(j)
        return out

    def additive_weight(g, lag, letter):  # lag >= 1, as in alpha's table
        if letter != g:
            return 0.0
        if len(lag_weights) < lag:
            grow(lag)
        return lag_weights[lag - 1]

    return KernelSpec(
        name="autoregressive",
        parameters={"theta": theta.label, "delta": delta},
        alphabet=(0, 1),
        alpha=alpha,
        closed_forms={
            "s": theta.s,
            "theta": theta.theta,
            "star_affine": True,
            "beta_known_prefix": _beta_known_prefix(theta),
            "rho": rho,
            "additive_weight": additive_weight,
            "stationary_mean": 1.0 - delta,
        },
    )


# ---------------------------------------------------------------------------
# spontaneous-mass kernels: p(g | x) = c_g + (1-c) q(g | x) on letters >= 1


def _spontaneous_kernel(
    name: str, c_seq, truncation: Optional[int], infimum, extra_letters
) -> KernelSpec:
    """KernelSpec of p(g | x) = c_g + (1-c) q(g | x) on the letters >= 1.

    alpha(g, w) = c_g + (1-c) * infimum(g, w, letters), with w canonical
    and ``letters`` the alphabet {1..truncation} (None when countable);
    the infimum is the adversarial minimum of q(g | .) over histories
    matching w, 0.0 where it is not attained.  A countable kernel's
    positive letters are {1..len(c)} and ``extra_letters(w)``.
    """
    c = tuple(float(v) for v in c_seq)
    if not c or not c[0] > 0.0 or not all(v >= 0 for v in c):  # NaN fails too
        raise ValueError("need c_1 > 0 and all c_g >= 0")
    total = math.fsum(c)
    if not total < 1.0:
        raise ValueError("sum of c must be < 1")
    rest = 1.0 - total
    spontaneous = set(range(1, len(c) + 1))
    if truncation is not None:
        if truncation < max(2, len(c)):
            raise ValueError("truncation must be >= max(2, len(c))")
        letters = tuple(range(1, truncation + 1))
    else:
        letters = None

    def alpha(g, w: Window) -> float:
        w = canon(w)
        if letters is not None and not (1 <= g <= truncation):
            return 0.0
        if g < 1:
            return 0.0
        base = c[g - 1] if g <= len(c) else 0.0
        return base + rest * infimum(g, w, letters)

    def positive(w: Window) -> tuple:
        return tuple(sorted(spontaneous.union(extra_letters(canon(w)))))

    return KernelSpec(
        name=name,
        parameters={"c": c, "truncation": truncation},
        alphabet=letters,
        alpha=alpha,
        positive_letters=None if letters is not None else positive,
    )


def make_imitation(c_seq, truncation: Optional[int] = None) -> KernelSpec:
    """Letters >= 1; the last letter sets how far back the chain imitates.

    p(g | x) = c_g + (1-c) * #{1 <= k <= x_{-1} : x_{-k} = g} / x_{-1}
    (the window back to lag x_{-1}, which includes x_{-1} itself): the
    profile kernel with the uniform lookback f_m = (1/m, ..., 1/m).  With
    x_{-1} unknown the lookback is unbounded, the copy frequency can be
    pushed to 0, and alpha collapses to the spontaneous mass c_g; with
    ``truncation`` K the alphabet becomes {1..K} and the infimum is a
    genuine minimum over the K possible lookbacks.
    """
    kernel = make_imitation_general(c_seq, uniform_lookback, truncation)
    kernel.name = "imitation"
    return kernel


def make_imitation_general(
    c_seq, f_family: Callable[[int], tuple], truncation: Optional[int] = None
) -> KernelSpec:
    """Imitation with letter-dependent lookback profiles f_m.

    p(g | x) = c_g + (1-c) sum_k f_{x_{-1}}(k) 1{x_{-k} = g}, where f_m is
    a finite-support probability profile.  The unknown-x_{-1} infimum is
    c_g, which is exact only when the profiles have vanishing lookback
    (f_m(k) -> 0 as m grows, for each fixed k) — true for the uniform
    family f_m = (1/m, ..., 1/m); constructors must only pass such
    families.
    """

    def _match(g, w, m):
        # lag 1 is x_{-1} = m itself, lags 2.. read the window; stars and
        # lags beyond it add nothing (the adversary avoids g there)
        f = f_family(m)
        acc = f[0] if m == g else 0.0
        for k in range(2, min(len(f), len(w)) + 1):
            if w[k - 1] == g:
                acc += f[k - 1]
        return acc

    def infimum(g, w, letters):
        if w and w[0] is not STAR:
            return _match(g, w, w[0])
        if letters is None:
            return 0.0
        return min(_match(g, w, m) for m in letters)

    def seen(w):
        return (x for x in w if x is not STAR)

    return _spontaneous_kernel("imitation-general", c_seq, truncation, infimum, seen)


def uniform_lookback(m: int) -> tuple:
    return (1.0 / m,) * m


def make_ladder(c_seq, q_family=None, truncation: Optional[int] = None) -> KernelSpec:
    """Kernel driven by the first ladder epoch of the past.

    Y(x) = inf{m >= 1 : x_{-1}+...+x_{-m} <= m(m+1)/2} and
    p(g | x) = c_g + (1-c) q_{Y(x)}(g), with q_m a probability law on the
    letters (default uniform on {1..m}).  For a starred window the set of
    Y values consistent with the known letters is bracketed by a
    certainly-true / possibly-true prefix scan; alpha takes the minimum of
    q_Y(g) over that candidate set, or the family's tail infimum (0 for
    the uniform family) when no prefix is certainly a ladder epoch.
    """
    if q_family is None:
        q_family = lambda m, g: (1.0 / m) if 1 <= g <= m else 0.0

    def _candidates(w: Window):
        """Possibly-Y prefix lengths up to the first certain one.

        Returns (cands, capped): capped=False means arbitrarily large Y
        values stay consistent (the scan never hit a certain epoch), and
        then ``cands`` is only the prefix scanned so far.  On a countable
        alphabet a star makes ``hi`` infinite for good, so the scan stops
        at the first star.
        """
        if truncation is None:
            horizon = len(w)
        else:
            # with letters <= K the epoch condition m(m+1)/2 >= (sum <= mK)
            # is eventually certain, so the scan provably stops
            horizon = 2 * truncation + len(w) + 2
        cands = []
        lo = 0  # minimal possible prefix sum (stars count 1)
        hi = 0.0  # maximal (stars count K)
        for m in range(1, horizon + 1):
            if m <= len(w) and w[m - 1] is not STAR:
                lo += w[m - 1]
                hi += w[m - 1]
            elif truncation is None:
                return cands, False  # no later prefix is a certain epoch
            else:
                lo += 1
                hi += truncation
            tm = m * (m + 1) // 2
            if lo <= tm:
                cands.append(m)
            if hi <= tm:
                return cands, True
        return cands, False

    def infimum(g, w, letters):
        cands, capped = _candidates(w)
        if not capped:
            return 0.0  # tail infimum of the uniform family
        return min(q_family(m, g) for m in cands)

    def reachable(w):
        cands, capped = _candidates(w)
        return range(1, max(cands) + 1) if capped else ()

    return _spontaneous_kernel("ladder", c_seq, truncation, infimum, reachable)


# ---------------------------------------------------------------------------
# nearest-neighbour walks: the 4-cycle and general finite graphs


def _walk_alpha(closed_nbhd: dict, theta: ThetaWeights):
    """Adversarial alpha(g, w) for a nearest-neighbour walk kernel.

    For last letter v the one-step law is
    p(g|x) = 1{g in E(v)} (theta_0/|E(v)| + sum_j theta_j 1{x_{-j} in S}),
    with stay set S = (V \\ E(v)) ∪ {v} when g = v and S = {g} otherwise
    (E = closed neighbourhood).  A fully known window is one path, so its
    alpha is the fold along it; stars walk the graph adversarially, a
    min-cost path DP over window positions.  Either way the unseen tail
    then escapes the stay set as cheaply as it can.  All candidate path
    costs fold base + theta in ascending lag order, so minima refine
    monotonically.  Each move's base, stay set and escape distances are
    fixed when the kernel is built.
    """
    verts = sorted(closed_nbhd)
    every = set(verts)
    th, s = theta.theta, theta.s
    moves = {}  # (v, g) with g in E(v) -> (base, stay set, escape distances)
    for v in verts:
        for g in closed_nbhd[v]:
            stay = (every - closed_nbhd[v]) | {v} if g == v else {g}
            outside = every - stay
            dist = _bfs_dist(closed_nbhd, outside) if outside else None
            moves[v, g] = (th(0) / len(closed_nbhd[v]), stay, dist)

    def escape(cu, u, n, dist):
        # escape tail: keep paying theta while stuck inside the stay set
        if dist is None:
            return cu + s(n + 1)
        for j in range(n + 1, n + dist[u]):
            cu += th(j)
        return cu

    def alpha(g, w: Window) -> float:
        w = canon(w) or (STAR,)  # the empty window: x_{-1} is any vertex
        if g not in closed_nbhd:
            return 0.0
        n = len(w)
        if STAR not in w:
            for i in range(n - 1):
                if w[i + 1] not in closed_nbhd[w[i]]:
                    return 0.0  # no admissible history matches: empty infimum
            move = moves.get((w[0], g))
            if move is None:
                return 0.0
            acc, stay, dist = move
            for j in range(n):
                if w[j] in stay:
                    acc += th(j + 1)
            return escape(acc, w[-1], n, dist)

        best = None
        for v in verts if w[0] is STAR else (w[0],):
            move = moves.get((v, g))
            if move is None:
                # only an actual admissible history can push the mass to 0
                if _path_feasible(closed_nbhd, v, w):
                    best = 0.0
                    break
                continue
            base, stay, dist = move
            # DP over window positions: cost[u] = cheapest fold ending at u
            cost = {v: base + th(1) if v in stay else base}
            for j in range(1, n):
                nxt = {}
                allowed = verts if w[j] is STAR else (w[j],)
                tj = th(j + 1)
                for u, cu in cost.items():
                    for u2 in allowed:
                        if u2 not in closed_nbhd[u]:
                            continue
                        c2 = cu + tj if u2 in stay else cu
                        if u2 not in nxt or c2 < nxt[u2]:
                            nxt[u2] = c2
                cost = nxt
                if not cost:
                    break
            if not cost:
                continue  # known letters cannot lie on a path for this branch
            val = min(escape(cu, u, n, dist) for u, cu in cost.items())
            if best is None or val < best:
                best = val
        return 0.0 if best is None else best

    return alpha


def _walk_horizon(closed_nbhd: dict, theta: ThetaWeights) -> Optional[int]:
    """Float-exact memory horizon H of a walk kernel; None without one.

    Every walk cost (fold, DP entry, escape) starts at a base
    theta_0/|E(v)| >= b_min = theta_0 / max_v |E(v)| and only adds to it.
    Under round-to-nearest, c + x == c whenever c >= b_min and
    0 <= x < ulp(b_min)/2, because ulp(c) >= ulp(b_min).  H is the
    smallest n with s(n) < ulp(b_min)/2, so every theta_j with j >= H (and
    the tail s(m), m > H, that a one-vertex graph's escape adds) leaves
    each cost it meets unchanged to the bit.  Window position j carries
    theta_{j+1}; letters at positions >= H-1 therefore act on alpha only
    through which paths are feasible, and a known letter there screens
    off everything older when the window has an admissible completion:
    alpha(g, w) == alpha(g, w[:j+1]) for the first such known position j.
    """
    if theta.tail_below is None:
        return None
    b_min = theta.theta(0) / max(len(e) for e in closed_nbhd.values())
    return theta.tail_below(math.ulp(b_min) / 2)


def _path_feasible(closed_nbhd: dict, v, w: Window) -> bool:
    """Can the window's known letters lie on one walk starting at x_{-1}=v?"""
    if w and w[0] is not STAR and w[0] != v:
        return False
    reach = {v}
    for j in range(1, len(w)):
        if w[j] is STAR:
            nxt = set()
            for u in reach:
                nxt |= closed_nbhd[u]
            reach = nxt
        else:
            reach = {w[j]} if any(w[j] in closed_nbhd[u] for u in reach) else set()
        if not reach:
            return False
    return True


def _bfs_dist(closed_nbhd: dict, targets: set) -> dict:
    dist = {u: 0 for u in targets}
    frontier = list(targets)
    while frontier:
        nxt = []
        for u in frontier:
            for v in closed_nbhd[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _walk_kernel(
    name: str, parameters: dict, closed_nbhd: dict, theta: ThetaWeights, **forms
) -> KernelSpec:
    """KernelSpec of the walk with closed neighbourhoods ``closed_nbhd``.

    ``closed_nbhd[v]`` is the set of letters the walk can move to from v;
    it holds v itself unless the walk never stays put.
    Publishes the float-exact memory horizon as
    ``closed_forms["exact_horizon"]`` (see :func:`_walk_horizon`); the
    coupled sampler cuts the contexts it builds there.
    """

    def admissible(w: Window) -> bool:
        w = canon(w)
        return all(w[i + 1] in closed_nbhd[w[i]] for i in range(len(w) - 1))

    return KernelSpec(
        name=name,
        parameters=parameters,
        alphabet=tuple(sorted(closed_nbhd)),
        alpha=_walk_alpha(closed_nbhd, theta),
        admissible_window=admissible,
        closed_forms={
            "s": theta.s,
            "theta": theta.theta,
            "exact_horizon": _walk_horizon(closed_nbhd, theta),
            **forms,
        },
    )


def make_cyclic4(theta: ThetaWeights) -> KernelSpec:
    """Nearest-neighbour walk on Z/4 that relives its past positions.

    From last letter v the walk stays or moves to v±1 (mod 4), never to
    the antipode; each remembered lag j adds theta_j to the move it
    favours.  The same law as :func:`make_graph_walk` on cycle:4, plus
    the closed forms only the 4-cycle has.
    """
    verts = (0, 1, 2, 3)
    nbhd = {v: {(v - 1) % 4, v, (v + 1) % 4} for v in verts}

    def rho_tilde_claimed(n):
        # Closed-class mass 4 * prod_{j=2..n+1} (1 - s_j), for any theta with
        # theta_0 > 0.  From a fully known admissible window of length m with
        # newest letter v, the allowed letters v-1, v, v+1 have stay sets
        # {v-1}, {v, v+2}, {v+1}, which partition Z/4, and the escape tail
        # adds nothing (d <= 1); so sum_g alpha(g | w) = theta_0 +
        # sum_{j=1..m} theta_j = 1 - s_{m+1}, and every allowed letter keeps
        # the window admissible.  The order-1 closed class is the 4
        # single-letter windows, so the sum over class windows and over
        # a in A^n telescopes to the product, scaled by the class size.
        out = float(len(verts))
        for j in range(2, n + 2):
            out *= 1.0 - theta.s(j)
        return out

    return _walk_kernel(
        "cyclic4",
        {"theta": theta.label},
        nbhd,
        theta,
        beta_known_prefix=_beta_known_prefix(theta),
        rho_tilde_claimed=rho_tilde_claimed,
    )


def make_graph_walk(adjacency: dict, theta: ThetaWeights) -> KernelSpec:
    """Nearest-neighbour walk on an arbitrary finite connected graph.

    Same law as :func:`make_cyclic4` with the 4-cycle replaced by
    ``adjacency`` (symmetric, loop-free; the closed neighbourhood
    E(v) = {v} ∪ adj(v) drives both the support and the theta_0 split).
    """
    verts = tuple(sorted(adjacency))
    if not verts:
        raise ValueError("graph must be nonempty")
    closed = {}
    for v in verts:
        for u in adjacency[v]:
            if v not in adjacency[u]:
                raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        closed[v] = set(adjacency[v]) | {v}
    if len(_bfs_dist(closed, {verts[0]})) != len(verts):
        raise ValueError("graph must be connected")
    return _walk_kernel(
        "graph-walk", {"vertices": verts, "theta": theta.label}, closed, theta
    )


# ---------------------------------------------------------------------------
# run-length kernels (negative controls for the coalescence route)


def _run_lengths(w: Window, v) -> tuple:
    """Run lengths of x_{-1} = v that the canonical window w allows.

    Returns (taus, unbounded): taus, ascending, are the lengths
    tau <= len(w) such that slots 1..tau can all hold v and slot tau + 1
    can break the run (a star, another letter, or past the window);
    ``unbounded`` says every slot of w can hold v, so every tau > len(w)
    is allowed too.  One pass over w.
    """
    taus = []
    for j, x in enumerate(w):
        if x is not STAR and x != v:
            return taus, False
        if j + 1 == len(w) or w[j + 1] != v:
            taus.append(j + 1)
    return taus, True


def _run_length_kernel(
    name: str, parameters: dict, letters: tuple, hold: Callable[[int], float], **forms
) -> KernelSpec:
    """KernelSpec of a chain that holds x_{-1} or moves, by its run length.

    With tau the run length of x_{-1} = v, p(v | x) = hold(tau) and the
    other letters share 1 - hold(tau) equally; hold must not decrease.
    alpha(g, w) is the minimum over the values v that x_{-1} can take:
    hold at v's shortest allowed run when g = v, and otherwise 0.0 if v's
    run can be unbounded, else (1 - hold) at its longest run over |A| - 1.
    """
    share = len(letters) - 1

    def alpha(g, w: Window) -> float:
        if g not in letters:
            return 0.0
        w = canon(w)
        best = None
        for v in letters:
            taus, unbounded = _run_lengths(w, v)
            if not (taus or unbounded):
                continue
            if v == g:
                # hold increases: min at the smallest tau, len(w) + 1 when w is empty
                val = hold(taus[0] if taus else len(w) + 1)
            elif unbounded:
                val = 0.0
            else:
                val = (1.0 - hold(taus[-1])) / share
            best = val if best is None else min(best, val)
        return 0.0 if best is None else best

    return KernelSpec(
        name=name,
        parameters=parameters,
        alphabet=letters,
        alpha=alpha,
        closed_forms=forms,
    )


def make_flipflop(r: Callable[[int], float]) -> KernelSpec:
    """Binary kernel that holds its value with run-length-increasing odds.

    With tau the current run length of x_{-1}, p(x_{-1}|x) = r_tau and
    p(flip|x) = 1 - r_tau, where r_n increases to 1.  Histories are the
    sequences with at least one flip, so every finite window is
    admissible, but all-0 and all-1 windows head separate closed classes:
    the coalescence route must reject this kernel.
    """
    return _run_length_kernel(
        "flipflop", {"r": getattr(r, "label", "callable")}, (0, 1), r, r=r
    )


def flipflop_r(a: float = 0.5, t: float = 0.5):
    """r_n = 1 - a t^n, increasing to 1; defined for every n >= 1."""
    if not (0.0 < a <= 1.0 and 0.0 < t < 1.0):
        raise ValueError("need 0 < a <= 1 and 0 < t < 1")

    def r(n: int) -> float:
        return 1.0 - a * t**n

    r.label = f"one-minus:{a},{t}"
    return r


def make_three_letter_alternating(
    r: Optional[Callable[[int], float]] = None, restrict_histories: bool = True
) -> KernelSpec:
    """Three letters; holding odds grow with the run, or never hold at all.

    Unrestricted: p(x_{-1}|x) = r_tau for runs tau >= 2, the two other
    letters share the rest; a fresh run (x_{-1} != x_{-2}) never holds and
    moves to either other letter with probability 1/2 (the tau=1 case is
    the r_1 = 0 convention).  Constant windows then head three separate
    closed classes — a negative control.  With ``restrict_histories`` the
    admissible histories are the strictly alternating ones, runs collapse
    to tau = 1, alpha(g|b) = 1/2 for g != b, and the coalescence route
    works with memory 1.  That chain is the walk on the triangle 0-1-2
    whose neighbourhoods leave out v, so it never stays put, and with
    theta = list:1.0 no lag carries weight.
    """
    letters = (0, 1, 2)
    if restrict_histories:
        return _walk_kernel(
            "three-letter-alternating",
            {"restrict_histories": True},
            {v: set(letters) - {v} for v in letters},
            theta_list((1.0,)),
        )
    if r is None:
        r = lambda n: 1.0 - 2.0**-n
    return _run_length_kernel(
        "three-letter-alternating",
        {"restrict_histories": False},
        letters,
        lambda n: 0.0 if n == 1 else r(n),
    )


# ---------------------------------------------------------------------------
# registry for the command line


def _parse_graph(label: str) -> dict:
    kind, _, rest = label.partition(":")
    if kind == "cycle":
        n = int(rest)
        if n < 3:
            raise ValueError("cycle needs >= 3 vertices")
        return {v: {(v - 1) % n, (v + 1) % n} for v in range(n)}
    if kind == "complete":
        n = int(rest)
        return {v: set(range(n)) - {v} for v in range(n)}
    if kind == "path":
        n = int(rest)
        return {v: {u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)}
    if kind == "single":
        return {0: set()}
    raise ValueError(f"unknown graph {label!r}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def build_kernel(name: str, params: dict) -> KernelSpec:
    """Build a gallery kernel from CLI-style string parameters; a
    parameter the kernel does not take raises ValueError."""
    p = dict(params)
    kernel = _build(name, p)
    if p:
        raise ValueError(f"kernel {name!r} takes no parameter {', '.join(sorted(p))}")
    return kernel


def _pop(p: dict, key: str, default: str) -> str:
    """Pop ``key`` as text, ``default`` when it is missing or None.  The
    command line reads ``c=0.3`` as a number, and a config file may hold
    one; a number or bool is parsed from its text, any other non-string
    value is a ValueError."""
    val = p.pop(key, None)
    if val is None:
        return default
    if not isinstance(val, (str, int, float)):
        raise ValueError(f"{key} must be text or a number, got {val!r}")
    return str(val)


def _build(name: str, p: dict) -> KernelSpec:
    """The kernel ``name``, popping from ``p`` every parameter it reads."""
    if name == "autoregressive":
        return make_autoregressive(
            parse_theta(_pop(p, "theta", "geometric:0.5")),
            float(_pop(p, "delta", "0.3")),
        )
    if name in ("imitation", "imitation-general", "ladder"):
        trunc = _pop(p, "truncation", "none")
        if name == "imitation-general" and p.pop("f", "uniform") != "uniform":
            raise ValueError("only the uniform lookback family is predefined")
        c = _parse_floats(_pop(p, "c", "0.3,0.2"))
        trunc = None if trunc == "none" else int(trunc)
        if name == "imitation":
            return make_imitation(c, trunc)
        if name == "ladder":
            return make_ladder(c, None, trunc)
        return make_imitation_general(c, uniform_lookback, trunc)
    if name == "cyclic4":
        return make_cyclic4(parse_theta(_pop(p, "theta", "geometric:0.5")))
    if name == "graph-walk":
        return make_graph_walk(
            _parse_graph(_pop(p, "graph", "cycle:4")),
            parse_theta(_pop(p, "theta", "geometric:0.5")),
        )
    if name == "flipflop":
        a, t = _parse_floats(_pop(p, "r", "0.5,0.5"))
        return make_flipflop(flipflop_r(a, t))
    if name == "three-letter-alternating":
        restrict = _pop(p, "restrict", "true").lower()
        if restrict not in ("true", "false"):
            raise ValueError(f"restrict must be true or false, got {restrict!r}")
        return make_three_letter_alternating(restrict_histories=restrict == "true")
    raise ValueError(f"unknown kernel {name!r}")


GALLERY = (
    "autoregressive",
    "imitation",
    "imitation-general",
    "ladder",
    "cyclic4",
    "graph-walk",
    "flipflop",
    "three-letter-alternating",
)
