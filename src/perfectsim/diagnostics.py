"""Exact enumeration oracles and statistical checkers.

Everything here is either an exact finite sum (letter-string or
star-string enumerations, and a linear recursion where the kernel's
escape mass is affine in the star pattern) or a reporting helper with
fixed significance conventions: 4 standard errors when comparing an
exact oracle against Monte Carlo, 3 when checking an expectation bound.
Results of the condition checkers are necessary-condition evidence, not
proof — divergence of a series is not decidable from finitely many terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .backward import BackwardPlan, run_joint_tableau
from .kernels import STAR, KernelSpec
from .coalescence import ExplosionGuard, MarkovAnalysis, NotFound, find_nhat
from .streams import StreamKey


def _letters(kernel: KernelSpec, truncation: Optional[int]):
    if kernel.alphabet is not None:
        return kernel.alphabet
    if truncation is None:
        truncation = 50
    return tuple(range(1, truncation + 1))


def _string_mass(
    kernel: KernelSpec, n: int, letters, bases=((),), star=False, max_nodes=None
):
    """Masses at every depth 0..n of the strings grown on top of each base
    window, from one depth-first walk: entry d is the sum over the strings
    a of length d of alpha(a_-d | base) alpha(a_-(d-1) | a_-d base) ... —
    each factor's context is the string built so far, newest first, with
    the base as its oldest part.  With ``star`` the unknown symbol is a
    letter too, of mass 1 - beta(context), and each string is weighted by
    its own escape mass: the chance that the auxiliary chain is still
    unknown at step d.  Only positive-mass branches are visited, in
    depth-first order; each node tries the context's ``letters_for`` within
    ``letters``, which on a countable alphabet names every letter that can
    carry mass.  Depth d's entry sums its strings in the order a walk that
    stopped at depth d would, so every entry is the same float as that
    walk's total.  Letter strings of the last depth are summed where they
    are found, without building their context.  With ``max_nodes`` the
    walk raises ExplosionGuard once it has visited more nodes (contexts,
    full strings included) than that.
    """
    allowed = frozenset(letters)
    totals = [0.0] * (n + 1)
    nodes = 0

    def visit(k):
        nonlocal nodes
        nodes += k
        if max_nodes is not None and nodes > max_nodes:
            raise ExplosionGuard(
                f"enumerating strings of length {n} visits more than "
                f"{max_nodes} nodes"
            )

    def rec(ctx, depth, prob):
        visit(1)
        if star:
            escape = 1.0 - kernel.beta(ctx)
            totals[depth] += prob * max(0.0, escape)
        else:
            totals[depth] += prob
        if depth == n:
            return
        if star and escape > 0.0:
            rec((STAR,) + ctx, depth + 1, prob * escape)
        leaf = not star and depth + 1 == n
        leaves = 0
        for g in kernel.letters_for(ctx):
            if g not in allowed:
                continue
            a = kernel.alpha(g, ctx)
            if a > 0.0:
                if leaf:
                    totals[n] += prob * a
                    leaves += 1
                else:
                    rec((g,) + ctx, depth + 1, prob * a)
        if leaves:
            visit(leaves)

    for base in bases:
        rec(base, 0, 1.0)
    return totals


def _affordable_depth(n: int, roots: int, letters, budget: int) -> int:
    """Largest m <= n with roots * |letters|^m <= budget: the deepest level
    whose strings, counted over the whole alphabet, fit the budget."""
    m = 0
    while m < n and roots * len(letters) ** (m + 1) <= budget:
        m += 1
    return m


def _class_windows(analysis: MarkovAnalysis):
    return analysis.closed_classes[0] if analysis.closed_classes else ()


def rho_exact(
    kernel: KernelSpec, n: int, truncation: Optional[int] = None, budget: int = 4_000_000
) -> float:
    """Mass of full letter strings of length n grown against the envelopes.

    Sum over a in A^n of alpha(a_-n) alpha(a_-(n-1) | a_-n) ... — the
    chance that n consecutive backward rounds all produce letters under
    the worst-case (empty-information) start.  Non-increasing in n.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    letters = _letters(kernel, truncation)
    if _affordable_depth(n, 1, letters, budget) < n:
        raise ExplosionGuard(f"{len(letters)}^{n} letter strings exceed {budget}")
    return _string_mass(kernel, n, letters)[n]


def rho_tilde_exact(
    kernel: KernelSpec, analysis: MarkovAnalysis, n: int, budget: int = 4_000_000
) -> float:
    """Closed-class variant: strings grown on top of each target window.

    Double sum over x in the closed class and a in A^n of
    alpha(a_-n | x) alpha(a_-(n-1) | a_-n x) ... — each factor's context
    is the string built so far with the class window x as its oldest part.

    The value is a sum, not an average, over the |C| class windows, so it
    can exceed 1 (each window contributes at most 1).  For cyclic4 with
    theta_0 > 0 the class is the 4 single-letter windows and every fully
    known admissible window w has sum_g alpha(g | w) = 1 - s_{|w|+1}, so

        rho_tilde_n = 4 * prod_{j=2..n+1} (1 - s_j),

    which is the kernel's closed_forms["rho_tilde_claimed"].
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    letters = kernel.alphabet
    if letters is None:
        raise ExplosionGuard("closed-class enumeration needs a finite alphabet")
    targets = _class_windows(analysis)
    if _affordable_depth(n, len(targets), letters, budget) < n:
        raise ExplosionGuard(
            f"{len(targets)} x {len(letters)}^{n} strings exceed {budget}"
        )
    return _string_mass(kernel, n, letters, bases=targets)[n]


def exact_T0_tail(
    kernel: KernelSpec, n: int, truncation: Optional[int] = None, budget: int = 4_000_000
) -> float:
    """P(the target stays unknown after n backward rounds), exactly.

    Equals the chance that the forward auxiliary chain's n-th value is
    still the unknown symbol.  Kernels whose escape mass is affine in the
    star pattern (closed_forms["star_affine"]) admit the exact linear
    recursion p_m = s(m+1) + sum_{j=1..m} theta_j p_{m-j} — conditioning
    on the realized star pattern and taking expectations, no independence
    needed — so the value is computable for any n.  Otherwise the
    star-extended strings are enumerated, visiting at most ``budget``
    nodes.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    if kernel.closed_forms.get("star_affine"):
        theta = kernel.closed_forms["theta"]
        s = kernel.closed_forms["s"]
        p = [s(1)]
        for m in range(1, n + 1):
            acc = s(m + 1)
            for j in range(1, m + 1):
                acc += theta(j) * p[m - j]
            p.append(acc)
        return p[n]
    return _string_mass(
        kernel, n, _letters(kernel, truncation), star=True, max_nodes=budget
    )[n]


@dataclass
class ConditionReport:
    """Necessary-condition evidence for the two backward routes."""

    kernel_name: str
    rho_available: bool
    rho_values: Optional[list]
    rho_source: Optional[str]  # "closed-form" | "enumeration"
    rho_tilde_available: bool
    rho_tilde_values: Optional[list]
    c_hat: Optional[float]
    bound_expected_t0: Optional[float]
    raabe_epsilon: Optional[float]
    notes: list = field(default_factory=list)


def check_theorem_conditions(
    kernel: KernelSpec,
    analysis: Optional[MarkovAnalysis] = None,
    N: int = 30,
    budget: int = 4_000_000,
) -> ConditionReport:
    """Estimate the coalescence-rate constant and the stopping-time bound.

    Reports the letter-string masses up to N (closed form when the kernel
    exposes one, exact enumeration otherwise) and the closed-class masses
    up to N.  Each enumerated column comes from one walk per kernel, as
    deep as the guard of ``rho_exact`` / ``rho_tilde_exact`` allows, with
    the values those oracles give one n at a time and a note where the
    guard stops the column.  Also reports the limit estimate
    c_hat = value at N (of the closed-class masses when the letter-string
    masses are unavailable), the expected-stopping-time bound
    (1-c_hat)/c_hat when c_hat is a positive letter-string mass, and — when
    the kernel exposes its tail sums s(n) — the slow-decay margin: the
    largest epsilon with n*s(n) <= 1-epsilon over the probe range, evidence
    that the mass series diverges.
    """
    notes = ["necessary-condition evidence, not proof"]
    rho_vals = None
    rho_src = None
    rho_avail = kernel.beta(()) > 0.0
    if not rho_avail:
        notes.append("spontaneous route unavailable: no context-free mass")
    else:
        closed = kernel.closed_forms.get("rho")
        if closed is not None:
            rho_vals = [closed(n) for n in range(1, N + 1)]
            rho_src = "closed-form"
        else:
            letters = _letters(kernel, None)
            top = _affordable_depth(N, 1, letters, budget)
            rho_vals = _string_mass(kernel, top, letters)[1:]
            if top < N:
                notes.append(f"letter-string enumeration stopped at n={top}")
            rho_src = "enumeration"

    tilde_vals = None
    tilde_avail = False
    if kernel.alphabet is not None:
        if analysis is None:
            found = find_nhat(kernel, 6)
            analysis = None if isinstance(found, NotFound) else found[1]
            if isinstance(found, NotFound):
                notes.append(
                    "coupled route unavailable: no unique aperiodic closed "
                    f"class up to order {found.n_max}"
                )
        if analysis is not None:
            tilde_avail = True
            targets = _class_windows(analysis)
            top = _affordable_depth(N, len(targets), kernel.alphabet, budget)
            tilde_vals = _string_mass(kernel, top, kernel.alphabet, bases=targets)[1:]
            if top < N:
                notes.append(f"closed-class enumeration stopped at n={top}")

    c_hat = None
    bound = None
    if rho_vals:
        c_hat = rho_vals[-1]
        if c_hat > 0.0:
            bound = (1.0 - c_hat) / c_hat
        else:
            notes.append(
                "limit estimate is 0: expected-stopping-time bound undefined"
            )
    elif tilde_vals:
        c_hat = tilde_vals[-1]
        notes.append(
            "expected-stopping-time bound not reported: (1-c)/c holds for the "
            "letter-string mass rho, and c_hat here is the closed-class mass "
            "rho_tilde, a sum over the class windows that can exceed 1"
        )
    if not rho_avail and not tilde_avail:
        notes.append("neither route's sufficient conditions hold for this kernel")

    raabe_eps = None
    s = kernel.closed_forms.get("s")
    if s is not None:
        worst = max(n * s(n) for n in range(2, 201))
        if worst < 1.0:
            raabe_eps = 1.0 - worst

    return ConditionReport(
        kernel_name=kernel.name,
        rho_available=rho_avail,
        rho_values=rho_vals,
        rho_source=rho_src,
        rho_tilde_available=tilde_avail,
        rho_tilde_values=tilde_vals,
        c_hat=c_hat,
        bound_expected_t0=bound,
        raabe_epsilon=raabe_eps,
        notes=notes,
    )


@dataclass
class RenewalReport:
    window_w: int
    horizon_h: int
    renewal_count: int
    gaps_first: list
    gaps_second: list
    gap_mean_first: Optional[float]
    gap_mean_second: Optional[float]
    z_gap_means: Optional[float]
    chi2_stat: Optional[float]
    chi2_dof: Optional[int]
    low_counts: bool
    truncation_bias: float

    @property
    def halves_agree_3se(self) -> Optional[bool]:
        if self.z_gap_means is None:
            return None
        return abs(self.z_gap_means) <= 3.0


def renewal_diagnostic(
    kernel: KernelSpec,
    horizon_h: int,
    window_w: int,
    key: StreamKey,
    plan: BackwardPlan | None = None,
) -> RenewalReport:
    """Stationarity check on the per-time stopping structure.

    One coupled backward pass resolves times 0..W+H; a time n is a
    (horizon-truncated) renewal when no time in [n, n+H] needed
    information older than n.  Under stationarity the renewal gaps in the
    two halves of [0, W] are exchangeable: the report compares their
    means (z score) and their histograms (homogeneity chi-square), and
    quantifies the horizon truncation by the exact tail mass at H.
    ``plan`` is the kernel's ``prepare_backward`` plan, if the caller holds
    one.
    """
    if horizon_h < 0 or window_w < 1:
        raise ValueError("need horizon_h >= 0 and window_w >= 1")
    _, T = run_joint_tableau(kernel, window_w + horizon_h, key, plan=plan)

    renewals = []
    for m in range(window_w + 1):
        if T[m] == m and all(T[t] >= m for t in range(m, m + horizon_h + 1)):
            renewals.append(m)

    gaps_first, gaps_second = [], []
    for a, b in zip(renewals, renewals[1:]):
        (gaps_first if a < window_w / 2 else gaps_second).append(b - a)

    low = min(len(gaps_first), len(gaps_second)) < 30

    def _mean(xs):
        return sum(xs) / len(xs) if xs else None

    m1, m2 = _mean(gaps_first), _mean(gaps_second)
    z = None
    if not low:
        v1 = sum((x - m1) ** 2 for x in gaps_first) / (len(gaps_first) - 1)
        v2 = sum((x - m2) ** 2 for x in gaps_second) / (len(gaps_second) - 1)
        se = math.sqrt(v1 / len(gaps_first) + v2 / len(gaps_second))
        if se > 0.0:
            z = (m1 - m2) / se
        else:
            z = 0.0 if m1 == m2 else math.copysign(math.inf, m1 - m2)

    chi2 = dof = None
    if not low:
        chi2, dof = _gap_homogeneity(gaps_first, gaps_second)

    return RenewalReport(
        window_w=window_w,
        horizon_h=horizon_h,
        renewal_count=len(renewals),
        gaps_first=gaps_first,
        gaps_second=gaps_second,
        gap_mean_first=m1,
        gap_mean_second=m2,
        z_gap_means=z,
        chi2_stat=chi2,
        chi2_dof=dof,
        low_counts=low,
        truncation_bias=exact_T0_tail(kernel, horizon_h),
    )


def _gap_homogeneity(xs, ys):
    """Two-sample chi-square over the pooled gap histogram (bins >= 5)."""
    from collections import Counter

    pooled = Counter(xs) + Counter(ys)
    # merge rare gap values upward until every pooled bin has >= 5
    bins = []
    acc = []
    for v in sorted(pooled):
        acc.append(v)
        if sum(pooled[u] for u in acc) >= 5:
            bins.append(tuple(acc))
            acc = []
    if acc and bins:
        bins[-1] = bins[-1] + tuple(acc)
    elif acc:
        bins.append(tuple(acc))
    if len(bins) < 2:
        return None, None

    cx, cy = Counter(xs), Counter(ys)
    nx, ny, tot = len(xs), len(ys), len(xs) + len(ys)
    stat = 0.0
    for b in bins:
        ox = sum(cx[v] for v in b)
        oy = sum(cy[v] for v in b)
        col = ox + oy
        ex = col * nx / tot
        ey = col * ny / tot
        stat += (ox - ex) ** 2 / ex + (oy - ey) ** 2 / ey
    return stat, len(bins) - 1


def concentration_bound(
    epsilon: float, delta_f_l2_norm: float, expected_T0: float
) -> float:
    """Deviation bound for window averages under the backward coupling.

    4 exp(-2 eps^2 / (9 (1 + E|T[0]|)^2 ||delta f||^2)), clamped to [0,1]
    for reporting.  The constants are evaluated verbatim, not re-derived.
    """
    if epsilon <= 0:
        raise ValueError("epsilon > 0 required")
    if delta_f_l2_norm <= 0:
        raise ValueError("delta_f_l2_norm > 0 required")
    if expected_T0 < 0:
        raise ValueError("expected_T0 >= 0 required")
    val = 4.0 * math.exp(
        -2.0
        * epsilon**2
        / (9.0 * (1.0 + expected_T0) ** 2 * delta_f_l2_norm**2)
    )
    return min(1.0, max(0.0, val))
