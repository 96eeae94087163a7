"""Star-extended windows and the kernel interface.

Contexts are finite newest-first tuples over the alphabet plus ``STAR``
(the "unknown" marker): position 0 is time -1, position k is time -(k+1).
A kernel exposes lower-envelope letter masses ``alpha(g, w)`` — the
infimum of the one-step transition probability to ``g`` over all infinite
admissible histories compatible with the known letters of ``w`` — their
sum ``beta(w)``, and an admissibility predicate on star-free windows.

Every sampler turns a uniform into a symbol through three primitives.
``_table(kernel, w)`` is the one scan: alpha on ``letters_for(w)`` in
ascending order, bounds-checked and summed in that order, over every
letter or up to the one a given uniform picks.  ``_pick(table, u)``
bisects it for the first letter whose cumulative mass exceeds u (a
tie goes to the next letter), or STAR and the total.  ``_stack`` is the
one increment scan, re-reading u against the mass a refined window adds.
All three are float-deterministic: the same ``u`` and window always
reproduce the same symbol, which is what lets the backward samplers
revisit a time in later rounds without ever contradicting an earlier
decision.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

TOL = 1e-12


class _StarType:
    """Singleton 'unknown' symbol; never a member of any alphabet."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"

    def __reduce__(self):  # pickle round-trips to the same singleton
        return (_StarType, ())


STAR = _StarType()

# Newest-first context window; plain tuples keep hashing/caching trivial.
Window = tuple


def canon(w: Sequence) -> Window:
    """Canonical form: trailing STARs stripped (they carry no information)."""
    w = tuple(w)
    n = len(w)
    while n and w[n - 1] is STAR:
        n -= 1
    return w[:n]


def known_positions(w: Window):
    """Yield (position, letter) for the non-star entries of w."""
    for j, x in enumerate(w):
        if x is not STAR:
            yield j, x


class KernelContractViolation(Exception):
    """A kernel broke monotonicity / normalization during sampling."""


@dataclass(eq=False)
class KernelSpec:
    """An infinite-memory kernel seen only through its lower envelopes.

    ``alphabet`` is the ascending tuple of letters for finite alphabets,
    or ``None`` for countable ones; countable kernels must then supply
    ``positive_letters(w)`` returning the finite ascending tuple of
    letters that can have alpha(g, w) > 0, so every scan terminates.
    ``beta`` defaults to the cumulative scan total in alphabet order,
    which makes the "Star iff u >= beta(w)" convention bit-exact.
    """

    name: str
    parameters: dict
    alphabet: Optional[tuple]
    alpha: Callable[[object, Window], float]
    beta: Optional[Callable[[Window], float]] = None
    admissible_window: Callable[[Window], bool] = field(default=lambda w: True)
    positive_letters: Optional[Callable[[Window], tuple]] = None
    closed_forms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.alphabet is None and self.positive_letters is None:
            raise ValueError("countable-alphabet kernels need positive_letters")
        # a copy made with dataclasses.replace gets the original's default,
        # bound to the original: bind it to the copy instead
        default = KernelSpec._total
        if self.beta is None or getattr(self.beta, "__func__", None) is default:
            self.beta = self._total

    def _total(self, w: Window) -> float:
        return _scan(self, None, w)[1]

    def letters_for(self, w: Window) -> Iterable:
        if self.alphabet is not None:
            return self.alphabet
        return self.positive_letters(w)


def _table(kernel: KernelSpec, w: Window, stop: float = math.inf):
    """(letters, cumulative masses, masses by letter) of window w.

    The one alpha scan: letters in ``letters_for(w)`` order (the
    ascending alphabet, or the ascending positive letters), each mass
    bounds-checked against [-TOL, 1 + TOL] and summed in that order.  A
    mass in [-TOL, 0) adds nothing, so the cumulative masses never
    decrease and ``_pick``'s bisect finds the letter a running-sum scan
    would: the first whose cumulative mass exceeds u, a tie going to the
    next letter.  A finite ``stop`` ends the scan at the first cumulative
    mass above it: the cumulative and by-letter masses then stop at that
    letter, and ``_pick`` at ``stop`` reads the prefix as it would the
    whole table.  A scan that reaches the last letter checks that the
    total beta(w) is at most 1 + TOL (a scan stopped below 1 cannot
    exceed it); the check is a raise, so it still runs under ``python -O``.
    """
    letters = tuple(kernel.letters_for(w))
    cum = []
    masses = {}
    acc = 0.0
    for g in letters:
        a = masses[g] = kernel.alpha(g, w)
        if not -TOL <= a <= 1.0 + TOL:  # NaN fails too
            raise KernelContractViolation(
                f"{kernel.name}: alpha({g!r}|{w!r}) = {a} outside [0,1]"
            )
        acc += 0.0 if a < 0.0 else a
        cum.append(acc)
        if stop < acc:
            break
    else:
        if acc > 1.0 + TOL:
            raise KernelContractViolation(
                f"{kernel.name}: beta({w!r}) = {acc} exceeds 1"
            )
    return letters, cum, masses


def _pick(table, u: float):
    """(first letter whose cumulative mass exceeds u, that mass), or
    (STAR, the table's total) when u clears every letter."""
    letters, cum, _ = table
    i = bisect_right(cum, u)
    if i < len(cum):
        return letters[i], cum[i]
    return STAR, (cum[-1] if cum else 0.0)


def _stack(
    kernel: KernelSpec,
    u: float,
    acc: float,
    w_new: Window,
    w_old: Window,
    old_masses: dict,
    old_letters: Optional[tuple] = None,
):
    """The one increment scan: alpha(g|w_new) - alpha(g|w_old) stacked on acc.

    Letters run in alphabet order, or over the sorted union of both
    windows' positive letters; ``old_letters``, when given, are
    ``positive_letters(w_old)`` as an earlier scan returned them, and are
    not asked for again.  alpha on ``w_new`` is evaluated lazily up
    to the first letter whose stacked total exceeds u; the old masses come
    from ``old_masses``, and a letter missing there reads alpha(g|w_old),
    stored back.  A drop beyond TOL means the kernel broke monotonicity;
    sub-TOL noise is clamped to zero so totals never decrease.  Returns
    (symbol, total, masses of w_new by letter, letters of w_new), the
    masses complete when the symbol is STAR; the letters are
    ``positive_letters(w_new)``, or the alphabet when it is finite.  A
    letter's stacked total above 1 + TOL raises; a STAR total is at most
    u < 1.
    """
    if kernel.alphabet is not None:
        letters = new_letters = kernel.alphabet
    else:
        new_letters = kernel.positive_letters(w_new)
        if old_letters is None:
            old_letters = kernel.positive_letters(w_old)
        letters = sorted(set(new_letters) | set(old_letters))
    alpha = kernel.alpha
    new = {}
    for g in letters:
        a = new[g] = alpha(g, w_new)
        b = old_masses.get(g)
        if b is None:
            b = old_masses[g] = alpha(g, w_old)
        d = a - b
        if d < -TOL:
            raise KernelContractViolation(
                f"{kernel.name}: alpha({g!r}|·) decreased by {-d} when the "
                f"window was refined from {w_old!r} to {w_new!r}"
            )
        if d < 0.0:
            d = 0.0
        acc += d
        if u < acc:
            if acc > 1.0 + TOL:  # a raise, so it also runs under python -O
                raise KernelContractViolation(
                    f"{kernel.name}: mass {acc} stacked up to {g!r} on "
                    f"{w_new!r} exceeds 1"
                )
            return g, acc, new, new_letters
    return STAR, acc, new, new_letters


def _scan(kernel: KernelSpec, u: Optional[float], w: Window):
    """(symbol, total) of ``_pick`` on w's table, scanned up to the picked
    letter; u=None scans every letter and gives (STAR, beta(w))."""
    u = math.inf if u is None else u
    return _pick(_table(kernel, w, u), u)


def sample_symbol(kernel: KernelSpec, u: float, w: Window):
    """Smallest letter g with u < sum_{b<=g} alpha(b, w); STAR if none.

    STAR is returned exactly when u >= beta(w) (inf of an empty set is
    the unknown symbol).
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u={u} outside [0,1)")
    return _scan(kernel, u, canon(w))[0]


def _scan_increment(kernel, u, w_new: Window, w_old: Window, threshold_old: float):
    """(symbol, new threshold) of ``_stack`` on the canonical windows.

    The returned threshold equals threshold_old plus the increment mass
    scanned, so chaining it across successive refinements keeps per-time
    thresholds exact without ever recomputing beta from scratch.
    """
    return _stack(kernel, u, threshold_old, canon(w_new), canon(w_old), {})[:2]


def sample_symbol_increment(kernel, u, w_new, w_old, threshold_old: float):
    """Smallest g with u < threshold_old + sum_{b<=g} [alpha(b,w_new) - alpha(b,w_old)].

    STAR when u clears the whole increment mass.  ``w_old`` must be
    ``w_new`` with some letters coarsened to STAR, and ``threshold_old``
    the (chained) scan total of ``w_old``.
    """
    return _scan_increment(kernel, u, w_new, w_old, threshold_old)[0]


@dataclass
class ValidationReport:
    kernel_name: str
    trials: int
    seed: int
    checks_run: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _random_window(kernel, rng: random.Random, max_len=6):
    letters = kernel.alphabet if kernel.alphabet is not None else tuple(range(1, 7))
    n = rng.randrange(max_len + 1)
    return tuple(
        STAR if rng.random() < 0.35 else rng.choice(letters) for _ in range(n)
    )


def _path_window(kernel, rng: random.Random, max_len=6):
    """Window built by forward-sampling the kernel itself, then star-damaged.

    Exercises the positive-probability region (pure random letters rarely
    land in it for kernels with restricted histories).
    """
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        sym = sample_symbol(kernel, rng.random(), tuple(out))
        if sym is STAR:
            break
        out.insert(0, sym)
    return tuple(STAR if rng.random() < 0.3 else x for x in out)


def _admissible_completion(kernel, w, pool, rng, attempts=40):
    """Star-free completion of w passing admissible_window, or None."""
    if not any(x is STAR for x in w):
        return w if kernel.admissible_window(w) else None
    for _ in range(attempts):
        c = tuple(rng.choice(pool) if x is STAR else x for x in w)
        if kernel.admissible_window(c):
            return c
    return None


def _admissible_suffix(kernel, comp, pool, rng, n_more, attempts=20):
    """Letters extending comp one step deeper at a time, admissible at
    every step; None when the region dead-ends."""
    out = comp
    for _ in range(n_more):
        nxt = None
        for _ in range(attempts):
            cand = out + (rng.choice(pool),)
            if kernel.admissible_window(cand):
                nxt = cand
                break
        if nxt is None:
            return None
        out = nxt
    return out[len(comp):]


def validate_kernel(kernel: KernelSpec, trials: int, rng_seed: int) -> ValidationReport:
    """Randomized structural audit of a kernel.

    Checks, per random window: alpha >= 0 and normalization
    |sum_g alpha - beta| <= TOL with beta <= 1 + TOL; monotonicity under
    star-refinement and under appending symbols, both probed only inside
    the admissible-history region (revealing a star with an arbitrary
    letter can produce a window no admissible history matches, where the
    envelope has nothing left to bound); trailing-star equality; the
    sampler partition (STAR iff u >= beta(w), bit-exact); and, for a kernel
    publishing ``closed_forms["additive_weight"]``, which the spontaneous
    sampler folds instead of alpha, that alpha(g, w) is alpha(g, ()) plus
    the weights of w's known letters.  Any breach beyond TOL lands in
    ``violations`` with the offending triple.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    rng = random.Random(rng_seed)
    rep = ValidationReport(kernel.name, trials, rng_seed)
    letters_cap = 12
    weight = kernel.closed_forms.get("additive_weight")

    for _ in range(trials):
        w = (
            _path_window(kernel, rng)
            if rng.random() < 0.5
            else _random_window(kernel, rng)
        )
        cw = canon(w)
        if kernel.alphabet is not None:
            letters = kernel.alphabet
            probe = letters
        else:
            letters = tuple(kernel.positive_letters(cw))[:letters_cap]
            # letters the kernel claims cannot carry mass must really not
            top = max(kernel.positive_letters(cw), default=0)
            probe = letters + (top + 1, top + 3)

        total = 0.0
        for g in kernel.letters_for(cw):
            a = kernel.alpha(g, cw)
            if a < -TOL:
                rep.violations.append(f"alpha({g!r}|{cw!r}) = {a} < 0")
            total += a
        try:
            b = kernel.beta(cw)
        except KernelContractViolation as exc:  # the default beta's full scan
            rep.violations.append(str(exc))
            b = total
        else:
            if abs(total - b) > TOL:
                rep.violations.append(f"sum alpha {total} != beta {b} at {cw!r}")
            if b > 1.0 + TOL:
                rep.violations.append(f"beta({cw!r}) = {b} > 1")

        for g in probe:
            a0 = kernel.alpha(g, w)
            if abs(kernel.alpha(g, w + (STAR,)) - a0) > TOL:
                rep.violations.append(f"trailing-star inequality at ({g!r}, {w!r})")
            if g not in letters and a0 > TOL:
                rep.violations.append(
                    f"alpha({g!r}|{w!r}) = {a0} > 0 outside positive_letters"
                )

        if weight is not None:
            for g in letters:
                folded = kernel.alpha(g, ())
                for j, x in known_positions(cw):
                    folded += weight(g, j + 1, x)
                a = kernel.alpha(g, cw)
                if abs(a - folded) > TOL:
                    rep.violations.append(
                        f"additive_weight fold {folded} != alpha({g!r}|{cw!r}) = {a}"
                    )

        # refinement / extension probes: monotonicity only holds while the
        # probed window keeps at least one admissible history, so reveal
        # stars and append symbols along an admissible completion instead
        # of drawing them blindly.
        pool = kernel.alphabet if kernel.alphabet is not None else tuple(range(1, 7))
        comp = _admissible_completion(kernel, cw, pool, rng)
        if comp is not None:
            w_fine = tuple(
                (comp[i] if rng.random() < 0.7 else STAR) if x is STAR else x
                for i, x in enumerate(cw)
            )
            suffix = _admissible_suffix(kernel, comp, pool, rng, rng.randrange(1, 3))
            w_ext = None
            if suffix is not None:
                # re-starring an appended slot only weakens the information,
                # so the window stays admissible
                w_ext = cw + tuple(
                    STAR if rng.random() < 0.4 else x for x in suffix
                )
            for g in letters:
                base = kernel.alpha(g, cw)
                if kernel.alpha(g, w_fine) < base - TOL:
                    rep.violations.append(
                        f"refinement monotonicity broken at ({g!r}, {cw!r} -> {w_fine!r})"
                    )
                if w_ext is not None and kernel.alpha(g, w_ext) < base - TOL:
                    rep.violations.append(
                        f"extension monotonicity broken at ({g!r}, {cw!r} -> {w_ext!r})"
                    )

        for u in (rng.random(), rng.random(), b - 1e-9, b, b + 1e-9):
            if not 0.0 <= u < 1.0:
                continue
            sym = sample_symbol(kernel, u, cw)
            if (sym is STAR) != (u >= b):
                rep.violations.append(
                    f"sampler partition broken at u={u!r}, {cw!r}: got {sym!r}"
                )
        rep.checks_run += 1

    return rep
