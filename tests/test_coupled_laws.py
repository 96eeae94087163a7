"""Exact laws of the coupled route, under both phase-1 couplings.

Two oracles that share no code with the sampler's own bookkeeping:

- the stopping law: a symbolic uniform that records every comparison the
  sampler makes with it lets a depth-first search enumerate each decision
  path of a run through the ``uniforms=`` hook; a path's probability is
  the product of its uniforms' final interval lengths (ties have measure
  zero), so summing over paths gives the exact law of any event the run
  decides;
- the output law: on a kernel whose masses on long enough fully known
  windows sum to 1, ``alpha`` is the true transition probability of an
  order-m chain, so its stationary law solves pi P = pi.

Every Monte Carlo comparison runs at a fixed seed and size against 4
standard errors; both were fixed before the first run.
"""

import dataclasses
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from perfectsim.backward import MaxRoundsExceeded, run_algorithm1, run_joint_tableau
from perfectsim.coalescence import prepare_coalescence, run_algorithm2
from perfectsim.gallery import build_kernel
from perfectsim.streams import StreamKey
from test_markov import _mirrored


class _Path:
    """One depth-first path: the branches forced by its prefix, then the
    'below' branch at every new comparison."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.taken = []
        self.cells = {}  # stream key -> the uniform's interval [lo, hi)

    def probability(self):
        return math.prod(hi - lo for lo, hi in self.cells.values())


class _SymbolicUniform:
    """A uniform on [0, 1) known only up to an interval; each comparison
    that splits the interval is a branch of the path.  ``bisect_right``
    compares with ``<``, so it needs nothing more."""

    def __init__(self, path, key):
        self.path = path
        self.key = key
        path.cells[key] = (0.0, 1.0)

    def _below(self, c):
        path = self.path
        lo, hi = path.cells[self.key]
        if c <= lo:
            return False
        if c >= hi:
            return True
        i = len(path.taken)
        below = path.prefix[i] if i < len(path.prefix) else True
        path.taken.append(below)
        path.cells[self.key] = (lo, c) if below else (c, hi)
        return below

    def __lt__(self, c):
        return self._below(c)

    def __ge__(self, c):
        return not self._below(c)


def enumerate_paths(run):
    """Yield (probability, run(uniforms)) for every decision path of
    ``run``, which must draw all its randomness from ``uniforms(t, pid)``."""
    stack = [[]]
    while stack:
        path = _Path(stack.pop())
        symbols = {}

        def uniforms(t, pid):
            u = symbols.get((t, pid))
            if u is None:
                u = symbols[(t, pid)] = _SymbolicUniform(path, (t, pid))
            return u

        result = run(uniforms)
        for i in range(len(path.prefix), len(path.taken)):
            stack.append(path.taken[:i] + [False])
        yield path.probability(), result


def _cyclic4(theta):
    return build_kernel("cyclic4", {"theta": theta})


def _graph_walk(graph, theta="list:0.5,0.3,0.2"):
    return build_kernel("graph-walk", {"graph": graph, "theta": theta})


# every kernel below has n̂ = 1 and a shared plan; cyclic4 goes by its
# weights, graph-walk (with list:0.5,0.3,0.2 weights) by its graph
KERNELS = {
    "geometric:0.4": lambda: _cyclic4("geometric:0.4"),
    "geometric:0.5": lambda: _cyclic4("geometric:0.5"),
    "list:0.5,0.3,0.2": lambda: _cyclic4("list:0.5,0.3,0.2"),
    "path:3": lambda: _graph_walk("path:3"),
    "path:5": lambda: _graph_walk("path:5"),
    "path:7": lambda: _graph_walk("path:7"),
    "cycle:5": lambda: _graph_walk("cycle:5"),
    "three-letter-alternating": lambda: build_kernel("three-letter-alternating", {}),
    "mirrored": _mirrored,
}


@lru_cache(maxsize=None)
def _kernel(name):
    return KERNELS[name]()


def _plan(kernel, shared):
    return dataclasses.replace(prepare_coalescence(kernel), shared=shared)


def _stops_in_window_zero(kernel, plan, key, uniforms=None):
    try:
        run_algorithm2(kernel, 0, key, max_rounds=0, plan=plan, uniforms=uniforms)
    except MaxRoundsExceeded:
        return False
    return True


@lru_cache(maxsize=None)
def _window_zero_law(name, shared):
    """Exact P(rounds_used = 0) at k = 0 on ``KERNELS[name]``."""
    kern = _kernel(name)
    plan = _plan(kern, shared)
    key = StreamKey(0)
    return sum(
        prob
        for prob, stopped in enumerate_paths(
            lambda us: _stops_in_window_zero(kern, plan, key, us)
        )
        if stopped
    )


@pytest.mark.parametrize("name", list(KERNELS))
def test_window_zero_stopping_law_is_the_plans_agreement(name):
    # n̂ = 1: the run stops in window 0 exactly when phase 1 fixes the
    # newest position, the event whose probability the plan computes
    plan = prepare_coalescence(_kernel(name))
    assert plan.nhat == 1 and plan.shared
    shared_exact = _window_zero_law(name, True)
    assert shared_exact == pytest.approx(plan.agreement, rel=0, abs=1e-12)


# plan.agreement bit for bit, as the walk summed it before its layouts
# carried their cells and links; "path:7 geometric:0.5" is the largest
# planned walk, 96 306 cells
AGREEMENTS = {
    "geometric:0.4": "0x1.eb851eb851eb6p-3",
    "geometric:0.5": "0x1.5555555555554p-3",
    "list:0.5,0.3,0.2": "0x1.5555555555554p-3",
    "path:3": "0x1.8cccccccccccbp-2",
    "path:5": "0x1.471c71c71c71ap-5",
    "path:7": "0x1.6f75c7f43368ep-10",
    "cycle:5": "0x1.c71c71c71c71bp-5",
    "three-letter-alternating": "0x1.0000000000000p-1",
    "mirrored": "0x1.999999999999ap-1",
    "path:7 geometric:0.5": "0x1.5c5339f140432p-10",
}


@pytest.mark.parametrize("name", list(AGREEMENTS))
def test_agreement_walk_sums_the_same_floats(name):
    if name in KERNELS:
        kern = _kernel(name)
    else:
        kern = _graph_walk(*name.split())
    assert prepare_coalescence(kern).agreement.hex() == AGREEMENTS[name]


# the per-past law, P(rounds_used = 0) under independent streams, is
# enumerated on the kernels whose per-past paths stay few
PER_PAST_LAWS = [("geometric:0.4", 0.003981), ("list:0.5,0.3,0.2", 0.002724)]


@pytest.mark.parametrize("name,per_past", PER_PAST_LAWS)
def test_shared_layout_stops_in_window_zero_more_often(name, per_past):
    per_past_exact = _window_zero_law(name, False)
    assert per_past_exact == pytest.approx(per_past, rel=0, abs=1e-6)
    assert _window_zero_law(name, True) > 10 * per_past_exact


def test_cyclic4_agreement_is_one_sixth():
    # a derivation by hand of the multigamma agreement of cyclic4 with
    # theta_j = 2^-(j+1) (n̂ = 1, n₀ = 2).  On a known pair (x, v), x
    # newest, alpha(x|x,v) = 1/6 + 1/4 + 1/8 [v = x] and
    # alpha(x±1|x,v) = 1/6 + 1/8 [v = x±1].  At time 0 the four pasts
    # share no letter (each misses its antipode), so each lays out its own
    # masses 5/12 (stay) and 1/6 (moves) in letter order; the cells
    # [0,1/6), [1/6,1/3), [1/3,5/12), [5/12,7/12), [7/12,3/4) send pasts
    # 0..3 to 0010, 0122, 0123, 1123, 3233, and [3/4, 1) to STAR.  At
    # time 1 the live pairs share mass 1/3, 1/6, 0, 1/6, 1/3 respectively
    # (min over the pairs of each letter every newest letter allows), no
    # remainders of one letter overlap, and a starred pair (*, v) allows v
    # only.  So agreement = 1/6 (1/3 + 1/6 + 0 + 1/6 + 1/3) = 1/6.
    exact = _window_zero_law("geometric:0.5", True)
    assert exact == pytest.approx(1 / 6, rel=0, abs=1e-12)


@pytest.mark.parametrize("name", [n for n, _ in PER_PAST_LAWS])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-past"])
def test_window_zero_stopping_frequency_matches_the_enumeration(name, shared):
    kern = _kernel(name)
    plan = _plan(kern, shared)
    p = _window_zero_law(name, shared)
    n = 4000
    hits = sum(
        _stops_in_window_zero(kern, plan, StreamKey(seed=5, replication=r))
        for r in range(n)
    )
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) <= 4.0 * se, (hits, n, p)


# ------------------------------------------------------- the output law


def _stationary_windows(kernel, m):
    """pi over the admissible length-m windows of an order-m chain whose
    alpha on fully known windows sums to 1 (newest letter first)."""
    states = [
        w
        for w in itertools.product(kernel.alphabet, repeat=m)
        if kernel.admissible_window(w)
    ]
    idx = {w: i for i, w in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for w in states:
        for g in kernel.alphabet:
            a = kernel.alpha(g, w)
            if a > 0.0:
                P[idx[w], idx[(g,) + w[:-1]]] += a
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    A = np.vstack([P.T - np.eye(len(states)), np.ones(len(states))])
    b = np.zeros(len(states) + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    return dict(zip(states, pi))


def _check_walk_draws(kern, plan, expect_x0, n, seed):
    """X_0, X_-1 and (X_-1, X_0) of n draws at k = 1 against pi at 4 SE;
    pi(X_0) must first equal ``expect_x0``, which is known in advance."""
    pi = _stationary_windows(kern, 3)
    laws = {"x0": {}, "x-1": {}, "pair": {}}
    for w, p in pi.items():  # w = (X_0, X_-1, X_-2)
        for name, cell in (("x0", w[0]), ("x-1", w[1]), ("pair", (w[1], w[0]))):
            laws[name][cell] = laws[name].get(cell, 0.0) + p
    for x, p in zip(kern.alphabet, expect_x0):
        assert laws["x0"][x] == pytest.approx(p, rel=0, abs=1e-12)

    counts = {name: dict.fromkeys(law, 0) for name, law in laws.items()}
    for r in range(n):
        key = StreamKey(seed=seed, replication=r)
        (x1, x0), _ = run_algorithm2(kern, 1, key, plan=plan)
        counts["x0"][x0] += 1
        counts["x-1"][x1] += 1
        counts["pair"][(x1, x0)] += 1
    for name, law in laws.items():
        for cell, p in law.items():
            se = math.sqrt(p * (1.0 - p) / n)
            freq = counts[name][cell] / n
            assert abs(freq - p) <= 4.0 * se, (name, cell, freq, p)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-past"])
def test_coupled_draws_follow_the_stationary_law(shared):
    kern = _kernel("path:3")
    _check_walk_draws(kern, _plan(kern, shared), (2 / 7, 3 / 7, 2 / 7), 3000, 41)


def test_shared_draws_follow_the_stationary_law_of_path5():
    # pi(X_0) is proportional to the closed-neighbourhood sizes (2, 3, 3,
    # 3, 2), as on path:3, so it is not uniform.  A per-past draw takes
    # about 6 400 windows (about 1 s) here, too slow for this suite, so
    # only the shared plan is checked
    kern = _kernel("path:5")
    plan = prepare_coalescence(kern)
    assert plan.shared
    expect = tuple(c / 13 for c in (2, 3, 3, 3, 2))
    _check_walk_draws(kern, plan, expect, 3000, 47)


def test_shared_draws_on_cycle5_are_uniform():
    # rotating the 5-cycle maps the kernel to itself, so pi(X_0) is uniform
    kern = _kernel("cycle:5")
    plan = prepare_coalescence(kern)
    assert plan.shared
    _check_walk_draws(kern, plan, (1 / 5,) * 5, 3000, 53)


def _stopped_law(name, rounds):
    """(P(X_0 = a, stopped within ``rounds``) by letter a, P(cut), paths)
    of a k = 0 draw on ``KERNELS[name]``'s shared plan, by enumeration."""
    kern = _kernel(name)
    plan = _plan(kern, True)

    def newest(us):
        try:
            xs, _ = run_algorithm2(
                kern, 0, StreamKey(0), max_rounds=rounds, plan=plan, uniforms=us
            )
        except MaxRoundsExceeded:
            return None
        return xs[0]

    law = dict.fromkeys(kern.alphabet, 0.0)
    cut = 0.0
    paths = 0
    for prob, x in enumerate_paths(newest):
        paths += 1
        if x is None:
            cut += prob
        else:
            law[x] += prob
    return law, cut, paths


# (kernel, round cap, decision paths the enumeration walks)
BRACKETS = [
    ("path:3", 0, 21),
    ("path:3", 1, 286),
    ("path:3", 2, 4139),
    ("geometric:0.4", 0, 37),
    ("geometric:0.4", 1, 1153),
]


@pytest.mark.parametrize("name,rounds,paths", BRACKETS)
def test_partial_stopped_law_brackets_the_stationary_law(name, rounds, paths):
    # an exact, not a statistical, check: the mass of draws that stop
    # within the cap with X_0 = a can only grow towards pi(a), and what the
    # cap cut off covers the rest
    kern = _kernel(name)
    if name == "path:3":
        pi = _stationary_windows(kern, 3)
        x0 = {a: sum(p for w, p in pi.items() if w[0] == a) for a in kern.alphabet}
    else:
        x0 = dict.fromkeys(kern.alphabet, 0.25)  # rotating cyclic4 maps it to itself
    law, cut, n = _stopped_law(name, rounds)
    assert n == paths
    assert sum(law.values()) + cut == pytest.approx(1.0, rel=0, abs=1e-12)
    for a, p in x0.items():
        assert law[a] <= p + 1e-12, (a, law[a], p)
        assert p <= law[a] + cut + 1e-12, (a, law[a], cut, p)


def _pairs(kernel, route, n, seed):
    """(X_-1, X_0) of n draws of one route."""
    if route == "algo2":
        plan = prepare_coalescence(kernel)
    for r in range(n):
        key = StreamKey(seed=seed, replication=r)
        if route == "algo1":
            xs, _ = run_algorithm1(kernel, 1, key)
        elif route == "joint-tableau":
            vals, _ = run_joint_tableau(kernel, 1, key)  # times 0..1, 1 newest
            xs = (vals[0], vals[1])
        else:
            xs, _ = run_algorithm2(kernel, 1, key, plan=plan)
        yield tuple(xs)


@pytest.mark.parametrize("route", ["algo1", "joint-tableau", "algo2"])
def test_both_routes_follow_the_stationary_law_of_autoregressive(route):
    # with theta_0..theta_2 = 0.5, 0.3, 0.2 the kernel is an order-2 chain
    # on which the spontaneous route and the coupled one (n̂ = n₀ = 1) both
    # apply; each route's (X_-1, X_0) is checked against pi at 4 SE
    kern = build_kernel(
        "autoregressive", {"theta": "list:0.5,0.3,0.2", "delta": 0.3}
    )
    pi = _stationary_windows(kern, 2)
    pair_law = {(w[1], w[0]): p for w, p in pi.items()}  # w = (X_0, X_-1)
    x0_law = {x: sum(p for w, p in pi.items() if w[0] == x) for x in (0, 1)}
    assert x0_law[1] == pytest.approx(1.0 - 0.3, rel=0, abs=1e-12)
    plan = prepare_coalescence(kern)
    assert (plan.nhat, plan.n0) == (1, 1)

    n = 3000
    counts: dict = {}
    for pair in _pairs(kern, route, n, seed=43):
        counts[pair] = counts.get(pair, 0) + 1
    checks = [(pair, p, counts.get(pair, 0)) for pair, p in pair_law.items()]
    checks += [
        (x, p, sum(c for pair, c in counts.items() if pair[1] == x))
        for x, p in x0_law.items()
    ]
    assert sum(counts.values()) == n and set(counts) <= set(pair_law)
    for cell, p, hits in checks:
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits / n - p) <= 4.0 * se, (route, cell, hits / n, p)
