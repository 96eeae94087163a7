"""Gallery kernels against hand-derived values and cross-model identities."""

import dataclasses
import hashlib
import itertools
import math
import random

import pytest

from test_acceptance import _copy_oracle_alpha

from perfectsim.coalescence import prepare_coalescence, run_algorithm2
from perfectsim.gallery import (
    GALLERY,
    build_kernel,
    flipflop_r,
    make_autoregressive,
    make_cyclic4,
    make_flipflop,
    make_graph_walk,
    make_imitation,
    make_imitation_general,
    make_ladder,
    make_three_letter_alternating,
    parse_theta,
    theta_geometric,
    theta_list,
    theta_polynomial,
    uniform_lookback,
)
from perfectsim.kernels import STAR, validate_kernel
from perfectsim.streams import StreamKey

A12 = pytest.approx
TOL = 1e-12


PINNED_ALPHA_SHA256 = "20a6e8ec523c44969e55b624044e134bb33990e9008bb2f6e210531ec2ff92f4"
PINNED_TRIPLES = 441_875


def ap(x):
    return pytest.approx(x, rel=0, abs=TOL)


# ------------------------------------------------------------ weight families


def test_geometric_weights_are_exact_powers():
    th = theta_geometric(0.5)
    assert th.theta(0) == 0.5
    assert th.theta(3) == 0.5**4
    assert th.s(1) == 0.5
    assert th.s(7) == 0.5**7
    assert th.support is None
    total = math.fsum(th.theta(j) for j in range(41)) + th.s(41)
    assert total == ap(1.0)


def test_finite_weight_lists():
    th = theta_list([0.5, 0.3, 0.2])
    assert [th.theta(j) for j in range(4)] == [0.5, 0.3, 0.2, 0.0]
    assert th.s(1) == ap(0.5)
    assert th.s(2) == ap(0.2)
    assert th.s(3) == 0.0
    assert th.support == 2


def test_polynomial_weights_are_consistent():
    th = theta_polynomial(0.5)
    for j in range(0, 30):
        assert th.theta(j) >= -TOL
        assert th.theta(j) == ap(th.s(j) - th.s(j + 1))
        assert th.s(j) > th.s(j + 1) > 0.0


def test_weight_spec_parsing():
    assert parse_theta("geometric:0.5").label == "geometric:0.5"
    assert parse_theta("list:0.5,0.3,0.2").support == 2
    assert parse_theta("polynomial:0.5").theta(0) == parse_theta(
        "polynomial:0.5"
    ).theta(0)
    with pytest.raises(ValueError):
        parse_theta("nope:1")


# ----------------------------------------------------------- matching model


def test_matching_model_hand_values():
    au = make_autoregressive(theta_geometric(0.5), 0.3)
    assert au.alpha(0, ()) == ap(0.15)
    assert au.alpha(1, ()) == ap(0.35)
    assert au.alpha(1, (1,)) == ap(0.6)
    assert au.alpha(1, (1, 1)) == ap(0.725)
    assert au.alpha(0, (0, STAR, 0)) == ap(0.15 + 0.25 + 0.0625)
    assert au.beta((1, 0)) == ap(0.875)
    assert au.closed_forms["beta_known_prefix"](2) == ap(0.875)


def test_matching_model_closed_forms():
    au = make_autoregressive(theta_geometric(0.5), 0.3)
    cf = au.closed_forms
    for name in (
        "s",
        "theta",
        "star_affine",
        "beta_known_prefix",
        "rho",
        "additive_weight",
        "stationary_mean",
    ):
        assert name in cf
    assert cf["additive_weight"](1, 3, 1) == ap(0.0625)
    assert cf["additive_weight"](1, 3, 0) == 0.0
    assert cf["stationary_mean"] == ap(0.7)
    for n in (1, 2, 5):
        prod = 1.0
        for j in range(1, n + 1):
            prod *= 1.0 - cf["s"](j)
        assert cf["rho"](n) == ap(prod)


def _autoregressive_alpha_by_definition(theta, delta, g, w):
    # base mass, then theta_{j+1} for each known lag j holding g, folded in
    # ascending j
    if g not in (0, 1):
        return 0.0
    acc = theta.theta(0) * (delta if g == 0 else 1.0 - delta)
    for j, x in enumerate(w):
        if x is not STAR and x == g:
            acc += theta.theta(j + 1)
    return acc


@pytest.mark.parametrize(
    "label", ["geometric:0.8", "polynomial:0.3", "list:0.5,0.3,0.2"]
)
def test_autoregressive_alpha_is_its_ascending_fold(label):
    # alpha keeps a table of lag weights grown to the longest window seen,
    # so the same windows (trailing stars and letters outside {0, 1}
    # included) are visited long-first and short-first on fresh kernels
    theta = parse_theta(label)
    rng = random.Random(17)
    windows = [
        tuple(rng.choice((0, 1, STAR, 2, -1)) for _ in range(rng.randrange(60)))
        + (STAR,) * rng.randrange(4)
        for _ in range(300)
    ]
    for reverse in (True, False):
        au = make_autoregressive(theta, 0.3)
        for w in sorted(windows, key=len, reverse=reverse):
            for g in (0, 1, 2, -1):
                want = _autoregressive_alpha_by_definition(theta, 0.3, g, w)
                assert au.alpha(g, w) == want, (g, w)


# ----------------------------------------------------------- copying models


def test_copying_model_hand_values():
    im = make_imitation((0.3, 0.2), truncation=4)
    assert im.alpha(1, (2,)) == ap(0.3)
    assert im.alpha(1, (1,)) == ap(0.8)
    assert im.alpha(2, (1, 2)) == ap(0.2)
    assert im.alpha(2, (2, 2)) == ap(0.7)
    assert im.alpha(1, ()) == ap(0.3)
    assert im.beta(()) == ap(0.5)


def test_copying_model_countable_alphabet_support():
    im = make_imitation((0.3, 0.2))
    assert im.alphabet is None
    assert im.positive_letters((5, STAR, 2)) == (1, 2, 5)
    assert im.alpha(3, (3, 3, 3)) == ap(0.5)
    assert im.alpha(1, ()) == ap(0.3)


def test_copying_model_agrees_with_the_brute_force_infimum():
    # make_imitation is the profile model with the uniform lookback; the
    # oracle enumerates completions of the window, at a truncation where
    # lookbacks of 5 and 6 make the profile's sums of 1/m round differently
    # from counts over m
    c, K = (0.3, 0.2), 6
    im = make_imitation(c, truncation=K)
    sym = tuple(range(1, K + 1)) + (STAR,)
    for length in range(3):
        for w in itertools.product(sym, repeat=length):
            for g in range(1, K + 1):
                assert im.alpha(g, w) == ap(_copy_oracle_alpha(c, K, g, w))


def test_uniform_lookback_profile():
    assert uniform_lookback(4) == (0.25, 0.25, 0.25, 0.25)


def test_threshold_model_hand_values():
    lad = make_ladder((0.3, 0.2))
    assert lad.alpha(1, (1,)) == ap(0.8)
    assert lad.alpha(2, (1,)) == ap(0.2)
    assert lad.alpha(1, (2,)) == ap(0.3)
    assert lad.beta(()) == ap(0.5)
    lad4 = make_ladder((0.3, 0.2), truncation=4)
    assert lad4.alpha(1, (2,)) == ap(0.3 + 0.5 / 7.0)


# ------------------------------------------------------------- walk models


def test_cycle_walk_hand_values():
    cy = make_cyclic4(theta_geometric(0.5))
    assert cy.alpha(0, (0,)) == ap(0.41666666666666663)
    assert cy.alpha(1, (0,)) == ap(1.0 / 6.0)
    assert cy.alpha(2, (0,)) == 0.0
    assert cy.beta((0,)) == ap(0.75)
    # with nothing known the adversary can park the walker two steps away
    # from any requested letter, so no letter keeps guaranteed mass
    assert cy.beta(()) == 0.0


def test_cycle_walk_known_history_masses_partition():
    # with a long fully-known history every letter's stay-set is hit, so
    # the masses must sum to 1 exactly (up to float accumulation)
    cy = make_cyclic4(theta_geometric(0.5))
    w = (0, 1, 2, 3) * 10
    total = sum(cy.alpha(g, w) for g in range(4))
    assert total == pytest.approx(1.0, rel=0, abs=1e-9)
    assert cy.beta(w) == pytest.approx(total, rel=0, abs=TOL)


def test_cycle_walk_agrees_with_generic_graph_walk():
    # dedicated fast paths vs the generic path-counting walk: exact match
    cy = make_cyclic4(theta_geometric(0.5))
    gw = make_graph_walk(
        {v: {(v - 1) % 4, (v + 1) % 4} for v in range(4)}, theta_geometric(0.5)
    )
    sym = (0, 1, 2, 3, STAR)
    for length in range(4):
        for w in itertools.product(sym, repeat=length):
            for g in range(4):
                assert cy.alpha(g, w) == ap(gw.alpha(g, w))


def test_known_window_fold_matches_the_path_dp():
    # on the path 0-1-2-3-4 the letter between a and a+2 is forced, so a
    # window starred there has one completion, and the path DP must land
    # on the fully known window's fold to the bit (escapes of length 2
    # and 3 occur on this graph)
    for label in ("geometric:0.5", "list:0.4,0.3,0.2,0.1"):
        gw = build_kernel("graph-walk", {"graph": "path:5", "theta": label})
        rng = random.Random(5)
        checked = 0
        for _ in range(300):
            w = [rng.randrange(5)]
            for _ in range(rng.randrange(2, 12)):
                w.append(rng.choice([u for u in range(5) if abs(u - w[-1]) <= 1]))
            for i in range(1, len(w) - 1):
                if abs(w[i - 1] - w[i + 1]) == 2:
                    starred = tuple(w[:i]) + (STAR,) + tuple(w[i + 1 :])
                    for g in range(5):
                        assert gw.alpha(g, starred) == gw.alpha(g, tuple(w))
                    checked += 1
        assert checked > 100


# ------------------------------------------------------ float-exact horizon


def _cut(w, horizon):
    """w up to its first known letter at or past position horizon - 1."""
    for j in range(horizon - 1, len(w)):
        if w[j] is not STAR:
            return w[: j + 1]
    return w


@pytest.mark.parametrize(
    "label,expected",
    [
        ("geometric:0.1", 17),
        ("geometric:0.4", 43),
        ("geometric:0.5", 57),
        ("geometric:0.8", 178),
        ("list:0.5,0.3,0.2", 3),
    ],
)
def test_walk_horizon_bounds_every_later_weight(label, expected):
    kernels = [
        (make_cyclic4(parse_theta(label)), 3),
        (build_kernel("graph-walk", {"graph": "complete:5", "theta": label}), 5),
        (build_kernel("graph-walk", {"graph": "single", "theta": label}), 1),
    ]
    assert kernels[0][0].closed_forms["exact_horizon"] == expected
    for kern, max_degree in kernels:
        H = kern.closed_forms["exact_horizon"]
        theta, s = kern.closed_forms["theta"], kern.closed_forms["s"]
        b_min = theta(0) / max_degree
        half = math.ulp(b_min) / 2
        # smallest n whose whole tail is below half an ulp of the least cost
        assert s(H) < half <= s(H - 1)
        assert all(theta(i) < half for i in range(H, H + 2000))
        for c in (b_min, 2 * b_min, 0.5, 1.0 - 1e-9):
            assert c + theta(H) == c and c + s(H) == c


def test_walk_horizon_is_absent_for_polynomial_weights():
    for kern in (
        build_kernel("cyclic4", {"theta": "polynomial:0.3"}),
        build_kernel("graph-walk", {"theta": "polynomial:0.3"}),
    ):
        assert kern.closed_forms["exact_horizon"] is None


@pytest.mark.parametrize(
    "name,params,rep",
    [
        ("cyclic4", {"theta": "geometric:0.4"}, 4),
        ("cyclic4", {"theta": "geometric:0.1"}, 7),
        ("graph-walk", {"graph": "cycle:5", "theta": "list:0.5,0.3,0.2"}, 0),
    ],
)
def test_alpha_ignores_letters_past_the_horizon_cut(name, params, rep):
    # realized windows: the long contexts an uncut coupled run builds from
    # its tableau, and copies of them with letters starred at random and
    # around the horizon; their known letters all lie on the sampled path
    kern = build_kernel(name, params)
    H = kern.closed_forms["exact_horizon"]
    seen = []

    def alpha(g, w):
        if len(w) > H:
            seen.append(w)
        return kern.alpha(g, w)

    forms = {k: v for k, v in kern.closed_forms.items() if k != "exact_horizon"}
    uncut = dataclasses.replace(kern, alpha=alpha, closed_forms=forms)
    # per-past streams: their runs of hundreds of windows build the long
    # contexts this test needs
    plan = dataclasses.replace(prepare_coalescence(uncut), shared=False)
    run_algorithm2(uncut, 0, StreamKey(1, rep), plan=plan)
    rng = random.Random(rep)
    windows = []
    for w in seen[:: max(1, len(seen) // 60)]:
        windows.append(w)
        hole = range(max(0, H - 3), min(len(w) - 1, H + 3))
        windows.append(
            tuple(
                STAR if j in hole or rng.random() < 0.3 else x
                for j, x in enumerate(w)
            )
        )
    starred = starfree = 0
    for w in windows:
        c = _cut(w, H)
        if len(c) == len(w):
            continue
        for g in kern.alphabet:
            assert kern.alpha(g, w) == kern.alpha(g, c), (w, g)
        starred += STAR in w
        starfree += STAR not in w
    assert starred >= 20 and starfree >= 20, (starred, starfree)


def test_graph_walk_rejects_bad_graphs():
    with pytest.raises(ValueError):
        make_graph_walk({0: {1}, 1: {2}, 2: {0}}, theta_geometric(0.5))


# ------------------------------------------------------------- run models


def test_hold_model_hand_values():
    ff = make_flipflop(flipflop_r(0.5, 0.5))
    assert ff.beta(()) == 0.0
    assert ff.alpha(0, (0,)) == ap(0.75)
    assert ff.alpha(1, (0,)) == 0.0
    assert ff.alpha(0, (0, 1)) == ap(0.75)
    assert ff.alpha(1, (0, 1)) == ap(0.25)
    assert ff.alpha(0, (0, 0, 1)) == ap(0.875)
    assert ff.alpha(1, (0, 0, 1)) == ap(0.125)
    assert ff.alpha(1, (1, 1, 1, 0)) == ap(0.9375)
    assert ff.beta((0, 1)) == ap(1.0)


def test_three_letter_model_restricted_variant():
    t3 = make_three_letter_alternating()
    assert t3.beta(()) == 0.0
    assert [t3.alpha(g, (0,)) for g in (0, 1, 2)] == [0.0, ap(0.5), ap(0.5)]
    # consecutive equal letters are outside the restricted history set
    assert not t3.admissible_window((0, 0))
    assert [t3.alpha(g, (0, 0)) for g in (0, 1, 2)] == [0.0, 0.0, 0.0]
    assert [t3.alpha(g, (STAR, 1)) for g in (0, 1, 2)] == [0.0, ap(0.5), 0.0]
    assert [t3.alpha(g, (2, 1)) for g in (0, 1, 2)] == [ap(0.5), ap(0.5), 0.0]


def test_three_letter_model_unrestricted_variant():
    t3 = make_three_letter_alternating(restrict_histories=False)
    assert t3.beta(()) == 0.0
    # a bare (x_-1) window says nothing about the run length: no floor mass
    assert [t3.alpha(g, (0,)) for g in (0, 1, 2)] == [0.0, 0.0, 0.0]
    # a run of two holds with probability at least r(2)
    assert [t3.alpha(g, (0, 0)) for g in (0, 1, 2)] == [ap(0.75), 0.0, 0.0]
    assert t3.admissible_window((0, 0))
    assert [t3.alpha(g, (2, 1)) for g in (0, 1, 2)] == [ap(0.5), ap(0.5), 0.0]


# ------------------------------------------------------------ construction


def test_catalog_constructor_plumbs_parameters():
    au = build_kernel("autoregressive", {"theta": "list:1.0", "delta": 0.4})
    assert au.alpha(0, ()) == ap(0.4)
    assert au.parameters["delta"] == 0.4
    im = build_kernel("imitation", {"c": "0.5,0.1", "truncation": 3})
    assert im.alpha(1, ()) == ap(0.5)
    gw = build_kernel("graph-walk", {"graph": "path:3"})
    assert gw.alphabet == (0, 1, 2)
    ff = build_kernel("flipflop", {"r": "0.25,0.5"})
    assert ff.alpha(0, (0,)) == ap(1.0 - 0.25 * 0.5)
    with pytest.raises(ValueError):
        build_kernel("nonesuch", {})
    with pytest.raises(ValueError):
        build_kernel("graph-walk", {"graph": "nope:2"})


@pytest.mark.parametrize("name", GALLERY)
def test_every_catalog_kernel_passes_a_quick_contract_check(name):
    kernel = build_kernel(name, {})
    assert kernel.name
    report = validate_kernel(kernel, trials=60, rng_seed=11)
    assert report.passed, [str(v) for v in report.violations[:3]]


# ------------------------------------------------------------ pinned alpha


def _halving_lookback(m):
    return tuple(2.0**-k for k in range(1, m)) + (2.0 ** (1 - m),)


def _pinned_kernels():
    """(label, kernel, window symbols, max length, letters g to query)."""
    for a, t in ((0.5, 0.5), (0.25, 0.7)):
        kern = make_flipflop(flipflop_r(a, t))
        yield f"flipflop:{a},{t}", kern, (0, 1), 8, range(-1, 3)
    for label, r in (("default", None), ("one-minus:0.3,0.6", flipflop_r(0.3, 0.6))):
        kern = make_three_letter_alternating(r, restrict_histories=False)
        yield f"three-letter:{label}", kern, (0, 1, 2), 6, range(-1, 4)
    kern = make_three_letter_alternating()
    yield "three-letter:restricted", kern, (0, 1, 2), 6, range(-1, 4)
    for trunc in (None, 4):
        symbols = (1, 2, 3, 4) if trunc else (1, 2, 3, 7)
        params = {"c": "0.3,0.2"}
        if trunc is not None:
            params["truncation"] = str(trunc)
        for name in ("imitation", "imitation-general", "ladder"):
            yield f"{name}:{trunc}", build_kernel(name, params), symbols, 5, range(0, 9)
        kern = make_imitation_general((0.3, 0.2), _halving_lookback, trunc)
        yield f"imitation-halving:{trunc}", kern, symbols, 5, range(0, 9)


def test_alpha_bits_are_pinned():
    # sha256 over the exact float bits of alpha and over letters_for, on
    # every window up to a fixed length, including letters outside the
    # alphabet; recorded from the code before the spontaneous-mass and
    # run-length kernels were rebuilt on shared builders, and never to be
    # re-recorded by a change that claims bit-identical kernels
    h = hashlib.sha256()
    triples = 0
    for label, kern, symbols, depth, gs in _pinned_kernels():
        for n in range(depth + 1):
            for w in itertools.product(symbols + (STAR,), repeat=n):
                bits = [kern.alpha(g, w).hex() for g in gs]
                letters = tuple(kern.letters_for(w))
                h.update(f"{label}|{w!r}|{letters!r}|{bits}".encode())
                triples += len(bits)
    assert triples == PINNED_TRIPLES
    assert h.hexdigest() == PINNED_ALPHA_SHA256
