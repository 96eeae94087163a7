"""Window helpers, cumulative scans, the two-stage increment scan, and the
randomized contract checker."""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from perfectsim.gallery import (
    GALLERY,
    build_kernel,
    make_autoregressive,
    make_imitation,
    theta_geometric,
)
from perfectsim.kernels import (
    STAR,
    KernelContractViolation,
    KernelSpec,
    _pick,
    _random_window,
    _scan,
    _table,
    canon,
    known_positions,
    sample_symbol,
    sample_symbol_increment,
    validate_kernel,
)


def _toy(pa=0.3, pb=0.2):
    return KernelSpec(
        name="toy",
        parameters={},
        alphabet=("a", "b"),
        alpha=lambda g, w: {"a": pa, "b": pb}[g],
    )


def _autoreg():
    return make_autoregressive(theta_geometric(0.5), 0.3)


# ---------------------------------------------------------------- windows


def test_canon_strips_trailing_stars_only():
    assert canon(()) == ()
    assert canon((1, STAR)) == (1,)
    assert canon((STAR, 1, STAR, STAR)) == (STAR, 1)
    assert canon((STAR,)) == ()
    assert canon([2, STAR, 3]) == (2, STAR, 3)


def test_known_positions_skips_stars():
    assert list(known_positions((5, STAR, 7))) == [(0, 5), (2, 7)]
    assert list(known_positions(())) == []


def test_star_is_a_pickled_singleton():
    assert type(STAR)() is STAR
    assert repr(STAR) == "*"
    assert pickle.loads(pickle.dumps(STAR)) is STAR


# ---------------------------------------------------------------- scans


def test_scan_boundaries_follow_alphabet_order():
    toy = _toy()
    assert toy.beta(()) == 0.5  # default beta is the cumulative scan total
    assert sample_symbol(toy, 0.2999, ()) == "a"
    assert sample_symbol(toy, 0.3, ()) == "b"  # strict u < threshold
    assert sample_symbol(toy, 0.499, ()) == "b"
    assert sample_symbol(toy, 0.5, ()) is STAR  # star iff u >= beta
    assert sample_symbol(toy, 0.999, ()) is STAR


def test_scan_rejects_out_of_range_uniforms():
    toy = _toy()
    with pytest.raises(ValueError):
        sample_symbol(toy, 1.0, ())
    with pytest.raises(ValueError):
        sample_symbol(toy, -0.1, ())


def test_scan_rejects_over_unit_letter_mass():
    bad = KernelSpec("bad", {}, ("a",), lambda g, w: 1.5)
    with pytest.raises(KernelContractViolation):
        sample_symbol(bad, 0.4, ())


def test_trailing_stars_never_change_the_scan():
    au = _autoreg()
    for w in ((), (1,), (0, 1)):
        padded = w + (STAR, STAR)
        assert au.beta(padded) == pytest.approx(au.beta(w), rel=0, abs=1e-15)
        for u in (0.1, 0.45, 0.8):
            assert sample_symbol(au, u, padded) == sample_symbol(au, u, w)


# ------------------------------------------------------- increment scans


def test_increment_scan_zero_increment_matches_direct_scan():
    # Revealing position 0 as letter 1 adds mass only to letter 1, so the
    # refined partition coincides with the direct scan of the new window.
    au = _autoreg()
    base = au.beta((STAR,))
    assert base == pytest.approx(0.5, rel=0, abs=1e-15)
    for u in [0.5 + i * (0.5 / 400.0) for i in range(400)]:
        two_stage = sample_symbol_increment(au, u, (1,), (STAR,), base)
        assert two_stage == sample_symbol(au, u, (1,))
    assert sample_symbol_increment(au, 0.74999, (1,), (STAR,), base) == 1
    assert sample_symbol_increment(au, 0.75, (1,), (STAR,), base) is STAR


def test_increment_scan_is_the_smallest_letter_clearing_the_chained_bound():
    # the wrapper trusts threshold_old (the samplers assert u >= threshold
    # before calling): a u below it just lands on the first letter whose
    # cumulative chained bound exceeds it
    au = _autoreg()
    base = au.beta((STAR,))
    assert sample_symbol_increment(au, 0.2, (1,), (STAR,), base) == 0
    assert sample_symbol_increment(au, 0.5, (1,), (STAR,), base) == 1


def test_increment_scan_preserves_letter_measure_under_reshuffling():
    # Revealing two positions at once appends both letters' gained mass
    # after the old threshold, so individual u's can land on different
    # letters than the direct scan would give -- but the total measure of
    # each letter must agree exactly.
    au = _autoreg()
    w_old, w_new = (STAR, STAR, 1), (0, 1, 1)
    base = au.beta(w_old)
    assert base == pytest.approx(0.5625, rel=0, abs=1e-12)
    assert au.alpha(0, w_new) == pytest.approx(0.4, rel=0, abs=1e-12)
    assert au.alpha(1, w_new) == pytest.approx(0.5375, rel=0, abs=1e-12)

    # a witness u where the two partitions disagree letter-wise
    assert sample_symbol(au, 0.6, w_new) == 1
    assert sample_symbol_increment(au, 0.6, w_new, w_old, base) == 0

    n = 8000
    direct = {0: 0, 1: 0, STAR: 0}
    staged = {0: 0, 1: 0, STAR: 0}
    for i in range(n):
        u = (i + 0.5) / n
        direct[sample_symbol(au, u, w_new)] += 1
        if u < base:
            staged[sample_symbol(au, u, w_old)] += 1
        else:
            staged[sample_symbol_increment(au, u, w_new, w_old, base)] += 1
    for g in (0, 1, STAR):
        assert abs(direct[g] - staged[g]) / n < 1e-3


def test_increment_scan_rejects_negative_increments():
    shrinking = KernelSpec(
        "shrinking",
        {},
        (0, 1),
        lambda g, w: 0.4 if any(x is STAR for x in canon(w)) else 0.2,
    )
    with pytest.raises(KernelContractViolation):
        sample_symbol_increment(shrinking, 0.85, (0, 0), (STAR, 0), 0.8)


# -------------------------------------------------------------- properties

_win = st.lists(st.sampled_from([0, 1, STAR]), max_size=5).map(tuple)


@given(w=_win, u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(deadline=None)
def test_star_exactly_when_u_reaches_beta(w, u):
    au = _autoreg()
    sym = sample_symbol(au, u, w)
    assert (sym is STAR) == (u >= au.beta(w))
    assert sym in (0, 1, STAR)


def _running_sum_symbol(kernel, u, w):
    """The scan written out: first letter whose running mass exceeds u."""
    acc = 0.0
    for g in kernel.letters_for(w):
        acc += kernel.alpha(g, w)
        if u < acc:
            return g
    return STAR


@pytest.mark.parametrize(
    "kernel, letters",
    [(_autoreg(), [0, 1, STAR]), (make_imitation((0.3, 0.2)), [1, 2, 3, STAR])],
    ids=["autoregressive", "imitation"],
)
@given(data=st.data(), u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(deadline=None)
def test_pick_matches_a_running_sum_scan(kernel, letters, data, u):
    # the bisect on the cumulative table against a plain loop, at a random
    # u and at every cumulative breakpoint, where a tie goes to the next
    # letter
    w = canon(data.draw(st.lists(st.sampled_from(letters), max_size=5).map(tuple)))
    breaks = []
    acc = 0.0
    for g in kernel.letters_for(w):
        acc += kernel.alpha(g, w)
        breaks.append(acc)
    for v in [u] + [b for b in breaks if b < 1.0]:
        assert sample_symbol(kernel, v, w) == _running_sum_symbol(kernel, v, w)


@pytest.mark.parametrize("name", GALLERY)
def test_a_stopped_scan_picks_what_the_full_table_picks(name):
    # a one-off draw scans alpha only up to the letter it picks; at every
    # cumulative breakpoint and the floats either side of it, the prefix
    # gives the symbol and total of the whole table
    kernel = build_kernel(name, {})
    calls = []
    counted = dataclasses.replace(
        kernel, alpha=lambda g, w: calls.append(g) or kernel.alpha(g, w)
    )
    rng = random.Random(11)
    for _ in range(40):
        w = canon(_random_window(kernel, rng))
        full = _table(kernel, w)
        us = {0.0, rng.random()}
        for c in full[1]:
            us.update((math.nextafter(c, -1.0), c, math.nextafter(c, 2.0)))
        for u in sorted(v for v in us if 0.0 <= v < 1.0):
            want = _pick(full, u)
            del calls[:]
            prefix = _table(counted, w, u)
            assert _pick(prefix, u) == want == _scan(kernel, u, w), (w, u)
            assert len(calls) == len(prefix[1])
            if want[0] is not STAR:
                assert calls[-1] == want[0]
            else:
                assert prefix[1] == full[1]


@st.composite
def _refinement(draw):
    letters = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=5))
    mask = draw(
        st.lists(st.booleans(), min_size=len(letters), max_size=len(letters))
    )
    if not any(mask):
        mask[draw(st.integers(0, len(letters) - 1))] = True
    w_old = tuple(STAR if m else x for x, m in zip(letters, mask))
    reveal = draw(st.sampled_from([j for j, m in enumerate(mask) if m]))
    w_new = tuple(
        x if (not m or j == reveal) else STAR
        for j, (x, m) in enumerate(zip(letters, mask))
    )
    return w_old, w_new


@given(pair=_refinement())
@settings(deadline=None)
def test_revealing_a_star_never_loses_letter_mass(pair):
    au = _autoreg()
    w_old, w_new = pair
    for g in (0, 1):
        assert au.alpha(g, w_new) >= au.alpha(g, w_old) - 1e-12
    assert au.beta(w_new) >= au.beta(w_old) - 1e-12


# -------------------------------------------------------------- validation


def test_validator_passes_a_lawful_kernel():
    report = validate_kernel(_toy(), trials=50, rng_seed=3)
    assert report.passed
    assert report.trials == 50
    assert report.checks_run == 50
    assert report.violations == []


def test_validator_catches_refinement_violations():
    shrinking = KernelSpec(
        "shrinking",
        {},
        (0, 1),
        lambda g, w: 0.4 if any(x is STAR for x in canon(w)) else 0.2,
    )
    report = validate_kernel(shrinking, trials=120, rng_seed=5)
    assert not report.passed
    assert report.violations
    assert any("refinement" in str(v) for v in report.violations)


def test_validator_checks_the_additive_weight_hook():
    # run_algorithm1 folds additive_weight instead of scanning alpha, so a
    # hook that disagrees with alpha is flagged; the true hook is clean, and
    # the check adds no trial to checks_run
    au = _autoreg()
    theta = au.closed_forms["theta"]
    doubled = dataclasses.replace(
        au,
        closed_forms=dict(
            au.closed_forms,
            additive_weight=lambda g, lag, v: 2.0 * theta(lag) if v == g else 0.0,
        ),
    )
    clean = validate_kernel(au, trials=200, rng_seed=7)
    assert clean.passed and clean.checks_run == 200
    report = validate_kernel(doubled, trials=200, rng_seed=7)
    assert report.checks_run == 200
    assert report.violations
    assert all(v.startswith("additive_weight fold") for v in report.violations)


def test_validator_requires_at_least_one_trial():
    with pytest.raises(ValueError):
        validate_kernel(_toy(), trials=0, rng_seed=0)
