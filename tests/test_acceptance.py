"""End-to-end acceptance gate: ten numbered criteria, one summary line each.

Each test computes its criterion from scratch (exact oracles, frozen
constants, or independent simulations), records a PASS/FAIL line through
the conftest registry, and then asserts.  Shared expensive artifacts (the
100k-replication spontaneous-route batch, the 100k-slot coupled run) are
session fixtures so the stated time budgets hold for the whole gate.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from conftest import record_criterion
from perfectsim.backward import run_algorithm1
from perfectsim.coalescence import (
    NotFound,
    compute_n0,
    find_nhat,
    prepare_coalescence,
    run_algorithm2,
)
from perfectsim.diagnostics import exact_T0_tail, renewal_diagnostic, rho_exact
from perfectsim.gallery import (
    GALLERY,
    build_kernel,
    make_autoregressive,
    make_cyclic4,
    make_flipflop,
    make_imitation,
    make_imitation_general,
    make_three_letter_alternating,
    flipflop_r,
    theta_geometric,
    uniform_lookback,
)
from perfectsim.kernels import STAR, validate_kernel
from perfectsim.streams import StreamKey, uniform_at

BATCH_SEED = 20260814
RUNS_COMPLETED = Counter()


@pytest.fixture(scope="session")
def autoreg():
    return make_autoregressive(theta_geometric(0.5), 0.3)


@pytest.fixture(scope="session")
def spontaneous_batch(autoreg):
    """100_000 single-target spontaneous-route runs: (x0 draws, depths, secs)."""
    t0 = time.perf_counter()
    xs, depths = [], []
    for rep in range(100_000):
        syms, rec = run_algorithm1(autoreg, 0, StreamKey(BATCH_SEED, rep))
        xs.append(syms[0])
        depths.append(-rec.T[0])
    elapsed = time.perf_counter() - t0
    RUNS_COMPLETED["spontaneous"] += len(xs)
    return xs, depths, elapsed


@pytest.fixture(scope="session")
def cyclic():
    return make_cyclic4(theta_geometric(0.5))


@pytest.fixture(scope="session")
def coupled_long_run(cyclic):
    """One 100_001-slot coupled run plus its consecutive-pair histogram."""
    t0 = time.perf_counter()
    k = 100_000
    xs, rec = run_algorithm2(
        cyclic, k, StreamKey(seed=0, replication=0), max_rounds=10**6
    )
    pairs = Counter(zip(xs, xs[1:]))
    elapsed = time.perf_counter() - t0
    RUNS_COMPLETED["coupled-long"] += 1
    return pairs, rec, elapsed


# --------------------------------------------------------------- criterion 1


def test_criterion_01_stopping_tail_matches_the_exact_law(
    autoreg, spontaneous_batch
):
    _, depths, elapsed = spontaneous_batch
    n = 50_000
    sample = depths[:n]
    assert exact_T0_tail(autoreg, 0) == 0.5  # exact, not approximate
    worst = 0.0
    for j in range(7):
        p = exact_T0_tail(autoreg, j)
        emp = sum(1 for d in sample if d > j) / n
        se = math.sqrt(p * (1.0 - p) / n)
        worst = max(worst, abs(emp - p) / se)
        ok = abs(emp - p) <= 4.0 * se
        if not ok:
            record_criterion(
                1, False, f"tail at {j}: |{emp:.5f} - {p:.5f}| > 4 SE"
            )
            assert ok
    detail = (
        f"7 tail points within 4 SE of the exact law "
        f"(worst {worst:.2f} SE, {n} runs, batch {elapsed:.1f}s)"
    )
    passed = elapsed < 120.0
    record_criterion(1, passed, detail)
    assert passed


# --------------------------------------------------------------- criterion 2


def test_criterion_02_stationary_mean_of_the_newest_letter(
    autoreg, spontaneous_batch
):
    xs, _, elapsed = spontaneous_batch
    n = len(xs)
    mean = sum(xs) / n
    se = math.sqrt(0.7 * 0.3 / n)
    dev = abs(mean - 0.7)
    detail = f"mean x0 = {mean:.5f} vs 0.7 ({dev / se:.2f} SE, {n} runs)"
    passed = dev <= 3.0 * se and elapsed < 120.0
    record_criterion(2, passed, detail)
    assert passed


# --------------------------------------------------------------- criterion 3


def test_criterion_03_expected_stopping_depth_obeys_the_bound(
    autoreg, spontaneous_batch
):
    _, depths, elapsed = spontaneous_batch
    n = len(depths)
    mean = sum(depths) / n
    var = sum((d - mean) ** 2 for d in depths) / (n - 1)
    se = math.sqrt(var / n)
    c_hat = 1.0
    for j in range(1, 41):
        c_hat *= 1.0 - 0.5**j
    bound = (1.0 - c_hat) / c_hat
    detail = (
        f"E depth = {mean:.4f} <= (1-c)/c = {bound:.4f} + 3 SE "
        f"(SE {se:.4f}, {n} runs)"
    )
    passed = mean <= bound + 3.0 * se and elapsed < 120.0
    record_criterion(3, passed, detail)
    assert passed


# -------------------------------------------------------------- criterion 4a


def test_criterion_04a_letter_string_mass_identity(autoreg):
    worst = 0.0
    for n in range(1, 11):
        prod = 1.0
        for j in range(1, n + 1):
            prod *= 1.0 - 0.5**j
        worst = max(worst, abs(rho_exact(autoreg, n) - prod))
    detail = f"enumerated mass vs product, n <= 10: max |diff| = {worst:.2e}"
    passed = worst <= 1e-12
    record_criterion("4a", passed, detail)
    assert passed


# -------------------------------------------------------------- criterion 4b


def test_criterion_04b_closed_class_mass_identity_as_claimed(cyclic):
    from perfectsim.diagnostics import rho_tilde_exact

    nhat, ana = find_nhat(cyclic, 8)
    claimed = cyclic.closed_forms["rho_tilde_claimed"]
    worst = 0.0
    for n in range(1, 7):
        worst = max(worst, abs(rho_tilde_exact(cyclic, ana, n) - claimed(n)))
    detail = (
        f"enumerated closed-class mass vs the closed-form table's claim, "
        f"n <= 6: max |diff| = {worst:.2e}"
    )
    passed = worst <= 1e-12
    record_criterion("4b", passed, detail)
    assert passed


# --------------------------------------------------------------- criterion 5


def test_criterion_05_order_selection_across_the_catalog(cyclic):
    nhat_found = find_nhat(cyclic, 8)
    assert not isinstance(nhat_found, NotFound)
    nhat, ana = nhat_found
    n0 = compute_n0(ana)
    ok_cycle = nhat == 1 and n0 == 2

    negatives = {
        "flipflop": find_nhat(make_flipflop(flipflop_r(0.5, 0.5)), 6),
        "three-letter": find_nhat(
            make_three_letter_alternating(restrict_histories=False), 6
        ),
    }
    ok_neg = True
    classes_seen = []
    for name, found in negatives.items():
        if not isinstance(found, NotFound) or set(found.reports) != set(
            range(1, 7)
        ):
            ok_neg = False
            continue
        for reason in found.reports.values():
            if "closed classes" in reason:
                classes_seen.append(int(reason.split()[0]))
            elif "beta" not in reason:
                ok_neg = False
    ok_neg = bool(ok_neg and classes_seen and min(classes_seen) >= 2)

    span = (
        f"{min(classes_seen)}..{max(classes_seen)}" if classes_seen else "no"
    )
    detail = (
        f"cycle walk order 1 / exact-walk length 2; hold-type kernels "
        f"rejected at every order <= 6 with {span} closed classes"
    )
    passed = ok_cycle and ok_neg
    record_criterion(5, passed, detail)
    assert passed


# --------------------------------------------------------------- criterion 6


def test_criterion_06_outputs_depend_only_on_the_probed_window(
    autoreg, cyclic
):
    t0 = time.perf_counter()
    # spontaneous route: re-key every time below the stopping depth
    for rep in range(200):
        key = StreamKey(seed=31337, replication=rep)
        syms, rec = run_algorithm1(autoreg, 2, key)
        cut = rec.t_min(-2, 0)
        rekey = StreamKey(seed=424243, replication=rep)

        def hooked(t, _key=key, _rekey=rekey, _cut=cut):
            return uniform_at((_key if t >= _cut else _rekey).at(t))

        syms2, rec2 = run_algorithm1(autoreg, 2, key, uniforms=hooked)
        assert syms2 == syms and rec2.T == rec.T
        assert rec2.uniforms_consumed == rec.uniforms_consumed
    RUNS_COMPLETED["spontaneous"] += 400

    # coupled route: re-key every time below the last window probed
    plan = prepare_coalescence(cyclic, 8, 64)
    for rep in range(50):
        key = StreamKey(seed=777, replication=rep)
        syms, rec = run_algorithm2(cyclic, 0, key, plan=plan)
        cut = -(rec.rounds_used + 1) * plan.n0 + 1
        rekey = StreamKey(seed=424244, replication=rep)

        def hooked2(t, pid, _key=key, _rekey=rekey, _cut=cut):
            return uniform_at((_key if t >= _cut else _rekey).at(t, pid))

        syms2, rec2 = run_algorithm2(cyclic, 0, key, plan=plan, uniforms=hooked2)
        assert syms2 == syms and rec2.T == rec.T
        assert rec2.rounds_used == rec.rounds_used
    RUNS_COMPLETED["coupled"] += 100
    elapsed = time.perf_counter() - t0
    detail = (
        f"200 spontaneous + 50 coupled runs bit-identical after re-keying "
        f"all uniforms below the probed window ({elapsed:.1f}s)"
    )
    passed = elapsed < 120.0
    record_criterion(6, passed, detail)
    assert passed


# --------------------------------------------------------------- criterion 7


def test_criterion_07_threshold_monotonicity_never_tripped(
    spontaneous_batch, coupled_long_run
):
    # every sampler run chains increment scans behind an in-loop
    # threshold check (u >= threshold, raising KernelContractViolation,
    # also under python -O); any violation would have failed the batches
    # above
    total = sum(RUNS_COMPLETED.values())
    detail = (
        f"{total} sampler runs completed without tripping the in-loop "
        f"threshold check"
    )
    passed = total >= 100_000
    record_criterion(7, passed, detail)
    assert passed


# --------------------------------------------------------------- criterion 8


def _copy_oracle_alpha(c, K, g, w, ext=8):
    """Exact adversarial infimum for the copying law by brute force.

    The law is c_g + (1 - sum c) * (matches in the lookback)/m with
    m = x_{-1}: monotone in each match indicator, so scanning the first
    slot over all K letters and every other unknown slot over {g, not-g}
    visits a completion attaining the infimum.
    """
    rest = 1.0 - sum(c)
    slots = list(w) + [STAR] * ext
    free = [i for i, x in enumerate(slots) if x is STAR]
    nong = 1 if g != 1 else 2
    choices = [
        tuple(range(1, K + 1)) if i == 0 else (g, nong) for i in free
    ]
    best = None
    for combo in itertools.product(*choices):
        hist = slots[:]
        for i, val in zip(free, combo):
            hist[i] = val
        m = hist[0]
        hits = sum(1 for lag in range(m) if hist[lag] == g)
        p = (c[g - 1] if g <= len(c) else 0.0) + rest * hits / m
        if best is None or p < best:
            best = p
    return best


def test_criterion_08_randomized_and_exact_contract_checks():
    t0 = time.perf_counter()
    failures = []
    for name in GALLERY:
        report = validate_kernel(build_kernel(name, {}), trials=1000, rng_seed=2)
        if not report.passed:
            failures.append((name, str(report.violations[0])))

    c, K = (0.3, 0.2), 4
    im = make_imitation(c, truncation=K)
    img = make_imitation_general(c, uniform_lookback, truncation=K)
    assert im.alphabet == (1, 2, 3, 4)
    worst = 0.0
    points = 0
    sym = (1, 2, 3, 4, STAR)
    for length in range(4):
        for w in itertools.product(sym, repeat=length):
            for g in (1, 2, 3, 4):
                want = _copy_oracle_alpha(c, K, g, w)
                worst = max(worst, abs(im.alpha(g, w) - want))
                worst = max(worst, abs(img.alpha(g, w) - want))
                points += 1
    elapsed = time.perf_counter() - t0
    detail = (
        f"{len(GALLERY)} kernels x 1000 randomized checks clean; copying-law "
        f"brute-force oracle: max |diff| {worst:.2e} over {points} law points "
        f"({elapsed:.1f}s)"
    )
    passed = not failures and worst <= 1e-12 and elapsed < 180.0
    record_criterion(8, passed, detail if not failures else f"{failures}")
    assert passed


# --------------------------------------------------------------- criterion 9


def _forward_pair_histogram(n_pairs, burn, rng):
    """O(1)-per-step forward simulation of the cycle walk from a constant-0
    prehistory: draw the lag, then move by the stay-set rule."""
    hist = [0]
    pairs = Counter()
    for step in range(burn + n_pairs):
        v = hist[-1]
        u = rng.random()
        acc, j = 0.5, 0
        while u >= acc:
            j += 1
            acc += 0.5 ** (j + 1)
        if j == 0:
            g = ((v - 1) % 4, v, (v + 1) % 4)[rng.randrange(3)]
        else:
            y = hist[-j] if j <= len(hist) else 0
            g = v if (y == v or y == (v + 2) % 4) else y
        hist.append(g)
        if step >= burn:
            pairs[(hist[-2], hist[-1])] += 1
    return pairs


def test_criterion_09_coupled_run_matches_a_forward_burn_in(
    cyclic, coupled_long_run
):
    back_pairs, rec, elapsed = coupled_long_run
    n = sum(back_pairs.values())
    assert n == 100_000

    fwd_pairs = _forward_pair_histogram(100_000, 10_000, random.Random(987))
    tv = 0.5 * sum(
        abs(back_pairs.get(cell, 0) / n - fwd_pairs.get(cell, 0) / 100_000)
        for cell in {(a, b) for a in range(4) for b in range(4)}
    )
    detail = (
        f"TV(coupled consecutive pairs, forward burn-in pairs) = {tv:.4f} "
        f"over 16 cells; 100000 pairs, {rec.rounds_used} windows, "
        f"{elapsed:.0f}s"
    )
    passed = tv < 0.02 and elapsed < 600.0
    record_criterion(9, passed, detail)
    assert passed


# -------------------------------------------------------------- criterion 10


def test_criterion_10_renewal_halves_agree(autoreg):
    t0 = time.perf_counter()
    rep = renewal_diagnostic(autoreg, 50, 5000, StreamKey(424242, 10**9))
    elapsed = time.perf_counter() - t0
    bias = exact_T0_tail(autoreg, 50)
    detail = (
        f"{rep.renewal_count} renewals, gap means "
        f"{rep.gap_mean_first:.2f}/{rep.gap_mean_second:.2f} "
        f"(z = {rep.z_gap_means:.2f}), horizon-50 truncation bias "
        f"{bias:.3e}, {elapsed:.1f}s"
    )
    passed = (
        rep.renewal_count >= 200
        and not rep.low_counts
        and rep.halves_agree_3se is True
        and rep.truncation_bias == bias
        and elapsed < 300.0
    )
    record_criterion(10, passed, detail)
    assert passed
