"""Exact enumeration oracles, condition reports, and the renewal check."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from perfectsim.backward import (
    BetaZeroForAlgo1,
    run_algorithm1,
    run_auxiliary_chain,
    run_joint_tableau,
)
from perfectsim.coalescence import NotFound, find_nhat
from perfectsim.diagnostics import (
    ExplosionGuard,
    check_theorem_conditions,
    concentration_bound,
    exact_T0_tail,
    renewal_diagnostic,
    rho_exact,
    rho_tilde_exact,
)
from perfectsim.gallery import (
    GALLERY,
    build_kernel,
    flipflop_r,
    make_autoregressive,
    make_cyclic4,
    make_flipflop,
    make_imitation,
    theta_geometric,
    theta_list,
    theta_polynomial,
)
from perfectsim.kernels import STAR
from perfectsim.streams import StreamKey


def _autoreg():
    return make_autoregressive(theta_geometric(0.5), 0.3)


def _no_closed_form_tail(kernel):
    """Same kernel with the tail recursion's closed form stripped, forcing
    exact_T0_tail down the independent star-string enumeration path."""
    forms = {k: v for k, v in kernel.closed_forms.items() if k != "star_affine"}
    return dataclasses.replace(kernel, closed_forms=forms)


# ------------------------------------------------------------- tail masses


def test_tail_at_zero_is_the_leftover_mass():
    au = _autoreg()
    assert exact_T0_tail(au, 0) == 0.5


def test_tail_hand_values():
    au = _autoreg()
    assert exact_T0_tail(au, 1) == pytest.approx(0.375, rel=0, abs=1e-15)
    assert exact_T0_tail(au, 2) == pytest.approx(0.28125, rel=0, abs=1e-15)


def test_tail_is_decreasing_and_positive():
    au = _autoreg()
    vals = [exact_T0_tail(au, n) for n in range(12)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_tail_recursion_matches_star_string_enumeration():
    au = _autoreg()
    enum = _no_closed_form_tail(au)
    assert "star_affine" in au.closed_forms
    assert "star_affine" not in enum.closed_forms
    for n in range(7):
        assert exact_T0_tail(au, n) == pytest.approx(
            exact_T0_tail(enum, n), rel=0, abs=1e-12
        )


def test_tail_input_validation_and_budget():
    au = _autoreg()
    with pytest.raises(ValueError):
        exact_T0_tail(au, -1)
    with pytest.raises(ExplosionGuard):
        exact_T0_tail(_no_closed_form_tail(au), 30, budget=10)


def test_countable_alphabet_enumeration_hand_values():
    # imitation with c = (0.3, 0.2) has no finite alphabet, so both oracles
    # walk the positive letters of each context within 1..50 and visit
    # only those of positive mass.
    # alpha(g | ()) = c_g, so beta(()) = 0.5.  With x_-1 = m known the
    # chain copies the last m letters with weight 1 - 0.5 = 0.5:
    #   alpha(1 | (1,)) = 0.3 + 0.5, alpha(2 | (1,)) = 0.2: beta((1,)) = 1;
    #   alpha(1 | (2,)) = 0.3, alpha(2 | (2,)) = 0.2 + 0.5 / 2: beta((2,)) = 0.75.
    # Tail: P_0 = 1 - 0.5; P_1 = 0.5 (1 - beta((*,))) + 0.3 (1 - 1)
    # + 0.2 (1 - 0.75) = 0.25 + 0.05, since (*,) reads as ().
    # Letter strings: rho_1 = beta(()); rho_2 = 0.3 beta((1,)) + 0.2 beta((2,))
    # = 0.3 * 1 + 0.2 * 0.75.
    im = make_imitation((0.3, 0.2))
    assert im.alphabet is None
    assert abs(exact_T0_tail(im, 0) - 0.5) <= 1e-12
    assert abs(exact_T0_tail(im, 1) - 0.3) <= 1e-12
    assert abs(rho_exact(im, 1) - 0.5) <= 1e-12
    assert abs(rho_exact(im, 2) - 0.45) <= 1e-12


def test_countable_enumeration_scans_only_the_positive_letters():
    # the walker asks alpha only about letters positive_letters names, once
    # per letter and node: on imitation that is 62 calls to n = 3, where a
    # walk over all 50 truncated letters made 662
    im = build_kernel("imitation", {})
    asked = []

    def alpha(g, w):
        asked.append((g, w))
        return im.alpha(g, w)

    counted = dataclasses.replace(im, alpha=alpha, beta=None)
    assert exact_T0_tail(counted, 3) == exact_T0_tail(im, 3)
    assert all(g in im.positive_letters(w) for g, w in asked)
    assert len(asked) == 62


def test_tail_budget_counts_visited_nodes():
    # the countable kernels' tails to n = 6 visit a few hundred nodes, well
    # inside the command line's budget of 300 000 (51^4 leaves would not be)
    for name in ("imitation", "imitation-general", "ladder"):
        kernel = build_kernel(name, {})
        exact_T0_tail(kernel, 6, budget=300_000)
        with pytest.raises(ExplosionGuard, match="more than 100 nodes"):
            exact_T0_tail(kernel, 6, budget=100)


@pytest.mark.parametrize("name", ["imitation", "imitation-general", "ladder"])
def test_countable_tail_matches_the_auxiliary_chain_past_n3(name):
    # P(T0 tail > n) is the chance that the forward auxiliary chain is still
    # unknown at step n; 4000 chains (seed 23), 4 standard errors
    kernel = build_kernel(name, {})
    reps = 4000
    unknown = [0] * 7
    for rep in range(reps):
        ys = run_auxiliary_chain(kernel, 6, StreamKey(seed=23, replication=rep))
        for n in range(4, 7):
            unknown[n] += ys[n] is STAR
    for n in range(4, 7):
        p = exact_T0_tail(kernel, n, budget=300_000)
        se = math.sqrt(p * (1.0 - p) / reps)
        assert abs(unknown[n] / reps - p) <= 4 * se, (n, unknown[n] / reps, p)


# ----------------------------------------------------- letter-string masses


def test_letter_string_mass_matches_the_closed_product():
    au = _autoreg()
    s = au.closed_forms["s"]
    for n in range(1, 9):
        prod = 1.0
        for j in range(1, n + 1):
            prod *= 1.0 - s(j)
        assert rho_exact(au, n) == pytest.approx(prod, rel=0, abs=1e-12)


def test_closed_class_mass_matches_the_verified_product():
    # the closed-class variant multiplies the class size by the letter
    # masses of strings grown on top of a class window: first factor s(2);
    # the kernel's published closed form must agree with both, for more
    # than one weight family
    for theta in (theta_geometric(0.5), theta_polynomial(0.3)):
        cy = make_cyclic4(theta)
        _, ana = find_nhat(cy, 8)
        s = cy.closed_forms["s"]
        claimed = cy.closed_forms["rho_tilde_claimed"]
        for n in range(1, 7):
            prod = float(len(ana.states))
            for j in range(2, n + 2):
                prod *= 1.0 - s(j)
            got = rho_tilde_exact(cy, ana, n)
            assert abs(got - prod) <= 1e-12, (theta.label, n)
            assert abs(claimed(n) - prod) <= 1e-12, (theta.label, n)
            assert abs(claimed(n) - got) <= 1e-12, (theta.label, n)


def test_mass_enumeration_guards():
    au = _autoreg()
    cy = make_cyclic4(theta_geometric(0.5))
    _, ana = find_nhat(cy, 8)
    with pytest.raises(ValueError):
        rho_exact(au, 0)
    with pytest.raises(ValueError):
        rho_tilde_exact(cy, ana, 0)
    with pytest.raises(ExplosionGuard):
        rho_exact(cy, 12, budget=100)
    with pytest.raises(ExplosionGuard):
        rho_tilde_exact(cy, ana, 12, budget=100)


# --------------------------------------------------------- condition report


def test_condition_report_for_the_matching_kernel():
    au = _autoreg()
    rep = check_theorem_conditions(au, N=12)
    assert rep.rho_available
    assert rep.rho_source == "closed-form"
    assert len(rep.rho_values) == 12
    prod = 1.0
    for j in range(1, 13):
        prod *= 1.0 - 0.5**j
    assert rep.c_hat == pytest.approx(prod, rel=0, abs=1e-12)
    assert rep.c_hat == pytest.approx(0.2888586114696384, rel=0, abs=1e-9)
    assert rep.bound_expected_t0 == pytest.approx((1 - prod) / prod, rel=0, abs=1e-9)
    assert rep.raabe_epsilon == 0.5  # max over n of n * 0.5^n beyond 1 is 0.5
    assert rep.notes[0] == "necessary-condition evidence, not proof"


def test_condition_report_for_the_coupled_route_reports_no_rho_bound():
    # only the closed-class mass is available; it sums over the 4 class
    # windows and exceeds 1, so (1-c)/c would be negative and is withheld
    cy = make_cyclic4(theta_geometric(0.5))
    rep = check_theorem_conditions(cy, N=6)
    assert not rep.rho_available
    assert rep.rho_tilde_available and len(rep.rho_tilde_values) == 6
    assert rep.c_hat == rep.rho_tilde_values[-1]
    assert rep.c_hat > 1.0
    assert rep.bound_expected_t0 is None
    assert any("bound not reported" in note for note in rep.notes)


def test_condition_report_for_a_kernel_with_no_route():
    ff = make_flipflop(flipflop_r(0.5, 0.5))
    rep = check_theorem_conditions(ff, N=6)
    assert not rep.rho_available
    assert not rep.rho_tilde_available
    assert rep.c_hat is None and rep.bound_expected_t0 is None
    assert any("neither route" in note for note in rep.notes)


def _per_n_columns(kernel, N, budget):
    """The report's two enumerated columns and their notes, rebuilt with
    one oracle call per n: a guard that raises at n stops the column at
    n - 1.  A column the report does not enumerate is None."""

    def column(oracle, label):
        vals, notes = [], []
        for n in range(1, N + 1):
            try:
                vals.append(oracle(n))
            except ExplosionGuard:
                notes.append(f"{label} enumeration stopped at n={n - 1}")
                break
        return vals, notes

    rho = tilde = None
    notes = []
    if kernel.beta(()) > 0.0 and "rho" not in kernel.closed_forms:
        rho, stops = column(lambda n: rho_exact(kernel, n, budget=budget), "letter-string")
        notes += stops
    found = None if kernel.alphabet is None else find_nhat(kernel, 6)
    if found is not None and not isinstance(found, NotFound):
        _, ana = found
        tilde, stops = column(
            lambda n: rho_tilde_exact(kernel, ana, n, budget=budget), "closed-class"
        )
        notes += stops
    return rho, tilde, notes


def _hex(vals):
    return None if vals is None else [v.hex() for v in vals]


def _assert_columns_match_per_n_calls(kernel, N, budget):
    rep = check_theorem_conditions(kernel, N=N, budget=budget)
    rho, tilde, stops = _per_n_columns(kernel, N, budget)
    if rep.rho_source != "closed-form":
        assert _hex(rep.rho_values) == _hex(rho), kernel.name
    assert _hex(rep.rho_tilde_values) == _hex(tilde), kernel.name
    assert [n for n in rep.notes if "enumeration stopped" in n] == stops, kernel.name
    return rep


_DIAGNOSED = [build_kernel(name, {}) for name in GALLERY] + [
    build_kernel("three-letter-alternating", {"restrict": "false"})
]


@pytest.mark.parametrize("kernel", _DIAGNOSED, ids=lambda k: k.name)
def test_condition_columns_equal_one_oracle_call_per_n(kernel):
    # one walk per column gives every n's mass bit for bit as the oracle
    # called at that n, and stops where the oracle's guard would
    _assert_columns_match_per_n_calls(kernel, 12, 300_000)


def test_condition_columns_at_the_guard_edges():
    cy = build_kernel("cyclic4", {})
    im = build_kernel("imitation", {})  # letter strings enumerated over 50 letters
    # 4 class windows x 4^2 strings fit 100, 4 x 4^3 do not
    rep = _assert_columns_match_per_n_calls(cy, 12, 100)
    assert len(rep.rho_tilde_values) == 2
    assert "closed-class enumeration stopped at n=2" in rep.notes
    for kernel in (cy, im):
        rep = _assert_columns_match_per_n_calls(kernel, 0, 300_000)
        assert not rep.rho_values and not rep.rho_tilde_values
    # a budget below one level's strings stops each column before n = 1
    rep = _assert_columns_match_per_n_calls(cy, 12, 15)
    assert rep.rho_tilde_values == []
    assert "closed-class enumeration stopped at n=0" in rep.notes
    rep = _assert_columns_match_per_n_calls(im, 12, 49)
    assert rep.rho_source == "enumeration" and rep.rho_values == []
    assert "letter-string enumeration stopped at n=0" in rep.notes


def test_condition_report_walks_each_column_once():
    # cyclic4's closed-class column to n = 8 (4 x 4^8 strings fit 300 000)
    # asks alpha 52 500 times; a walk per n asked it 78 692 times
    cy = build_kernel("cyclic4", {})
    calls = 0

    def alpha(g, w):
        nonlocal calls
        calls += 1
        return cy.alpha(g, w)

    counted = dataclasses.replace(cy, alpha=alpha, beta=None)
    rep = check_theorem_conditions(counted, N=12, budget=300_000)
    assert len(rep.rho_tilde_values) == 8
    assert calls == 52_500


# ------------------------------------------------------- concentration bound


def test_concentration_bound_hand_value_and_clamp():
    # exponent -2 * 1 / (9 * 1 * (1/9)) = -2
    val = concentration_bound(1.0, 1.0 / 3.0, 0.0)
    assert val == pytest.approx(4.0 * math.exp(-2.0), rel=0, abs=1e-15)
    assert concentration_bound(1e-6, 10.0, 5.0) == 1.0  # clamped
    with pytest.raises(ValueError):
        concentration_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        concentration_bound(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        concentration_bound(1.0, 1.0, -1.0)


@given(
    eps=st.floats(min_value=0.01, max_value=10.0),
    bigger=st.floats(min_value=1.0, max_value=4.0),
    norm=st.floats(min_value=0.01, max_value=10.0),
    et0=st.floats(min_value=0.0, max_value=50.0),
)
def test_concentration_bound_monotonicity(eps, bigger, norm, et0):
    base = concentration_bound(eps, norm, et0)
    assert concentration_bound(eps * bigger, norm, et0) <= base
    assert concentration_bound(eps, norm * bigger, et0) >= base
    assert concentration_bound(eps, norm, et0 * bigger) >= base


# ------------------------------------------------------------ joint tableau


def test_joint_tableau_resolves_every_time_consistently():
    au = _autoreg()
    vals, T = run_joint_tableau(au, 30, StreamKey(44))
    # every target time is resolved; earlier times resolved along the way
    # stay in the tableau (they sit below every target)
    assert set(vals) == set(T)
    assert set(range(31)) <= set(vals)
    assert all(t <= 30 for t in vals)
    assert all(v in (0, 1) for v in vals.values())
    assert all(T[t] <= t for t in T)
    vals2, T2 = run_joint_tableau(au, 30, StreamKey(44))
    assert vals == vals2 and T == T2


def test_joint_tableau_requires_the_additive_closed_form():
    cy = make_cyclic4(theta_geometric(0.5))
    with pytest.raises(ValueError):
        run_joint_tableau(cy, 5, StreamKey(0))
    # additive hook present but no spontaneous mass: the backward scan
    # can never seed a letter
    dead = make_autoregressive(theta_list([0.0, 0.5, 0.5]), 0.3)
    with pytest.raises(BetaZeroForAlgo1):
        run_joint_tableau(dead, 5, StreamKey(0))


# ------------------------------------------------------------ renewal check


def test_renewal_report_smoke_values():
    au = _autoreg()
    rep = renewal_diagnostic(au, 12, 400, StreamKey(11))
    assert rep.window_w == 400 and rep.horizon_h == 12
    assert rep.renewal_count == 112
    assert len(rep.gaps_first) + len(rep.gaps_second) == rep.renewal_count - 1
    assert all(g >= 1 for g in rep.gaps_first + rep.gaps_second)
    assert not rep.low_counts
    assert rep.halves_agree_3se is True
    assert rep.z_gap_means == pytest.approx(-0.33646036656818534, rel=0, abs=1e-9)
    assert rep.chi2_dof == 6
    assert rep.truncation_bias == exact_T0_tail(au, 12)


def test_renewal_input_validation():
    au = _autoreg()
    with pytest.raises(ValueError):
        renewal_diagnostic(au, -1, 100, StreamKey(0))
    with pytest.raises(ValueError):
        renewal_diagnostic(au, 5, 0, StreamKey(0))


# --------------------------------------------------------------- union bound


def test_window_stopping_depth_obeys_the_union_bound():
    # P(min T > m deep) for a 3-slot window is at most the sum of the three
    # per-time tails, and at least the deepest single tail
    au = _autoreg()
    n = 4000
    depths = []
    for rep in range(n):
        _, rec = run_algorithm1(au, 2, StreamKey(seed=555, replication=rep))
        depths.append(-rec.t_min(-2, 0))
    for m in (2, 3, 4):
        emp = sum(1 for d in depths if d > m) / n
        se = math.sqrt(max(emp * (1 - emp), 1e-9) / n)
        upper = sum(exact_T0_tail(au, max(m - i, 0)) for i in range(3))
        lower = exact_T0_tail(au, m)
        assert emp <= upper + 4 * se
        assert emp >= lower - 4 * se
