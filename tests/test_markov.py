"""Order-n skeleton analysis and the coupled backward sampler."""

import dataclasses
import itertools
import os
import subprocess
import sys

import pytest

import perfectsim
from perfectsim import coalescence
from perfectsim.backward import MaxRoundsExceeded
from perfectsim.coalescence import (
    AssumptionViolated,
    BetaNZero,
    ExplosionGuard,
    NotFound,
    NotFoundWithin,
    build_markov_analysis,
    compute_n0,
    find_nhat,
    make_plan,
    phase1_agreement,
    prepare_coalescence,
    run_algorithm2,
)
from perfectsim.gallery import (
    build_kernel,
    flipflop_r,
    make_autoregressive,
    make_cyclic4,
    make_flipflop,
    make_imitation,
    make_three_letter_alternating,
    theta_geometric,
)
from perfectsim.kernels import STAR, KernelContractViolation, KernelSpec
from perfectsim.streams import StreamKey, uniform_at

from reference_impl import run_algorithm2_ref


def _autoreg():
    return make_autoregressive(theta_geometric(0.5), 0.3)


def _degenerate():
    return KernelSpec(
        name="degenerate",
        parameters={},
        alphabet=("a", "b"),
        alpha=lambda g, w: 1.0 if g == "a" else 0.0,
    )


def _per_past(kernel):
    """The kernel's plan with independent per-past streams in phase 1."""
    return dataclasses.replace(prepare_coalescence(kernel), shared=False)


class _MirroredLetters(KernelSpec):
    """Two-letter order-1 chain that stays with probability 0.6, scanning
    its own letter first: past a scans (a, b) and past b scans (b, a).
    The shared layout puts the mass both pasts give each letter, 0.4 and
    0.4, first, so they agree with probability 0.8."""

    def letters_for(self, w):
        return ("b", "a") if w and w[0] == "b" else ("a", "b")


def _mirrored():
    def alpha(g, w):
        if not w or w[0] is STAR:
            return 0.4  # the envelope: min(0.6, 0.4) for either letter
        return 0.6 if g == w[0] else 0.4

    return _MirroredLetters(
        name="mirrored", parameters={}, alphabet=("a", "b"), alpha=alpha
    )


def _drain():
    """Order-1 chain on 0, 1, 2 that no shared layout can make agree.

    0 stays at 0; 1 moves to 1 or 2 and 2 to 0 or 1, each with
    probability 1/2.  At time 0 no letter is possible from all three
    pasts, so each lays out its own masses in letter order: u < 1/2 sends
    them to (0, 1, 0) and u >= 1/2 to (0, 2, 1).  From either set of
    letters no letter is possible from all, so phase 1 never agrees at
    time 1; independent streams agree with probability 1/2 * 1/4."""
    moves = {0: {0: 1.0}, 1: {1: 0.5, 2: 0.5}, 2: {0: 0.5, 1: 0.5}}

    def alpha(g, w):
        if not w or w[0] is STAR:
            return 0.0  # the envelope: some past forbids every letter
        return moves[w[0]].get(g, 0.0)

    return KernelSpec(name="drain", parameters={}, alphabet=(0, 1, 2), alpha=alpha)


# ------------------------------------------------------------ the skeleton


def test_order_one_analysis_of_the_matching_kernel():
    ana = build_markov_analysis(_autoreg(), 1)
    assert ana.order == 1
    assert ana.states == ((0,), (1,))
    assert ana.beta_n == pytest.approx(0.75, rel=0, abs=1e-12)
    assert ana.matrix[(1,)][1] == pytest.approx(0.8, rel=0, abs=1e-12)
    assert ana.matrix[(1,)][0] == pytest.approx(0.2, rel=0, abs=1e-12)
    assert len(ana.closed_classes) == 1
    assert ana.period == 1
    assert ana.nhat_found


@pytest.mark.parametrize(
    "kernel,orders",
    [
        (make_cyclic4(theta_geometric(0.5)), (1, 2)),
        (build_kernel("graph-walk", {"graph": "complete:3"}), (1, 2)),
        (make_autoregressive(theta_geometric(0.5), 0.3), (1, 2)),
    ],
    ids=["cycle", "complete", "matching"],
)
def test_transition_rows_are_probability_vectors(kernel, orders):
    for n in orders:
        ana = build_markov_analysis(kernel, n)
        for w in ana.states:
            assert sum(ana.matrix[w].values()) == pytest.approx(1.0, rel=0, abs=1e-12)
            assert all(p >= 0.0 for p in ana.matrix[w].values())


def test_zero_mass_windows_are_reported_with_a_witness():
    # letter 0 in the newest slot kills all envelope mass
    dead = KernelSpec(
        name="dead-after-zero",
        parameters={},
        alphabet=(0, 1),
        alpha=lambda g, w: 0.0 if (len(w) and w[0] == 0) else (0.3 if g else 0.2),
    )
    with pytest.raises(BetaNZero) as exc:
        build_markov_analysis(dead, 1)
    assert exc.value.order == 1
    assert exc.value.witness == (0,)


def test_countable_alphabets_are_rejected():
    with pytest.raises(AssumptionViolated):
        build_markov_analysis(make_imitation((0.3, 0.2)), 1)
    with pytest.raises(ValueError):
        build_markov_analysis(_autoreg(), 0)


# --------------------------------------------------------- order selection


def _brute_force_exact_walk_order(analysis, m_max=16):
    """Independent reachability oracle: first m >= order with an exact-m
    positive-support walk from every state to every closed-class window."""
    states = analysis.states
    succ = {
        w: {v for v in states if analysis.matrix[w].get(v[0], 0.0) > 0.0}
        for w in states
    }
    targets = {w for cls in analysis.closed_classes for w in cls}
    reach = {w: {w} for w in states}  # exact-0 walks
    for m in range(1, m_max + 1):
        reach = {w: {v for u in reach[w] for v in succ[u]} for w in states}
        if m >= analysis.order and all(targets <= reach[w] for w in states):
            return m
    raise AssertionError("no exact-length walk order within the probe range")


def test_cycle_walk_orders():
    found = find_nhat(make_cyclic4(theta_geometric(0.5)), 8)
    assert not isinstance(found, NotFound)
    nhat, ana = found
    assert nhat == 1
    assert ana.period == 1
    assert compute_n0(ana) == 2
    assert _brute_force_exact_walk_order(ana) == 2
    with pytest.raises(NotFoundWithin):
        compute_n0(ana, m_max=1)


def test_complete_graph_orders():
    nhat, ana = find_nhat(build_kernel("graph-walk", {"graph": "complete:3"}), 8)
    assert nhat == 1
    assert compute_n0(ana) == 1
    assert _brute_force_exact_walk_order(ana) == 1


def test_three_letter_restricted_orders():
    nhat, ana = find_nhat(make_three_letter_alternating(), 6)
    assert nhat == 1
    assert len(ana.states) == 3
    assert compute_n0(ana) == 2
    assert _brute_force_exact_walk_order(ana) == 2


def test_hold_kernels_have_no_usable_order():
    found = find_nhat(make_flipflop(flipflop_r(0.5, 0.5)), 6)
    assert isinstance(found, NotFound)
    assert found.n_max == 6
    assert set(found.reports) == {1, 2, 3, 4, 5, 6}
    for reason in found.reports.values():
        count = int(reason.split()[0])
        assert count >= 2 and "closed classes" in reason


def test_unrestricted_three_letter_has_no_usable_order():
    found = find_nhat(make_three_letter_alternating(restrict_histories=False), 6)
    assert isinstance(found, NotFound)
    for reason in found.reports.values():
        assert "closed classes" in reason or "beta" in reason


def test_plan_preparation_caches_and_rejects():
    cy = make_cyclic4(theta_geometric(0.5))
    p1 = prepare_coalescence(cy, 8, 64)
    p2 = prepare_coalescence(cy, 8, 64)
    assert p1 is p2
    assert (p1.nhat, p1.n0) == (1, 2)
    assert set(p1.index) == set(p1.analysis.states)
    assert sorted(p1.index.values()) == list(range(len(p1.analysis.states)))
    with pytest.raises(AssumptionViolated):
        prepare_coalescence(make_flipflop(flipflop_r(0.5, 0.5)), 6, 64)
    with pytest.raises(AssumptionViolated):
        prepare_coalescence(make_imitation((0.3, 0.2)), 6, 64)


def test_plan_rejects_a_window_shorter_than_the_order():
    # a window's left n̂-context must lie in the next-older window alone
    cy = make_cyclic4(theta_geometric(0.5))
    analysis = build_markov_analysis(cy, 2)
    with pytest.raises(ValueError, match="below the order"):
        make_plan(cy, analysis, 1)
    assert make_plan(cy, analysis, 2).n0 == 2


def _path5(theta):
    return build_kernel("graph-walk", {"graph": "path:5", "theta": theta})


def test_agreement_walk_stops_at_its_cell_budget(monkeypatch):
    # the walk visits 2 268 cells on path:5; one fewer allowed raises the
    # guard the CLI maps to exit 4, and the budget changes no value
    kern = _path5("geometric:0.5")
    _, analysis = find_nhat(kern, 8)
    n0 = compute_n0(analysis)
    assert n0 == 4
    exact = phase1_agreement(kern, analysis, n0)
    monkeypatch.setattr(coalescence, "PHASE1_MAX_CELLS", 2268)
    assert phase1_agreement(kern, analysis, n0) == exact
    monkeypatch.setattr(coalescence, "PHASE1_MAX_CELLS", 2267)
    with pytest.raises(ExplosionGuard, match="more than 2267 cells"):
        phase1_agreement(kern, analysis, n0)
    with pytest.raises(ExplosionGuard, match="more than 2267 cells"):
        make_plan(kern, analysis, n0)


_SMALL_BUDGET = """
from perfectsim import coalescence
from perfectsim.gallery import build_kernel

assert not __debug__
coalescence.PHASE1_MAX_CELLS = 100
kern = build_kernel("graph-walk", {"graph": "path:5", "theta": "geometric:0.5"})
try:
    coalescence.prepare_coalescence(kern)
except coalescence.ExplosionGuard as e:
    print("tripped:", e)
else:
    print("never tripped")
"""


def test_cell_budget_runs_under_python_O():
    # the guard is a raise, not an assert, so it still fires with
    # assertions stripped
    src = os.path.dirname(os.path.dirname(perfectsim.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _SMALL_BUDGET],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("tripped: graph-walk: phase-1 agreement walk"), (
        out.stdout
    )


# ------------------------------------------------------- the coupled sampler


def test_deterministic_kernel_coalesces_immediately():
    kern = _degenerate()
    assert prepare_coalescence(kern).agreement == 1.0
    for plan, per_window in ((None, 1), (_per_past(kern), 2)):
        xs, rec = run_algorithm2(kern, 2, StreamKey(5), plan=plan)
        assert xs == ["a", "a", "a"]
        assert rec.T == {-2: -2, -1: -1, 0: 0}
        assert rec.rounds_used == 2
        assert rec.uniforms_consumed == 3 * per_window


def test_coupled_sampler_rejects_negative_spans():
    with pytest.raises(ValueError):
        run_algorithm2(_degenerate(), -1, StreamKey(0))


def test_coupled_sampler_replays_bit_identically():
    kern = build_kernel("graph-walk", {"graph": "complete:3"})
    seen = set()
    for rep in range(10):
        key = StreamKey(seed=17, replication=rep)
        a = run_algorithm2(kern, 1, key)
        b = run_algorithm2(kern, 1, key)
        assert a[0] == b[0] and a[1] == b[1]
        seen.add(tuple(a[0]))
    assert len(seen) > 1


def _hooked_streams(key):
    calls = []

    def hooked(t, pid):
        calls.append((t, pid))
        return uniform_at(key.at(t, pid))

    return calls, hooked


def test_coupled_sampler_uses_per_trajectory_streams():
    kern = build_kernel("graph-walk", {"graph": "complete:3"})
    calls, hooked = _hooked_streams(StreamKey(3, 0))
    _, rec = run_algorithm2(
        kern, 0, StreamKey(3), plan=_per_past(kern), uniforms=hooked
    )
    assert all(isinstance(p, int) and p >= 0 for _, p in calls)
    assert rec.uniforms_consumed == len(calls)
    assert max(t for t, _ in calls) == 0


def test_shared_coupling_reads_one_uniform_per_time():
    kern = build_kernel("cyclic4", {"theta": "geometric:0.4"})
    plan = prepare_coalescence(kern)
    assert plan.shared and plan.coupling == "shared"
    for rep in range(20):
        key = StreamKey(seed=3, replication=rep)
        calls, hooked = _hooked_streams(key)
        xs, rec = run_algorithm2(kern, 2, key, uniforms=hooked)
        assert {p for _, p in calls} == {None}
        assert len(calls) == len(set(calls))
        assert rec.uniforms_consumed == plan.n0 * (rec.rounds_used + 1)
        assert rec.uniforms_consumed == len(calls)
        xs2, rec2 = run_algorithm2(kern, 2, key)
        assert (xs2, rec2.T) == (xs, rec.T)


def test_plan_falls_back_to_per_past_streams_when_agreement_is_impossible():
    kern = _drain()
    plan = prepare_coalescence(kern)
    assert (plan.nhat, plan.n0) == (1, 2)
    assert plan.agreement == 0.0
    assert not plan.shared and plan.coupling == "per-past"
    for rep in range(30):
        key = StreamKey(seed=8, replication=rep)
        calls, hooked = _hooked_streams(key)
        xs, rec = run_algorithm2(kern, 3, key, max_rounds=500, uniforms=hooked)
        assert set(xs) <= {0, 1, 2}
        assert None not in {p for _, p in calls}
        assert rec.uniforms_consumed == len(calls)


def _batch(kern, plan_for, k, seed, reps):
    out = []
    for rep in range(reps):
        xs, rec = run_algorithm2(kern, k, StreamKey(seed, rep), plan=plan_for())
        out.append((xs, rec.T, rec.rounds_used, rec.uniforms_consumed))
    return out


def _order2_cyclic4():
    """cyclic4 planned at n̂ = 2, n₀ = 3: the agreement walk goes on past
    the disagreeing cells of the middle time, whose paths add nothing, to
    link the tuples runs reach through them."""
    kern = build_kernel("cyclic4", {"theta": "geometric:0.4"})
    return kern, make_plan(kern, build_markov_analysis(kern, 2), 3)


def _graph(plan):
    """Every layout reachable from the plan's root, by identity, with its
    contexts, cells, agreed letters, links (by identity) and masses (by
    value)."""
    graph, todo = {}, [plan.root]
    while todo:
        lay = todo.pop()
        if id(lay) in graph:
            continue
        graph[id(lay)] = (
            lay.ctxs,
            lay.cuts.tobytes(),
            lay.agreed,
            [None if nxt is None else id(nxt) for nxt in lay.links],
            [dict(m) for m in lay.masses],
        )
        todo.extend(nxt for nxt in lay.links if nxt is not None)
    return graph


@pytest.mark.parametrize(
    "kern,plan,shared,k,reps",
    [
        (build_kernel("cyclic4", {"theta": "geometric:0.4"}), None, True, 2, 30),
        (_path5("list:0.5,0.3,0.2"), None, True, 1, 20),
        (*_order2_cyclic4(), True, 2, 30),
        (_mirrored(), None, False, 3, 30),
    ],
    ids=[
        "cyclic4-shared",
        "path5-shared",
        "cyclic4-order2-shared",
        "mirrored-per-past",
    ],
)
def test_draws_sharing_a_plan_match_draws_on_fresh_plans(kern, plan, shared, k, reps):
    # every run follows the plan's cell graph and none writes to it: a
    # batch on one plan decides exactly what the same draws decide on a
    # plan built afresh for each
    def fresh_plan():
        return dataclasses.replace(
            make_plan(kern, plan.analysis, plan.n0), shared=shared
        )

    plan = dataclasses.replace(plan or prepare_coalescence(kern), shared=shared)
    before = _graph(plan)
    # the walk links every cell but those of the window's last time
    for ctxs, _, _, links, _ in before.values():
        last = len(ctxs[0]) == plan.nhat + plan.n0 - 1
        assert all((nxt is None) == last for nxt in links)
    one = _batch(kern, lambda: plan, k, 12, reps)
    fresh = _batch(kern, fresh_plan, k, 12, reps)
    assert one == fresh
    assert _graph(plan) == before


def test_draws_on_a_built_plan_scan_no_phase1_table(monkeypatch):
    # the agreement walk links every cell a run can reach, so once the plan
    # exists a batch of draws follows links and lays no tuple out, also on
    # the order-2 plan, where runs pass cells whose contexts disagree
    kern = build_kernel("cyclic4", {"theta": "geometric:0.4"})
    plan = prepare_coalescence(kern)
    kern2, order2 = _order2_cyclic4()
    calls = 0

    def counted(*args, _f=coalescence._layout):
        nonlocal calls
        calls += 1
        return _f(*args)

    monkeypatch.setattr(coalescence, "_layout", counted)
    _batch(kern, lambda: plan, 0, 1, 40)
    _batch(kern2, lambda: order2, 2, 12, 30)
    assert calls == 0


def _alpha_calls(kern, shared, k, reps):
    """alpha calls of ``reps`` draws of k + 1 targets on a plan built on a
    counted copy of ``kern``, keys StreamKey(1, rep)."""
    calls = []

    def alpha(g, w):
        calls.append(w)
        return kern.alpha(g, w)

    counted = dataclasses.replace(kern, alpha=alpha)
    base = prepare_coalescence(kern)
    plan = dataclasses.replace(
        make_plan(counted, base.analysis, base.n0), shared=shared
    )
    del calls[:]
    _batch(counted, lambda: plan, k, 1, reps)
    return len(calls)


def test_phase2_evaluates_alpha_only_on_new_windows():
    # phase 2 re-reads an open time against the masses of the window it
    # last scanned, so only the newly refined window costs alpha calls,
    # and it sweeps a window only when its view changed; the 40 draws of
    # the ``coupled`` benchmark pin the first count, longer targets under
    # both couplings the others
    cy = build_kernel("cyclic4", {"theta": "geometric:0.4"})
    assert _alpha_calls(cy, True, 0, 40) == 207
    assert _alpha_calls(cy, True, 5, 20) == 174
    assert _alpha_calls(cy, False, 3, 10) == 3226
    assert _alpha_calls(_path5("list:0.5,0.3,0.2"), True, 4, 10) == 442


def test_tableau_snapshots_never_contradict_earlier_letters():
    kern = build_kernel("graph-walk", {"graph": "complete:3"})
    snaps = []
    xs, rec = run_algorithm2(
        kern, 2, StreamKey(9), trace=lambda n, snap: snaps.append((n, snap))
    )
    assert [n for n, _ in snaps] == list(range(rec.rounds_used + 1))
    for (_, a), (_, b) in zip(snaps, snaps[1:]):
        for t, v in a.items():
            if v is not STAR:
                assert b[t] == v
    final = snaps[-1][1]
    assert [final[t] for t in range(-2, 1)] == xs


def test_round_budget_exhaustion_keeps_the_partial_tableau():
    cy = make_cyclic4(theta_geometric(0.5))
    with pytest.raises(MaxRoundsExceeded) as exc:
        run_algorithm2(
            cy,
            1,
            StreamKey(seed=0, replication=99),
            max_rounds=150,
            plan=_per_past(cy),
        )
    tab = exc.value.tableau
    assert tab.round == 150
    assert (tab.target_lo, tab.target_hi) == (-1, 0)
    assert set(range(-1, 1)) <= set(tab.temp)


def test_shared_budget_message_gives_the_expected_wait():
    # path:7 with list weights fully agrees in one window of about 713
    # (the enumeration in test_coupled_laws gives its agreement), so 20
    # windows run out; the message says so in those figures
    kern = build_kernel("graph-walk", {"graph": "path:7", "theta": "list:0.5,0.3,0.2"})
    plan = prepare_coalescence(kern)
    assert plan.shared
    with pytest.raises(MaxRoundsExceeded) as exc:
        run_algorithm2(kern, 0, StreamKey(1, 0), max_rounds=20, plan=plan)
    msg = str(exc.value)
    assert msg.startswith("no coalescence within 20 windows; ")
    assert "phase-1 agreement is 0.0014" in msg
    assert "about 713 windows are expected" in msg


# ------------------------------------------------- reference equivalence


def _fingerprint(n, snap):
    return hash((n, tuple(sorted(snap.items(), key=lambda kv: kv[0]))))


def _outcome(fn, kern, k, key, plan, max_rounds):
    """(result, trace fingerprints) of one run; a run stopped at the cap
    gives its message and partial tableau as the result."""
    tr = []
    try:
        xs, rec = fn(
            kern,
            k,
            key,
            max_rounds=max_rounds,
            plan=plan,
            trace=lambda n, s: tr.append(_fingerprint(n, s)),
        )
    except MaxRoundsExceeded as e:
        return (str(e), e.tableau.temp, e.tableau.round), tr
    return (xs, rec.T, rec.rounds_used, rec.uniforms_consumed), tr


_LIST = "list:0.5,0.3,0.2"


@pytest.mark.parametrize(
    "name,params,ks,seeds,max_rounds,order",
    [
        ("graph-walk", {"graph": "complete:3"}, (0, 1, 2, 5), range(8), 10**4, None),
        ("graph-walk", {"graph": "complete:4"}, (0, 1), range(4), 10**4, None),
        ("cyclic4", {}, (0, 1), range(2), 10**4, None),
        ("cyclic4", {"theta": "geometric:0.1"}, (0, 1, 5), range(6), 10**4, None),
        # no exact_horizon: phase 2 reads every context back to the oldest window
        ("cyclic4", {"theta": "polynomial:0.7"}, (0, 2), range(3), 400, None),
        # exact_horizon 1: every context is cut at its newest known letter
        ("three-letter-alternating", {}, (0, 1, 5), range(6), 10**4, None),
        # (n̂, n₀) plans above the smallest order, shared coupling only: their
        # runs pass cells where the contexts disagree at the n̂ newest times
        ("cyclic4", {"theta": "geometric:0.4"}, (0, 1), range(3), 10**4, (2, 3)),
        ("graph-walk", {"graph": "path:3", "theta": _LIST}, (0, 1), range(3), 10**4, (2, 3)),
        ("graph-walk", {"graph": "path:5", "theta": _LIST}, (0, 1), range(3), 10**4, (2, 4)),
    ],
    ids=[
        "complete3",
        "complete4",
        "cycle4",
        "cycle4-past-horizon",
        "cycle4-uncut",
        "three-letter",
        "cycle4-order2",
        "path3-order2",
        "path5-order2",
    ],
)
def test_event_driven_sampler_matches_the_direct_sweep(
    name, params, ks, seeds, max_rounds, order
):
    kern = build_kernel(name, params)
    if order is None:
        base, couplings = prepare_coalescence(kern), (True, False)
    else:
        base = make_plan(kern, build_markov_analysis(kern, order[0]), order[1])
        couplings = (True,)
        assert base.shared
    for shared, k, seed in itertools.product(couplings, ks, seeds):
        plan = dataclasses.replace(base, shared=shared)
        key = StreamKey(seed=seed, replication=k)
        new = _outcome(run_algorithm2, kern, k, key, plan, max_rounds)
        ref = _outcome(run_algorithm2_ref, kern, k, key, plan, max_rounds)
        assert new == ref, (name, shared, k, seed)


def test_horizon_cut_matches_the_uncut_run():
    # the same kernel without its published horizon builds every context
    # back to the oldest window; both runs must agree to the bit
    kern = build_kernel("cyclic4", {"theta": "geometric:0.4"})
    assert kern.closed_forms["exact_horizon"] == 43
    forms = {k: v for k, v in kern.closed_forms.items() if k != "exact_horizon"}
    uncut = dataclasses.replace(kern, closed_forms=forms)
    for rep, rounds in ((4, 1042), (14, 952)):
        key = StreamKey(seed=1, replication=rep)
        runs = []
        for kk in (kern, uncut):
            tr = []
            xs, rec = run_algorithm2(
                kk,
                0,
                key,
                plan=_per_past(kk),
                trace=lambda n, s: tr.append(_fingerprint(n, s)),
            )
            runs.append((xs, rec.T, rec.rounds_used, rec.uniforms_consumed, tr))
        assert runs[0] == runs[1], rep
        assert runs[0][2] == rounds  # uncut contexts reach ~2 000 letters


def test_realized_pair_check_trips_on_a_doctored_kernel():
    # an admissibility predicate that forbids a step the walk really takes
    # (staying put at 0): the sampler must refuse the letter that forms it
    kern = make_cyclic4(theta_geometric(0.5))
    doctored = dataclasses.replace(
        kern,
        admissible_window=lambda w: kern.admissible_window(w)
        and all(w[i : i + 2] != (0, 0) for i in range(len(w) - 1)),
    )
    with pytest.raises(KernelContractViolation, match="inadmissible pair"):
        for rep in range(50):
            run_algorithm2(doctored, 5, StreamKey(seed=3, replication=rep))


def test_budget_exhaustion_matches_the_direct_sweep():
    cy = make_cyclic4(theta_geometric(0.5))
    n_raised = 0
    for seed in range(3):
        key = StreamKey(seed=seed, replication=99)
        outcomes = []
        for fn in (run_algorithm2, run_algorithm2_ref):
            try:
                fn(cy, 1, key, max_rounds=150, plan=_per_past(cy))
                outcomes.append(None)
            except MaxRoundsExceeded as e:
                outcomes.append((str(e), e.tableau.temp, e.tableau.round))
        assert outcomes[0] == outcomes[1], seed
        if outcomes[0] is not None:
            n_raised += 1
    assert n_raised >= 1
