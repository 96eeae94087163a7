"""Spontaneous-symbol backward sampler: exact traces, contracts, and laws."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap

import pytest

import perfectsim
from perfectsim import backward

from reference_impl import run_algorithm1_ref
from test_golden_outputs import _spontaneous_kernels

from perfectsim.backward import (
    BetaZeroForAlgo1,
    MaxRoundsExceeded,
    prepare_backward,
    run_algorithm1,
    run_auxiliary_chain,
    run_joint_tableau,
)
from perfectsim.gallery import (
    build_kernel,
    flipflop_r,
    make_autoregressive,
    make_flipflop,
    make_three_letter_alternating,
    theta_geometric,
    theta_list,
    theta_polynomial,
)
from perfectsim.kernels import (
    STAR,
    KernelContractViolation,
    KernelSpec,
    canon,
    sample_symbol,
)
from perfectsim.streams import StreamKey, keyed_uniforms, uniform_at


def _autoreg():
    return make_autoregressive(theta_geometric(0.5), 0.3)


# ------------------------------------------------------------ exact traces


def test_hand_traced_run_resolving_in_one_extra_round():
    # u(0) = 0.6 >= beta() = 0.5: round 0 leaves the target unknown with
    # threshold 0.5.  u(-1) = 0.1 < 0.15 draws letter 0 at time -1.  The
    # refined window (0,) lifts letter 0's mass by 0.25 (lag-1 match) and
    # letter 1's by nothing, so the gained slice [0.5, 0.75) belongs to
    # letter 0 and u(0) = 0.6 lands inside it.
    au = _autoreg()
    us = {0: 0.6, -1: 0.1}
    syms, rec = run_algorithm1(au, 0, StreamKey(0), uniforms=lambda t: us[t])
    assert syms == [0]
    assert rec.T == {0: -1}
    assert rec.rounds_used == 1
    assert rec.uniforms_consumed == 2


def test_hand_traced_run_resolving_in_two_extra_rounds():
    # round 0: u(0) = 0.8 >= 0.5, threshold 0.5.  round 1: u(-1) = 0.45
    # draws letter 1 spontaneously; window (1,) lifts the total to 0.75,
    # still <= 0.8.  round 2: u(-2) = 0.3 draws letter 1 at time -2; the
    # window (1, 1) has letter-1 mass 0.725, total 0.875 > 0.8, and the
    # gained slice [0.75, 0.875) belongs to letter 1.
    au = _autoreg()
    us = {0: 0.8, -1: 0.45, -2: 0.3}
    syms, rec = run_algorithm1(au, 0, StreamKey(0), uniforms=lambda t: us[t])
    assert syms == [1]
    assert rec.T == {0: -2}
    assert rec.rounds_used == 2
    assert rec.uniforms_consumed == 3


def test_memoryless_weights_always_resolve_in_round_zero():
    # all weight at lag 0 makes beta(w) = 1: the spontaneous draw at the
    # target always lands on a letter and no earlier round is ever probed
    mem = make_autoregressive(theta_list([1.0]), 0.3)
    assert mem.beta(()) == pytest.approx(1.0, rel=0, abs=1e-15)
    for rep in range(200):
        key = StreamKey(seed=31, replication=rep)
        syms, rec = run_algorithm1(mem, 0, key)
        assert rec.rounds_used == 0
        assert rec.T == {0: 0}
        assert rec.uniforms_consumed == 1
        assert syms[0] == (0 if uniform_at(key.at(0)) < 0.3 else 1)


# -------------------------------------------------------------- contracts


def test_negative_target_span_is_rejected():
    with pytest.raises(ValueError):
        run_algorithm1(_autoreg(), -1, StreamKey(0))


def test_kernels_without_spontaneous_mass_are_rejected():
    flipflop = make_flipflop(flipflop_r(0.5, 0.5))
    for kernel in (flipflop, make_three_letter_alternating()):
        with pytest.raises(BetaZeroForAlgo1):
            run_algorithm1(kernel, 0, StreamKey(0))
        with pytest.raises(BetaZeroForAlgo1):
            prepare_backward(kernel)


def test_round_budget_exhaustion_reports_the_partial_tableau():
    au = _autoreg()
    with pytest.raises(MaxRoundsExceeded) as exc:
        run_algorithm1(au, 0, StreamKey(0), max_rounds=17, uniforms=lambda t: 0.9)
    tab = exc.value.tableau
    assert tab.round == 17
    assert tab.target_lo == 0 and tab.target_hi == 0
    assert set(tab.temp) == set(range(-17, 1))
    assert all(v is STAR for v in tab.temp.values())


def test_joint_tableau_budget_counts_rounds_like_algorithm1():
    # context-free mass theta_0 = 1e-9: every round's spontaneous scan
    # fails, so the targets 0..5 stay open through rounds 0..17, which
    # open times 5 down to -12, the same count as run_algorithm1's 17
    au = make_autoregressive(theta_list([1e-9, 1 - 1e-9]), 0.3)
    with pytest.raises(MaxRoundsExceeded) as exc:
        run_joint_tableau(au, 5, StreamKey(0), max_extra_rounds=17)
    tab = exc.value.tableau
    assert tab.round == 17
    assert tab.target_lo == 0 and tab.target_hi == 5
    assert set(tab.temp) == set(range(-12, 6))


@pytest.mark.parametrize(
    "theta",
    [
        theta_geometric(0.5),
        theta_geometric(0.8),
        theta_list([0.5, 0.3, 0.2]),
        theta_polynomial(0.3),
    ],
    ids=lambda th: th.label,
)
def test_joint_tableau_matches_algorithm1_on_the_same_uniforms(theta):
    # the joint tableau is algorithm 1 with the same increment step in the
    # 0..k frame: targets 0..k read the same uniforms as algorithm 1's
    # -k..0 shifted up by k, so letters and stopping times agree exactly
    au = make_autoregressive(theta, 0.3)
    for k in (0, 3, 20):
        for rep in range(100):
            key = StreamKey(seed=31, replication=rep)
            ku = keyed_uniforms(key)
            vals, T = run_joint_tableau(au, k, key)
            syms, rec = run_algorithm1(au, k, key, uniforms=lambda t: ku(t + k))
            assert [vals[t] for t in range(k + 1)] == syms, (k, rep)
            assert [T[t] for t in range(k + 1)] == [
                rec.T[t - k] + k for t in range(k + 1)
            ], (k, rep)


# -------------------------------------------- cached increment vs rebuild


def _outcome(run, kernel, k, key, **kw):
    """Everything a run shows: its draw and record, or its cut tableau."""
    try:
        syms, rec = run(kernel, k, key, **kw)
    except MaxRoundsExceeded as exc:
        tab = exc.tableau
        return "cut", str(exc), tab.temp, tab.round, tab.target_lo, tab.target_hi
    return "done", syms, rec.T, rec.rounds_used, rec.uniforms_consumed


@pytest.mark.parametrize(
    "name, params",
    [
        ("autoregressive", {"theta": "geometric:0.5"}),
        ("autoregressive", {"theta": "geometric:0.8"}),
        ("autoregressive", {"theta": "list:0.5,0.3,0.2"}),
        ("autoregressive", {"theta": "polynomial:0.3"}),
        ("imitation", {}),
        ("imitation-general", {}),
        ("ladder", {}),
        ("ladder", {"truncation": "6"}),
        ("imitation", {"truncation": "6"}),
        ("imitation-general", {"truncation": "6"}),
    ],
    ids=[
        "geometric:0.5",
        "geometric:0.8",
        "list",
        "polynomial:0.3",
        "imitation",
        "imitation-general",
        "ladder",
        "ladder-truncated",
        "imitation-truncated",
        "imitation-general-truncated",
    ],
)
def test_cached_increment_matches_the_rebuilt_windows(name, params):
    # run_algorithm1 reads each open time's old masses from its last scan
    # (on autoregressive it folds the additive weights instead); the
    # reference rebuilds both windows and scans alpha on each.  Every
    # decision agrees, including the partial tableau of a run cut short by
    # its round budget
    kernel = build_kernel(name, params)
    for k in (0, 1, 5, 30):
        for rep in range(25):
            key = StreamKey(seed=41, replication=rep)
            assert _outcome(run_algorithm1, kernel, k, key) == _outcome(
                run_algorithm1_ref, kernel, k, key
            ), (k, rep)
        for rep in range(10):
            key = StreamKey(seed=42, replication=rep)
            assert _outcome(run_algorithm1, kernel, k, key, max_rounds=3) == _outcome(
                run_algorithm1_ref, kernel, k, key, max_rounds=3
            ), (k, rep)


def test_a_cached_step_asks_only_the_new_window_for_its_letters(monkeypatch):
    # each open time keeps its last window's positive letters with its
    # masses, so a step on the countable ladder calls positive_letters once,
    # on the new window; the old window's letters come from the cache or,
    # for the empty window, from the plan's table
    ladder = build_kernel("ladder", {})
    calls = []

    def positive_letters(w):
        calls.append(w)
        return ladder.positive_letters(w)

    counted = dataclasses.replace(ladder, positive_letters=positive_letters, beta=None)
    plan = prepare_backward(counted)
    assert calls == [()]
    steps = []
    stack = backward._stack

    def counted_stack(kernel, u, acc, w_new, w_old, *rest):
        steps.append(w_old)
        return stack(kernel, u, acc, w_new, w_old, *rest)

    monkeypatch.setattr(backward, "_stack", counted_stack)
    calls.clear()
    for rep in range(100):
        run_algorithm1(counted, 5, StreamKey(seed=45, replication=rep), plan=plan)
    assert len(calls) == len(steps)
    assert sum(1 for w in steps if w) > 100  # steps over a cached window


def _window_scan(kernel):
    """A copy of ``kernel`` without the additive_weight hook, so that
    run_algorithm1 scans alpha on the windows instead of folding weights."""
    forms = {k: v for k, v in kernel.closed_forms.items() if k != "additive_weight"}
    return dataclasses.replace(kernel, closed_forms=forms)


@pytest.mark.parametrize(
    "theta",
    [
        theta_geometric(0.5),
        theta_geometric(0.8),
        theta_list([0.5, 0.3, 0.2]),
        theta_polynomial(0.3),
    ],
    ids=lambda th: th.label,
)
def test_additive_fold_matches_the_window_scan(theta):
    # the fold stacks the revealed letters' weights, the scan the difference
    # of alpha on two windows: equal in exact arithmetic, so on the same
    # uniforms every decision agrees, whatever the last bits of a threshold
    fold = make_autoregressive(theta, 0.3)
    scan = _window_scan(fold)
    for k in (0, 3, 20):
        for rep in range(100):
            key = StreamKey(seed=31, replication=rep)
            assert _outcome(run_algorithm1, fold, k, key) == _outcome(
                run_algorithm1, scan, k, key
            ), (k, rep)
            assert _outcome(run_algorithm1, fold, k, key, max_rounds=3) == _outcome(
                run_algorithm1, scan, k, key, max_rounds=3
            ), (k, rep)


def test_additive_fold_matches_the_window_scan_on_deep_draws():
    # the draws of the benchmark's deep workload, whose depths reach about
    # 190, so thresholds pile up hundreds of folded increments
    fold = make_autoregressive(theta_geometric(0.8), 0.3)
    scan = _window_scan(fold)
    for rep in range(1000):
        key = StreamKey(seed=1, replication=rep)
        assert _outcome(run_algorithm1, fold, 0, key) == _outcome(
            run_algorithm1, scan, 0, key
        ), rep


@pytest.mark.parametrize(
    "kernel",
    [
        make_autoregressive(theta_geometric(0.8), 0.3),
        _window_scan(make_autoregressive(theta_geometric(0.8), 0.3)),
        build_kernel("imitation", {}),
    ],
    ids=["autoregressive", "autoregressive-scan", "imitation"],
)
def test_one_run_reads_the_empty_window_once_per_letter(kernel):
    # the beta(empty) check, every round's opening draw and every first
    # re-read of a time share one scan of the empty window per run
    calls = []

    def alpha(g, w):
        if not canon(w):
            calls.append(g)
        return kernel.alpha(g, w)

    counted = dataclasses.replace(kernel, alpha=alpha, beta=None)
    letters = tuple(kernel.letters_for(()))
    deepest = 0
    for k in (0, 5):
        for rep in range(30):
            calls.clear()
            _, rec = run_algorithm1(counted, k, StreamKey(seed=44, replication=rep))
            deepest = max(deepest, rec.rounds_used)
            assert sorted(calls) == sorted(letters), (k, rep, rec.rounds_used)
    assert deepest >= 5


@pytest.mark.parametrize(
    "kernel",
    [
        make_autoregressive(theta_geometric(0.8), 0.3),
        _window_scan(make_autoregressive(theta_geometric(0.8), 0.3)),
        build_kernel("imitation", {}),
    ],
    ids=["autoregressive", "autoregressive-scan", "imitation"],
)
def test_a_plan_reads_the_empty_window_once_and_its_runs_never(kernel):
    # the plan holds the one scan of the empty window, so the runs given it
    # open every round and seed every first re-read without reading it again
    calls = []

    def alpha(g, w):
        if not canon(w):
            calls.append(g)
        return kernel.alpha(g, w)

    counted = dataclasses.replace(kernel, alpha=alpha, beta=None)
    plan = prepare_backward(counted)
    assert sorted(calls) == sorted(kernel.letters_for(()))
    calls.clear()
    deepest = 0
    for k in (0, 5):
        for rep in range(30):
            key = StreamKey(seed=44, replication=rep)
            _, rec = run_algorithm1(counted, k, key, plan=plan)
            deepest = max(deepest, rec.rounds_used)
    assert calls == []
    assert deepest >= 5


def _understated():
    # positive_letters leaves out letter 2 on windows shorter than 2 although
    # it carries mass there (0.0625 on one known letter)
    def alpha(g, w):
        n = min(len(canon(w)), 4)
        if g == 1:
            return (0.25, 0.375, 0.5, 0.625, 0.75)[n]
        return (0.03125, 0.0625, 0.125, 0.1875, 0.25)[n] if g == 2 else 0.0

    return KernelSpec(
        "understated",
        {},
        None,
        alpha,
        positive_letters=lambda w: (1,) if len(canon(w)) < 2 else (1, 2),
    )


def test_cached_increment_reads_a_missing_letter_on_the_cached_window():
    # the first scan that names the understated kernel's letter 2 finds no
    # cached mass and must evaluate alpha on the cached window: not take 0,
    # not read the empty window.  That mass never enters a threshold, so a
    # uniform above 0.9375 can stay open for good: the round budget cuts
    # those runs
    understated = _understated()
    for k in (0, 3):
        for rep in range(200):
            key = StreamKey(seed=43, replication=rep)
            cached, rebuilt = (
                _outcome(run, understated, k, key, max_rounds=40)
                for run in (run_algorithm1, run_algorithm1_ref)
            )
            assert cached == rebuilt, (k, rep)


def test_runs_given_a_plan_leave_its_empty_masses_unchanged():
    # on the understated kernel a run reads the missing letter 2 on the
    # empty window and stores its mass with the masses it started from: in
    # its own copy, never in the plan that every run shares
    understated = _understated()
    reads = []
    alpha = understated.alpha

    def counted(g, w):
        if not canon(w):
            reads.append(g)
        return alpha(g, w)

    kernel = dataclasses.replace(understated, alpha=counted, beta=None)
    plan = prepare_backward(kernel)
    letters, cum, masses = plan.empty
    before = (letters, list(cum), dict(masses))
    reads.clear()
    keys = [(k, StreamKey(43, rep)) for k in (0, 3) for rep in range(200)]
    shared = [
        _outcome(run_algorithm1, kernel, k, key, max_rounds=40, plan=plan)
        for k, key in keys
    ]
    assert 2 in reads  # the store happened, in the runs' copies
    assert plan.empty == before
    assert plan.empty[2] == {1: 0.25}
    assert shared == [
        _outcome(run_algorithm1, kernel, k, key, max_rounds=40) for k, key in keys
    ]


def _sweep_id(kernel):
    theta = kernel.parameters.get("theta", kernel.name)
    if kernel.name == "autoregressive" and "additive_weight" not in kernel.closed_forms:
        return theta + "-scan"
    return theta


@pytest.mark.parametrize("kernel", list(_spontaneous_kernels()), ids=_sweep_id)
def test_runs_with_and_without_a_plan_agree(kernel):
    # one plan shared by every run decides exactly what each run's own plan
    # would: letters, stopping times, rounds and uniforms, and cut tableaux
    plan = prepare_backward(kernel)
    for k in (0, 3, 12):
        for rep in range(20):
            key = StreamKey(seed=7, replication=rep)
            for cap in (2000, 3):
                own = _outcome(run_algorithm1, kernel, k, key, max_rounds=cap)
                assert own == _outcome(
                    run_algorithm1, kernel, k, key, max_rounds=cap, plan=plan
                ), (k, rep, cap)
    if "additive_weight" in kernel.closed_forms:
        for rep in range(20):
            key = StreamKey(seed=7, replication=rep)
            shared = run_joint_tableau(kernel, 12, key, plan=plan)
            assert shared == run_joint_tableau(kernel, 12, key), rep


def test_a_plan_for_another_kernel_object_is_refused():
    # the plan records its kernel; an equal-looking copy may have had its
    # alpha replaced since, so only the very object the plan was made for
    # may use it
    kernel = _autoreg()
    plan = prepare_backward(kernel)
    assert plan.kernel is kernel
    twin = dataclasses.replace(kernel)
    with pytest.raises(ValueError, match="another kernel object"):
        run_algorithm1(twin, 0, StreamKey(0), plan=plan)
    with pytest.raises(ValueError, match="another kernel object"):
        run_joint_tableau(twin, 3, StreamKey(0), plan=plan)


def test_a_decreasing_mass_is_refused_like_the_reference():
    # masses 0.3 with no context and 0.2 once any letter is known: revealing
    # a letter lowers them, which no lower envelope may do.  u(0) = 0.9
    # clears beta() = 0.6; u(-1) = 0.1 draws letter 0, and the re-read of
    # time 0 finds alpha(0 | (0,)) below alpha(0 | ())
    shrinking = KernelSpec(
        "shrinking", {}, (0, 1), lambda g, w: 0.2 if canon(w) else 0.3
    )
    us = {0: 0.9, -1: 0.1}
    errors = []
    for run in (run_algorithm1, run_algorithm1_ref):
        with pytest.raises(KernelContractViolation, match="decreased") as exc:
            run(shrinking, 0, StreamKey(0), uniforms=us.__getitem__)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert "refined from () to (0,)" in errors[0]


_BROKEN_KERNELS = textwrap.dedent(
    """
    import dataclasses
    from perfectsim import StreamKey, run_algorithm1, run_algorithm2
    from perfectsim.backward import MaxRoundsExceeded, run_joint_tableau
    from perfectsim.coalescence import prepare_coalescence
    from perfectsim.gallery import make_cyclic4, theta_geometric
    from perfectsim.kernels import KernelContractViolation, KernelSpec, canon

    assert not __debug__
    nan = float("nan")
    # context-free masses are fine, every mass that needs a context is NaN,
    # which the increment scans' drop checks let through to the thresholds;
    # run_algorithm1 folds the hook's weights, and scans alpha without it
    spont = KernelSpec(
        name="nan-context",
        parameters={},
        alphabet=(0, 1),
        alpha=lambda g, w: 0.1 if not canon(w) else nan,
        closed_forms={"additive_weight": lambda g, lag, v: nan},
    )
    spont_scan = dataclasses.replace(spont, closed_forms={})
    cy = make_cyclic4(theta_geometric(0.5))
    coupled = dataclasses.replace(
        cy, alpha=lambda g, w: nan if len(canon(w)) > 3 else cy.alpha(g, w)
    )
    shared = prepare_coalescence(coupled)
    assert shared.shared
    per_past = dataclasses.replace(shared, shared=False)
    # masses that fall once a letter is revealed
    shrinking = KernelSpec(
        "shrinking", {}, (0, 1), lambda g, w: 0.2 if canon(w) else 0.3
    )
    runs = {
        "run_algorithm1": lambda r: run_algorithm1(
            spont, 0, StreamKey(1, r), max_rounds=300
        ),
        "run_algorithm1-scan": lambda r: run_algorithm1(
            spont_scan, 0, StreamKey(1, r), max_rounds=300
        ),
        "run_joint_tableau": lambda r: run_joint_tableau(
            spont, 0, StreamKey(1, r), max_extra_rounds=300
        ),
        "run_algorithm2": lambda r: run_algorithm2(
            coupled, 0, StreamKey(1, r), max_rounds=500, plan=shared
        ),
        "run_algorithm2-per-past": lambda r: run_algorithm2(
            coupled, 0, StreamKey(1, r), max_rounds=500, plan=per_past
        ),
        "run_algorithm1-shrinking": lambda r: run_algorithm1(
            shrinking, 0, StreamKey(1, r), max_rounds=300
        ),
    }
    for name, run in runs.items():
        for r in range(20):
            try:
                run(r)
            except KernelContractViolation as e:
                print(name, "tripped:", e)
                break
            except MaxRoundsExceeded:
                continue
        else:
            print(name, "never tripped")

    # no context-free mass: the plan refuses the kernel, and so does the CLI
    import contextlib, io, json
    from perfectsim import cli
    from perfectsim.backward import BetaZeroForAlgo1, prepare_backward
    from perfectsim.gallery import make_flipflop, flipflop_r
    try:
        prepare_backward(make_flipflop(flipflop_r(0.5, 0.5)))
    except BetaZeroForAlgo1:
        print("prepare_backward raised BetaZeroForAlgo1")
    else:
        print("prepare_backward accepted beta(empty) = 0")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["sample", "--kernel", "flipflop", "--algo", "algo1",
                       "--reps", "5", "--out", "ff"])
    payload = json.loads(err.getvalue().splitlines()[-1])
    print("sample exit", rc, payload["error"], payload["type"])
    """
)


def test_threshold_checks_run_under_python_O(tmp_path):
    # the chained-threshold checks of all three samplers (the spontaneous
    # one under both increment steps, the coupled one under both couplings)
    # and the scan step's "decreased" check are raises, not asserts, so a
    # broken kernel is still caught with assertions stripped; so is the
    # plan's beta(empty) check, which the CLI maps to exit 3
    src = os.path.dirname(os.path.dirname(perfectsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_KERNELS],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "run_algorithm1",
        "run_algorithm1-scan",
        "run_joint_tableau",
        "run_algorithm2",
        "run_algorithm2-per-past",
        "run_algorithm1-shrinking",
        "prepare_backward",
        "sample",
    ], out.stdout
    assert all("tripped:" in line for line in lines[:6]), out.stdout
    assert all("threshold nan" in line for line in lines[:5]), out.stdout
    assert "decreased by" in lines[5], out.stdout
    assert lines[6] == "prepare_backward raised BetaZeroForAlgo1", out.stdout
    assert lines[7] == "sample exit 3 assumption-violated BetaZeroForAlgo1", out.stdout
    assert list(tmp_path.iterdir()) == []


def test_replay_is_bit_identical_and_replications_are_separate():
    au = _autoreg()
    runs = {}
    for rep in range(40):
        key = StreamKey(seed=7, replication=rep)
        a = run_algorithm1(au, 2, key)
        b = run_algorithm1(au, 2, key)
        assert a[0] == b[0] and a[1] == b[1]
        runs[rep] = (tuple(a[0]), tuple(sorted(a[1].T.items())))
    assert len(set(runs.values())) > 1


def test_window_run_shapes():
    au = _autoreg()
    syms, rec = run_algorithm1(au, 3, StreamKey(12))
    assert len(syms) == 4
    assert all(s in (0, 1) for s in syms)
    assert set(rec.T) == {-3, -2, -1, 0}
    assert all(rec.T[t] <= t for t in rec.T)
    assert rec.t_min(-3, 0) == min(rec.T.values())


def test_uniform_consumption_is_one_per_probed_time():
    au = _autoreg()
    key = StreamKey(seed=3, replication=5)
    seen = []

    def hooked(t):
        seen.append(t)
        return uniform_at(key.at(t))

    _, rec = run_algorithm1(au, 0, key, uniforms=hooked)
    assert rec.uniforms_consumed == len(seen) == rec.rounds_used + 1
    assert sorted(seen, reverse=True) == list(range(0, -rec.rounds_used - 1, -1))


# ------------------------------------------------------------------- laws


def test_stopping_tail_matches_the_exact_law():
    # P(|T[0]| > 0) = 1 - beta() = 0.5 and P(|T[0]| > 1) = 0.375 for the
    # matching kernel with halving weights and delta = 0.3
    au = _autoreg()
    n = 5000
    over0 = over1 = 0
    for rep in range(n):
        _, rec = run_algorithm1(au, 0, StreamKey(seed=99, replication=rep))
        depth = -rec.T[0]
        over0 += depth > 0
        over1 += depth > 1
    se0 = math.sqrt(0.5 * 0.5 / n)
    se1 = math.sqrt(0.375 * 0.625 / n)
    assert abs(over0 / n - 0.5) < 4 * se0
    assert abs(over1 / n - 0.375) < 4 * se1


# -------------------------------------------------------- auxiliary chain


def test_auxiliary_chain_replays_the_scan_exactly():
    au = _autoreg()
    key = StreamKey(seed=21)
    ys = run_auxiliary_chain(au, 50, key)
    assert len(ys) == 51
    manual = []
    for j in range(51):
        manual.append(
            sample_symbol(au, uniform_at(key.at(j)), tuple(reversed(manual)))
        )
    assert ys == manual


def test_auxiliary_chain_keeps_stars_and_letters():
    au = _autoreg()
    ys = run_auxiliary_chain(au, 300, StreamKey(8))
    stars = sum(1 for y in ys if y is STAR)
    assert 0 < stars < len(ys)
    assert all(y in (0, 1) or y is STAR for y in ys)
    with pytest.raises(ValueError):
        run_auxiliary_chain(au, -1, StreamKey(0))
