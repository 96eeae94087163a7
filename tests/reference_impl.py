"""Rebuild-everything references for both backward samplers.

These are the obvious-by-construction forms and exist only as test
oracles: the production samplers must agree with them on every decision
(symbols, stopping map, round and uniform counts, and the tableau of a
run cut short).

- ``run_algorithm2_ref`` is the direct sweep: every round snapshots the
  whole tableau, rebuilds every window's left context from scratch, and
  sweeps all windows newest-first.  It is quadratic-ish in the number of
  rounds.  Like the sampler, it reads the stream id from the plan: one
  uniform per time under the shared coupling, one stream per past
  otherwise.  Under the shared coupling it lays each phase-1 time out
  itself, by a running sum over the alphabet: first the mass every live
  context shares, then each context's remainder, then STAR.
- ``run_algorithm1_ref`` runs the spontaneous-symbol round loop with an
  increment step that rebuilds both windows of every re-read and scans
  alpha on each, where ``run_algorithm1`` keeps each open time's last
  scan.  On a kernel that publishes ``additive_weight``,
  ``run_algorithm1`` folds the revealed letters' weights instead, whose
  thresholds may differ from these scans in the last bits, so there the
  reference pins decisions (letters, stopping map, counts, cut tableau),
  not threshold bits.
"""

from perfectsim.backward import (
    MaxRoundsExceeded,
    SimulationTableau,
    StoppingRecord,
    _backward,
)
from perfectsim.coalescence import prepare_coalescence
from perfectsim.kernels import STAR, KernelContractViolation, _scan, _scan_increment
from perfectsim.streams import keyed_uniforms, uniform_at


def run_algorithm1_ref(kernel, k, key, max_rounds=10**6, uniforms=None):
    if k < 0:
        raise ValueError("k >= 0 required")
    if uniforms is None:
        uniforms = keyed_uniforms(key)

    def step(temp, t, u, threshold, newly):
        # the window back to the round start, against the start-of-round
        # view of it: the same window with this round's letters starred
        w_new = [temp[j] for j in range(t - 1, newly[0][0] - 1, -1)]
        w_old = list(w_new)
        for j, _ in newly:
            w_old[t - 1 - j] = STAR
        return _scan_increment(kernel, u, w_new, w_old, threshold)

    temp, T, rounds, consumed = _backward(kernel, -k, 0, uniforms, max_rounds, step)
    record = StoppingRecord(
        T={t: T[t] for t in range(-k, 1)},
        rounds_used=rounds,
        uniforms_consumed=consumed,
    )
    return [temp[t] for t in range(-k, 1)], record


def run_algorithm2_ref(
    kernel,
    k,
    key,
    max_rounds=10**4,
    plan=None,
    nhat_max=8,
    n0_max=64,
    uniforms=None,
    trace=None,
):
    if k < 0:
        raise ValueError("k >= 0 required")
    if plan is None:
        plan = prepare_coalescence(kernel, nhat_max, n0_max)
    if uniforms is None:
        uniforms = lambda t, pid: uniform_at(key.at(t, pid))
    nhat, n0 = plan.nhat, plan.n0
    C = plan.analysis.states
    idx = plan.index

    def l(z):
        return -(z + 1) * n0 + 1

    def r(z):
        return -z * n0

    temp = {}
    thr = {}
    ucache = {}
    ttil = {}
    traj = {}
    first_done = {}

    def _u(t, pid):
        kk = (t, None if plan.shared else pid)
        if kk not in ucache:
            ucache[kk] = uniforms(*kk)
        return ucache[kk]

    n = 0
    while True:
        if n > max_rounds:
            raise MaxRoundsExceeded(
                f"no coalescence within {max_rounds} windows",
                SimulationTableau(dict(temp), n - 1, -k, 0),
            )
        prev = dict(temp)

        for a in C:
            traj[(n, idx[a])] = {}
        for t in range(l(n), r(n) + 1):
            ctxs = {
                a: tuple(traj[(n, idx[a])][j][0] for j in range(t - 1, l(n) - 1, -1))
                + a
                for a in C
            }
            if not plan.shared:
                for a in C:
                    traj[(n, idx[a])][t] = _scan(kernel, _u(t, idx[a]), ctxs[a])
                continue
            u = _u(t, None)
            pos = {
                a: [max(kernel.alpha(g, c), 0.0) for g in kernel.alphabet]
                for a, c in ctxs.items()
            }
            common = [min(col) for col in zip(*pos.values())]
            for a in C:
                # the shared segment, then this context's remainders
                acc, pick = 0.0, None
                for g, m in zip(kernel.alphabet, common):
                    acc += m
                    if pick is None and u < acc:
                        pick = (g, acc)
                for g, x, m in zip(kernel.alphabet, pos[a], common):
                    acc += x - m
                    if pick is None and u < acc:
                        pick = (g, acc)
                traj[(n, idx[a])][t] = pick or (STAR, acc)
        for t in range(l(n), r(n) + 1):
            syms = {traj[(n, idx[a])][t][0] for a in C}
            if len(syms) == 1 and STAR not in syms:
                temp[t] = syms.pop()
                ttil[t] = -n
            else:
                temp[t] = STAR

        for z in range(n - 1, -1, -1):
            b = tuple(temp[j] for j in range(l(z) - 1, l(z) - nhat - 1, -1))
            if any(x is STAR for x in b):
                continue
            if b not in idx:
                raise KernelContractViolation(
                    f"{kernel.name}: completed context {b!r} is not an "
                    "admissible window"
                )
            pid = idx[b]
            first = z not in first_done
            if first:
                first_done[z] = n
            for t in range(l(z), r(z) + 1):
                if temp[t] is not STAR:
                    continue
                u = _u(t, pid)
                if first:
                    sym0, acc0 = traj[(z, pid)][t]
                    if sym0 is not STAR:
                        temp[t] = sym0
                        ttil[t] = -n
                        continue
                    base = acc0
                    w_old = (
                        tuple(
                            traj[(z, pid)][j][0] for j in range(t - 1, l(z) - 1, -1)
                        )
                        + b
                    )
                else:
                    base = thr[t]
                    w_old = tuple(prev[j] for j in range(t - 1, l(n - 1) - 1, -1))
                assert u >= base
                w_new = tuple(temp[j] for j in range(t - 1, l(n) - 1, -1))
                sym, acc = _scan_increment(kernel, u, w_new, w_old, base)
                if sym is STAR:
                    thr[t] = acc
                else:
                    temp[t] = sym
                    ttil[t] = -n

        if trace is not None:
            trace(n, dict(temp))
        if all(temp.get(t, STAR) is not STAR for t in range(-k, 1)):
            record = StoppingRecord(
                T={t: ttil[t] for t in range(-k, 1)},
                rounds_used=n,
                uniforms_consumed=len(ucache),
            )
            return [temp[t] for t in range(-k, 1)], record
        n += 1
