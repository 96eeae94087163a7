"""Output checks.

Each check compares the program's outputs with a computation made here,
apart from the program, or with a property the method must have.  A check
returns the problems it found as ``(op, message)`` pairs, where ``op`` is
the index of the failed operation or ``None`` when the whole batch fails.
"""

from __future__ import annotations

import csv
import io
import json
import math

SE_LIMIT = 4.0
EXACT = 1e-12
TAIL_J = range(7)  # P(|T0| > j) for j = 0..6


def geometric_tail(q, n):
    """P(|T0| > m) for m = 0..n on a star-affine kernel with geometric weights:
    p_m = s(m+1) + sum_{j=1..m} theta_j p_{m-j}, theta_j = (1-q) q^j, s(n) = q^n."""
    p = []
    for m in range(n + 1):
        acc = q ** (m + 1)
        for j in range(1, m + 1):
            acc += (1.0 - q) * q**j * p[m - j]
        p.append(acc)
    return p


def _within(freq, p, n):
    return abs(freq - p) <= SE_LIMIT * math.sqrt(p * (1.0 - p) / n)


def check_spontaneous(draws, q, delta):
    """``draws``: (X0, |T0|) per draw, None for a draw that raised.

    The newest letter's stationary mean is 1 - delta for every theta (it
    solves m = theta_0 (1 - delta) + (1 - theta_0) m), and the stopping
    depth follows ``geometric_tail``."""
    problems = [(i, f"X0 = {d[0]!r} is not a letter") for i, d in enumerate(draws)
                if d is not None and d[0] not in (0, 1)]
    done = [d for d in draws if d is not None and d[0] in (0, 1)]
    n = len(done)
    if not n:
        return problems + [(None, "no draw completed")]
    mean = sum(x for x, _ in done) / n
    if not _within(mean, 1.0 - delta, n):
        problems.append((None, f"mean X0 {mean:.5f} vs {1.0 - delta} over {n} draws"))
    tail = geometric_tail(q, TAIL_J[-1])
    for j in TAIL_J:
        freq = sum(1 for _, depth in done if depth > j) / n
        if not _within(freq, tail[j], n):
            problems.append((None, f"P(|T0|>{j}) {freq:.5f} vs exact {tail[j]:.5f}"))
    return problems


def check_coupled(symbols, alphabet=(0, 1, 2, 3)):
    """Every draw is a letter, and the letter counts agree with the uniform
    marginal that the walk's rotation symmetry forces."""
    problems = [(i, f"{s!r} is not a letter of Z/4") for i, s in enumerate(symbols)
                if s is not None and s not in alphabet]
    done = [s for s in symbols if s in alphabet]
    n = len(done)
    if not n:
        return problems + [(None, "no draw completed")]
    share = 1.0 / len(alphabet)
    for g in alphabet:
        freq = done.count(g) / n
        if not _within(freq, share, n):
            problems.append((None, f"letter {g}: share {freq:.4f} vs {share} of {n}"))
    return problems


def mismatches(expected, got, what):
    """Operations whose outputs differ from the expected ones, bit for bit."""
    return [(i, f"{what}: {b!r} != {a!r}") for i, (a, b) in enumerate(zip(expected, got))
            if a != b]


def _csv_rows(data):
    text = data.decode()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _column(rows, name):
    return [float(r[name]) for r in rows if r[name] != ""]


def _non_increasing_unit(values, what):
    if any(not 0.0 <= v <= 1.0 for v in values):
        return [f"{what} leaves [0, 1]: {values}"]
    if any(b > a + EXACT for a, b in zip(values, values[1:])):
        return [f"{what} increases with n: {values}"]
    return []


def check_diagnose(label, files):
    """Problems in one kernel's ``diagnose`` artifacts (``files``: suffix -> bytes,
    suffixes "json", "rho", "tail" and "gaps"), for default parameters."""
    problems = []
    for part in ("json", "rho", "tail"):
        if part not in files:
            return [f"missing {part} artifact"]
    report = json.loads(files["json"])["condition_report"]
    rho = _column(_csv_rows(files["rho"]), "rho")
    tail_rows = _csv_rows(files["tail"])
    exact = _column(tail_rows, "exact_tail")
    problems += _non_increasing_unit(rho, "rho")
    problems += _non_increasing_unit(exact, "exact_tail")

    if label == "autoregressive":  # theta = geometric:0.5, delta = 0.3
        want = [math.prod(1.0 - 0.5**j for j in range(1, n + 1))
                for n in range(1, len(report["rho_values"] or []) + 1)]
        if not want or any(abs(a - b) > EXACT for a, b in zip(report["rho_values"], want)):
            problems.append(f"rho_values {report['rho_values']} vs {want}")
        tail = geometric_tail(0.5, len(exact) - 1)
        if not exact or any(abs(a - b) > EXACT for a, b in zip(exact, tail)):
            problems.append(f"exact_tail {exact} vs recursion {tail}")
        for r in tail_rows:
            mc, se, ex = float(r["mc_tail"]), float(r["mc_se"]), float(r["exact_tail"])
            if abs(mc - ex) > SE_LIMIT * se:
                problems.append(f"n={r['n']}: mc_tail {mc} vs exact {ex} (se {se})")
    elif label == "cyclic4":  # theta = geometric:0.5
        got = report["rho_tilde_values"] or []
        want = [4.0 * math.prod(1.0 - 0.5**j for j in range(2, n + 2))
                for n in range(1, len(got) + 1)]
        if not got or any(abs(a - b) > EXACT for a, b in zip(got, want)):
            problems.append(f"rho_tilde_values {got} vs {want}")
    elif label == "three-letter-alternating":
        # alternating histories: from newest letter b each other letter has
        # alpha 1/2, so every window's mass is 1 and the 3 class windows sum to 3
        got = report["rho_tilde_values"] or []
        if not got or any(abs(v - 3.0) > EXACT for v in got):
            problems.append(f"rho_tilde_values {got} vs 3 at every n")
    elif label in ("flipflop", "three-letter-alternating-unrestricted"):
        if report["rho_tilde_available"] or report["rho_tilde_values"] is not None:
            problems.append("coupled route reported available on a negative control")
    return problems
