"""Batch front door: config parsing, experiment orchestration, file output.

Subcommands
-----------
sample          draw exact stationary windows (or run the forward auxiliary
                chain) and write one CSV row per replication plus a JSON
                summary
diagnose        condition report, letter-string mass tables, exact-vs-MC
                tail comparison, renewal report
analyze-markov  class decomposition, n-hat, n0, transition matrix
validate        randomized kernel contract checks

Every artifact embeds a schema version, the resolved config, and the seed;
identical (config, seed) reruns are byte-identical (no timestamps, sorted
keys, sequential replication order).

Exit codes: 0 success; 2 config error (unknown kernel / bad flag / bad
value); 3 assumption violated (kernel rejects the requested algorithm);
4 budget exceeded (round cap, search horizon, or enumeration guard).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from decimal import Decimal, InvalidOperation

from .backward import (
    BetaZeroForAlgo1,
    MaxRoundsExceeded,
    prepare_backward,
    run_algorithm1,
    run_auxiliary_chain,
)
from .coalescence import (
    AssumptionViolated,
    BetaNZero,
    NotFound,
    NotFoundWithin,
    build_markov_analysis,
    compute_n0,
    find_nhat,
    make_plan,
    prepare_coalescence,
    run_algorithm2,
)
from .diagnostics import (
    ExplosionGuard,
    check_theorem_conditions,
    exact_T0_tail,
    renewal_diagnostic,
)
from .gallery import GALLERY, build_kernel
from .kernels import STAR, KernelContractViolation, validate_kernel
from .streams import StreamKey

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _coerce(text: str):
    """int, then float (decimal literal, precision-checked), else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        val = float(text)
    except ValueError:
        return text
    try:
        digits = len(Decimal(text).as_tuple().digits)
    except InvalidOperation:
        return text
    if digits > 17:
        raise ConfigError(
            f"{text!r} carries more decimal digits than a binary float holds; "
            "refusing to round silently"
        )
    return val


def _parse_params(pairs):
    params = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        key, _, val = item.partition("=")
        params[key.strip()] = _coerce(val.strip())
    return params


def _load_config(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _resolve(args) -> dict:
    """Merge config file and flags; flags win, kernel params merge per key."""
    cfg = _load_config(args.config) if args.config else {}
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a JSON object, got {params!r}")
    params = dict(params)
    params.update(_parse_params(args.param))
    out = {
        "command": args.command,
        "kernel": args.kernel if args.kernel is not None else cfg.get("kernel"),
        "params": params,
        "out": args.out if args.out is not None else cfg.get("out", args.command),
    }
    if type(out["out"]) is not str or not out["out"]:
        # a file stem: None, a list or "" would name odd or hidden files
        raise ConfigError(f"out must be a non-empty string, got {out['out']!r}")
    flag = getattr(args, "algo", None)
    out["algo"] = flag if flag is not None else cfg.get("algo", "algo1")
    for name, default in (
        ("seed", 0),
        ("k", 0),
        ("reps", None),
        ("max_rounds", None),
        ("truncation", None),
        ("horizon", None),
        ("n_terms", 12),
        ("window_w", 2000),
        ("renewal_h", 50),
        ("budget", 300_000),
        ("nhat_max", 6),
        ("n0_max", 64),
    ):
        flag = getattr(args, name, None)
        val = flag if flag is not None else cfg.get(name, default)
        # a count or a length; a bool is an int to Python, not here
        if val is not None and (type(val) is not int or val < 0):
            raise ConfigError(f"{name} must be a non-negative integer, got {val!r}")
        out[name] = val
    if out["kernel"] is None:
        raise ConfigError("--kernel (or a config 'kernel' key) is required")
    if out["kernel"] not in GALLERY:
        raise ConfigError(f"unknown kernel {out['kernel']!r}; choose from {GALLERY}")
    return out


def _build(cfg):
    try:
        return build_kernel(cfg["kernel"], dict(cfg["params"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad kernel parameters: {exc}") from exc


def _sym(x) -> str:
    return "*" if x is STAR else str(x)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _open_csv(path, cfg):
    """CSV file with a raw '#' comment line echoing the resolved config."""
    fh = open(path, "w", newline="")
    fh.write(f"# schema={SCHEMA_VERSION} config={json.dumps(cfg, sort_keys=True)}\n")
    return fh


def cmd_sample(cfg) -> int:
    kernel = _build(cfg)
    reps = cfg["reps"] if cfg["reps"] is not None else 1000
    k = cfg["k"]
    algo = cfg["algo"]
    if algo not in ("algo1", "algo2", "auxiliary"):
        raise ConfigError(f"unknown --algo {algo!r}")
    max_rounds = cfg["max_rounds"]
    if max_rounds is None:
        max_rounds = 10**6 if algo == "algo1" else 10**4

    sampler = plan = None
    if algo == "algo1":
        sampler, plan = run_algorithm1, prepare_backward(kernel)
    elif algo == "algo2":
        sampler = run_algorithm2
        plan = prepare_coalescence(kernel, cfg["nhat_max"], cfg["n0_max"])
        if plan.expected_windows is not None and plan.expected_windows > max_rounds:
            _warn(
                "expected-windows",
                f"the plan expects about {plan.expected_windows:.0f} windows "
                f"per draw, more than the cap of {max_rounds} (--max-rounds)",
            )
    rows = []
    marginal: dict = {}
    abs_ts = []
    for rep in range(reps):
        key = StreamKey(seed=cfg["seed"], replication=rep)
        if sampler is None:
            syms, rec = run_auxiliary_chain(kernel, k, key), None
        else:
            try:
                syms, rec = sampler(kernel, k, key, max_rounds=max_rounds, plan=plan)
            except MaxRoundsExceeded as exc:
                # name the draw that ran out, and the rounds its tableau holds
                _err("budget-exceeded", exc, replication=rep, rounds=exc.tableau.round)
                return 4
        newest = syms[-1]
        marginal[_sym(newest)] = marginal.get(_sym(newest), 0) + 1
        if rec is None:
            rows.append([rep, *map(_sym, syms), "", "", ""])
        else:
            abs_t = -rec.t_min(-k, 0)
            abs_ts.append(abs_t)
            rows.append(
                [rep, *map(_sym, syms), abs_t, rec.rounds_used, rec.uniforms_consumed]
            )

    header = (
        ["replication"]
        + [f"x[{t}]" for t in range(-k, 1)]
        + ["abs_T", "rounds", "uniforms"]
    )
    with _open_csv(f"{cfg['out']}.csv", cfg) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    def _mean_se(xs):
        if not xs:
            return None, None
        m = sum(xs) / len(xs)
        if len(xs) < 2:
            return m, None
        var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
        return m, (var / len(xs)) ** 0.5

    mean_t, se_t = _mean_se(abs_ts)
    numeric = [r[1 + k] for r in rows]
    x0_vals = [int(v) for v in numeric if v != "*"] if all(
        v == "*" or v.lstrip("-").isdigit() for v in numeric
    ) else []
    mean_x0, se_x0 = _mean_se(x0_vals)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "replications": reps,
        "marginal_newest": marginal,
        "mean_abs_T": mean_t,
        "se_abs_T": se_t,
        "mean_x0": mean_x0,
        "se_x0": se_x0,
    }
    if algo == "algo2":
        summary["coupling"] = plan.coupling
        summary["phase1_agreement"] = plan.agreement
        summary["expected_windows"] = plan.expected_windows
    _write_json(f"{cfg['out']}.json", summary)
    return 0


def cmd_diagnose(cfg) -> int:
    kernel = _build(cfg)
    n_terms = cfg["n_terms"]
    out = cfg["out"]
    if n_terms == 0:
        for name, cols in (
            ("rho", ["n", "rho", "rho_tilde"]),
            ("tail", ["n", "exact_tail", "mc_tail", "mc_se"]),
            ("gaps", ["half", "gap"]),
        ):
            with _open_csv(f"{out}-{name}.csv", cfg) as fh:
                csv.writer(fh).writerow(cols)
        _write_json(
            f"{out}.json",
            {"schema_version": SCHEMA_VERSION, "config": cfg, "note": "n_terms=0"},
        )
        return 0

    report = check_theorem_conditions(kernel, N=n_terms, budget=cfg["budget"])
    with _open_csv(f"{out}-rho.csv", cfg) as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "rho", "rho_tilde"])
        rho = report.rho_values or []
        til = report.rho_tilde_values or []
        for i in range(max(len(rho), len(til))):
            writer.writerow(
                [
                    i + 1,
                    rho[i] if i < len(rho) else "",
                    til[i] if i < len(til) else "",
                ]
            )

    horizon = cfg["horizon"] if cfg["horizon"] is not None else 6
    reps = cfg["reps"] if cfg["reps"] is not None else 5000
    try:
        plan = prepare_backward(kernel)
    except BetaZeroForAlgo1:
        plan = None
    mc_ok = plan is not None
    counts = [0] * (horizon + 1)
    if mc_ok:
        for rep in range(reps):
            key = StreamKey(seed=cfg["seed"], replication=rep)
            _, rec = run_algorithm1(kernel, 0, key, plan=plan)
            for n in range(horizon + 1):
                if -rec.T[0] > n:
                    counts[n] += 1
    tail_rows = []
    notes = list(report.notes)
    for n in range(horizon + 1):
        try:
            exact = exact_T0_tail(
                kernel, n, truncation=cfg["truncation"], budget=cfg["budget"]
            )
        except ExplosionGuard as exc:
            notes.append(f"tail enumeration stopped at n={n}: {exc}")
            break
        if mc_ok and reps > 0:
            freq = counts[n] / reps
            se = (max(freq * (1 - freq), 1e-12) / reps) ** 0.5
            tail_rows.append([n, exact, freq, se])
        else:
            tail_rows.append([n, exact, "", ""])
    with _open_csv(f"{out}-tail.csv", cfg) as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "exact_tail", "mc_tail", "mc_se"])
        writer.writerows(tail_rows)

    renewal = None
    if mc_ok and "additive_weight" in kernel.closed_forms:
        rep = renewal_diagnostic(
            kernel,
            cfg["renewal_h"],
            cfg["window_w"],
            StreamKey(seed=cfg["seed"], replication=10**9),
            plan=plan,
        )
        renewal = {
            "window_w": rep.window_w,
            "horizon_h": rep.horizon_h,
            "renewal_count": rep.renewal_count,
            "gap_mean_first": rep.gap_mean_first,
            "gap_mean_second": rep.gap_mean_second,
            "z_gap_means": rep.z_gap_means,
            "chi2_stat": rep.chi2_stat,
            "chi2_dof": rep.chi2_dof,
            "low_counts": rep.low_counts,
            "truncation_bias": rep.truncation_bias,
            "halves_agree_3se": rep.halves_agree_3se,
        }
        with _open_csv(f"{out}-gaps.csv", cfg) as fh:
            writer = csv.writer(fh)
            writer.writerow(["half", "gap"])
            for g in rep.gaps_first:
                writer.writerow([1, g])
            for g in rep.gaps_second:
                writer.writerow([2, g])
    else:
        notes.append("renewal report skipped: needs context-free mass and an "
                     "additive weight closed form")

    _write_json(
        f"{out}.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "condition_report": {
                "kernel": report.kernel_name,
                "rho_available": report.rho_available,
                "rho_source": report.rho_source,
                "rho_values": report.rho_values,
                "rho_tilde_available": report.rho_tilde_available,
                "rho_tilde_values": report.rho_tilde_values,
                "c_hat": report.c_hat,
                "bound_expected_t0": report.bound_expected_t0,
                "raabe_epsilon": report.raabe_epsilon,
            },
            "notes": notes,
            "renewal": renewal,
        },
    )
    return 0


def cmd_analyze_markov(cfg) -> int:
    kernel = _build(cfg)
    found = find_nhat(kernel, cfg["nhat_max"])
    payload = {"schema_version": SCHEMA_VERSION, "config": cfg}
    analysis = None
    if isinstance(found, NotFound):
        payload["nhat"] = None
        payload["n0"] = None
        payload["coupling"] = None
        payload["phase1_agreement"] = None
        payload["expected_windows"] = None
        payload["reports"] = list(found.reports)
        try:
            analysis = build_markov_analysis(kernel, 1)
        except (AssumptionViolated, BetaNZero) as exc:
            payload["order1_error"] = str(exc)
    else:
        nhat, analysis = found
        payload["nhat"] = nhat
        plan = make_plan(kernel, analysis, compute_n0(analysis, cfg["n0_max"]))
        payload["n0"] = plan.n0
        payload["coupling"] = plan.coupling
        payload["phase1_agreement"] = plan.agreement
        payload["expected_windows"] = plan.expected_windows
        payload["reports"] = []

    if analysis is not None:
        payload["order"] = analysis.order
        payload["beta_n"] = analysis.beta_n
        payload["period"] = analysis.period
        payload["n_closed_classes"] = len(analysis.closed_classes)
        payload["closed_classes"] = [
            [list(w) for w in cls] for cls in analysis.closed_classes
        ]
        payload["n_states"] = len(analysis.states)
        with _open_csv(f"{cfg['out']}-matrix.csv", cfg) as fh:
            writer = csv.writer(fh)
            labels = ["|".join(map(str, w)) for w in analysis.states]
            writer.writerow(["from\\to"] + labels)
            for w in analysis.states:
                writer.writerow(
                    ["|".join(map(str, w))]
                    + [analysis.matrix[w].get(v, 0.0) for v in analysis.states]
                )
    _write_json(f"{cfg['out']}.json", payload)
    return 0


def cmd_validate(cfg) -> int:
    kernel = _build(cfg)
    trials = cfg["reps"] if cfg["reps"] is not None else 1000
    report = validate_kernel(kernel, trials=trials, rng_seed=cfg["seed"])
    _write_json(
        f"{cfg['out']}.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "passed": report.passed,
            "trials": report.trials,
            "checks_run": report.checks_run,
            "violations": [str(v) for v in report.violations],
        },
    )
    return 0 if report.passed else 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="perfectsim",
        description="Exact sampling and diagnostics for infinite-memory chains",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("sample", "diagnose", "analyze-markov", "validate"):
        q = sub.add_parser(name)
        q.add_argument("--kernel")
        q.add_argument("--param", action="append", metavar="KEY=VAL")
        q.add_argument("--seed", type=int)
        q.add_argument("--out")
        q.add_argument("--config")
        q.add_argument("--reps", type=int)
        q.add_argument("--max-rounds", dest="max_rounds", type=int)
        q.add_argument("--truncation", type=int)
        q.add_argument("--horizon", type=int)
        if name == "sample":
            q.add_argument("--algo", choices=["algo1", "algo2", "auxiliary"])
            q.add_argument("--k", type=int)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return exc.code if exc.code else 0
    try:
        cfg = _resolve(args)
        if args.command == "sample":
            return cmd_sample(cfg)
        if args.command == "diagnose":
            return cmd_diagnose(cfg)
        if args.command == "analyze-markov":
            return cmd_analyze_markov(cfg)
        return cmd_validate(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        _err("config-error", exc)
        return 2
    except (BetaZeroForAlgo1, AssumptionViolated, BetaNZero, KernelContractViolation) as exc:
        _err("assumption-violated", exc)
        return 3
    except (MaxRoundsExceeded, NotFoundWithin, ExplosionGuard) as exc:
        _err("budget-exceeded", exc)
        return 4


def _err(kind: str, exc: Exception, **fields) -> None:
    error = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps({**error, **fields}) + "\n")


def _warn(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"warning": kind, "message": message}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
