"""Tests of the benchmark itself, at a reduced size.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from perfectsim import StreamKey, run_algorithm1, cli  # noqa: E402
from perfectsim.gallery import build_kernel  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Probes and diagnose runs cut down; artifacts written under tmp_path."""
    monkeypatch.setattr(probes, "REPEATS", 1)
    monkeypatch.setattr(probes, "MIN_SECONDS", 0.0)
    monkeypatch.setattr(probes, "TABLEAU_TOP", 200)
    monkeypatch.setattr(
        worker, "DIAGNOSE_RUNS", [r for r in worker.DIAGNOSE_RUNS
                                  if r[0] in ("autoregressive", "flipflop")]
    )
    monkeypatch.setattr(worker, "OUT_DIR", str(tmp_path))
    return tmp_path


def small_workload(name):
    if name == "spontaneous":
        return worker.Sampling("autoregressive", {"theta": "geometric:0.5", "delta": 0.3},
                               "algo1", 300, 1, 0)
    if name == "coupled":
        return worker.Sampling("cyclic4", {"theta": "geometric:0.4"}, "algo2", 12, 1, 0)
    return worker.make_workload(name, 0)


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)


@pytest.mark.parametrize("name", ["spontaneous", "coupled", "diagnose"])
def test_every_metric_is_emitted_and_counts_repeat(small, name):
    wl = small_workload(name)
    rounds, metrics, _ = worker.untraced(wl, 0)
    assert rounds.failed == 0 and not rounds.problems
    wanted = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}  # run.py adds it
    assert set(metrics) == wanted
    assert all(v > 0 for v, _ in metrics.values())

    runs = [worker.traced(wl, 0, name) for _ in range(2)]
    for rounds, metrics, _ in runs:
        assert rounds.failed == 0 and not rounds.problems
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert (small / f"{name}.spans.tsv").exists()
    counts = [{n: v for n, (v, u) in m.items() if u in ("count", "bytes")}
              for _, m, _ in runs]
    assert counts[0] == counts[1]


def test_run_py_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] % 40 == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spontaneous", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_spontaneous_check_rejects_flipped_letters():
    kernel = build_kernel("autoregressive", {"theta": "geometric:0.5", "delta": 0.3})
    draws = []
    for r in range(4000):
        syms, rec = run_algorithm1(kernel, 0, StreamKey(seed=5, replication=r))
        draws.append((syms[-1], -rec.T[0]))
    assert checks.check_spontaneous(draws, 0.5, 0.3) == []
    flipped = [(1 - x, d) for x, d in draws]
    assert any("mean X0" in m for _, m in checks.check_spontaneous(flipped, 0.5, 0.3))
    deeper = [(x, d + 1) for x, d in draws]
    assert checks.check_spontaneous(deeper, 0.5, 0.3)
    bad = [(2, draws[0][1])] + draws[1:]
    assert (0, "X0 = 2 is not a letter") in checks.check_spontaneous(bad, 0.5, 0.3)


def test_coupled_check_rejects_flipped_letters():
    symbols = [0, 1, 2, 3] * 10
    assert checks.check_coupled(symbols) == []
    assert checks.check_coupled([4] + symbols[1:])[0][0] == 0
    assert checks.check_coupled([0] * 40)


def test_rekey_check_rejects_a_diverging_rerun(monkeypatch):
    wl = small_workload("coupled")
    _, outputs = wl.run_round()
    assert wl.check_once(outputs) == []
    # re-keying every uniform, not only those older than the cut, must show
    monkeypatch.setattr(worker, "rekeyed", lambda key, rekey, cut: (
        lambda t, pid: worker.uniform_at(rekey.at(t, pid))))
    assert wl.check_once(outputs)


def test_replay_check_rejects_a_changed_output():
    assert checks.mismatches([(0,), (1,)], [(0,), (1,)], "replay") == []
    assert checks.mismatches([(0,), (1,)], [(0,), (2,)], "replay")[0][0] == 1


def _diagnose(tmp_path, kernel):
    prefix = str(tmp_path / kernel)
    assert cli.main(["diagnose", "--kernel", kernel, "--out", prefix]) == 0
    files = {}
    for part, suffix in worker.ARTIFACTS.items():
        if os.path.exists(prefix + suffix):
            with open(prefix + suffix, "rb") as fh:
                files[part] = fh.read()
    return files


def _edit_csv(data, column, fn):
    lines = data.decode().splitlines()
    header = lines[1].split(",")
    col = header.index(column)
    out = lines[:2]
    for line in lines[2:]:
        cells = line.split(",")
        cells[col] = repr(fn(cells))
        out.append(",".join(cells))
    return ("\n".join(out) + "\n").encode()


def test_diagnose_check_rejects_corrupted_artifacts(tmp_path):
    ar = _diagnose(tmp_path, "autoregressive")
    assert checks.check_diagnose("autoregressive", ar) == []
    # mc_tail moved 5 standard errors off the exact tail
    off = dict(ar, tail=_edit_csv(ar["tail"], "mc_tail",
                                  lambda c: float(c[1]) + 5 * float(c[3])))
    assert any("mc_tail" in m for m in checks.check_diagnose("autoregressive", off))
    rising = dict(ar, tail=_edit_csv(ar["tail"], "exact_tail", lambda c: 1.0 - float(c[1])))
    assert checks.check_diagnose("autoregressive", rising)

    cy = _diagnose(tmp_path, "cyclic4")
    assert checks.check_diagnose("cyclic4", cy) == []
    report = json.loads(cy["json"])
    report["condition_report"]["rho_tilde_values"][0] *= 1.0 + 1e-9
    bad = dict(cy, json=json.dumps(report).encode())
    assert checks.check_diagnose("cyclic4", bad)
    # a kernel with a usable coupled route is no negative control
    assert checks.check_diagnose("flipflop", cy)
    assert checks.check_diagnose("flipflop", _diagnose(tmp_path, "flipflop")) == []


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    inner = tr.span("backward", lambda: sum(range(20000)))
    outer = tr.span("cli", lambda: [inner() for _ in range(3)])
    outer()
    (_, o0, o1, _), *children = tr.spans  # the outer span opens first
    busy = sum(t1 - t0 for _, t0, t1, _ in children)
    selfs = tr.self_seconds()
    assert selfs["cli.self_s"] == pytest.approx(o1 - o0 - busy, rel=0, abs=1e-12)
    assert selfs["backward.self_s"] == pytest.approx(busy, rel=0, abs=1e-12)
