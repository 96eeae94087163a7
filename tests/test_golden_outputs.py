"""A fixed sweep of both samplers, and the artifacts of ``diagnose`` and of
``sample``, each pinned by one digest.

The digest is a sha256 over ``repr((letters, T, rounds_used,
uniforms_consumed))`` of 1 520 runs: letters and integers only, no float
thresholds.  It detects any change in what the samplers decide.  It is
not an oracle: the digest was recorded from the code at commit 44e2d47,
not derived independently.  A change that alters outputs on purpose must
say so and re-record the digest.  It was re-recorded once, when the
shared coupling's phase-1 layout became the multigamma one: the coupled
runs below all use shared plans, so their draws changed (same law), while
a digest of the spontaneous runs alone stayed the same.  The ``diagnose``
digest was recorded from the code at commit 710d567, before its condition
checks walked each oracle column once.
"""

import dataclasses
import hashlib

from perfectsim.backward import MaxRoundsExceeded, run_algorithm1
from perfectsim.cli import main
from perfectsim.coalescence import prepare_coalescence, run_algorithm2
from perfectsim.gallery import GALLERY, build_kernel
from perfectsim.streams import StreamKey

GOLDEN_SHA256 = "178a8e4906d4fa44ed04e77c695fb69f4d76220e1f3a8e6554518b795982073c"

_THETAS = ("geometric:0.5", "geometric:0.8", "list:0.5,0.3,0.2", "polynomial:0.3")


def _without_hook(kernel):
    forms = {k: v for k, v in kernel.closed_forms.items() if k != "additive_weight"}
    return dataclasses.replace(kernel, closed_forms=forms)


def _spontaneous_kernels():
    for theta in _THETAS:
        kernel = build_kernel("autoregressive", {"theta": theta})
        yield kernel
        yield _without_hook(kernel)
    for name in ("imitation", "imitation-general", "ladder"):
        yield build_kernel(name, {})


def _coupled_kernels():
    yield build_kernel("cyclic4", {"theta": "geometric:0.4"})
    yield build_kernel("cyclic4", {"theta": "list:0.5,0.3,0.2"})
    yield build_kernel("graph-walk", {"graph": "path:3", "theta": "list:0.5,0.3,0.2"})
    yield build_kernel("three-letter-alternating", {})


def _sweep():
    for kernel in _spontaneous_kernels():
        for k in (0, 3, 12):
            for rep in range(40):
                yield run_algorithm1(kernel, k, StreamKey(7, rep), max_rounds=2000)
    for kernel in _coupled_kernels():
        for k in (0, 4):
            for rep in range(25):
                yield run_algorithm2(kernel, k, StreamKey(9, rep))


def test_sweep_digest_is_unchanged():
    h = hashlib.sha256()
    runs = 0
    for letters, rec in _sweep():
        h.update(
            repr((letters, rec.T, rec.rounds_used, rec.uniforms_consumed)).encode()
        )
        runs += 1
    assert runs == 1520
    assert h.hexdigest() == GOLDEN_SHA256


# The coupled route under per-past streams, which the sweep above never runs
# (every kernel there gets a shared plan).  ``max_rounds`` is small, so some
# runs stop at the cap and their partial tableaux are hashed instead; kernels
# with and without a published horizon are both in.  Recorded from the code
# at commit f1a6066, before phase 2 re-read each open time against the window
# it last scanned.
GOLDEN_PER_PAST_SHA256 = "fe1c553ea08b3ad6a9614db63aacad5343ac145c282245f63bb4a5b12b1ecdd0"

_PER_PAST_KERNELS = (
    ("cyclic4", {"theta": "geometric:0.4"}),
    ("cyclic4", {"theta": "polynomial:0.3"}),
    ("graph-walk", {"graph": "complete:3"}),
    ("three-letter-alternating", {}),
)


def test_per_past_digest_is_unchanged():
    h = hashlib.sha256()
    outcomes = {"done": 0, "cut": 0}
    for name, params in _PER_PAST_KERNELS:
        kernel = build_kernel(name, params)
        plan = dataclasses.replace(prepare_coalescence(kernel), shared=False)
        for k in (0, 3):
            for rep in range(10):
                try:
                    letters, rec = run_algorithm2(
                        kernel, k, StreamKey(5, rep), max_rounds=300, plan=plan
                    )
                except MaxRoundsExceeded as e:
                    tab = e.tableau
                    out = (str(e), sorted(tab.temp.items()), tab.round)
                    outcomes["cut"] += 1
                else:
                    out = (letters, rec.T, rec.rounds_used, rec.uniforms_consumed)
                    outcomes["done"] += 1
                h.update(repr(out).encode())
    assert outcomes == {"done": 50, "cut": 30}
    assert h.hexdigest() == GOLDEN_PER_PAST_SHA256


# ``perfectsim diagnose`` on the 8 gallery kernels with their defaults and on
# the unrestricted three-letter chain, with relative ``--out`` names so the
# config echoed into every artifact does not depend on the directory.
GOLDEN_DIAGNOSE_SHA256 = "9a8d182bc3618babe0ed240c9eaf40ab49dd02e6fdbe43fa84da32c6b3b95393"

_DIAGNOSE_RUNS = [(name, name, []) for name in GALLERY] + [
    ("three-letter-alternating-unrestricted", "three-letter-alternating",
     ["--param", "restrict=false"])
]
_DIAGNOSE_ARTIFACTS = (".json", "-rho.csv", "-tail.csv", "-gaps.csv")


def test_diagnose_artifact_digest_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for label, kernel, params in _DIAGNOSE_RUNS:
        assert main(["diagnose", "--kernel", kernel, "--out", label, *params]) == 0
        for suffix in _DIAGNOSE_ARTIFACTS:
            path = tmp_path / f"{label}{suffix}"
            h.update(f"{label}{suffix}\n".encode())
            h.update(path.read_bytes() if path.exists() else b"(absent)\n")
    assert h.hexdigest() == GOLDEN_DIAGNOSE_SHA256


# ``perfectsim sample`` on both routes and on the auxiliary chain, CSV and
# JSON artifacts alike.  Recorded from the code at commit f20f941, before the
# spontaneous route's runs shared one prepared plan per command.
GOLDEN_SAMPLE_SHA256 = "c0e53bd8efa09e05ccdc2c4c70809f3be856c7b37cc3b7e8ff7ad2da8b6286f5"

_SAMPLE_RUNS = (
    ("autoregressive-algo1", "autoregressive", "algo1", "2", "200"),
    ("imitation-algo1", "imitation", "algo1", "2", "200"),
    ("cyclic4-algo2", "cyclic4", "algo2", "1", "40"),
    ("autoregressive-auxiliary", "autoregressive", "auxiliary", "3", "50"),
)


def test_sample_artifact_digest_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for label, kernel, algo, k, reps in _SAMPLE_RUNS:
        argv = ["sample", "--kernel", kernel, "--algo", algo, "--k", k,
                "--reps", reps, "--seed", "13", "--out", label]
        assert main(argv) == 0, label
        for suffix in (".csv", ".json"):
            h.update(f"{label}{suffix}\n".encode())
            h.update((tmp_path / f"{label}{suffix}").read_bytes())
    assert h.hexdigest() == GOLDEN_SAMPLE_SHA256
