"""Batch front door: exit codes, artifact layout, reproducibility."""

import json

import pytest

from perfectsim import build_kernel, cli, prepare_coalescence


def _run(*argv):
    return cli.main(list(argv))


# --------------------------------------------------------------- happy paths


def test_sample_writes_csv_rows_and_a_summary(tmp_path):
    out = tmp_path / "draws"
    rc = _run(
        "sample",
        "--kernel",
        "autoregressive",
        "--reps",
        "40",
        "--seed",
        "3",
        "--k",
        "1",
        "--out",
        str(out),
    )
    assert rc == 0
    lines = (tmp_path / "draws.csv").read_text().splitlines()
    assert lines[0].startswith("# schema=1 config=")
    assert lines[1] == "replication,x[-1],x[0],abs_T,rounds,uniforms"
    assert len(lines) == 42
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] in "01" and first[2] in "01"

    summary = json.loads((tmp_path / "draws.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["replications"] == 40
    assert summary["config"]["kernel"] == "autoregressive"
    assert set(summary["marginal_newest"]) <= {"0", "1"}
    assert sum(summary["marginal_newest"].values()) == 40
    assert summary["mean_abs_T"] >= 0.0
    assert 0.0 <= summary["mean_x0"] <= 1.0


def test_sample_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "rerun"
    args = (
        "sample",
        "--kernel",
        "autoregressive",
        "--reps",
        "25",
        "--seed",
        "9",
        "--out",
        str(out),
    )
    assert _run(*args) == 0
    csv1 = (tmp_path / "rerun.csv").read_bytes()
    json1 = (tmp_path / "rerun.json").read_bytes()
    assert _run(*args) == 0
    assert (tmp_path / "rerun.csv").read_bytes() == csv1
    assert (tmp_path / "rerun.json").read_bytes() == json1


def test_sample_auxiliary_rows_leave_stopping_columns_empty(tmp_path):
    out = tmp_path / "aux"
    rc = _run(
        "sample",
        "--kernel",
        "flipflop",
        "--algo",
        "auxiliary",
        "--reps",
        "4",
        "--k",
        "2",
        "--out",
        str(out),
    )
    assert rc == 0
    lines = (tmp_path / "aux.csv").read_text().splitlines()
    assert lines[1] == "replication,x[-2],x[-1],x[0],abs_T,rounds,uniforms"
    assert lines[2] == "0,*,*,*,,,"


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "kernel": "autoregressive",
                "seed": 4,
                "reps": 30,
                "params": {"delta": 0.4, "theta": "geometric:0.5"},
            }
        )
    )
    out = tmp_path / "merged"
    rc = _run(
        "sample",
        "--config",
        str(cfg),
        "--reps",
        "10",
        "--param",
        "delta=0.25",
        "--out",
        str(out),
    )
    assert rc == 0
    summary = json.loads((tmp_path / "merged.json").read_text())
    assert summary["replications"] == 10  # flag beat the config value
    assert summary["config"]["params"]["delta"] == 0.25  # per-key merge
    assert summary["config"]["params"]["theta"] == "geometric:0.5"  # kept
    assert summary["config"]["seed"] == 4


def test_validate_reports_contract_checks(tmp_path):
    out = tmp_path / "val"
    rc = _run(
        "validate", "--kernel", "ladder", "--reps", "40", "--out", str(out)
    )
    assert rc == 0
    payload = json.loads((tmp_path / "val.json").read_text())
    assert payload["passed"] is True
    assert payload["trials"] == 40
    assert payload["violations"] == []


def test_analyze_markov_reports_structure(tmp_path):
    out = tmp_path / "cycle"
    rc = _run("analyze-markov", "--kernel", "cyclic4", "--out", str(out))
    assert rc == 0
    payload = json.loads((tmp_path / "cycle.json").read_text())
    assert payload["nhat"] == 1
    assert payload["n0"] == 2
    assert payload["n_closed_classes"] == 1
    assert payload["period"] == 1
    assert payload["n_states"] == 4
    assert payload["coupling"] == "shared"
    assert payload["phase1_agreement"] == prepare_coalescence(
        build_kernel("cyclic4", {})
    ).agreement
    assert payload["expected_windows"] == 1.0 / payload["phase1_agreement"]
    matrix = (tmp_path / "cycle-matrix.csv").read_text().splitlines()
    assert matrix[1].split(",")[0] == "from\\to"
    assert len(matrix) == 2 + 4  # comment, header, one row per window


def test_coupled_route_records_its_coupling(tmp_path):
    rc = _run(
        "sample",
        "--kernel",
        "cyclic4",
        "--algo",
        "algo2",
        "--reps",
        "5",
        "--out",
        str(tmp_path / "c4"),
    )
    assert rc == 0
    summary = json.loads((tmp_path / "c4.json").read_text())
    assert summary["coupling"] == "shared"
    # derived by hand in test_coupled_laws::test_cyclic4_agreement_is_one_sixth
    assert summary["phase1_agreement"] == pytest.approx(1 / 6, rel=0, abs=1e-12)
    assert summary["expected_windows"] == pytest.approx(6.0, rel=0, abs=1e-9)
    # the 5-cycle with these weights: the cumulative layout could never
    # make every past agree, the multigamma one can (test_coupled_laws
    # enumerates the exact agreement)
    argv = ["--kernel", "graph-walk", "--param", "graph=cycle:5"]
    argv += ["--param", "theta=list:0.5,0.3,0.2", "--out", str(tmp_path / "c5")]
    assert _run("analyze-markov", *argv) == 0
    payload = json.loads((tmp_path / "c5.json").read_text())
    assert payload["coupling"] == "shared" and payload["phase1_agreement"] > 0.05


def test_analyze_markov_reports_a_null_order_honestly(tmp_path):
    out = tmp_path / "ff"
    rc = _run("analyze-markov", "--kernel", "flipflop", "--out", str(out))
    assert rc == 0
    payload = json.loads((tmp_path / "ff.json").read_text())
    assert payload["nhat"] is None
    assert payload["n0"] is None
    assert payload["coupling"] is None
    assert payload["phase1_agreement"] is None
    assert payload["expected_windows"] is None
    assert len(payload["reports"]) == 6
    assert payload["n_closed_classes"] == 2  # order-1 fallback analysis


def test_diagnose_writes_all_tables(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "kernel": "autoregressive",
                "n_terms": 4,
                "window_w": 300,
                "renewal_h": 8,
                "horizon": 3,
            }
        )
    )
    out = tmp_path / "diag"
    rc = _run("diagnose", "--config", str(cfg), "--reps", "150", "--out", str(out))
    assert rc == 0
    payload = json.loads((tmp_path / "diag.json").read_text())
    assert payload["condition_report"]["rho_source"] == "closed-form"
    assert len(payload["condition_report"]["rho_values"]) == 4
    assert payload["renewal"]["window_w"] == 300
    assert payload["renewal"]["truncation_bias"] > 0.0
    rho = (tmp_path / "diag-rho.csv").read_text().splitlines()
    assert rho[1] == "n,rho,rho_tilde"
    assert len(rho) == 2 + 4
    tail = (tmp_path / "diag-tail.csv").read_text().splitlines()
    assert tail[1] == "n,exact_tail,mc_tail,mc_se"
    assert len(tail) == 2 + 4  # horizon 3 -> n = 0..3
    exact0 = float(tail[2].split(",")[1])
    assert exact0 == 0.5
    gaps = (tmp_path / "diag-gaps.csv").read_text().splitlines()
    assert gaps[1] == "half,gap"


# ---------------------------------------------------------------- exit codes


def test_unknown_kernel_is_a_config_error(capsys):
    assert _run("sample", "--kernel", "nonesuch") == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "config-error"


def test_overlong_decimal_literals_are_refused(tmp_path, capsys):
    rc = _run(
        "sample",
        "--kernel",
        "autoregressive",
        "--param",
        "delta=0.123456789012345678901",
        "--out",
        str(tmp_path / "x"),
    )
    assert rc == 2
    assert "decimal digits" in capsys.readouterr().err


def test_spontaneous_route_rejection_maps_to_exit_3(tmp_path, capsys):
    rc = _run(
        "sample",
        "--kernel",
        "flipflop",
        "--reps",
        "5",
        "--out",
        str(tmp_path / "ff"),
    )
    assert rc == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "assumption-violated"
    assert payload["type"] == "BetaZeroForAlgo1"


def test_round_budget_exhaustion_maps_to_exit_4(tmp_path, capsys):
    rc = _run(
        "sample",
        "--kernel",
        "cyclic4",
        "--algo",
        "algo2",
        "--reps",
        "2",
        "--max-rounds",
        "3",
        "--out",
        str(tmp_path / "c4"),
    )
    assert rc == 4
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "budget-exceeded"
    assert payload["type"] == "MaxRoundsExceeded"


def test_shared_budget_exhaustion_gives_the_expected_wait(tmp_path, capsys):
    # path:7 with list weights expects about 713 windows per draw (the
    # enumeration in test_coupled_laws gives its agreement): one warning
    # before the draws, then the cap of 20 runs out
    rc = _run(
        "sample",
        "--kernel",
        "graph-walk",
        "--param",
        "graph=path:7",
        "--param",
        "theta=list:0.5,0.3,0.2",
        "--algo",
        "algo2",
        "--reps",
        "1",
        "--max-rounds",
        "20",
        "--seed",
        "1",
        "--out",
        str(tmp_path / "path7"),
    )
    assert rc == 4
    warning, error = map(json.loads, capsys.readouterr().err.strip().splitlines())
    assert warning["warning"] == "expected-windows"
    assert warning["message"] == (
        "the plan expects about 713 windows per draw, more than the cap of 20 "
        "(--max-rounds)"
    )
    assert error["type"] == "MaxRoundsExceeded"
    assert error["message"].startswith("no coalescence within 20 windows; ")
    assert "agreement is 0.0014" in error["message"]
    assert "about 713 windows" in error["message"]


def test_expected_wait_warning_compares_with_the_cap(tmp_path, capsys):
    # cyclic4 expects 6 windows per draw: a cap of 7 draws no warning, a
    # cap of 5 one (no draws needed, the plan alone decides)
    argv = ["sample", "--kernel", "cyclic4", "--algo", "algo2", "--reps", "0"]
    assert _run(*argv, "--max-rounds", "7", "--out", str(tmp_path / "a")) == 0
    assert capsys.readouterr().err == ""
    assert _run(*argv, "--max-rounds", "5", "--out", str(tmp_path / "b")) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "warning": "expected-windows",
        "message": "the plan expects about 6 windows per draw, more than the "
        "cap of 5 (--max-rounds)",
    }


def test_plan_walk_budget_maps_to_exit_4(tmp_path, capsys):
    # graph-walk path:8 would visit about 7x the 96 306 cells of path:7;
    # the default budget stops its plan after a few seconds
    rc = _run(
        "analyze-markov",
        "--kernel",
        "graph-walk",
        "--param",
        "graph=path:8",
        "--param",
        "theta=geometric:0.5",
        "--out",
        str(tmp_path / "path8"),
    )
    assert rc == 4
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "budget-exceeded"
    assert payload["type"] == "ExplosionGuard"


@pytest.mark.parametrize("command", ["validate", "sample"])
def test_misspelled_kernel_parameter_is_a_config_error(tmp_path, capsys, command):
    argv = [command, "--kernel", "flipflop", "--param", "thetaa=geometric:0.9"]
    assert _run(*argv, "--out", str(tmp_path / "ff")) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-error"
    assert "takes no parameter thetaa" in payload["message"]
    assert not (tmp_path / "ff.json").exists()


@pytest.mark.parametrize(
    "kernel,param,want",
    [
        ("imitation", "c=0.3", {"c": (0.3,), "truncation": None}),
        ("imitation", "truncation=3", {"c": (0.3, 0.2), "truncation": 3}),
        ("autoregressive", "delta=1", {"theta": "geometric:0.5", "delta": 1.0}),
    ],
)
def test_numeric_kernel_parameters_parse_from_their_text(tmp_path, kernel, param, want):
    # the command line reads c=0.3 as a float; the kernel parses its text
    # instead of calling a string method on it and crashing
    assert _run("validate", "--kernel", kernel, "--param", param,
                "--out", str(tmp_path / "v")) == 0
    assert json.loads((tmp_path / "v.json").read_text())["passed"]
    assert build_kernel(kernel, cli._parse_params([param])).parameters == want


@pytest.mark.parametrize(
    "kernel,param",
    [
        ("three-letter-alternating", "restrict=0"),
        ("cyclic4", "theta=5"),
        ("autoregressive", "theta=list:nan"),
        ("imitation", "c=nan,0.2"),
        ("imitation", "c=0.3,nan"),
    ],
)
def test_kernel_parameters_without_a_reading_exit_2(tmp_path, capsys, kernel, param):
    # NaN weights used to pass every check, and sample ran until its cap
    rc = _run("sample", "--kernel", kernel, "--param", param, "--reps", "2",
              "--out", str(tmp_path / "x"))
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-error"
    assert payload["message"].startswith("bad kernel parameters: ")
    assert list(tmp_path.iterdir()) == []


def test_a_list_valued_config_parameter_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kernel": "imitation", "params": {"c": [0.3]}}))
    rc = _run("sample", "--config", str(config), "--out", str(tmp_path / "x"))
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["message"] == (
        "bad kernel parameters: c must be text or a number, got [0.3]"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_missing_kernel_is_a_config_error(capsys):
    assert _run("sample") == 2
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,argv,setting",
    [
        ("sample", ["--reps", "-2"], "reps"),
        ("sample", ["--k", "-1"], "k"),
        ("sample", ["--algo", "algo2", "--max-rounds", "-3"], "max_rounds"),
        ("diagnose", ["--horizon", "-2"], "horizon"),
        ("diagnose", ["--truncation", "-1"], "truncation"),
        ("sample", ["--seed", "-5"], "seed"),
    ],
    ids=["reps", "k", "max-rounds", "horizon", "truncation", "seed"],
)
def test_negative_integer_flags_are_config_errors(tmp_path, capsys, command, argv, setting):
    rc = _run(command, "--kernel", "cyclic4", *argv, "--out", str(tmp_path / "x"))
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-error"
    assert payload["message"].startswith(f"{setting} must be a non-negative integer")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "setting,value",
    [
        ("reps", "x"),
        ("reps", True),
        ("k", 1.0),
        ("max_rounds", -1),
        ("n_terms", -1),
        ("window_w", "2000"),
        ("renewal_h", [50]),
        ("budget", False),
        ("nhat_max", -6),
        ("n0_max", 2.5),
        ("seed", "x"),
        ("seed", True),
        ("seed", -5),
        ("seed", 1.5),
    ],
)
def test_bad_integer_config_values_are_config_errors(tmp_path, capsys, setting, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kernel": "cyclic4", setting: value}))
    rc = _run("diagnose", "--config", str(config), "--out", str(tmp_path / "x"))
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["message"] == (
        f"{setting} must be a non-negative integer, got {value!r}"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["sample", "diagnose"])
@pytest.mark.parametrize("params", [[1], "delta=0.3", 5, None])
def test_non_object_config_params_are_config_errors(tmp_path, capsys, command, params):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kernel": "autoregressive", "params": params}))
    rc = _run(command, "--config", str(config), "--out", str(tmp_path / "x"))
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-error"
    assert payload["message"] == f"params must be a JSON object, got {params!r}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["sample", "diagnose"])
@pytest.mark.parametrize(
    "config,argv,value",
    [
        ({"out": None}, [], None),
        ({"out": ["a"]}, [], ["a"]),
        ({"out": ""}, [], ""),
        ({"out": 5}, [], 5),
        ({}, ["--out", ""], ""),
    ],
    ids=["null", "list", "empty", "int", "empty-flag"],
)
def test_bad_out_values_are_config_errors(
    tmp_path, monkeypatch, capsys, command, config, argv, value
):
    # out is the stem of every artifact's file name; a bad one used to name
    # files None.csv, ['a'].csv or the hidden .csv and exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"kernel": "cyclic4", **config}))
    assert _run(command, "--config", "cfg.json", *argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config-error"
    assert payload["message"] == f"out must be a non-empty string, got {value!r}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_a_round_cap_of_zero_is_honoured(tmp_path, capsys):
    # 0 is a cap, not "use the default": the first draw that needs a
    # second window stops the run
    argv = ["sample", "--kernel", "cyclic4", "--algo", "algo2", "--reps", "20"]
    assert _run(*argv, "--max-rounds", "0", "--out", str(tmp_path / "c4")) == 4
    err = capsys.readouterr().err.strip().splitlines()
    warning, error = map(json.loads, err)
    assert warning["message"].endswith("more than the cap of 0 (--max-rounds)")
    assert error["message"].startswith("no coalescence within 0 windows; ")
