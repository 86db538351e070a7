import math

import pytest

from convexcontact.cli import main, read_config


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    summary = tmp_path / "sum.txt"
    code, stdout = run_cli([
        "run", "--scenario", "falling_sphere", "--model", "lagged",
        "--dt", "0.002", "--duration", "0.1",
        "--out", str(out), "--summary", str(summary)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "disk_x" in header and "disk_vy" in header
    assert "c0_f_n" in header and "c0_eps_s" in header and "iters" in header
    assert len(lines) == 1 + 50  # header + steps
    text = summary.read_text()
    assert "config.scenario=falling_sphere" in text
    assert "config.stiffness=10000000" in text
    assert "schema_version=1" in text
    assert stdout == text  # summary mirrored to stdout


def test_csv_round_trips_17_digits(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _ = run_cli(["run", "--scenario", "falling_sphere", "--dt", "0.002",
                       "--duration", "0.05", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("disk_vy")
    value = float(lines[10].split(",")[col])
    assert "%.17g" % value == lines[10].split(",")[col]


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    args = ["run", "--scenario", "falling_sphere", "--dt", "0.002", "--duration", "0.1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = falling_sphere\nmodel = lagged\ndt = 0.002\n"
                   "# a comment\nduration = 0.05\n")
    code, stdout = run_cli(["run", "--config", str(cfg), "--mu", "0.3"], capsys)
    assert code == 0
    assert "config.mu=0.29999999999999999" in stdout or "config.mu=0.3" in stdout


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = belt\nwarp_factor = 9\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


def test_missing_scenario_is_config_error(capsys):
    assert run_cli(["run", "--model", "lagged"], capsys)[0] == 2


@pytest.mark.parametrize("flag,value", [("--dt", "-1"), ("--n-bodies", "0"),
                                        ("--duration", "0"), ("--seed", "-1")])
def test_bad_config_value_exits_2(flag, value, capsys):
    code = main(["run", "--scenario", "clutter", flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--v-s", "0"], ["--sigma", "-1"], ["--dissipation", "-1"],
    ["--model", "sap", "--tau-d", "nan"], ["--margin", "-1"],
    ["--dt", "0.5", "--duration", "0.1"]], ids=lambda args: args[-2])
def test_bad_spec_field_exits_2(args, capsys):
    code = main(["run", "--scenario", "falling_sphere", *args])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("args,threads", [
    (["sweep", "--scenario", "clutter", "--parameter", "stiffness", "--values", "-1",
      "--duration", "0.01"], None),
    (["study", "--scenario", "falling_sphere", "--dts", "-1"], None),
    (["study", "--scenario", "falling_sphere", "--dts", "0.01,0.02", "--horizon", "0.01"], None),
    (["sweep", "--scenario", "clutter", "--parameter", "dt", "--values", "0.005",
      "--duration", "0.02", "--tail", "0.1"], None),
    (["sweep", "--scenario", "clutter", "--parameter", "dt", "--values", "0.005",
      "--duration", "0.02", "--tail", "0.01"], "x"),
    (["validate", "--model", "lagged", "--samples", "0"], None),
    (["validate", "--model", "naive", "--seed", "-1"], None)],
    ids=["sweep", "study", "study-horizon", "sweep-tail", "sweep-threads",
         "validate-samples", "validate-seed"])
def test_bad_sweep_or_study_value_exits_2(args, threads, capsys, monkeypatch):
    if threads is not None:
        monkeypatch.setenv("IRC_THREADS", threads)
    code = main(args)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_extreme_stiffness_writes_only_finite_values(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["run", "--scenario", "falling_sphere", "--stiffness", "1e300",
                 "--out", str(out)])
    if code == 1:
        assert "solver failure: step " in capsys.readouterr().err
        return
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows and all(math.isfinite(float(x)) for row in rows for x in row)


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "belt", "--bogus", "1"])
    assert err.value.code == 2


def test_solver_failure_exit_code(capsys, tmp_path):
    # An absurd stiffness with a huge dt forces non-convergence... instead,
    # use max duration with a tiny max-iteration budget via a scenario that
    # cannot converge: duration long enough to reach contact with dt too
    # coarse for the barrier-free solve is hard to trigger; patch rel_tol
    # through a scenario that fails fast: clutter with k so large the
    # first impact step cannot be solved in 100 iterations is not reliable
    # either, so exercise the error path directly.
    from convexcontact import cli
    from convexcontact.scenarios import ScenarioError

    def boom(spec):
        raise ScenarioError("step 3 did not converge")

    orig = cli.run_scenario
    cli.run_scenario = boom
    try:
        code = main(["run", "--scenario", "belt"])
    finally:
        cli.run_scenario = orig
    assert code == 1
    assert "step 3" in capsys.readouterr().err


def test_solver_failure_reports_step_index(capsys, monkeypatch):
    from convexcontact import scenarios
    from convexcontact.solver import SolverFailure

    def fail(problem, opts):
        raise SolverFailure("non-finite cost gradient")

    monkeypatch.setattr(scenarios, "solve_step", fail)
    code = main(["run", "--scenario", "falling_sphere", "--duration", "0.01"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: step 0 ") and "non-finite" in err
    assert "Traceback" not in err


def test_study_outputs_orders(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, stdout = run_cli([
        "study", "--scenario", "falling_sphere", "--models", "lagged",
        "--dts", "0.002,0.01", "--duration", "0.1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "model,dt,e_q,fitted_order"
    assert len(lines) == 3
    assert "order.lagged=" in stdout
    assert "ref_dt=0.00020000000000000001" in stdout


def test_sweep_runs_entries(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IRC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    code, stdout = run_cli([
        "sweep", "--scenario", "clutter", "--parameter", "dt",
        "--values", "0.005", "--models", "lagged", "--duration", "0.2",
        "--n-bodies", "4", "--tail", "0.1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("model,dt,mean_penetration")
    assert len(lines) == 2
    assert "entries=1" in stdout


def test_sweep_rejects_non_clutter(capsys):
    code = main(["sweep", "--scenario", "belt", "--parameter", "dt", "--values", "0.01"])
    assert code == 2


def test_validate_report(capsys):
    code, stdout = run_cli(["validate", "--model", "similar", "--samples", "200",
                            "--seed", "7"], capsys)
    assert code == 0
    assert "gradient.max_gradient_error=" in stdout
    assert "curl.max_curl_asymmetry=" in stdout
    assert "psd.min_scaled_eigenvalue=" in stdout
    for line in stdout.splitlines():
        if line.startswith("gradient.max_gradient_error"):
            assert float(line.split("=")[1]) < 1e-6


def test_validate_naive_negative_control(capsys):
    code, stdout = run_cli(["validate", "--model", "naive", "--samples", "150"], capsys)
    assert code == 0
    for line in stdout.splitlines():
        if line.startswith("curl.max_curl_asymmetry"):
            assert float(line.split("=")[1]) > 1e-2


def test_read_config_strictness(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scenario belt\n")
    with pytest.raises(Exception):
        read_config(str(cfg))


def test_sweep_worker_pool(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IRC_THREADS", "2")
    out = tmp_path / "sweep.csv"
    code, _ = run_cli([
        "sweep", "--scenario", "clutter", "--parameter", "stiffness",
        "--values", "1e6,1e8", "--models", "lagged", "--duration", "0.2",
        "--n-bodies", "4", "--tail", "0.1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    # Rows in submission order, higher stiffness -> smaller penetration.
    first = float(lines[1].split(",")[2])
    second = float(lines[2].split(",")[2])
    assert first > second
