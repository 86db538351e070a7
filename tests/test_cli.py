import contextlib
import io
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import convexcontact
from convexcontact.cli import main, read_config
from convexcontact.batch import MODEL_IDS
from convexcontact.scenarios import SCENARIO_IDS, ScenarioSpec


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


def test_unknown_config_key_rejected(tmp_path, capsys, monkeypatch):
    # Config keys are the ScenarioSpec fields; output paths are flags only.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    for key, value in [("warp_factor", "9"), ("out", "x.csv"), ("summary", "s.txt")]:
        cfg.write_text(f"scenario = belt\n{key} = {value}\n")
        code = main(["run", "--config", str(cfg), "--duration", "0.01"])
        assert code == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "s.txt").exists()


def test_missing_scenario_is_config_error(capsys):
    assert run_cli(["run", "--model", "lagged"], capsys)[0] == 2


@pytest.mark.parametrize("flag,value", [("--dt", "-1"), ("--n-bodies", "0"),
                                        ("--duration", "0"), ("--seed", "-1"),
                                        ("--config", "seed=abc"), ("--config", "dt=fast"),
                                        ("--config", "n_bodies=2.5"), ("--config", "mu=\xe9"),
                                        ("--config", ".")])
def test_bad_config_value_exits_2(flag, value, capsys, tmp_path):
    if flag == "--config" and value != ".":  # the file's text; "." is a directory
        (tmp_path / "bad.cfg").write_text(value + "\n", encoding="latin-1")
        value = str(tmp_path / "bad.cfg")
    code = main(["run", "--scenario", "clutter", flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--v-s", "0"], ["--sigma", "-1"], ["--dissipation", "-1"],
    ["--model", "sap", "--tau-d", "nan"], ["--margin", "-1"],
    ["--dt", "0.5", "--duration", "0.1"], ["--duration", "1e10", "--dt", "1e-300"]],
    ids=lambda args: args[-2])
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
    (["study", "--scenario", "falling_sphere", "--dts", "1e-323", "--dt", "1e-323",
      "--duration", "1e-323"], None),
    (["sweep", "--scenario", "clutter", "--parameter", "dt", "--values", "0.005",
      "--duration", "0.02", "--tail", "0.1"], None),
    (["sweep", "--scenario", "clutter", "--parameter", "dt", "--values", "0.005",
      "--duration", "0.02", "--tail", "0.01"], "x"),
    (["validate", "--model", "lagged", "--samples", "0"], None),
    (["validate", "--model", "naive", "--seed", "-1"], None)],
    ids=["sweep", "study", "study-horizon", "study-reference-step", "sweep-tail",
         "sweep-threads", "validate-samples", "validate-seed"])
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


@pytest.mark.parametrize("args", [
    ["--scenario", "falling_sphere", "--dt", "1e-300", "--duration", "3e-300"],
    ["--scenario", "belt", "--dt", "1e300", "--duration", "1e300"],
    ["--scenario", "belt", "--dt", "1e308", "--duration", "1e308"]],
    ids=["overflowing-cost", "non-finite-newton-matrix", "infinite-belt-phase"])
def test_non_finite_step_exits_1(args, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["run", *args, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: step ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run", "--scenario", "falling_sphere", "--dt", "1e-300", "--duration", "3e-300"],
    # Two jobs on two workers: the overflow happens in a worker process.
    ["sweep", "--scenario", "clutter", "--n-bodies", "2", "--parameter", "dt",
     "--values", "1e-300", "--dt", "1e-300", "--duration", "3e-300", "--models", "lagged,sap",
     "--tail", "0"]], ids=["run", "sweep"])
def test_float_warnings_stay_off_stderr(args, tmp_path):
    # In a fresh interpreter, with Python's default warning filters: numpy's
    # overflow warnings would print ahead of the one-line failure message.
    src = os.path.dirname(os.path.dirname(convexcontact.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "IRC_THREADS": "2"}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "convexcontact.cli", *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith("solver failure: step 0")
    assert "RuntimeWarning" not in proc.stderr


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
    # 40 steps, all before the phase boundary: the settled columns read nan,
    # and the summary says why.
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["mean_iterations_settled"] == "nan"
    assert "\nphase_boundary=2\nimpact_steps=40\nsettled_steps=0\n" in stdout


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
    code, stdout = run_cli([
        "sweep", "--scenario", "clutter", "--parameter", "stiffness",
        "--values", "1e6,1e8", "--models", "lagged", "--duration", "0.2",
        "--n-bodies", "4", "--tail", "0.1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "\nimpact_steps=100,100\nsettled_steps=0,0\n" in stdout
    # Rows in submission order, higher stiffness -> smaller penetration.
    first = float(lines[1].split(",")[2])
    second = float(lines[2].split(",")[2])
    assert first > second


# Values at the CLI boundary: each field takes one of its valid values (None
# leaves an optional field out of the config file), and up to three fields
# take an extreme.
_VALID = {
    "scenario": SCENARIO_IDS,
    "model": MODEL_IDS,
    "dt": (1e-5, 2e-3, 1e-2),
    "stiffness": (1e5, 1e7, 1e9),
    "dissipation": (0.0, 10.0, 500.0),
    "tau_d": (0.0, 1e-4, 1e-3),
    "mu": (0.0, 0.5, 2.3),
    "v_s": (1e-4, 1e-2),
    "sigma": (1e-3, 0.1),
    "seed": (0, 7),
    "n_bodies": (1, 4, 12),
    "margin": (0.0, 0.03, 0.1),
}
# The two finite extremes are drawn as often as all the rejected values.
_EXTREMES = st.one_of(st.sampled_from((1e300, 1e-300)),
                      st.sampled_from((math.nan, math.inf, -math.inf, 0, -1, -1e300, 10 ** 400)))


@st.composite
def _spec_fields(draw):
    fields = {key: draw(st.sampled_from(valid if key == "scenario" else (None, *valid)))
              for key, valid in _VALID.items()}
    for key in draw(st.lists(st.sampled_from(list(_VALID)), max_size=3, unique=True)):
        fields[key] = draw(_EXTREMES)
    return fields


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(fields=_spec_fields(), steps=st.floats(1.0, 3.0))
def test_run_boundary_property(fields, steps, tmp_path_factory):
    """Any spec exits 0, 1 or 2 without a traceback, and exit 0 writes a CSV
    whose only non-finite cells are the NaN channels of absent contacts.
    The duration is `steps` times dt, so no example runs more than 3 steps."""
    folder = tmp_path_factory.mktemp("boundary")
    dt = fields["dt"]
    if dt is None and fields["scenario"] in SCENARIO_IDS:
        dt = ScenarioSpec(fields["scenario"]).dt
    # An int dt is 0, -1 or 10**400, all rejected whatever the duration.
    fields["duration"] = steps * dt if isinstance(dt, float) else steps
    cfg, out = folder / "run.cfg", folder / "run.csv"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()
                           if value is not None))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", str(cfg), "--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 1, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        header, *lines = out.read_text().splitlines()
        table = np.array([line.split(",") for line in lines], dtype=float)
        channels = np.array([re.fullmatch(r"c\d+_\w+", name) is not None
                             for name in header.split(",")])
        # A contact absent at a step is NaN in all six of its channel
        # columns; every other cell is finite.
        absent = np.isnan(table[:, channels]).reshape(len(table), -1, 6)
        assert lines and (absent.all(axis=2) | ~absent.any(axis=2)).all(), fields
        assert not np.isinf(table).any() and np.isfinite(table[:, ~channels]).all(), fields
