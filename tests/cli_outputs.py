"""Write every CLI output this checkout produces into one directory.

    python tests/cli_outputs.py OUTDIR

Runs the CLI of the `src/` next to this file, one process per command, with
OUTDIR as the working directory and relative --out/--summary paths, so
that the `out=` lines name the same files in any checkout.  For each
command it keeps the output files it writes and `<name>.stdout`,
`<name>.stderr` and `<name>.code` (the exit code).  Two checkouts give
the same CLI bytes when `diff -r` of their directories is empty.

Covered: `run` for every scenario x model at its default parameters, a
short `study` (2D and clutter) and `sweep`, `validate` for lagged,
similar, sap and naive (in 2D for lagged_regularized and naive, and at
another sample count and seed for similar), every `--help`, a
config-file run, config and flag errors, and a solver failure.  It takes
about two minutes on one core.  Not collected by pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = ("belt", "falling_sphere", "sliding_rod", "clutter")
MODELS = ("lagged", "lagged_regularized", "similar", "sap")

CONFIGS = {
    "good.cfg": "# a short belt run\nscenario = belt\nmodel = sap\nduration = 0.5\nmu = 0.6\n",
    "unknown_key.cfg": "scenario = belt\nbogus = 1\n",
    "bad_value.cfg": "scenario = belt\ndt = fast\n",
    "no_scenario.cfg": "model = lagged\n",
}


def commands() -> dict:
    """Output name -> CLI arguments."""
    cmds = {}
    for scenario in SCENARIOS:
        for model in MODELS:
            name = f"run_{scenario}_{model}"
            cmds[name] = ["run", "--scenario", scenario, "--model", model,
                          "--out", f"{name}.csv", "--summary", f"{name}.txt"]
    cmds["study_falling_sphere"] = [
        "study", "--scenario", "falling_sphere", "--models", "lagged,similar,sap",
        "--dts", "0.004,0.002", "--duration", "0.1",
        "--out", "study_falling_sphere.csv", "--summary", "study_falling_sphere.txt"]
    cmds["study_clutter"] = [
        "study", "--scenario", "clutter", "--n-bodies", "4", "--models", "lagged,sap",
        "--dts", "0.004,0.002", "--duration", "0.1",
        "--out", "study_clutter.csv", "--summary", "study_clutter.txt"]
    cmds["sweep_clutter"] = [
        "sweep", "--scenario", "clutter", "--n-bodies", "4", "--duration", "0.4",
        "--parameter", "stiffness", "--values", "1e6,1e7", "--models", "lagged,similar",
        "--tail", "0.2", "--out", "sweep_clutter.csv", "--summary", "sweep_clutter.txt"]
    for field in ("lagged", "similar", "sap", "naive"):
        cmds[f"validate_{field}"] = ["validate", "--model", field,
                                     "--summary", f"validate_{field}.txt"]
    for field in ("lagged_regularized", "naive"):
        cmds[f"validate_{field}_2d"] = ["validate", "--model", field, "--dim", "2",
                                        "--summary", f"validate_{field}_2d.txt"]
    cmds["validate_similar_seed"] = ["validate", "--model", "similar", "--samples", "3000",
                                     "--seed", "17", "--summary", "validate_similar_seed.txt"]
    cmds["help"] = ["--help"]
    for command in ("run", "study", "sweep", "validate"):
        cmds[f"help_{command}"] = [command, "--help"]
    cmds["config_run"] = ["run", "--config", "good.cfg", "--dt", "0.005",
                          "--out", "config_run.csv", "--summary", "config_run.txt"]
    for cfg in ("unknown_key", "bad_value", "no_scenario"):
        cmds[f"error_{cfg}"] = ["run", "--config", f"{cfg}.cfg"]
    cmds["error_missing_config"] = ["run", "--config", "absent.cfg"]
    cmds["error_bad_flag"] = ["run", "--scenario", "belt", "--bogus", "1"]
    cmds["error_bad_flag_value"] = ["run", "--scenario", "belt", "--dt", "fast"]
    cmds["error_bad_choice"] = ["run", "--scenario", "belt", "--model", "Lagged"]
    cmds["error_negative_dt"] = ["run", "--scenario", "belt", "--dt", "-0.01"]
    cmds["error_solver_failure"] = ["run", "--scenario", "belt", "--dt", "1e300",
                                    "--duration", "1e300", "--out", "failure.csv"]
    return cmds


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        (out / name).write_text(text, encoding="utf-8")
    # One BLAS thread and a fixed help width, whatever the shell sets.
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80", IRC_THREADS="2",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for name, args in commands().items():
        proc = subprocess.run([sys.executable, "-m", "convexcontact.cli", *args],
                              cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(proc.stdout)
        (out / f"{name}.stderr").write_bytes(proc.stderr)
        (out / f"{name}.code").write_text(f"{proc.returncode}\n", encoding="utf-8")
        print(f"{name}: exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
