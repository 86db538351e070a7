"""Command-line entry point: scenarios, studies, sweeps and validation.

Subcommands
    run       one scenario -> trajectory CSV + key=value summary
    study     convergence study over a ladder of step sizes -> table CSV
    sweep     stiffness / step-size sweeps over the clutter scenario
    validate  potential-existence checks -> key=value report

Configs are flat key=value text files whose keys are exactly the
`ScenarioSpec` fields, each also a flag (--tau-d for tau_d) and read as the
field's type (str, int, else float); flags override file entries, unknown
keys are rejected, and the output paths (--out, --summary) are flags only.
Every run's effective configuration is echoed into the summary header.
CSV files carry a header row first and print floats with 17 significant
digits, so values round-trip exactly and identical invocations produce
byte-identical outputs.  Exit codes: 0 success, 1 solver non-convergence,
2 configuration error.  The IRC_THREADS environment variable caps the
sweep worker pool.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import tempfile
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np

from . import analysis, validation
from .batch import MODEL_IDS, model_id
from .scenarios import CHANNELS, SCENARIO_IDS, ScenarioSpec, ScenarioError, run_scenario

SCHEMA_VERSION = 1

_HINTS = get_type_hints(ScenarioSpec)
# ScenarioSpec's fields in order, each with the type of its flag and config entry.
_SPEC_TYPES = {f.name: _HINTS[f.name] if _HINTS[f.name] in (str, int) else float
               for f in fields(ScenarioSpec)}
_CHOICES = {"scenario": SCENARIO_IDS, "model": MODEL_IDS}


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def read_config(path: str) -> dict:
    """Parse a flat key=value file; blank lines and # comments allowed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from err
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SPEC_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        return _SPEC_TYPES[key](value)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from err


def _spec_from(args, file_cfg: dict) -> ScenarioSpec:
    merged = dict(file_cfg)
    for key in _SPEC_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if "scenario" not in merged:
        raise ConfigError("missing required parameter: scenario")
    kwargs = {k: _coerce(k, v) for k, v in merged.items()}
    return _checked(ScenarioSpec, **kwargs)


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs); a rejected value is a config error."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _floats(flag: str, text: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"{flag}: {err}") from err


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _csv(rows: list, header: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _summary_text(title: str, config: dict, results: dict, legend: dict | None = None) -> str:
    lines = [f"# convexcontact {title}", f"schema_version={SCHEMA_VERSION}"]
    for key in sorted(config):
        lines.append(f"config.{key}={_fmt(config[key])}")
    for key, value in results.items():
        lines.append(f"{key}={_fmt(value)}")
    if legend:
        for key in sorted(legend):
            lines.append(f"{key}={legend[key]}")
    return "\n".join(lines) + "\n"


def _emit_summary(text: str, path) -> None:
    if path:
        _atomic_write(path, text)
    sys.stdout.write(text)


def cmd_run(args) -> int:
    spec = _spec_from(args, read_config(args.config) if args.config else {})
    traj = run_scenario(spec)

    header, columns = ["t"], [traj.step_times]
    for name, _, q, v, labels in traj.body_rows():
        header += [f"{name}_{label}" for label in labels]
        columns += [*q[1:].T, *v[1:].T]
    for i, _ in enumerate(traj.keys):
        for chan in CHANNELS:
            header.append(f"c{i}_{chan}")
            columns.append(getattr(traj, chan)[:, i])
    header += ["iters", "cond", "cost"]
    columns += [traj.iterations, traj.condition_number, traj.cost]
    rows = list(zip(*columns))
    if args.out:
        _atomic_write(args.out, _csv(rows, header))

    ke = traj.kinetic_energy()
    legend = {f"contact.c{i}": f"bodies({k[0]},{k[1]})/feature{k[2]}" for i, k in enumerate(traj.keys)}
    summary = _summary_text("run summary", spec.as_dict(), {
        "steps": traj.iterations.size,
        "contacts_tracked": len(traj.keys),
        "mean_iterations": float(traj.iterations.mean()) if traj.iterations.size else 0.0,
        "final_kinetic_energy": float(ke[-1]),
        "stop_criterion": "momentum_residual_relative",
        "rel_tol": traj.rel_tol,
        "out": args.out or "",
    }, legend)
    _emit_summary(summary, args.summary)
    return 0


def cmd_study(args) -> int:
    spec = _spec_from(args, read_config(args.config) if args.config else {})
    models = [m.strip() for m in args.models.split(",")]
    for model in models:
        _checked(model_id, model)
    dts = _floats("--dts", args.dts)
    for dt in dts:  # reject a bad step size before any run
        _checked(replace, spec, dt=dt)
    _checked(analysis.reference_spec, spec, dts)  # and the reference step, min(dts) / 10
    if args.horizon is not None and not args.horizon >= max(dts):
        raise ConfigError(f"--horizon {args.horizon} is shorter than the step {max(dts)}")
    ref = analysis.get_reference(spec, dts)

    rows = []
    results = {}
    for model in models:
        study = analysis.convergence_study(replace(spec, model=model), dts,
                                           horizon=args.horizon, ref=ref)
        for dt, err in study.rows:
            rows.append((model, dt, err, study.order))
        results[f"order.{model}"] = study.order
        for i, pair in enumerate(study.pair_orders):
            results[f"pair_order.{model}.{i}"] = pair
    results["ref_dt"] = ref.spec.dt
    if args.out:
        _atomic_write(args.out, _csv(rows, ["model", "dt", "e_q", "fitted_order"]))
    _emit_summary(_summary_text("study summary", spec.as_dict(), results), args.summary)
    return 0


def _sweep_entry(payload):
    spec, tail = payload
    with np.errstate(all="ignore"):  # a worker process has its own error state
        traj = run_scenario(spec)
        return analysis.clutter_metrics(traj, tail=tail), analysis.phase_steps(traj)


def cmd_sweep(args) -> int:
    spec = _spec_from(args, read_config(args.config) if args.config else {})
    if spec.scenario != "clutter":
        raise ConfigError("sweep supports the clutter scenario")
    if args.parameter not in ("stiffness", "dt"):
        raise ConfigError("sweep parameter must be 'stiffness' or 'dt'")
    values = _floats("--values", args.values)
    models = [m.strip() for m in args.models.split(",")]

    jobs = [(_checked(replace, spec, model=model, **{args.parameter: value}), args.tail)
            for model in models for value in values]
    if not 0.0 <= args.tail <= spec.duration:
        raise ConfigError(f"--tail {args.tail} must lie within the run's duration")
    try:
        workers = int(os.environ.get("IRC_THREADS", "0")) or (os.cpu_count() or 1)
    except ValueError as err:
        raise ConfigError(f"IRC_THREADS: {err}") from err
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, jobs))
    else:
        results = [_sweep_entry(job) for job in jobs]
    metrics = [m for m, _ in results]
    # The phases' step counts depend on dt alone: one per --values entry.
    steps = [s for _, s in results[:len(values)]]

    metric_keys = list(metrics[0])  # clutter_metrics' key order
    rows = []
    for (job, _), m in zip(jobs, metrics):
        rows.append((job.model, getattr(job, args.parameter), *(m[k] for k in metric_keys)))
    if args.out:
        _atomic_write(args.out, _csv(rows, ["model", args.parameter, *metric_keys]))
    _emit_summary(_summary_text("sweep summary", spec.as_dict(),
                                {"entries": len(rows), "parameter": args.parameter,
                                 "phase_boundary": analysis.PHASE_BOUNDARY,
                                 "impact_steps": ",".join(str(i) for i, _ in steps),
                                 "settled_steps": ",".join(str(s) for _, s in steps),
                                 "out": args.out or ""}), args.summary)
    return 0


def cmd_validate(args) -> int:
    if args.model not in validation.FIELD_IDS:
        raise ConfigError(f"unknown model/field {args.model!r}")
    data = validation.canonical_data(dim=args.dim)
    spec = _checked(validation.SamplingSpec, samples=args.samples, seed=args.seed)
    results = {}
    if args.model == "naive":
        report = validation.check_curl("naive", data, replace(spec, regime="sliding"))
        results.update({f"curl.{k}": v for k, v in report.as_dict().items()})
    else:
        for name, check in (("gradient", validation.check_gradient),
                            ("curl", validation.check_curl),
                            ("psd", validation.check_psd)):
            report = check(args.model, data, spec)
            results.update({f"{name}.{k}": v for k, v in report.as_dict().items()})
    config = {"model": args.model, "samples": args.samples, "seed": args.seed, "dim": args.dim}
    _emit_summary(_summary_text("validate report", config, results), args.summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexcontact",
        description="Convex contact models: scenarios, studies, sweeps, validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--config", help="flat key=value parameter file")
        for name, kind in _SPEC_TYPES.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                           choices=_CHOICES.get(name))
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--summary", help="summary text path (stdout either way)")

    p_run = sub.add_parser("run", help="run one scenario")
    add_spec_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="convergence study over step sizes")
    add_spec_flags(p_study)
    p_study.add_argument("--models", default="lagged",
                         help="comma-separated model ids")
    p_study.add_argument("--dts", required=True, help="comma-separated step sizes")
    p_study.add_argument("--horizon", type=float, default=None,
                         help="error integration horizon (default: run duration)")
    p_study.set_defaults(func=cmd_study)

    p_sweep = sub.add_parser("sweep", help="clutter metric sweeps")
    add_spec_flags(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=("stiffness", "dt"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--models", default="lagged")
    p_sweep.add_argument("--tail", type=float, default=1.25)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="potential-existence checks")
    p_val.add_argument("--model", required=True)
    p_val.add_argument("--samples", type=int, default=10_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--dim", type=int, default=3, choices=(2, 3))
    p_val.add_argument("--summary", help="summary text path")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every value that reaches an output is checked for finiteness, and a
        # failure is reported on one line; numpy's floating-point warnings
        # would only print ahead of it.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ScenarioError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
